use dpss_units::{Energy, SlotClock};

use crate::randutil::subseed;
use crate::{DemandModel, PriceModel, SolarModel, TraceError, TraceSet, WindModel, WorkloadModel};

/// One-stop generator for a consistent [`TraceSet`]: demand, renewables and
/// the two market price series.
///
/// The default [`Scenario::icdcs13`] mirrors the paper's evaluation inputs
/// (one month of solar, NYISO-like prices, Google-cluster-like demand:
/// synthetic stand-ins, since the paper's datasets cannot ship with the
/// repository). Wind is available as an extension and is disabled by
/// default to match the paper.
///
/// # Examples
///
/// ```
/// use dpss_traces::{Scenario, WindModel};
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::icdcs13_month();
/// // Paper setup.
/// let base = Scenario::icdcs13().generate(&clock, 42)?;
/// // Extension: add a wind farm on the same circuit.
/// let windy = Scenario::icdcs13()
///     .with_wind(WindModel::icdcs13())
///     .generate(&clock, 42)?;
/// assert!(windy.total_renewable() > base.total_renewable());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    solar: SolarModel,
    wind: Option<WindModel>,
    price: PriceModel,
    demand: DemandModel,
    workload: Option<WorkloadModel>,
}

impl Scenario {
    /// The paper's evaluation setup (§VI-A).
    #[must_use]
    pub fn icdcs13() -> Self {
        Scenario {
            solar: SolarModel::icdcs13(),
            wind: None,
            price: PriceModel::icdcs13(),
            demand: DemandModel::icdcs13(),
            workload: None,
        }
    }

    /// A wind-dominant site (extension): a small solar array plus a 2 MW
    /// wind farm — around-the-clock but gustier renewables. Useful for
    /// studying how the controller copes without the solar diurnal cycle.
    #[must_use]
    pub fn windy_plains() -> Self {
        Scenario {
            solar: SolarModel::icdcs13().with_capacity(dpss_units::Power::from_mw(0.5)),
            wind: Some(crate::WindModel::icdcs13().with_capacity(dpss_units::Power::from_mw(2.0))),
            price: PriceModel::icdcs13(),
            demand: DemandModel::icdcs13(),
            workload: None,
        }
    }

    /// Replaces the solar model.
    #[must_use]
    pub fn with_solar(mut self, solar: SolarModel) -> Self {
        self.solar = solar;
        self
    }

    /// Adds (or replaces) a wind farm on the renewable circuit.
    #[must_use]
    pub fn with_wind(mut self, wind: WindModel) -> Self {
        self.wind = Some(wind);
        self
    }

    /// Removes the wind farm.
    #[must_use]
    pub fn without_wind(mut self) -> Self {
        self.wind = None;
        self
    }

    /// Replaces the price model.
    #[must_use]
    pub fn with_price(mut self, price: PriceModel) -> Self {
        self.price = price;
        self
    }

    /// Replaces the demand model.
    #[must_use]
    pub fn with_demand(mut self, demand: DemandModel) -> Self {
        self.demand = demand;
        self
    }

    /// Adds (or replaces) a request-arrival workload stream. Scenarios
    /// with a workload generate [`TraceSet::arrivals`].
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadModel) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Removes the workload stream.
    #[must_use]
    pub fn without_workload(mut self) -> Self {
        self.workload = None;
        self
    }

    /// The workload model, if one is attached (read access for harnesses).
    #[must_use]
    pub fn workload(&self) -> Option<&WorkloadModel> {
        self.workload.as_ref()
    }

    /// The demand model (read access for experiment harnesses).
    #[must_use]
    pub fn demand(&self) -> &DemandModel {
        &self.demand
    }

    /// The price model (read access for experiment harnesses).
    #[must_use]
    pub fn price(&self) -> &PriceModel {
        &self.price
    }

    /// Generates all series, deterministically in `(self, clock, seed)`.
    /// Component generators receive decorrelated sub-seeds, so changing the
    /// master seed changes everything while keeping components independent.
    ///
    /// # Errors
    ///
    /// Propagates any model misconfiguration and trace validation errors.
    pub fn generate(&self, clock: &SlotClock, seed: u64) -> Result<TraceSet, TraceError> {
        self.generate_with_market_seed(clock, seed, seed)
    }

    /// [`Scenario::generate`] with the market price series seeded
    /// independently of the site-local series.
    ///
    /// Multi-datacenter sweeps run every site on its own demand/renewable
    /// realization but in *one* shared electricity market: passing the
    /// same `market_seed` (and price model) to every site while varying
    /// `seed` produces exactly that. `generate(clock, s)` is equivalent to
    /// `generate_with_market_seed(clock, s, s)`, so single-site artifacts
    /// are untouched by this split.
    ///
    /// # Errors
    ///
    /// Propagates any model misconfiguration and trace validation errors.
    pub fn generate_with_market_seed(
        &self,
        clock: &SlotClock,
        seed: u64,
        market_seed: u64,
    ) -> Result<TraceSet, TraceError> {
        let demand = self.demand.generate(clock, subseed(seed, 1))?;
        let mut renewable = self.solar.generate(clock, subseed(seed, 2))?;
        if let Some(wind) = &self.wind {
            let wind_trace = wind.generate(clock, subseed(seed, 3))?;
            for (r, w) in renewable.iter_mut().zip(wind_trace) {
                *r += w;
            }
        }
        let prices = self.price.generate(clock, subseed(market_seed, 4))?;
        let ts = TraceSet::new(
            *clock,
            demand.delay_sensitive,
            demand.delay_tolerant,
            renewable,
            prices.long_term,
            prices.real_time,
        )?;
        // The workload stream rides its own sub-seed link (5), appended
        // after the existing chain: attaching or detaching a workload
        // never shifts the demand/renewable/price realizations.
        match &self.workload {
            Some(w) => ts.with_arrivals(w.generate(clock, subseed(seed, 5))?),
            None => Ok(ts),
        }
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::icdcs13()
    }
}

/// Convenience: the exact one-month evaluation input of the paper with the
/// repository's canonical seed.
///
/// # Errors
///
/// Propagates generation errors (none for the built-in configuration).
///
/// # Examples
///
/// ```
/// let traces = dpss_traces::paper_month_traces(42)?;
/// assert_eq!(traces.clock.total_slots(), 744);
/// # Ok::<(), dpss_traces::TraceError>(())
/// ```
pub fn paper_month_traces(seed: u64) -> Result<TraceSet, TraceError> {
    Scenario::icdcs13().generate(&SlotClock::icdcs13_month(), seed)
}

/// Returns the paper's `Ddtmax` bound implied by the default demand model —
/// needed by the theorem-bound calculators.
#[must_use]
pub fn paper_ddt_max() -> Energy {
    DemandModel::icdcs13().ddt_max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_produces_valid_traces() {
        let clock = SlotClock::icdcs13_month();
        let t = Scenario::icdcs13().generate(&clock, 42).unwrap();
        t.validate().unwrap();
        assert!(t.total_demand() > Energy::ZERO);
        assert!(t.total_renewable() > Energy::ZERO);
        // Penetration should be meaningful but below 100% by default.
        let pen = t.renewable_penetration();
        assert!((0.05..0.9).contains(&pen), "penetration {pen}");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let s = Scenario::icdcs13();
        assert_eq!(
            s.generate(&clock, 1).unwrap(),
            s.generate(&clock, 1).unwrap()
        );
        assert_ne!(
            s.generate(&clock, 1).unwrap(),
            s.generate(&clock, 2).unwrap()
        );
    }

    #[test]
    fn wind_adds_to_renewables_only() {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let base = Scenario::icdcs13().generate(&clock, 7).unwrap();
        let windy = Scenario::icdcs13()
            .with_wind(WindModel::icdcs13())
            .generate(&clock, 7)
            .unwrap();
        assert!(windy.total_renewable() > base.total_renewable());
        assert_eq!(windy.demand_ds, base.demand_ds);
        assert_eq!(windy.price_rt, base.price_rt);
        let back = Scenario::icdcs13()
            .with_wind(WindModel::icdcs13())
            .without_wind()
            .generate(&clock, 7)
            .unwrap();
        assert_eq!(back, base);
    }

    #[test]
    fn workload_adds_arrivals_without_perturbing_existing_series() {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let base = Scenario::icdcs13().generate(&clock, 7).unwrap();
        assert_eq!(base.arrivals, None);
        let routed = Scenario::icdcs13()
            .with_workload(crate::WorkloadModel::icdcs13())
            .generate(&clock, 7)
            .unwrap();
        let arrivals = routed.arrivals.clone().expect("workload attached");
        assert_eq!(arrivals.len(), clock.total_slots());
        // Attaching a workload must not shift any pre-existing stream.
        assert_eq!(routed.demand_ds, base.demand_ds);
        assert_eq!(routed.demand_dt, base.demand_dt);
        assert_eq!(routed.renewable, base.renewable);
        assert_eq!(routed.price_lt, base.price_lt);
        assert_eq!(routed.price_rt, base.price_rt);
        // And detaching restores full equality.
        let back = Scenario::icdcs13()
            .with_workload(crate::WorkloadModel::icdcs13())
            .without_workload()
            .generate(&clock, 7)
            .unwrap();
        assert_eq!(back, base);
    }

    #[test]
    fn paper_month_traces_helper() {
        let t = paper_month_traces(42).unwrap();
        assert_eq!(t.clock.frames(), 31);
        assert_eq!(paper_ddt_max(), Energy::from_mwh(0.8));
    }

    #[test]
    fn windy_plains_runs_around_the_clock() {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let t = Scenario::windy_plains().generate(&clock, 5).unwrap();
        t.validate().unwrap();
        // Wind produces at night where solar cannot: some energy in the
        // midnight-to-5am window.
        let night: f64 = (0..3)
            .flat_map(|d| (0..5).map(move |h| d * 24 + h))
            .map(|i| t.renewable[i].mwh())
            .sum();
        assert!(night > 0.0, "wind site must produce at night");
    }

    #[test]
    fn default_is_paper_scenario() {
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        assert_eq!(
            Scenario::default().generate(&clock, 3).unwrap(),
            Scenario::icdcs13().generate(&clock, 3).unwrap()
        );
    }
}

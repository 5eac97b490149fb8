use dpss_units::{Energy, Power, SlotClock};
use rand::{rngs::StdRng, SeedableRng};

use crate::hour::{hour_of_day, HourMemo};
use crate::randutil::{exponential, poisson, subseed, Ar1};
use crate::TraceError;

/// The two demand-class series consumed by a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTraces {
    /// Delay-sensitive demand `d_ds(τ)` per fine slot (Websearch/Webmail-
    /// like interactive load).
    pub delay_sensitive: Vec<Energy>,
    /// Delay-tolerant demand `d_dt(τ)` per fine slot (MapReduce-like batch
    /// load), bounded by `Ddtmax` per slot.
    pub delay_tolerant: Vec<Energy>,
}

/// Synthetic datacenter power-demand model.
///
/// Substitutes for the paper's Google-cluster trace: a diurnal interactive
/// component (delay-sensitive; Websearch and Webmail in the paper) plus a
/// bursty compound-Poisson batch component (delay-tolerant; MapReduce),
/// with a night-time batch bias. Following §VI-A, the combined series is
/// scaled so that peaks never exceed the grid interconnect `Pgrid`, and the
/// per-slot delay-tolerant arrival is capped at `Ddtmax` (Eq. before (2)).
///
/// # Examples
///
/// ```
/// use dpss_traces::DemandModel;
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::icdcs13_month();
/// let demand = DemandModel::icdcs13().generate(&clock, 5)?;
/// assert_eq!(demand.delay_sensitive.len(), 744);
/// // Both classes are present in a realistic mix.
/// let ds: f64 = demand.delay_sensitive.iter().map(|e| e.mwh()).sum();
/// let dt: f64 = demand.delay_tolerant.iter().map(|e| e.mwh()).sum();
/// assert!(ds > 0.0 && dt > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandModel {
    interactive_base: Power,
    interactive_amplitude: f64,
    interactive_noise_std: f64,
    weekend_factor: f64,
    batch_rate_per_hour: f64,
    batch_size_mean: Energy,
    batch_night_boost: f64,
    ddt_max: Energy,
    grid_cap: Power,
}

impl DemandModel {
    /// Paper-like defaults for a `Pgrid = 2 MW` datacenter: ~0.75 MW mean
    /// interactive load with a 35% afternoon swing, and a MapReduce-heavy
    /// batch component (~45% of total energy, matching the Google-cluster
    /// mix the paper samples) with night-biased arrivals and
    /// `Ddtmax = 0.8 MWh` per hourly slot.
    #[must_use]
    pub fn icdcs13() -> Self {
        DemandModel {
            interactive_base: Power::from_mw(0.75),
            interactive_amplitude: 0.35,
            interactive_noise_std: 0.08,
            weekend_factor: 0.85,
            batch_rate_per_hour: 1.8,
            batch_size_mean: Energy::from_mwh(0.35),
            batch_night_boost: 0.8,
            ddt_max: Energy::from_mwh(0.8),
            grid_cap: Power::from_mw(2.0),
        }
    }

    /// Sets the mean interactive (delay-sensitive) load.
    #[must_use]
    pub fn with_interactive_base(mut self, base: Power) -> Self {
        self.interactive_base = base;
        self
    }

    /// Sets the diurnal swing of the interactive load as a fraction of base.
    #[must_use]
    pub fn with_interactive_amplitude(mut self, amplitude: f64) -> Self {
        self.interactive_amplitude = amplitude;
        self
    }

    /// Sets the AR(1) noise level (fraction of base) of the interactive load.
    #[must_use]
    pub fn with_interactive_noise(mut self, noise_std: f64) -> Self {
        self.interactive_noise_std = noise_std;
        self
    }

    /// Sets batch arrivals: mean arrivals per hour and mean energy per batch.
    #[must_use]
    pub fn with_batch(mut self, rate_per_hour: f64, size_mean: Energy) -> Self {
        self.batch_rate_per_hour = rate_per_hour;
        self.batch_size_mean = size_mean;
        self
    }

    /// Sets the per-slot cap `Ddtmax` on delay-tolerant arrivals.
    #[must_use]
    pub fn with_ddt_max(mut self, ddt_max: Energy) -> Self {
        self.ddt_max = ddt_max;
        self
    }

    /// Sets the grid interconnect `Pgrid` used for peak clipping.
    #[must_use]
    pub fn with_grid_cap(mut self, grid_cap: Power) -> Self {
        self.grid_cap = grid_cap;
        self
    }

    /// Per-slot cap `Ddtmax` on delay-tolerant arrivals.
    #[must_use]
    pub fn ddt_max(&self) -> Energy {
        self.ddt_max
    }

    /// Grid interconnect cap used for peak clipping.
    #[must_use]
    pub fn grid_cap(&self) -> Power {
        self.grid_cap
    }

    fn validate(&self) -> Result<(), TraceError> {
        if !(self.interactive_base.is_finite() && self.interactive_base.mw() >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "interactive_base",
                requirement: "must be finite and non-negative",
            });
        }
        for (v, what) in [
            (self.interactive_amplitude, "interactive_amplitude"),
            (self.interactive_noise_std, "interactive_noise_std"),
            (self.batch_rate_per_hour, "batch_rate_per_hour"),
            (self.batch_night_boost, "batch_night_boost"),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(TraceError::InvalidParameter {
                    what,
                    requirement: "must be finite and non-negative",
                });
            }
        }
        if self.interactive_amplitude > 1.0 {
            return Err(TraceError::InvalidParameter {
                what: "interactive_amplitude",
                requirement: "must be at most 1 (load cannot go negative)",
            });
        }
        if !(0.0..=1.0).contains(&self.weekend_factor) {
            return Err(TraceError::InvalidParameter {
                what: "weekend_factor",
                requirement: "must be in [0, 1]",
            });
        }
        if !(self.batch_size_mean.is_finite() && self.batch_size_mean.mwh() >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "batch_size_mean",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.ddt_max.is_finite() && self.ddt_max.mwh() >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "ddt_max",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.grid_cap.is_finite() && self.grid_cap.mw() > 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "grid_cap",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// Generates both demand classes for the whole calendar.
    ///
    /// Deterministic in `(self, clock, seed)`.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidParameter`] if the model is misconfigured.
    pub fn generate(&self, clock: &SlotClock, seed: u64) -> Result<DemandTraces, TraceError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(subseed(seed, 0xDE3A_0004));
        let mut noise = Ar1::new(0.7, 1.0);
        let slot_h = clock.slot_hours();
        let slot_cap = self.grid_cap.over_hours(slot_h);
        let mut hourly = HourMemo::new();

        let mut ds = Vec::with_capacity(clock.total_slots());
        let mut dt = Vec::with_capacity(clock.total_slots());
        for id in clock.slots() {
            let hour_abs = id.index as f64 * slot_h;
            let day = (hour_abs / 24.0) as usize;
            let weekend = matches!(day % 7, 5 | 6);
            let day_factor = if weekend { self.weekend_factor } else { 1.0 };
            let terms = hourly.get(hour_of_day(hour_abs), |hour| self.hour_terms(hour, slot_h));

            // Delay-sensitive: diurnal single peak mid-afternoon plus noise.
            let n = 1.0 + self.interactive_noise_std * noise.next(&mut rng);
            let mw = self.interactive_base.mw() * terms.shape * day_factor * n.max(0.0);
            let e_ds = Power::from_mw(mw.max(0.0)).over_hours(slot_h);

            // Delay-tolerant: compound Poisson with a night boost.
            let arrivals = poisson(&mut rng, terms.lambda, terms.limit);
            let mut batch = 0.0;
            for _ in 0..arrivals {
                batch += exponential(&mut rng, self.batch_size_mean.mwh());
            }
            let e_dt = Energy::from_mwh(batch).min(self.ddt_max);

            // Peak clipping at Pgrid (§VI-A: "removing demand peaks above
            // Pgrid"), proportionally across the two classes.
            let total = e_ds + e_dt;
            let (e_ds, e_dt) = if total > slot_cap && total > Energy::ZERO {
                let f = slot_cap / total;
                (e_ds * f, e_dt * f)
            } else {
                (e_ds, e_dt)
            };
            ds.push(e_ds);
            dt.push(e_dt);
        }
        Ok(DemandTraces {
            delay_sensitive: ds,
            delay_tolerant: dt,
        })
    }
}

/// The site-independent terms of one hour of day.
#[derive(Debug, Clone, Copy)]
struct HourTerms {
    /// Interactive diurnal factor `1 + amplitude·interactive_shape`.
    shape: f64,
    /// Batch arrival rate per slot, night boost included.
    lambda: f64,
    /// The Poisson limit `exp(−λ)`.
    limit: f64,
}

impl DemandModel {
    fn hour_terms(&self, hour: f64, slot_h: f64) -> HourTerms {
        let night = 1.0 + self.batch_night_boost * night_shape(hour);
        let lambda = self.batch_rate_per_hour * slot_h * night;
        HourTerms {
            shape: 1.0 + self.interactive_amplitude * interactive_shape(hour),
            lambda,
            limit: (-lambda).exp(),
        }
    }
}

/// Interactive diurnal factor in roughly `[-0.6, 1.0]`: afternoon peak
/// around 14:00, deep night trough.
fn interactive_shape(hour: f64) -> f64 {
    (-(hour - 14.0).powi(2) / 22.0).exp() * 1.4 - 0.55
}

/// Night factor in `[0, 1]` peaking around 02:00 (batch jobs favour nights).
fn night_shape(hour: f64) -> f64 {
    let d = (hour - 2.0).abs().min(24.0 - (hour - 2.0).abs());
    (-d * d / 18.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn month() -> SlotClock {
        SlotClock::icdcs13_month()
    }

    #[test]
    fn deterministic_given_seed() {
        let m = DemandModel::icdcs13();
        assert_eq!(
            m.generate(&month(), 1).unwrap(),
            m.generate(&month(), 1).unwrap()
        );
        assert_ne!(
            m.generate(&month(), 1).unwrap(),
            m.generate(&month(), 2).unwrap()
        );
    }

    #[test]
    fn peaks_clipped_at_pgrid() {
        let m = DemandModel::icdcs13();
        let t = m.generate(&month(), 3).unwrap();
        for i in 0..744 {
            let total = t.delay_sensitive[i] + t.delay_tolerant[i];
            assert!(total.mwh() <= 2.0 + 1e-9, "slot {i}: {total}");
        }
    }

    #[test]
    fn ddt_capped_per_slot() {
        let m = DemandModel::icdcs13().with_batch(50.0, Energy::from_mwh(1.0));
        let t = m.generate(&month(), 4).unwrap();
        for e in &t.delay_tolerant {
            assert!(e.mwh() <= 0.8 + 1e-9);
        }
    }

    #[test]
    fn interactive_diurnal_pattern_visible() {
        let m = DemandModel::icdcs13().with_interactive_noise(0.0);
        let t = m.generate(&month(), 5).unwrap();
        // Average 14:00 load exceeds average 04:00 load across weekdays.
        let mut peak = 0.0;
        let mut trough = 0.0;
        let mut days = 0.0;
        for day in 0..31 {
            if matches!(day % 7, 5 | 6) {
                continue;
            }
            peak += t.delay_sensitive[day * 24 + 14].mwh();
            trough += t.delay_sensitive[day * 24 + 4].mwh();
            days += 1.0;
        }
        assert!(
            peak / days > 1.3 * (trough / days),
            "peak {peak} trough {trough}"
        );
    }

    #[test]
    fn weekends_are_lighter() {
        let m = DemandModel::icdcs13().with_interactive_noise(0.0);
        let t = m.generate(&month(), 6).unwrap();
        // Compare the same hour on day 0 (weekday) and day 5 (weekend).
        let wd = t.delay_sensitive[14].mwh();
        let we = t.delay_sensitive[5 * 24 + 14].mwh();
        assert!(we < wd, "weekend {we} >= weekday {wd}");
    }

    #[test]
    fn batch_is_bursty() {
        let m = DemandModel::icdcs13();
        let t = m.generate(&month(), 7).unwrap();
        let stats = crate::SeriesStats::from_values(t.delay_tolerant.iter().map(|e| e.mwh()));
        assert!(
            stats.coefficient_of_variation() > 0.4,
            "cv too small: {stats}"
        );
        // Some slots have zero batch arrivals.
        assert!(t.delay_tolerant.iter().any(|e| e.mwh() == 0.0));
    }

    #[test]
    fn rejects_bad_parameters() {
        let c = month();
        assert!(DemandModel::icdcs13()
            .with_interactive_amplitude(1.5)
            .generate(&c, 0)
            .is_err());
        assert!(DemandModel::icdcs13()
            .with_grid_cap(Power::ZERO)
            .generate(&c, 0)
            .is_err());
        assert!(DemandModel::icdcs13()
            .with_batch(-1.0, Energy::from_mwh(0.1))
            .generate(&c, 0)
            .is_err());
        assert!(DemandModel::icdcs13()
            .with_ddt_max(Energy::from_mwh(-0.1))
            .generate(&c, 0)
            .is_err());
        assert!(DemandModel::icdcs13()
            .with_interactive_base(Power::from_mw(f64::NAN))
            .generate(&c, 0)
            .is_err());
    }

    #[test]
    fn accessors() {
        let m = DemandModel::icdcs13();
        assert_eq!(m.ddt_max(), Energy::from_mwh(0.8));
        assert_eq!(m.grid_cap(), Power::from_mw(2.0));
    }

    #[test]
    fn night_shape_wraps_midnight() {
        assert!(night_shape(2.0) > 0.99);
        assert!(night_shape(23.0) > night_shape(12.0));
        assert!(night_shape(14.0) < 0.01);
    }
}

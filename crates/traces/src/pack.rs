//! Named bundles of [`Scenario`] variants — the input regimes the
//! multi-datacenter sweeps iterate over.
//!
//! A [`ScenarioPack`] is an ordered roster of labelled scenarios plus a
//! deterministic seed schedule: every variant derives its own seed from
//! the pack name and its index via the same splitmix64+FNV chain
//! `dpss-bench` uses for sweep cells, so extending a pack with new
//! variants never perturbs the traces of the existing ones, and two packs
//! with different names never share a stream even at the same master
//! seed.
//!
//! Five packs ship built in (see [`ScenarioPack::builtin`]):
//!
//! | pack | regime stressed |
//! |------|-----------------|
//! | `seasonal-calendar` | daylight length and cloud cover across the year |
//! | `price-spike` | real-time market spike frequency and size |
//! | `renewable-drought` | shrinking and darkening on-site generation |
//! | `flat-baseline` | structure removed — flat demand and/or flat prices |
//! | `traffic-wave` | request-arrival regimes — regional diurnal offsets, flash crowds, traffic surges |

use dpss_units::{Power, SlotClock};

use crate::seed::{fnv1a, splitmix64};
use crate::{
    DemandModel, PriceModel, Scenario, SolarModel, TraceError, TraceSet, WindModel, WorkloadModel,
};

/// An ordered, named roster of labelled [`Scenario`] variants with a
/// deterministic per-variant (and per-site) seed schedule.
///
/// # Examples
///
/// ```
/// use dpss_traces::ScenarioPack;
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pack = ScenarioPack::builtin("price-spike").unwrap();
/// let clock = SlotClock::new(3, 24, 1.0).unwrap();
/// // Variant 0 at master seed 42, site 1 of a multi-site sweep:
/// let traces = pack.generate_site(&clock, 42, 0, 1)?;
/// traces.validate()?;
/// // Site 0 shares the market but sees its own demand realization.
/// let other = pack.generate_site(&clock, 42, 0, 0)?;
/// assert_eq!(traces.price_rt, other.price_rt);
/// assert_ne!(traces.demand_ds, other.demand_ds);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioPack {
    name: String,
    variants: Vec<(String, Scenario)>,
}

impl ScenarioPack {
    /// Creates an empty pack with the given registry name (the name salts
    /// every variant seed, so it is part of the pack's identity).
    #[must_use]
    pub fn new(name: &str) -> Self {
        ScenarioPack {
            name: name.to_owned(),
            variants: Vec::new(),
        }
    }

    /// Appends a labelled variant (builder style).
    #[must_use]
    pub fn with_variant(mut self, label: &str, scenario: Scenario) -> Self {
        self.variants.push((label.to_owned(), scenario));
        self
    }

    /// The pack's registry name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether the pack has no variants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// The labelled variants, in pack order.
    #[must_use]
    pub fn variants(&self) -> &[(String, Scenario)] {
        &self.variants
    }

    /// Variant `index` as `(label, scenario)`, or `None` past the end of
    /// the roster.
    #[must_use]
    pub fn variant(&self, index: usize) -> Option<(&str, &Scenario)> {
        self.variants
            .get(index)
            .map(|(label, scenario)| (label.as_str(), scenario))
    }

    /// Deterministic seed of variant `index` at `master`: a splitmix64
    /// chain over the master seed, the FNV-1a hash of the pack name and
    /// the variant index — the same derivation `dpss-bench` sweep cells
    /// use. Depends only on `(name, master, index)`, never on the other
    /// variants, so appending variants cannot shift existing seeds.
    #[must_use]
    pub fn variant_seed(&self, master: u64, index: usize) -> u64 {
        let z = splitmix64(master ^ fnv1a(&self.name));
        splitmix64(z ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Deterministic seed for site `site` of variant `index` — one more
    /// link on the [`variant_seed`](Self::variant_seed) chain, exactly as
    /// if `site` were a trailing sweep-axis coordinate. Site seeds drive
    /// the site-local series only; markets stay on the variant seed.
    #[must_use]
    pub fn site_seed(&self, master: u64, index: usize, site: usize) -> u64 {
        let z = self.variant_seed(master, index);
        splitmix64(z ^ (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Generates variant `index`'s traces at its derived seed (the
    /// single-datacenter view of the pack).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownVariant`] if `index >= self.len()`,
    /// and propagates generator misconfiguration and validation errors.
    pub fn generate(
        &self,
        clock: &SlotClock,
        master: u64,
        index: usize,
    ) -> Result<TraceSet, TraceError> {
        let seed = self.variant_seed(master, index);
        let (_, scenario) = self.variants.get(index).ok_or(TraceError::UnknownVariant {
            pack: self.name.clone(),
            index,
            len: self.variants.len(),
        })?;
        scenario.generate(clock, seed)
    }

    /// Generates variant `index`'s traces for one site of a
    /// multi-datacenter sweep: demand and renewables run on the per-site
    /// seed, while the market price series runs on the *variant* seed —
    /// every site of a variant trades in the same market.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownVariant`] if `index >= self.len()`,
    /// and propagates generator misconfiguration and validation errors.
    pub fn generate_site(
        &self,
        clock: &SlotClock,
        master: u64,
        index: usize,
        site: usize,
    ) -> Result<TraceSet, TraceError> {
        let site_seed = self.site_seed(master, index, site);
        let market_seed = self.variant_seed(master, index);
        let (_, scenario) = self.variants.get(index).ok_or(TraceError::UnknownVariant {
            pack: self.name.clone(),
            index,
            len: self.variants.len(),
        })?;
        scenario.generate_with_market_seed(clock, site_seed, market_seed)
    }

    /// The names of the built-in packs, in registry order.
    #[must_use]
    pub fn builtin_names() -> &'static [&'static str] {
        &[
            "seasonal-calendar",
            "price-spike",
            "renewable-drought",
            "flat-baseline",
            "traffic-wave",
        ]
    }

    /// Looks a built-in pack up by name; `None` for unknown names.
    #[must_use]
    pub fn builtin(name: &str) -> Option<Self> {
        match name {
            "seasonal-calendar" => Some(Self::seasonal_calendar()),
            "price-spike" => Some(Self::price_spike()),
            "renewable-drought" => Some(Self::renewable_drought()),
            "flat-baseline" => Some(Self::flat_baseline()),
            "traffic-wave" => Some(Self::traffic_wave()),
            _ => None,
        }
    }

    /// `seasonal-calendar`: the paper's January month plus the other
    /// seasons — daylight window and cloud cover move through the year,
    /// and autumn adds a wind farm whose output ignores the sun entirely.
    /// Measured cost ordering (seed 42): winter most expensive, cost
    /// falling as daylight grows, autumn-windy cheapest — the wind farm's
    /// around-the-clock output beats even June daylight.
    #[must_use]
    pub fn seasonal_calendar() -> Self {
        ScenarioPack::new("seasonal-calendar")
            .with_variant("winter", Scenario::icdcs13())
            .with_variant(
                "spring",
                Scenario::icdcs13().with_solar(
                    SolarModel::icdcs13()
                        .with_daylight(6.5, 18.75)
                        .with_clouds(0.85, 0.45),
                ),
            )
            .with_variant(
                "summer",
                Scenario::icdcs13().with_solar(SolarModel::summer()),
            )
            .with_variant(
                "autumn-windy",
                Scenario::icdcs13()
                    .with_solar(SolarModel::icdcs13().with_daylight(7.0, 18.0))
                    .with_wind(WindModel::icdcs13().with_capacity(Power::from_mw(1.0))),
            )
    }

    /// `price-spike`: real-time spike frequency/size swept from a calm
    /// market to one in persistent stress (all capped at `Pmax`). This is
    /// the regime where the two-timescale purchase split earns its keep:
    /// calm is cheapest and spikier regimes cost more, but the hedge
    /// flattens the worst case — under `stressed`, SmartDPSS all but
    /// abandons the real-time market, so cost lands near `paper` rather
    /// than growing with the spike rate.
    #[must_use]
    pub fn price_spike() -> Self {
        ScenarioPack::new("price-spike")
            .with_variant(
                "calm",
                Scenario::icdcs13().with_price(PriceModel::icdcs13().with_spikes(0.0, 0.0)),
            )
            .with_variant("paper", Scenario::icdcs13())
            .with_variant(
                "spiky",
                Scenario::icdcs13().with_price(PriceModel::icdcs13().with_spikes(0.12, 60.0)),
            )
            .with_variant(
                "stressed",
                Scenario::icdcs13().with_price(
                    PriceModel::icdcs13()
                        .with_spikes(0.25, 90.0)
                        .with_noise(0.10, 0.20),
                ),
            )
    }

    /// `renewable-drought`: on-site generation shrinking and darkening,
    /// down to a near-dark month. Stresses how gracefully cost degrades as
    /// the renewable subsidy disappears; expected cost ordering: paper
    /// cheapest, near-dark most expensive.
    #[must_use]
    pub fn renewable_drought() -> Self {
        ScenarioPack::new("renewable-drought")
            .with_variant("paper", Scenario::icdcs13())
            .with_variant(
                "dim",
                Scenario::icdcs13().with_solar(
                    SolarModel::icdcs13()
                        .with_capacity(Power::from_mw(1.5))
                        .with_clouds(0.9, 0.7),
                ),
            )
            .with_variant(
                "drought",
                Scenario::icdcs13().with_solar(
                    SolarModel::icdcs13()
                        .with_capacity(Power::from_mw(0.8))
                        .with_clouds(0.92, 0.8)
                        .with_day_variability(0.5),
                ),
            )
            .with_variant(
                "near-dark",
                Scenario::icdcs13().with_solar(
                    SolarModel::icdcs13()
                        .with_capacity(Power::from_mw(0.25))
                        .with_clouds(0.95, 0.85),
                ),
            )
    }

    /// `flat-baseline`: temporal structure removed one dimension at a
    /// time — flat interactive demand, spikeless flat prices, then both.
    /// A sanity regime: with no price structure to arbitrage, SmartDPSS's
    /// advantage over Impatient should shrink toward zero.
    #[must_use]
    pub fn flat_baseline() -> Self {
        let flat_demand = DemandModel::icdcs13()
            .with_interactive_amplitude(0.0)
            .with_interactive_noise(0.02);
        let flat_price = PriceModel::icdcs13()
            .with_daily_amplitude(0.0)
            .with_noise(0.02, 0.02)
            .with_spikes(0.0, 0.0);
        ScenarioPack::new("flat-baseline")
            .with_variant("paper", Scenario::icdcs13())
            .with_variant(
                "flat-demand",
                Scenario::icdcs13().with_demand(flat_demand.clone()),
            )
            .with_variant(
                "flat-prices",
                Scenario::icdcs13().with_price(flat_price.clone()),
            )
            .with_variant(
                "flat-both",
                Scenario::icdcs13()
                    .with_demand(flat_demand)
                    .with_price(flat_price),
            )
    }

    /// `traffic-wave`: the paper's energy-side inputs with a request
    /// stream layered on top, swept through arrival regimes — a steady
    /// diurnal baseline, region-offset diurnals (sites peak at different
    /// wall-clock hours, so one region's trough can host another's peak),
    /// flash crowds (short multiplicative bursts) and a month-long
    /// traffic surge. The regimes where workload routing earns its keep:
    /// deferrable work migrates toward sites with forecast curtailment
    /// instead of shipping energy through lossy links.
    #[must_use]
    pub fn traffic_wave() -> Self {
        ScenarioPack::new("traffic-wave")
            .with_variant(
                "steady",
                Scenario::icdcs13().with_workload(WorkloadModel::icdcs13()),
            )
            .with_variant(
                "offset-diurnal",
                Scenario::icdcs13().with_workload(
                    WorkloadModel::icdcs13()
                        .with_diurnal_amplitude(0.6)
                        .with_offset_spread(24.0),
                ),
            )
            .with_variant(
                "flash-crowd",
                Scenario::icdcs13().with_workload(
                    WorkloadModel::icdcs13()
                        .with_offset_spread(12.0)
                        .with_flash_crowds(0.6, 5.0, 3),
                ),
            )
            .with_variant(
                "surge",
                Scenario::icdcs13().with_workload(
                    WorkloadModel::icdcs13()
                        .with_surge_ramp(1.0)
                        .with_flash_crowds(0.2, 3.0, 3),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss_units::Energy;

    #[test]
    fn builtin_registry_is_consistent() {
        for &name in ScenarioPack::builtin_names() {
            let pack = ScenarioPack::builtin(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(pack.name(), name);
            assert!(!pack.is_empty(), "{name} has no variants");
            assert!((0..pack.len()).all(|i| pack.variant(i).is_some()));
        }
        assert!(ScenarioPack::builtin("nonexistent").is_none());
    }

    #[test]
    fn every_builtin_variant_generates_valid_traces() {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        for &name in ScenarioPack::builtin_names() {
            let pack = ScenarioPack::builtin(name).unwrap();
            for i in 0..pack.len() {
                let t = pack
                    .generate(&clock, 42, i)
                    .unwrap_or_else(|e| panic!("{name}[{i}]: {e}"));
                t.validate().unwrap();
                assert!(t.total_demand() > Energy::ZERO, "{name}[{i}] has no demand");
            }
        }
    }

    #[test]
    fn out_of_range_variant_is_a_typed_error() {
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        let pack = ScenarioPack::price_spike();
        assert!(pack.variant(pack.len()).is_none());
        assert!(matches!(
            pack.generate(&clock, 42, pack.len()),
            Err(TraceError::UnknownVariant { index, len, .. }) if index == len
        ));
        assert!(matches!(
            pack.generate_site(&clock, 42, 99, 0),
            Err(TraceError::UnknownVariant { index: 99, .. })
        ));
    }

    #[test]
    fn variant_seeds_are_stable_under_extension() {
        // Appending variants — including the traffic regimes that carry a
        // workload stream — must never shift the seeds of the variants
        // already in the roster, for every builtin pack.
        for &name in ScenarioPack::builtin_names() {
            let base = ScenarioPack::builtin(name).unwrap();
            let grown = ScenarioPack::builtin(name)
                .unwrap()
                .with_variant("extra", Scenario::icdcs13())
                .with_variant(
                    "extra-traffic",
                    Scenario::icdcs13().with_workload(WorkloadModel::icdcs13()),
                );
            for i in 0..base.len() {
                assert_eq!(
                    base.variant_seed(42, i),
                    grown.variant_seed(42, i),
                    "{name}"
                );
                assert_eq!(
                    base.site_seed(42, i, 3),
                    grown.site_seed(42, i, 3),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn traffic_wave_variants_carry_arrivals_and_leave_energy_side_alone() {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let pack = ScenarioPack::traffic_wave();
        let labels: Vec<&str> = pack.variants().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["steady", "offset-diurnal", "flash-crowd", "surge"]);
        for i in 0..pack.len() {
            let t = pack.generate_site(&clock, 42, i, 1).unwrap();
            let arrivals = t.arrivals.as_ref().expect("traffic variant has arrivals");
            assert!(arrivals.iter().any(|a| a.mwh() > 0.0), "variant {i}");
        }
        // Packs without a workload stay arrival-free.
        let plain = ScenarioPack::price_spike()
            .generate_site(&clock, 42, 0, 1)
            .unwrap();
        assert_eq!(plain.arrivals, None);
    }

    #[test]
    fn seeds_are_salted_by_pack_name_master_and_index() {
        let a = ScenarioPack::new("a").with_variant("x", Scenario::icdcs13());
        let b = ScenarioPack::new("b").with_variant("x", Scenario::icdcs13());
        assert_ne!(a.variant_seed(42, 0), b.variant_seed(42, 0));
        assert_ne!(a.variant_seed(42, 0), a.variant_seed(43, 0));
        assert_ne!(a.variant_seed(42, 0), a.variant_seed(42, 1));
        assert_ne!(a.site_seed(42, 0, 0), a.site_seed(42, 0, 1));
    }

    #[test]
    fn sites_share_markets_but_not_local_series() {
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        let pack = ScenarioPack::seasonal_calendar();
        let s0 = pack.generate_site(&clock, 7, 1, 0).unwrap();
        let s1 = pack.generate_site(&clock, 7, 1, 1).unwrap();
        assert_eq!(s0.price_rt, s1.price_rt, "shared real-time market");
        assert_eq!(s0.price_lt, s1.price_lt, "shared long-term market");
        assert_ne!(s0.demand_ds, s1.demand_ds, "independent demand");
        assert_ne!(s0.renewable, s1.renewable, "independent renewables");
        // Markets match the single-site generation of the same variant.
        let single = pack.generate(&clock, 7, 1).unwrap();
        assert_eq!(s0.price_rt, single.price_rt);
    }

    #[test]
    fn generate_is_deterministic() {
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        let pack = ScenarioPack::renewable_drought();
        assert_eq!(
            pack.generate(&clock, 5, 2).unwrap(),
            pack.generate(&clock, 5, 2).unwrap()
        );
        assert_eq!(
            pack.generate_site(&clock, 5, 2, 4).unwrap(),
            pack.generate_site(&clock, 5, 2, 4).unwrap()
        );
    }

    #[test]
    fn drought_pack_actually_darkens() {
        let clock = SlotClock::new(5, 24, 1.0).unwrap();
        let pack = ScenarioPack::renewable_drought();
        let paper = pack.generate(&clock, 42, 0).unwrap().total_renewable();
        let dark = pack.generate(&clock, 42, 3).unwrap().total_renewable();
        assert!(
            dark < paper * 0.5,
            "near-dark ({dark}) must be well below paper ({paper})"
        );
    }
}

//! Synthetic trace substrate for the SmartDPSS reproduction.
//!
//! The paper's evaluation (§VI-A) is driven by one month of real-world
//! traces: MIDC solar meteorological data, NYISO electricity prices and a
//! Google cluster workload. None of those exact datasets can ship with this
//! repository, so this crate builds the *closest synthetic equivalents* that
//! exercise the same code paths, seeded so every run is reproducible:
//!
//! * [`SolarModel`] — diurnal irradiance bell × AR(1) cloud attenuation ×
//!   day-to-day variability (January daylight hours by default);
//! * [`WindModel`] — AR(1) wind speed through a cut-in/rated/cut-out
//!   turbine power curve (the paper motivates wind; evaluation extension);
//! * [`PriceModel`] — two-timescale market prices with diurnal double-peak
//!   shape, AR(1) noise, occasional real-time spikes and a price cap
//!   `Pmax`; the real-time series is more expensive on average than the
//!   long-term series, as required by §II-B2;
//! * [`DemandModel`] — delay-sensitive interactive load (diurnal) plus
//!   delay-tolerant batch arrivals (compound Poisson), peaks clipped at the
//!   grid interconnect `Pgrid` exactly as the paper scales its traces;
//! * [`WorkloadModel`] — per-region request arrivals (diurnal bell with a
//!   seeded regional phase offset, AR(1) noise, Poisson flash crowds and
//!   a linear traffic surge) for the workload-routing extension;
//! * [`Scenario`] — one-stop generation of a consistent [`TraceSet`];
//! * [`ScenarioPack`] — named bundles of scenario variants (seasonal
//!   calendars, price-spike regimes, renewable droughts) with a
//!   deterministic per-variant and per-site seed schedule for
//!   multi-datacenter sweeps;
//! * [`scaling`] — the Fig. 8 penetration/variation sweeps and the Fig. 10
//!   system-expansion transform;
//! * [`UniformError`] — the Fig. 9 uniform ±x% observation-error injection.
//!
//! All generators are deterministic given a seed: the same `(model, clock,
//! seed)` triple always yields the same trace, which keeps every experiment
//! in the repository exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use dpss_traces::Scenario;
//! use dpss_units::SlotClock;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = SlotClock::icdcs13_month();
//! let traces = Scenario::icdcs13().generate(&clock, 42)?;
//! assert_eq!(traces.demand_ds.len(), clock.total_slots());
//! // Real-time energy is pricier than long-term on average (§II-B2).
//! assert!(traces.mean_rt_price() > traces.mean_lt_price());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod demand;
mod error;
mod error_injection;
mod hour;
mod pack;
mod price;
mod randutil;
pub mod scaling;
mod scenario;
pub mod seed;
mod solar;
mod stats;
mod trace;
mod wind;
mod workload;

pub use demand::{DemandModel, DemandTraces};
pub use error::TraceError;
pub use error_injection::UniformError;
pub use hour::hour_of_day;
pub use pack::ScenarioPack;
pub use price::{PriceModel, PriceTraces};
pub use scenario::{paper_ddt_max, paper_month_traces, Scenario};
pub use solar::SolarModel;
pub use stats::{lag1_autocorrelation, SeriesStats};
pub use trace::TraceSet;
pub use wind::WindModel;
pub use workload::WorkloadModel;

//! SmartDPSS: the two-timescale Lyapunov control algorithm of Deng, Liu,
//! Jin & Wu, *"SmartDPSS: Cost-Minimizing Multi-source Power Supply for
//! Datacenters with Arbitrary Demand"*, ICDCS 2013 — plus the paper's
//! comparison algorithms.
//!
//! # What lives here
//!
//! * [`SmartDpss`] — the online controller (Algorithm 1). At every coarse
//!   frame it solves the long-term purchasing problem **P4**; at every fine
//!   slot it solves the real-time balancing problem **P5**; afterwards it
//!   updates the delay-aware virtual queue `Y(t)` (Eq. (12)). The
//!   availability-aware queue `X(t)` is the battery level shifted by
//!   `Umax + Bmin + Bdmax·ηd` (Eq. (14)) and is derived on the fly.
//! * [`SmartDpssConfig`] — the tunables `V` (cost–delay knob), `ε`
//!   (delay-control parameter), market structure ([`MarketMode`], for the
//!   Fig. 7 two-markets vs real-time-only comparison) and two ablation
//!   switches, measured by `dpss-bench`'s `ablation_report`:
//!   [`P5Objective`] (the printed P5 coefficients vs the drift-plus-penalty
//!   derivation) and [`P4Variant`] (paper-literal vs waste-aware long-term
//!   purchasing).
//! * [`OfflineOptimal`] — the §II-D benchmark: per-coarse-frame linear
//!   programs with full knowledge of that frame's demand, renewables and
//!   prices, solved with the `dpss-lp` simplex.
//! * [`Impatient`] — the §VI-A baseline that serves all demand immediately
//!   regardless of prices or renewable availability.
//! * [`FleetPlanner`] — the multi-site export planner: per-coarse-frame
//!   linear programs with inter-site flow variables over a
//!   [`dpss_sim::Interconnect`] topology, warm-started frame to frame —
//!   the *planned* alternative to `dpss-sim`'s post-hoc greedy
//!   settlement, and (with
//!   [`with_coordination`](FleetPlanner::with_coordination)) the
//!   *coordinated* fleet dispatcher that plans prospective flows between
//!   frames and directs sites to buy-to-export.
//! * [`TheoremBounds`] — the closed-form bounds of Theorem 2 (`Qmax`,
//!   `Ymax`, `Umax`, `λmax`, `Vmax`, the `X(t)` window and the `H1`/`H2`
//!   constants), which the integration tests verify empirically.
//! * [`cheapest_window_bound`] — a relaxation-based lower bound on any
//!   policy's cost (sanity floor for the benchmark ordering).
//!
//! # Examples
//!
//! Run SmartDPSS against the paper's one-month scenario and compare it to
//! the Impatient baseline:
//!
//! ```
//! use dpss_core::{Impatient, SmartDpss, SmartDpssConfig};
//! use dpss_sim::{Engine, SimParams};
//! use dpss_traces::paper_month_traces;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let traces = paper_month_traces(42)?;
//! let params = SimParams::icdcs13();
//! let engine = Engine::new(params, traces)?;
//!
//! let mut smart = SmartDpss::new(SmartDpssConfig::icdcs13(), params,
//!                                engine.clock())?;
//! let mut impatient = Impatient::two_markets();
//!
//! let r_smart = engine.run(&mut smart)?;
//! let r_impatient = engine.run(&mut impatient)?;
//! // The headline claim: SmartDPSS trades a bounded delay for lower cost.
//! assert!(r_smart.time_average_cost() < r_impatient.time_average_cost());
//! assert!(r_smart.average_delay_slots > r_impatient.average_delay_slots);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod bounds;
mod config;
mod error;
mod fleet;
mod frame_lp;
mod greedy;
mod impatient;
mod lower_bound;
mod offline;
mod p4;
mod p5;
mod receding;
mod routing;
mod smart_dpss;

pub use bounds::TheoremBounds;
pub use config::{MarketMode, P4Variant, P5Objective, SmartDpssConfig};
pub use error::CoreError;
pub use fleet::{
    default_interconnect, default_transfer_cap, DispatchMode, FleetPlanner, FleetPlannerState,
    ModeDispatcher,
};
pub use greedy::GreedyBattery;
pub use impatient::Impatient;
pub use lower_bound::cheapest_window_bound;
pub use offline::OfflineOptimal;
pub use receding::RecedingHorizon;
pub use routing::RoutingPlanner;
pub use smart_dpss::SmartDpss;

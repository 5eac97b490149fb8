//! Discrete-time two-timescale simulator for datacenter power supply
//! systems (DPSS).
//!
//! This crate is the *physical plant* of the SmartDPSS reproduction: it
//! owns everything the paper's Eqs. (1)–(9) say about how energy actually
//! flows, and it is deliberately separate from the control algorithms in
//! `dpss-core` so that every controller — SmartDPSS, the offline benchmark,
//! the `Impatient` baseline, or anything a downstream user writes — faces
//! exactly the same physics:
//!
//! * [`Battery`] — the UPS model: capacity window `[Bmin, Bmax]`, per-slot
//!   rate caps `Bcmax`/`Bdmax`, charge efficiency `ηc`, discharge
//!   efficiency `1/ηd`, per-operation wear cost `Cb`, optional cycle
//!   budget `Nmax` (Eqs. (3)(7)(8)(9));
//! * [`DemandQueue`] + [`DelayLedger`] — the delay-tolerant backlog `Q(τ)`
//!   of Eq. (2) with an exact FIFO ledger that measures realized per-MWh
//!   service delay (the y-axis of Figs. 6(b) and 6(d));
//! * [`Controller`] — the trait every control policy implements: one
//!   long-term decision per coarse frame (`g_bef`), one real-time decision
//!   per fine slot (`g_rt`, `γ`);
//! * [`Engine`] — the run loop. It enforces the supply/demand balance of
//!   Eq. (4) with a *feasibility guard* (emergency real-time purchases
//!   before any load shedding), supports a split between *true* traces
//!   (what the plant experiences) and *observed* traces (what the
//!   controller sees — the Fig. 9 robustness experiment), and produces a
//!   [`RunReport`] of horizon totals;
//! * [`SlotRecorder`] — a controller decorator that logs every realized
//!   [`SlotOutcome`], for callers that compare runs slot by slot;
//! * [`MultiSiteEngine`] — N per-site engines on one calendar coupled
//!   through an [`Interconnect`] topology (per-pair directed caps, line
//!   losses, wheeling prices, an optional fleet-pooled cap), run
//!   *frame-synchronously*: every site steps coarse frame `k` before any
//!   site starts `k + 1`, a [`FleetDispatcher`] settles each realized
//!   frame, and in coordinated mode it hands every site a
//!   [`FrameDirective`] between frames (buy-to-export); per-site plus
//!   fleet-aggregate metrics land in a [`MultiSiteReport`];
//! * [`FleetWorkload`] — the request layer (workload-routing extension):
//!   per-site bounded-age queues of deferrable work stepped in lockstep
//!   with the fleet loop, settled against a [`RoutedDispatcher`]'s
//!   absorption/migration [`LoadPlan`] each frame and summarized in
//!   [`LoadTotals`] (inert — all zeros — unless
//!   [`MultiSiteEngine::run_routed`] is used);
//! * [`SimParams`] — the paper's §VI-A parameter set via
//!   [`SimParams::icdcs13`].
//!
//! # Examples
//!
//! A minimal greedy controller running on the paper's one-month scenario:
//!
//! ```
//! use dpss_sim::{Controller, Engine, FrameObservation, SimParams,
//!                SlotDecision, SlotObservation, SystemView, FrameDecision};
//! use dpss_traces::paper_month_traces;
//! use dpss_units::Energy;
//!
//! /// Buys everything it needs in the real-time market, serves eagerly.
//! struct Greedy;
//!
//! impl Controller for Greedy {
//!     fn name(&self) -> &str { "greedy" }
//!     fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
//!         FrameDecision { purchase_lt: Energy::ZERO }
//!     }
//!     fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
//!         SlotDecision {
//!             purchase_rt: (obs.demand_ds + view.queue_backlog - obs.renewable)
//!                 .positive_part(),
//!             serve_fraction: 1.0,
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let traces = paper_month_traces(42)?;
//! let engine = Engine::new(SimParams::icdcs13(), traces)?;
//! let report = engine.run(&mut Greedy)?;
//! assert!(report.unserved_ds == Energy::ZERO, "no blackout");
//! assert!(report.total_cost().dollars() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod battery;
mod controller;
mod delay;
mod dispatch;
mod engine;
mod error;
mod forecast;
mod interconnect;
mod metrics;
mod multisite;
mod params;
mod plant;
mod queue;
mod recorder;
mod state;
mod workload;

pub use battery::{Battery, BatteryParams};
pub use controller::{
    Controller, FrameDecision, FrameObservation, SlotDecision, SlotObservation, SystemView,
};
pub use delay::DelayLedger;
pub use dispatch::{FleetDispatcher, FrameDirective, FrameOutlook, SiteOutlook};
pub use engine::{Engine, EngineRun};
pub use error::SimError;
pub use forecast::ForecastPolicy;
pub use interconnect::{FrameExchange, FrameSettlement, Interconnect, DESCRIBE_LINK_LIMIT};
pub use metrics::{FrameTotals, RunReport, SlotCost, SlotOutcome};
pub use multisite::{FleetRun, MultiSiteEngine, MultiSiteReport};
pub use params::SimParams;
pub use queue::DemandQueue;
pub use recorder::SlotRecorder;
pub use state::{BatteryState, ControllerState, EngineRunState, LedgerState, QueueState};
pub use workload::{
    FleetWorkload, LoadFlow, LoadFrame, LoadFrameRecord, LoadPlan, LoadTotals, RoutedDispatcher,
    RoutingConfig, RoutingMode, UnroutedDispatcher,
};

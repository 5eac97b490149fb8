//! **smartdpss** — a reproduction of *"SmartDPSS: Cost-Minimizing
//! Multi-source Power Supply for Datacenters with Arbitrary Demand"*
//! (Deng, Liu, Jin & Wu, IEEE ICDCS 2013) as a production-quality Rust
//! workspace.
//!
//! This crate is the façade: it re-exports the workspace's seven libraries
//! so applications can depend on a single crate. See the individual crates
//! for full documentation:
//!
//! * [`units`] (`dpss-units`) — physical-unit newtypes ([`Energy`],
//!   [`Power`], [`Price`], [`Money`]) and the two-timescale calendar
//!   ([`SlotClock`]);
//! * [`lp`] (`dpss-lp`) — the LP substrate: one factorized sparse revised
//!   simplex, warm-started, for the frame LPs and the fleet network LPs;
//! * [`traces`] (`dpss-traces`) — synthetic solar/wind/price/demand trace
//!   generators with error injection, scaling transforms and the
//!   [`ScenarioPack`] registry of named input regimes;
//! * [`sim`] (`dpss-sim`) — the discrete-time DPSS plant: UPS battery,
//!   demand queue with an exact FIFO delay ledger, the [`Controller`]
//!   trait, the simulation [`Engine`] and the [`MultiSiteEngine`]
//!   fleet composition;
//! * [`core`] (`dpss-core`) — the [`SmartDpss`] controller itself plus the
//!   [`OfflineOptimal`] benchmark, the [`Impatient`] baseline and the
//!   Theorem 2 bound calculators;
//! * [`serve`] (`dpss-serve`) — the crash-resumable streaming control
//!   daemon: NDJSON sessions over stdio or a Unix socket, versioned
//!   checksummed snapshots, and deterministic replay;
//! * [`mod@bench`] (`dpss-bench`) — the experiment-runner subsystem: declarative
//!   [`SweepSpec`]s executed across threads by an [`ExperimentRunner`], one
//!   computation function per paper figure.
//!
//! # Quickstart
//!
//! ```
//! use smartdpss::{Engine, SimParams, SmartDpss, SmartDpssConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One month of synthetic traces shaped like the paper's inputs.
//! let traces = smartdpss::traces::paper_month_traces(42)?;
//! let params = SimParams::icdcs13();
//! let engine = Engine::new(params, traces)?;
//!
//! let mut smart = SmartDpss::new(SmartDpssConfig::icdcs13(), params,
//!                                engine.clock())?;
//! let report = engine.run(&mut smart)?;
//! println!("{}", report.summary());
//! assert!(report.unserved_ds.mwh() == 0.0); // datacenter stayed up
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub use dpss_bench as bench;
pub use dpss_core as core;
pub use dpss_lp as lp;
pub use dpss_serve as serve;
pub use dpss_sim as sim;
pub use dpss_traces as traces;
pub use dpss_units as units;

pub use dpss_bench::{Axis, ExperimentRunner, FigureTable, SweepSpec};
pub use dpss_lp::LpWorkspace;

pub use dpss_core::{
    DispatchMode, FleetPlanner, GreedyBattery, Impatient, MarketMode, OfflineOptimal, P4Variant,
    P5Objective, RecedingHorizon, RoutingPlanner, SmartDpss, SmartDpssConfig, TheoremBounds,
};
pub use dpss_serve::{ServeError, ServeOptions, ServeOutcome, SessionConfig, SessionServer};
pub use dpss_sim::{
    Battery, BatteryParams, Controller, DelayLedger, DemandQueue, Engine, EngineRun,
    FleetDispatcher, FleetRun, FleetWorkload, ForecastPolicy, FrameDecision, FrameDirective,
    FrameObservation, FrameOutlook, Interconnect, LoadTotals, MultiSiteEngine, MultiSiteReport,
    RoutedDispatcher, RoutingConfig, RoutingMode, RunReport, SimParams, SiteOutlook, SlotDecision,
    SlotObservation, SlotRecorder, SystemView, UnroutedDispatcher,
};
pub use dpss_traces::{Scenario, ScenarioPack, TraceSet, UniformError};
pub use dpss_units::{Energy, Money, Power, Price, SlotClock};

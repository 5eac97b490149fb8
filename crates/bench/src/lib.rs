//! Experiment harness for the SmartDPSS evaluation (§VI): one computation
//! function per paper figure, shared by the `dpss sweep` CLI and the
//! harness self-tests — plus the [`packs`] module's scenario-pack and
//! multi-datacenter sweeps and the [`routing`] module's workload-routing
//! comparison.
//!
//! Every function takes a runner and a seed (all built-in artifacts use
//! seed 42) and returns a [`FigureTable`] whose rows mirror the series the
//! paper plots. The [`ExperimentRunner`] maps each sweep's own grid (V
//! values, ablation variants, `(pack, variant)` pairs, …) through
//! `dpss-sim`'s one worker pool ([`dpss_sim::ordered_map`]), so the rows
//! come out in grid order at any thread count. `dpss sweep --figure NAME` renders any of them
//! ([`figures::NAMES`]); `--json` prints the tables for downstream
//! tooling to diff.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

// Bench policy: the harness only ever runs built-in worlds, so generator
// or engine failure is a programming error, not an experiment outcome —
// expects assert construction invariants and say which one.
// audit:allow-file(panic-unwrap): bench treats misconfiguration of built-in worlds as a programming error; every expect states its invariant

pub mod figures;
pub mod packs;
pub mod routing;
mod runner;
mod table;

pub use packs::{pack_overview_with, pack_sweep_with, topology_roster, topology_sweep_with};
pub use routing::{routing_interconnect, routing_outcomes, routing_sweep_with, RoutingOutcome};
pub use runner::ExperimentRunner;
pub use table::FigureTable;

use dpss_core::{Impatient, OfflineOptimal, SmartDpss, SmartDpssConfig};
use dpss_sim::{Controller, Engine, RunReport, SimParams};
use dpss_traces::{Scenario, TraceSet};
use dpss_units::SlotClock;

/// Canonical seed for every artifact in the repository.
pub const PAPER_SEED: u64 = 42;

/// Generates the paper's one-month trace set for `seed`.
///
/// # Panics
///
/// Panics on generator misconfiguration (impossible for built-ins).
#[must_use]
pub fn paper_traces(seed: u64) -> TraceSet {
    dpss_traces::paper_month_traces(seed).expect("built-in scenario is valid")
}

/// Generates a trace set on an arbitrary calendar (the Fig. 6(c,d) `T`
/// sweep regenerates per calendar).
///
/// # Panics
///
/// Panics on generator misconfiguration (impossible for built-ins).
#[must_use]
pub fn traces_on(clock: &SlotClock, seed: u64) -> TraceSet {
    Scenario::icdcs13()
        .generate(clock, seed)
        .expect("built-in scenario is valid")
}

/// Builds the canonical experiment world: the paper's one-month traces
/// for `seed` under the §VI-A parameters. This is the shared setup every
/// figure cell starts from (the sweep axes then vary one knob at a time).
///
/// # Panics
///
/// Panics on generator misconfiguration (impossible for built-ins).
#[must_use]
pub fn setup(seed: u64) -> (Engine, SimParams) {
    let params = SimParams::icdcs13();
    (setup_with_params(seed, params), params)
}

/// [`setup`] with explicit parameters (e.g. a different UPS size).
///
/// # Panics
///
/// Panics on invalid parameters or generator misconfiguration.
#[must_use]
pub fn setup_with_params(seed: u64, params: SimParams) -> Engine {
    Engine::new(params, paper_traces(seed)).expect("valid engine")
}

/// Runs SmartDPSS with `config` on `engine`.
///
/// # Panics
///
/// Panics if the configuration is invalid or the run fails (the harness
/// treats those as programming errors, not experiment outcomes).
#[must_use]
pub fn run_smart(engine: &Engine, params: SimParams, config: SmartDpssConfig) -> RunReport {
    let mut ctl = SmartDpss::new(config, params, engine.clock()).expect("valid configuration");
    engine.run(&mut ctl).expect("run succeeds")
}

/// One SmartDPSS controller (paper configuration) per site of an
/// `n`-site fleet on `clock` — the roster every fleet sweep runs.
///
/// # Panics
///
/// Panics if the paper configuration rejects `params` or `clock`.
#[must_use]
pub fn smart_controllers(
    n: usize,
    params: SimParams,
    clock: SlotClock,
) -> Vec<Box<dyn Controller>> {
    (0..n)
        .map(|_| {
            Box::new(
                SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock)
                    .expect("valid configuration"),
            ) as Box<dyn Controller>
        })
        .collect()
}

/// Runs the offline benchmark on `engine`: the paper's `K` independent
/// `P2` frame solves, each solved cold, so the published offline columns
/// never depend on which frames ran before.
///
/// # Panics
///
/// Panics if the run fails.
#[must_use]
pub fn run_offline(engine: &Engine, params: SimParams) -> RunReport {
    let mut ctl = OfflineOptimal::new(params, engine.truth().clone()).expect("valid configuration");
    engine.run(&mut ctl).expect("run succeeds")
}

/// Runs the Impatient baseline on `engine`.
///
/// # Panics
///
/// Panics if the run fails.
#[must_use]
pub fn run_impatient(engine: &Engine) -> RunReport {
    engine
        .run(&mut Impatient::two_markets())
        .expect("run succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_traces_are_the_month() {
        let t = paper_traces(PAPER_SEED);
        assert_eq!(t.clock.total_slots(), 744);
    }

    #[test]
    fn harness_runs_all_policies() {
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        let traces = traces_on(&clock, 1);
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, traces).unwrap();
        let s = run_smart(&engine, params, SmartDpssConfig::icdcs13());
        let o = run_offline(&engine, params);
        let i = run_impatient(&engine);
        assert_eq!(s.controller, "smart-dpss");
        assert_eq!(o.controller, "offline");
        assert_eq!(i.controller, "impatient");
    }
}

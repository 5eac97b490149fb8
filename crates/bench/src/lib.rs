//! Experiment harness for the SmartDPSS evaluation (§VI): one computation
//! function per paper figure, shared by the `fig*` regenerator binaries,
//! the `dpss sweep` CLI and the harness self-tests — plus the [`packs`]
//! module's scenario-pack and multi-datacenter sweeps.
//!
//! Every function takes a seed (all built-in artifacts use seed 42) and
//! returns a [`FigureTable`] whose rows mirror the series the paper plots.
//! Binaries print the table and also persist it as JSON under
//! `target/figures/` so downstream tooling can diff runs.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

// Bench policy: the harness only ever runs built-in worlds, so generator
// or engine failure is a programming error, not an experiment outcome —
// expects assert construction invariants and say which one.
// audit:allow-file(panic-unwrap): bench treats misconfiguration of built-in worlds as a programming error; every expect states its invariant

mod cache;
pub mod figures;
pub mod packs;
pub mod routing;
mod runner;
mod spec;
mod table;

pub use cache::{SweepCache, CACHE_SCHEMA_VERSION};
pub use packs::{
    lp_counts_row, pack_overview_with, pack_sweep, pack_sweep_with, pack_sweep_with_counts,
    topology_roster, topology_sweep_with, DispatchMode, FleetLpCounts, LP_COUNTS_COLUMNS,
};
pub use routing::{routing_interconnect, routing_outcomes, routing_sweep_with, RoutingOutcome};
pub use runner::ExperimentRunner;
pub use spec::{Axis, Cell, SweepSpec};
pub use table::FigureTable;

use dpss_core::{Impatient, OfflineConfig, OfflineOptimal, SmartDpss, SmartDpssConfig};
use dpss_sim::{Engine, RunReport, SimParams};
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
    let mut ctl =
        SmartDpss::new(config, params, engine.truth().clock).expect("valid configuration");
    engine.run(&mut ctl).expect("run succeeds")
}

/// Runs the offline benchmark on `engine`.
///
/// # Panics
///
/// Panics if the run fails.
#[must_use]
pub fn run_offline(engine: &Engine, params: SimParams) -> RunReport {
    run_offline_with(engine, params, OfflineConfig::default())
}

/// [`run_offline`] with an explicit [`OfflineConfig`] — the long-frame
/// entry point: `T = 144` is only tractable with `warm_start: true` (and
/// a pivot budget), which the default config keeps off for
/// bit-reproducibility of the published tables.
///
/// # Panics
///
/// Panics if the configuration is invalid or the run fails.
#[must_use]
pub fn run_offline_with(engine: &Engine, params: SimParams, config: OfflineConfig) -> RunReport {
    let mut ctl = OfflineOptimal::with_config(params, engine.truth().clone(), config)
        .expect("valid configuration");
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

/// Builds an [`ExperimentRunner`] from a report binary's command line:
/// `--threads N` selects the worker budget (`0` or absent = all cores).
/// Unknown flags are ignored so binaries can layer their own.
#[must_use]
pub fn runner_from_env_args() -> ExperimentRunner {
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(v) = args.next() {
                threads = v.parse().unwrap_or(0);
            }
        }
    }
    ExperimentRunner::new(threads)
}

/// Writes a figure table as JSON under `target/figures/<name>.json`
/// (best-effort: failures to create the directory are reported, not fatal,
/// so the binaries still print their tables on read-only filesystems).
pub fn persist(table: &FigureTable, name: &str) {
    let dir = std::path::Path::new("target/figures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(table) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("note: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("note: cannot serialize {name}: {e}"),
    }
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

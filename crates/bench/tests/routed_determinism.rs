//! Determinism contracts for the workload-routing layer, run in release
//! mode by CI next to the multi-site determinism job:
//!
//! * the routed comparison table (`dpss sweep --pack … --routing
//!   co-optimized`) is byte-identical for `--threads 1` vs `8`;
//! * the routed lockstep loop is invariant to the within-frame site
//!   order: a hand-driven loop stepping sites in a scrambled order
//!   through the public API (`frame_load` → annotated `outlook_at` →
//!   `direct` → `step_frame` → `exchange_at` → `settle_routed` →
//!   `settle`) reproduces [`MultiSiteEngine::run_routed`] exactly —
//!   per-site reports, settlement aggregates and the workload ledger.

use dpss_bench::{routing, ExperimentRunner, PAPER_SEED};
use dpss_core::{FleetPlanner, RoutingPlanner, SmartDpss, SmartDpssConfig};
use dpss_lp::SolverStats;
use dpss_sim::{
    Controller, Engine, FrameSettlement, MultiSiteEngine, RoutedDispatcher, RoutingConfig,
    RunReport, SimParams,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, SlotClock};

#[test]
fn routed_sweep_threads_1_and_8_are_identical() {
    let pack = ScenarioPack::builtin("traffic-wave").unwrap();
    let ic = routing::routing_interconnect(3);
    let config = RoutingConfig::icdcs13();
    let (serial, serial_stats) = routing::routing_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        config,
    );
    let (threaded, threaded_stats) =
        routing::routing_sweep_with(&ExperimentRunner::new(8), PAPER_SEED, &pack, 3, &ic, config);
    assert_eq!(serial, threaded);
    // The LP telemetry is merged in variant order: only the wall clock
    // may differ between thread counts.
    assert_eq!(
        SolverStats {
            solve_ns: 0,
            ..serial_stats
        },
        SolverStats {
            solve_ns: 0,
            ..threaded_stats
        }
    );
}

/// The acceptance fleet: 3 sites on the flash-crowd variant of the
/// traffic-wave pack over the lossy wheeled ring, full paper month.
/// Every site records its slot outcomes, so comparing two reports
/// compares every slot, not just the totals.
fn flash_crowd_fleet(clock: &SlotClock) -> MultiSiteEngine {
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("traffic-wave").unwrap();
    let flash = 2usize;
    let engines = (0..3)
        .map(|s| {
            let traces = pack.generate_site(clock, PAPER_SEED, flash, s).unwrap();
            Engine::new(params, traces)
                .unwrap()
                .with_slot_recording(true)
        })
        .collect();
    MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(routing::routing_interconnect(3))
        .unwrap()
}

#[test]
fn routed_run_is_invariant_to_within_frame_site_order() {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let config = RoutingConfig::icdcs13();
    let multi = flash_crowd_fleet(&clock);

    // Canonical: the engine's own routed loop (site order 0, 1, 2).
    let mut canonical_ctls: Vec<Box<dyn Controller>> = (0..3)
        .map(|_| {
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>
        })
        .collect();
    let mut canonical_dispatcher = RoutingPlanner::new(
        FleetPlanner::for_engine(&multi).with_coordination(true),
        config,
    )
    .unwrap();
    let canonical = multi
        .run_routed(&mut canonical_ctls, &mut canonical_dispatcher, config)
        .unwrap();
    assert!(
        canonical.load.arrived > Energy::ZERO,
        "test premise: the flash crowd routes real work"
    );
    assert!(
        canonical.load.absorbed + canonical.load.migrated > Energy::ZERO,
        "test premise: the router absorbs or migrates at least some of it"
    );

    // Manual: the same loop through the public API, sites stepped
    // 2, 0, 1 within every frame.
    let mut workload = multi.workload_ledger(config).unwrap();
    let mut routed = RoutingPlanner::new(
        FleetPlanner::for_engine(&multi).with_coordination(true),
        config,
    )
    .unwrap();
    let mut ctls: Vec<SmartDpss> = (0..3)
        .map(|_| SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
        .collect();
    let mut runs: Vec<_> = multi.sites().iter().map(|s| s.begin().unwrap()).collect();
    let mut total = FrameSettlement::default();
    for frame in 0..clock.frames() {
        let load = workload.frame_load(frame);
        let mut outlook = multi.outlook_at(frame, &runs);
        for (site, (avail, due)) in outlook
            .sites
            .iter_mut()
            .zip(load.available.iter().zip(&load.due))
        {
            site.load_backlog = *avail;
            site.load_due = *due;
        }
        let directives = routed.direct(&outlook);
        for &s in &[2usize, 0, 1] {
            if !directives.is_empty() {
                ctls[s].receive_directive(&directives[s]);
            }
            runs[s].step_frame(&mut ctls[s]).unwrap();
        }
        let ex = multi.exchange_at(frame, &runs).unwrap();
        let (settled, plan) = routed.settle_routed(&ex, &load);
        total.sent += settled.sent;
        total.delivered += settled.delivered;
        total.savings += settled.savings;
        total.wheeling += settled.wheeling;
        workload.settle(frame, &ex, &plan, multi.interconnect());
    }
    let manual: Vec<RunReport> = runs.into_iter().map(|r| r.finish().unwrap()).collect();
    let manual_load = workload.finish();
    assert!(
        canonical.sites.iter().all(|r| r.slot_outcomes.is_some()),
        "test premise: every site records its slot outcomes"
    );
    assert_eq!(manual, canonical.sites);
    assert_eq!(manual_load, canonical.load);
    assert_eq!(total.sent, canonical.energy_transferred);
    assert_eq!(total.delivered, canonical.energy_delivered);
    assert_eq!(total.savings, canonical.transfer_savings);
    assert_eq!(total.wheeling, canonical.wheeling_cost);
}

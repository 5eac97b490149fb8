//! Multi-site determinism contracts, run in release mode by CI next to
//! the sweep-determinism job:
//!
//! * pack sweeps (the `dpss sweep --pack` tables and their LP
//!   telemetry) are byte-identical for `--threads 1` vs `8` — in every
//!   dispatch mode (post-hoc, planned and coordinated);
//! * the fleet settlement is independent of site-execution order — a
//!   hand-driven lockstep loop stepping the sites in a scrambled order
//!   within every frame reproduces `MultiSiteEngine::run_with` exactly,
//!   with the greedy `Interconnect`, a planning and a coordinating
//!   `FleetPlanner` as dispatchers;
//! * one fleet row of the canonical `seasonal-calendar --sites 3` sweep
//!   is pinned byte-for-byte, and one variant of
//!   `price-spike --sites 3 --dispatch planned` next to it, so both
//!   settlement modes have goldens of their own next to the Fig. 6 one
//!   (CI uploads the corresponding `pack_sweep{,_planned}.json`
//!   artifacts, written by `dpss sweep --pack … --json`).

use dpss_bench::{packs, smart_controllers, ExperimentRunner, FigureTable, PAPER_SEED};
use dpss_core::{default_interconnect, DispatchMode, FleetPlanner, SmartDpss, SmartDpssConfig};
use dpss_lp::SolverStats;
use dpss_sim::{
    Controller, Engine, FleetDispatcher, FrameSettlement, Interconnect, MultiSiteEngine,
    MultiSiteReport, RunReport, SimParams, SlotOutcome, SlotRecorder,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

/// A sweep's table and LP telemetry with the one wall-clock field zeroed:
/// everything else must be identical at any thread count.
fn without_wall_clock((table, stats): (FigureTable, SolverStats)) -> (FigureTable, SolverStats) {
    (
        table,
        SolverStats {
            solve_ns: 0,
            ..stats
        },
    )
}

#[test]
fn pack_sweep_threads_1_and_8_are_identical() {
    let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
    let ic = default_interconnect(3).unwrap();
    let serial = without_wall_clock(packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::PostHoc,
    ));
    let threaded = without_wall_clock(packs::pack_sweep_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::PostHoc,
    ));
    assert_eq!(serial, threaded);
}

#[test]
fn planned_pack_sweep_threads_1_and_8_are_identical() {
    let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
    let ic = default_interconnect(3).unwrap();
    let serial = without_wall_clock(packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Planned,
    ));
    let threaded = without_wall_clock(packs::pack_sweep_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Planned,
    ));
    assert_eq!(serial, threaded);
}

#[test]
fn coordinated_pack_sweep_threads_1_and_8_are_identical() {
    // Coordinated cells are whole-fleet lockstep runs (one per variant),
    // so worker scheduling must not move a byte of the table.
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let ic = default_interconnect(3).unwrap();
    let serial = without_wall_clock(packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Coordinated,
    ));
    let threaded = without_wall_clock(packs::pack_sweep_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Coordinated,
    ));
    assert_eq!(serial, threaded);
}

#[test]
fn pack_overview_threads_1_and_8_are_identical() {
    let serial = packs::pack_overview_with(&ExperimentRunner::serial(), PAPER_SEED);
    let threaded = packs::pack_overview_with(&ExperimentRunner::new(8), PAPER_SEED);
    assert_eq!(serial, threaded);
}

/// The golden bytes of the canonical multi-site artifact: the first
/// variant's site and fleet rows of `dpss sweep --pack seasonal-calendar
/// --sites 3` at seed 42. Any drift in the pack seed schedule, the shared
/// market split, the controller or the settlement shows up here by name.
#[test]
fn seasonal_calendar_fleet_rows_match_golden_bytes() {
    let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
    let table = packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &default_interconnect(3).unwrap(),
        DispatchMode::PostHoc,
    )
    .0;
    // 4 variants × (3 sites + 1 fleet row).
    assert_eq!(table.rows.len(), 16);
    let golden: [[&str; 8]; 4] = [
        ["winter", "0", "33.304", "22.94", "120.5", "19.9", "-", "-"],
        ["winter", "1", "34.374", "24.88", "127.7", "6.7", "-", "-"],
        ["winter", "2", "35.517", "23.92", "128.8", "22.0", "-", "-"],
        [
            "winter", "fleet", "102.407", "23.94", "377.1", "48.6", "12.49", "586.36",
        ],
    ];
    for (row, want) in table.rows.iter().take(4).zip(&golden) {
        assert_eq!(row, want, "seasonal-calendar golden bytes drifted");
    }
}

/// The stressed price-spike fleet over a lossy wheeled ring — the
/// acceptance scenario, where directives demonstrably fire.
fn stressed_ring_fleet(sites: usize) -> MultiSiteEngine {
    let ring = Interconnect::ring(sites, Energy::from_mwh(2.0))
        .unwrap()
        .with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap();
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let stressed = 3;
    let clock = SlotClock::icdcs13_month();
    let engines = (0..sites)
        .map(|s| {
            let traces = pack.generate_site(&clock, PAPER_SEED, stressed, s).unwrap();
            Engine::new(SimParams::icdcs13(), traces).unwrap()
        })
        .collect();
    MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(ring)
        .unwrap()
}

/// Every site's slot outcomes, in site order.
type SiteSlots = Vec<Vec<SlotOutcome>>;

/// Runs `run` on a fresh SmartDPSS roster whose every controller sits
/// inside a [`SlotRecorder`], so comparing two results compares every
/// slot, not just the totals.
fn recorded_run(
    sites: usize,
    run: impl FnOnce(&mut [Box<dyn Controller>]) -> MultiSiteReport,
) -> (MultiSiteReport, SiteSlots) {
    let (params, clock) = (SimParams::icdcs13(), SlotClock::icdcs13_month());
    let recorders: Vec<SlotRecorder> = smart_controllers(sites, params, clock)
        .into_iter()
        .map(SlotRecorder::new)
        .collect();
    let logs: Vec<_> = recorders.iter().map(SlotRecorder::log).collect();
    let mut ctls: Vec<Box<dyn Controller>> = recorders
        .into_iter()
        .map(|r| Box::new(r) as Box<dyn Controller>)
        .collect();
    let report = run(&mut ctls);
    let slots: SiteSlots = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
    assert!(
        slots.iter().all(|s| s.len() == clock.total_slots()),
        "test premise: every site records its slot outcomes"
    );
    (report, slots)
}

/// Drives the lockstep loop by hand through the public stepping API
/// (`Engine::begin` / `outlook_at` / `step_frame` / `exchange_at`),
/// stepping the sites in `order` within every frame, and checks the
/// result against `canonical` — reports, settlement totals and all.
fn assert_scrambled_order_matches(
    multi: &MultiSiteEngine,
    order: &[usize],
    dispatcher: &mut dyn FleetDispatcher,
    (canonical, canonical_slots): &(MultiSiteReport, SiteSlots),
) {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let mut ctls: Vec<SlotRecorder> = order
        .iter()
        .map(|_| {
            let smart = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
            SlotRecorder::new(Box::new(smart))
        })
        .collect();
    let mut runs: Vec<_> = multi.sites().iter().map(|s| s.begin().unwrap()).collect();
    let mut total = FrameSettlement::default();
    for frame in 0..clock.frames() {
        let outlook = multi.outlook_at(frame, &runs);
        let directives = dispatcher.direct(&outlook);
        for &s in order {
            if !directives.is_empty() {
                ctls[s].receive_directive(&directives[s]);
            }
            runs[s].step_frame(&mut ctls[s]).unwrap();
        }
        let ex = multi.exchange_at(frame, &runs).unwrap();
        let settled = dispatcher.settle(&ex);
        total.sent += settled.sent;
        total.delivered += settled.delivered;
        total.savings += settled.savings;
        total.wheeling += settled.wheeling;
    }
    let manual: Vec<RunReport> = runs.into_iter().map(|r| r.finish().unwrap()).collect();
    assert_eq!(manual, canonical.sites);
    let manual_slots: SiteSlots = ctls
        .iter()
        .map(|c| c.log().lock().unwrap().clone())
        .collect();
    assert_eq!(&manual_slots, canonical_slots);
    assert_eq!(total.sent, canonical.energy_transferred);
    assert_eq!(total.delivered, canonical.energy_delivered);
    assert_eq!(total.savings, canonical.transfer_savings);
    assert_eq!(total.wheeling, canonical.wheeling_cost);
}

/// Coordinated dispatch couples the sites through directives, but only
/// *between* frames: within a frame the sites are independent, so the
/// order in which they step through a frame is immaterial — for every
/// dispatcher. Sites stepped 2, 0, 1 within every frame must reproduce
/// `MultiSiteEngine::run_with` exactly with the greedy `Interconnect`
/// (post-hoc), a fresh `FleetPlanner` (planned) and a coordinating one.
#[test]
fn coordinated_run_is_invariant_to_within_frame_site_order() {
    let multi = stressed_ring_fleet(3);
    for mode in [
        DispatchMode::PostHoc,
        DispatchMode::Planned,
        DispatchMode::Coordinated,
    ] {
        let canonical = recorded_run(3, |ctls| {
            multi
                .run_with(ctls, &mut mode.dispatcher(multi.interconnect()))
                .unwrap()
        });
        assert!(
            canonical.0.energy_transferred > Energy::ZERO,
            "test premise: the acceptance scenario settles energy ({mode})"
        );
        assert_scrambled_order_matches(
            &multi,
            &[2, 0, 1],
            &mut mode.dispatcher(multi.interconnect()),
            &canonical,
        );
    }
}

/// The fleet-scale determinism contract of the parallel stepping path:
/// a 100-site lossy ring, coordinated, over the paper month —
///
/// * serial (`threads = 1`, the default) vs `with_threads(8)` must be
///   byte-identical: thread scheduling never moves a byte of any report
///   or settlement aggregate;
/// * a hand-driven lockstep loop stepping the sites in a scrambled
///   within-frame order (a fixed 37-stride permutation) must reproduce
///   `run_with` exactly — the order-immateriality proof at the scale the
///   parallel fan-out actually targets.
///
/// Every fleet LP solves on the sparse network simplex, so this also
/// pins that path end to end at the scale it was built for.
#[test]
fn fleet_scale_100_site_ring_is_deterministic_across_threads_and_order() {
    let sites = 100usize;
    let multi = stressed_ring_fleet(sites);
    let coordinated =
        |multi: &MultiSiteEngine| FleetPlanner::for_engine(multi).with_coordination(true);
    let serial = recorded_run(sites, |ctls| {
        multi.run_with(ctls, &mut coordinated(&multi)).unwrap()
    });
    assert!(
        serial.0.energy_transferred > Energy::ZERO,
        "test premise: the stressed ring settles energy at scale"
    );

    let threaded_engine = multi.clone().with_threads(8);
    let threaded = recorded_run(sites, |ctls| {
        threaded_engine
            .run_with(ctls, &mut coordinated(&threaded_engine))
            .unwrap()
    });
    assert_eq!(serial, threaded, "threads = 8 must not move a byte");

    // Scrambled within-frame order: site k steps in position (k·37 + 11)
    // mod 100 (37 is coprime with 100, so this is a permutation).
    let order: Vec<usize> = (0..sites).map(|k| (k * 37 + 11) % sites).collect();
    assert_scrambled_order_matches(&multi, &order, &mut coordinated(&multi), &serial);
}

/// The coordinated-mode goldens next to the planned one: the `calm` and
/// `stressed` fleet rows of `dpss sweep --pack price-spike --sites 3
/// --dispatch coordinated` at seed 42. On the frictionless pooled
/// default, calm's running-average price never clears the procure
/// margin, so its directives stay inert and the row is byte-identical
/// to the planned golden — pinning inertness is the point. Stressed
/// clears it: the directives fire and its fleet row *moves* relative to
/// planned (more energy transferred, more displaced cost).
#[test]
fn price_spike_coordinated_fleet_rows_match_golden_bytes() {
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let table = packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &default_interconnect(3).unwrap(),
        DispatchMode::Coordinated,
    )
    .0;
    assert_eq!(table.rows.len(), 16);
    let calm_fleet: [&str; 8] = [
        "calm", "fleet", "100.217", "22.06", "430.4", "70.9", "25.95", "1266.45",
    ];
    assert_eq!(
        table.rows[3], calm_fleet,
        "calm coordinated golden bytes drifted (should equal the planned golden: inert directives)"
    );
    let stressed_fleet: [&str; 8] = [
        "stressed", "fleet", "101.011", "20.57", "486.0", "114.5", "31.96", "1751.08",
    ];
    assert_eq!(
        table.rows[15], stressed_fleet,
        "stressed coordinated golden bytes drifted"
    );
}

/// The planned-mode golden next to the post-hoc one: the first variant of
/// `dpss sweep --pack price-spike --sites 3 --dispatch planned` at
/// seed 42. Pins the planner's flow LP end to end (site seeds → SmartDPSS
/// → frame exchanges → warm-started settlement).
#[test]
fn price_spike_planned_fleet_rows_match_golden_bytes() {
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let table = packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &default_interconnect(3).unwrap(),
        DispatchMode::Planned,
    )
    .0;
    assert_eq!(table.rows.len(), 16);
    let golden: [[&str; 8]; 4] = [
        ["calm", "0", "32.843", "23.07", "146.1", "10.5", "-", "-"],
        ["calm", "1", "33.984", "20.00", "171.6", "34.3", "-", "-"],
        ["calm", "2", "35.093", "23.16", "112.8", "26.2", "-", "-"],
        [
            "calm", "fleet", "100.217", "22.06", "430.4", "70.9", "25.95", "1266.45",
        ],
    ];
    for (row, want) in table.rows.iter().take(4).zip(&golden) {
        assert_eq!(row, want, "price-spike planned golden bytes drifted");
    }
}

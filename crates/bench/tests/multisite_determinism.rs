//! Multi-site determinism contracts, run in release mode by CI next to
//! the sweep-determinism job:
//!
//! * pack sweeps (the `dpss sweep --pack` tables) are byte-identical for
//!   `--threads 1` vs `8` — in both settlement modes (post-hoc and
//!   planned);
//! * the fleet settlement is independent of site-execution order — the
//!   per-site runs can be computed in any order (or on any thread) and
//!   [`MultiSiteEngine::couple`] (and the planner's
//!   [`FleetPlanner::couple`]) still produce the identical aggregate;
//! * one fleet row of the canonical `seasonal-calendar --sites 3` sweep
//!   is pinned byte-for-byte, and one variant of
//!   `price-spike --sites 3 --dispatch planned` next to it, so both
//!   settlement modes have goldens of their own next to the Fig. 6 one
//!   (CI uploads the corresponding `pack_sweep{,_planned}.json`
//!   artifacts).

use dpss_bench::{packs, DispatchMode, ExperimentRunner, PAPER_SEED};
use dpss_core::{FleetPlanner, SmartDpss, SmartDpssConfig};
use dpss_sim::{
    Controller, Engine, FleetDispatcher, FrameSettlement, Interconnect, MultiSiteEngine, RunReport,
    SimParams,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

#[test]
fn pack_sweep_threads_1_and_8_are_identical() {
    let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
    let ic = packs::default_interconnect(3);
    let serial = packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::PostHoc,
    );
    let threaded = packs::pack_sweep_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::PostHoc,
    );
    assert_eq!(serial, threaded);
}

#[test]
fn planned_pack_sweep_threads_1_and_8_are_identical() {
    let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
    let ic = packs::default_interconnect(3);
    let serial = packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Planned,
    );
    let threaded = packs::pack_sweep_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Planned,
    );
    assert_eq!(serial, threaded);
}

#[test]
fn coordinated_pack_sweep_threads_1_and_8_are_identical() {
    // Coordinated cells are whole-fleet lockstep runs (one per variant),
    // so worker scheduling must not move a byte of the table.
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let ic = packs::default_interconnect(3);
    let serial = packs::pack_sweep_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Coordinated,
    );
    let threaded = packs::pack_sweep_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &pack,
        3,
        &ic,
        DispatchMode::Coordinated,
    );
    assert_eq!(serial, threaded);
}

#[test]
fn pack_overview_threads_1_and_8_are_identical() {
    let serial = packs::pack_overview_with(&ExperimentRunner::serial(), PAPER_SEED);
    let threaded = packs::pack_overview_with(&ExperimentRunner::new(8), PAPER_SEED);
    assert_eq!(serial, threaded);
}

/// Builds the 3-site renewable-drought fleet and a closure that runs one
/// site — the harness both settlement-order tests share.
fn drought_fleet() -> (MultiSiteEngine, impl Fn(usize) -> RunReport) {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("renewable-drought").unwrap();
    let sites = 3usize;
    let engines: Vec<Engine> = (0..sites)
        .map(|s| {
            Engine::new(
                params,
                pack.generate_site(&clock, PAPER_SEED, 1, s).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let multi = MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(Interconnect::pooled(sites, Energy::from_mwh(2.0)).unwrap())
        .unwrap();
    let run_site = move |multi: &MultiSiteEngine, s: usize| -> RunReport {
        let engine = &multi.sites()[s];
        let mut ctl =
            dpss_core::SmartDpss::new(SmartDpssConfig::icdcs13(), params, engine.truth().clock)
                .unwrap();
        engine.run(&mut ctl).unwrap()
    };
    let multi_for_closure = multi.clone();
    (multi, move |s| run_site(&multi_for_closure, s))
}

#[test]
fn fleet_settlement_is_independent_of_site_execution_order() {
    let (multi, run_site) = drought_fleet();
    // Three execution orders, one settlement each: all must agree.
    let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 2, 0]];
    let mut fleets = Vec::new();
    for order in orders {
        let mut reports: Vec<Option<RunReport>> = vec![None, None, None];
        for s in order {
            reports[s] = Some(run_site(s));
        }
        let reports: Vec<RunReport> = reports.into_iter().map(Option::unwrap).collect();
        fleets.push(multi.couple(reports).unwrap());
    }
    assert_eq!(fleets[0], fleets[1]);
    assert_eq!(fleets[0], fleets[2]);
}

#[test]
fn planned_settlement_is_independent_of_site_execution_order() {
    let (multi, run_site) = drought_fleet();
    let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 2, 0]];
    let mut fleets = Vec::new();
    for order in orders {
        let mut reports: Vec<Option<RunReport>> = vec![None, None, None];
        for s in order {
            reports[s] = Some(run_site(s));
        }
        let reports: Vec<RunReport> = reports.into_iter().map(Option::unwrap).collect();
        // A fresh planner per settlement: the warm-start chain must not
        // leak state across orders either.
        fleets.push(
            FleetPlanner::for_engine(&multi)
                .couple(&multi, reports)
                .unwrap(),
        );
    }
    assert_eq!(fleets[0], fleets[1]);
    assert_eq!(fleets[0], fleets[2]);
    // And the planned fleet is never worse than the greedy one.
    let posthoc = {
        let reports: Vec<RunReport> = (0..3).map(run_site).collect();
        multi.couple(reports).unwrap()
    };
    assert!(fleets[0].total_cost() <= posthoc.total_cost() + dpss_units::Money::from_dollars(1e-9));
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
        &packs::default_interconnect(3),
        DispatchMode::PostHoc,
    );
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

/// Coordinated dispatch couples the sites through directives, but only
/// *between* frames: within a frame the sites are independent, so the
/// order in which they step through a frame is immaterial. This test
/// drives the lockstep loop by hand through the public stepping API
/// (`Engine::begin` / `outlook_at` / `step_frame` / `exchange_at`) with
/// a scrambled within-frame site order and must reproduce
/// `MultiSiteEngine::run_with` exactly — reports, settlement totals and
/// all. Runs on the acceptance scenario (stressed price-spike over the
/// lossy ring), where directives demonstrably fire.
#[test]
fn coordinated_run_is_invariant_to_within_frame_site_order() {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let stressed = 3usize;
    let engines: Vec<Engine> = (0..3)
        .map(|s| {
            Engine::new(
                params,
                pack.generate_site(&clock, PAPER_SEED, stressed, s).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let ring = Interconnect::ring(3, Energy::from_mwh(2.0))
        .unwrap()
        .with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap();
    let multi = MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(ring)
        .unwrap();

    // Canonical: the engine's own lockstep loop (site order 0, 1, 2).
    let mut canonical_ctls: Vec<Box<dyn Controller>> = (0..3)
        .map(|_| {
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>
        })
        .collect();
    let mut canonical_dispatcher = FleetPlanner::for_engine(&multi).with_coordination(true);
    let canonical = multi
        .run_with(&mut canonical_ctls, &mut canonical_dispatcher)
        .unwrap();
    assert!(
        canonical.energy_transferred > Energy::ZERO,
        "test premise: the acceptance scenario settles energy"
    );

    // Manual: same loop, sites stepped 2, 0, 1 within every frame.
    let mut ctls: Vec<SmartDpss> = (0..3)
        .map(|_| SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
        .collect();
    let mut planner = FleetPlanner::for_engine(&multi).with_coordination(true);
    let mut runs: Vec<_> = multi.sites().iter().map(|s| s.begin().unwrap()).collect();
    let mut total = FrameSettlement::default();
    for frame in 0..clock.frames() {
        let outlook = multi.outlook_at(frame, &runs);
        let directives = planner.direct(&outlook);
        assert_eq!(directives.len(), 3);
        for &s in &[2usize, 0, 1] {
            ctls[s].receive_directive(&directives[s]);
            runs[s].step_frame(&mut ctls[s]).unwrap();
        }
        let ex = multi.exchange_at(frame, &runs).unwrap();
        let settled = planner.settle(&ex);
        total.sent += settled.sent;
        total.delivered += settled.delivered;
        total.savings += settled.savings;
        total.wheeling += settled.wheeling;
    }
    let manual: Vec<RunReport> = runs.into_iter().map(|r| r.finish().unwrap()).collect();
    assert_eq!(manual, canonical.sites);
    assert_eq!(total.sent, canonical.energy_transferred);
    assert_eq!(total.delivered, canonical.energy_delivered);
    assert_eq!(total.savings, canonical.transfer_savings);
    assert_eq!(total.wheeling, canonical.wheeling_cost);
}

/// The fleet-scale determinism contract of the parallel stepping path:
/// a 100-site lossy ring, coordinated, over the paper month —
///
/// * serial (`threads = 1`, the default) vs `with_threads(8)` must be
///   byte-identical: thread scheduling never moves a byte of any report
///   or settlement aggregate;
/// * a hand-driven lockstep loop stepping the sites in a scrambled
///   within-frame order (a fixed 37-stride permutation) must reproduce
///   `run_with` exactly — the PR-5 order-immateriality proof, now at the
///   scale the parallel fan-out actually targets.
///
/// Every fleet LP solves on the sparse network simplex, so this also
/// pins that path end to end at the scale it was built for.
#[test]
fn fleet_scale_100_site_ring_is_deterministic_across_threads_and_order() {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let stressed = 3usize;
    let sites = 100usize;
    let engines: Vec<Engine> = (0..sites)
        .map(|s| {
            Engine::new(
                params,
                pack.generate_site(&clock, PAPER_SEED, stressed, s).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let ring = Interconnect::ring(sites, Energy::from_mwh(2.0))
        .unwrap()
        .with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap();
    let multi = MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(ring)
        .unwrap();
    let fresh_ctls = || -> Vec<Box<dyn Controller>> {
        (0..sites)
            .map(|_| {
                Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                    as Box<dyn Controller>
            })
            .collect()
    };

    let mut serial_ctls = fresh_ctls();
    let mut serial_dispatcher = FleetPlanner::for_engine(&multi).with_coordination(true);
    let serial = multi
        .run_with(&mut serial_ctls, &mut serial_dispatcher)
        .unwrap();
    assert!(
        serial.energy_transferred > Energy::ZERO,
        "test premise: the stressed ring settles energy at scale"
    );

    let threaded_engine = multi.clone().with_threads(8);
    let mut threaded_ctls = fresh_ctls();
    let mut threaded_dispatcher =
        FleetPlanner::for_engine(&threaded_engine).with_coordination(true);
    let threaded = threaded_engine
        .run_with(&mut threaded_ctls, &mut threaded_dispatcher)
        .unwrap();
    assert_eq!(serial, threaded, "threads = 8 must not move a byte");

    // Scrambled within-frame order: site k steps in position (k·37 + 11)
    // mod 100 (37 is coprime with 100, so this is a permutation).
    let order: Vec<usize> = (0..sites).map(|k| (k * 37 + 11) % sites).collect();
    let mut ctls: Vec<SmartDpss> = (0..sites)
        .map(|_| SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
        .collect();
    let mut planner = FleetPlanner::for_engine(&multi).with_coordination(true);
    let mut runs: Vec<_> = multi.sites().iter().map(|s| s.begin().unwrap()).collect();
    let mut total = FrameSettlement::default();
    for frame in 0..clock.frames() {
        let outlook = multi.outlook_at(frame, &runs);
        let directives = planner.direct(&outlook);
        for &s in &order {
            if !directives.is_empty() {
                ctls[s].receive_directive(&directives[s]);
            }
            runs[s].step_frame(&mut ctls[s]).unwrap();
        }
        let ex = multi.exchange_at(frame, &runs).unwrap();
        let settled = planner.settle(&ex);
        total.sent += settled.sent;
        total.delivered += settled.delivered;
        total.savings += settled.savings;
        total.wheeling += settled.wheeling;
    }
    let manual: Vec<RunReport> = runs.into_iter().map(|r| r.finish().unwrap()).collect();
    assert_eq!(manual, serial.sites);
    assert_eq!(total.sent, serial.energy_transferred);
    assert_eq!(total.delivered, serial.energy_delivered);
    assert_eq!(total.savings, serial.transfer_savings);
    assert_eq!(total.wheeling, serial.wheeling_cost);
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
        &packs::default_interconnect(3),
        DispatchMode::Coordinated,
    );
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
        &packs::default_interconnect(3),
        DispatchMode::Planned,
    );
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

//! The CI scaling smoke gates: coordinated fleet months at 64, 256 and
//! 512 sites must complete inside hard wall-clock budgets in release
//! mode. The meshes are the worst-case topology (n × (n−1) directed
//! links in the settlement LP every frame), the 512-site ring is the
//! breadth canary (1024 links but a 1024-row basis). Together they keep
//! the fleet-scale path — factorized network simplex, eta-file warm
//! re-solves, threaded stepping — honest: a regression to dense-tableau
//! cost, quadratic rebuild work, or per-solve allocation churn blows a
//! budget long before it blows anyone's laptop. The 64-site mesh and the
//! 512-site ring also pin their exact simplex paths (pivots,
//! refactorizations, warm and cold solves, warm rejects), so a kernel
//! change shows whether it moved the pivot sequence, not only whether it
//! stayed inside the budget. The pooled 512-site gate bounds the other
//! end of a fleet run: building the settlement, prospective and migration
//! templates over the 261 632 links of `default_interconnect(512)`, whose
//! pool row alone lists every link.
//!
//! The budgets are deliberately loose (a shared CI runner is not a
//! bench rig): each release run takes a small fraction of its budget on
//! a warm container. In debug builds the tests are ignored — a
//! wall-clock contract on an unoptimized build measures the compiler,
//! not the code.

// audit:allow-file(wall-clock): this gate exists to bound wall-clock time; the timing is asserted against a budget, never fed into results

use std::time::Instant;

use dpss_bench::PAPER_SEED;
use dpss_core::{default_interconnect, FleetPlanner, RoutingPlanner, SmartDpss, SmartDpssConfig};
use dpss_lp::SolverStats;
use dpss_sim::{
    Controller, FrameExchange, FrameOutlook, Interconnect, LoadFrame, MultiSiteEngine,
    RoutedDispatcher, RoutingConfig, SimParams, SiteOutlook,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

/// Runs one coordinated month of the price-spike stressed variant over
/// `topology`, asserts it fits `budget_secs` and returns the planner's
/// solver telemetry.
fn assert_month_fits(
    sites: usize,
    topology: Interconnect,
    budget_secs: f64,
    label: &str,
) -> SolverStats {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let stressed = 3usize;
    let multi = MultiSiteEngine::from_pack(params, &pack, clock, PAPER_SEED, stressed, sites)
        .unwrap()
        .with_interconnect(topology)
        .unwrap()
        .with_threads(8);
    let mut ctls: Vec<Box<dyn Controller>> = (0..sites)
        .map(|_| {
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>
        })
        .collect();
    let mut dispatcher = FleetPlanner::for_engine(&multi).with_coordination(true);
    let start = Instant::now();
    let report = multi.run_with(&mut ctls, &mut dispatcher).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.sites.len(), sites);
    assert!(
        elapsed < budget_secs,
        "{label} coordinated month took {elapsed:.1}s (budget {budget_secs}s): \
         the fleet-scale path has regressed"
    );
    dispatcher.solver_stats()
}

/// A month's simplex path — pivots, refactorizations, warm and cold
/// solves, warm rejects — pinned exactly: a kernel change that claims to
/// keep the pivot sequence keeps every one of these.
fn path(stats: &SolverStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.pivots,
        stats.refactorizations,
        stats.warm_solves,
        stats.cold_solves,
        stats.warm_rejects,
    )
}

fn lossy_wheeled(base: Interconnect) -> Interconnect {
    base.with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn mesh_64_coordinated_month_fits_the_wall_clock_budget() {
    let mesh = lossy_wheeled(Interconnect::uniform(64, Energy::from_mwh(2.0)).unwrap());
    let stats = assert_month_fits(64, mesh, 120.0, "64-site mesh");
    // The mesh's simplex path, pinned like the ring's: every row carries
    // 63 columns, so long reader chains and wide reduced-cost fan-outs
    // drive this one.
    assert_eq!(path(&stats), (60_504, 185, 1, 61, 59), "{stats:?}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn mesh_256_coordinated_month_fits_the_wall_clock_budget() {
    // 256 × 255 = 65 280 directed links per settlement LP: the link-count
    // stress axis the factorized basis was built for.
    let mesh = lossy_wheeled(Interconnect::uniform(256, Energy::from_mwh(2.0)).unwrap());
    assert_month_fits(256, mesh, 300.0, "256-site mesh");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn ring_512_coordinated_month_fits_the_wall_clock_budget() {
    // 1024 links but a 1024-row basis: the row-count stress axis — the
    // eta file and refactorization cadence carry this one.
    let ring = lossy_wheeled(Interconnect::ring(512, Energy::from_mwh(2.0)).unwrap());
    let stats = assert_month_fits(512, ring, 300.0, "512-site ring");
    assert_eq!(path(&stats), (48_145, 363, 1, 61, 59), "{stats:?}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock smoke gate is a release-mode contract"
)]
fn pooled_512_templates_build_and_plan_inside_the_wall_clock_budget() {
    // The topology behind a 512-site serve fleet and a `--sites 512` pack
    // sweep: every pair linked, one pool row over all 261 632 links. A
    // template build that is quadratic in a row's length blows this
    // budget many times over.
    let sites = 512;
    let mwh = |x: f64| Energy::from_mwh(x);
    let start = Instant::now();
    let planner = FleetPlanner::new(default_interconnect(sites).unwrap()).with_coordination(true);
    let mut routed = RoutingPlanner::new(planner, RoutingConfig::icdcs13()).unwrap();
    // Even sites curtail and odd sites buy in real time, at prices that
    // differ site by site.
    let odd = |s: usize, x: f64| if s % 2 == 1 { x } else { 0.0 };
    let even = |s: usize, x: f64| if s.is_multiple_of(2) { x } else { 0.0 };
    let price = |s: usize| 40.0 + (s % 7) as f64;
    let outlook = FrameOutlook {
        frame: 1,
        sites: (0..sites)
            .map(|s| SiteOutlook {
                expected_surplus: mwh(even(s, 1.5)),
                expected_need: mwh(odd(s, 1.0)),
                expected_price: odd(s, price(s)),
                export_headroom: mwh(even(s, 3.0)),
                battery_headroom: mwh(0.5),
                procure_cost: 31.0,
                load_backlog: Energy::ZERO,
                load_due: Energy::ZERO,
            })
            .collect(),
    };
    let directives = routed.direct(&outlook);
    let ex = FrameExchange {
        frame: 1,
        curtailed: (0..sites).map(|s| mwh(even(s, 1.5))).collect(),
        rt_energy: (0..sites).map(|s| mwh(odd(s, 1.0))).collect(),
        rt_price: (0..sites).map(|s| odd(s, price(s))).collect(),
    };
    // No site queues work, so the migration template is built but its
    // solve is skipped. That solve is a kernel cost this gate does not
    // bound: on an all-pairs topology every host of a donor's work is
    // worth the same, and a cold solve pivots through a long degenerate
    // stretch (about 231 000 pivots at 256 sites with half the sites
    // queueing).
    let load = LoadFrame {
        frame: 1,
        available: vec![Energy::ZERO; sites],
        due: vec![Energy::ZERO; sites],
        spot: (0..sites).map(price).collect(),
    };
    let (settlement, plan) = routed.settle_routed(&ex, &load);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(directives.iter().any(|d| d.export_quota > Energy::ZERO));
    assert!(
        (settlement.delivered.mwh() - 2.0).abs() < 1e-9,
        "{settlement:?}"
    );
    assert!(plan.absorb.is_empty(), "{plan:?}");
    assert_eq!(routed.solver_stats().solves, 2);
    assert!(
        elapsed < 2.0,
        "pooled 512-site templates and one planned frame took {elapsed:.2}s (budget 2s): \
         the template build has regressed"
    );
}

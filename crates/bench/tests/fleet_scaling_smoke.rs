//! The CI scaling smoke gates: coordinated fleet months at 64, 256 and
//! 512 sites must complete inside hard wall-clock budgets in release
//! mode. The meshes are the worst-case topology (n × (n−1) directed
//! links in the settlement LP every frame), the 512-site ring is the
//! breadth canary (1024 links but a 1024-row basis). Together they keep
//! the fleet-scale path — factorized network simplex, eta-file warm
//! re-solves, threaded stepping — honest: a regression to dense-tableau
//! cost, quadratic rebuild work, or per-solve allocation churn blows a
//! budget long before it blows anyone's laptop.
//!
//! The budgets are deliberately loose (a shared CI runner is not a
//! bench rig): each release run takes a small fraction of its budget on
//! a warm container. In debug builds the tests are ignored — a
//! wall-clock contract on an unoptimized build measures the compiler,
//! not the code.

// audit:allow-file(wall-clock): this gate exists to bound wall-clock time; the timing is asserted against a budget, never fed into results

use std::time::Instant;

use dpss_bench::PAPER_SEED;
use dpss_core::{FleetPlanner, SmartDpss, SmartDpssConfig};
use dpss_sim::{Controller, Interconnect, MultiSiteEngine, SimParams};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

/// Runs one coordinated month of the price-spike stressed variant over
/// `topology` and asserts it fits `budget_secs`.
fn assert_month_fits(sites: usize, topology: Interconnect, budget_secs: f64, label: &str) {
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
    assert_month_fits(64, mesh, 120.0, "64-site mesh");
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
    assert_month_fits(512, ring, 300.0, "512-site ring");
}

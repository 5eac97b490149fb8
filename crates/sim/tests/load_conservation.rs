//! Load-conservation property suite for the workload-routing layer —
//! the conformance net pinning the request layer the way
//! `interconnect_physics` pins the energy layer:
//!
//! * **per-frame and cumulative conservation** — on every builtin pack
//!   variant, every routed frame balances exactly: arrived + carried
//!   backlog = served-at-spot + absorbed + migrated + new backlog, the
//!   per-frame records sum to the run totals, and the horizon-capped
//!   queue drains to zero by the final frame;
//! * **queue-age bound** — no deferrable cohort ever waits more than
//!   `max_queue_age` frames;
//! * **routing-off inertness** — on the 16 pre-existing pack variants
//!   (everything but `traffic-wave`) the plain `run_with` path carries a
//!   byte-inert load ledger, the fleet total-cost identity has no load
//!   term, and a routed run's *energy* side is byte-identical to
//!   `run_with` with the same wrapped planner (the lexicographic
//!   contract: the request layer never perturbs the energy settlement);
//! * **structural dominance** — on every variant (the traffic-wave
//!   arrivals included) the co-optimized fleet total never exceeds the
//!   routing-off total (coordinated energy run + serve-on-arrival
//!   workload bill), because deferral only ever moves work to a
//!   strictly cheaper frame and absorption/migration are free;
//! * **fleet scale** — conservation and thread-determinism hold on a
//!   100-site lossy ring.

use dpss_core::{FleetPlanner, RoutingPlanner, SmartDpss, SmartDpssConfig};
use dpss_sim::{
    Controller, Engine, Interconnect, LoadTotals, MultiSiteEngine, MultiSiteReport, RoutingConfig,
    SimParams,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

const SEED: u64 = 42;

/// The acceptance topology: a lossy wheeled ring, so migrations pay
/// capacity, loss and wheeling instead of riding a frictionless pool.
fn lossy_ring(sites: usize) -> Interconnect {
    Interconnect::ring(sites, Energy::from_mwh(2.0))
        .unwrap()
        .with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap()
}

/// The variant's fleet over the lossy ring. Every site records its slot
/// outcomes, so comparing two reports compares every slot, not just the
/// totals.
fn fleet(pack: &ScenarioPack, variant: usize, sites: usize, clock: &SlotClock) -> MultiSiteEngine {
    let params = SimParams::icdcs13();
    let engines = (0..sites)
        .map(|s| {
            let traces = pack.generate_site(clock, SEED, variant, s).unwrap();
            Engine::new(params, traces)
                .unwrap()
                .with_slot_recording(true)
        })
        .collect();
    MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(lossy_ring(sites))
        .unwrap()
}

fn smart_boxes(sites: usize, clock: SlotClock) -> Vec<Box<dyn Controller>> {
    let params = SimParams::icdcs13();
    (0..sites)
        .map(|_| {
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>
        })
        .collect()
}

fn run_off(multi: &MultiSiteEngine, clock: SlotClock) -> MultiSiteReport {
    let sites = multi.sites().len();
    let mut planner = FleetPlanner::for_engine(multi).with_coordination(true);
    multi
        .run_with(&mut smart_boxes(sites, clock), &mut planner)
        .unwrap()
}

fn run_coopt(multi: &MultiSiteEngine, clock: SlotClock, config: RoutingConfig) -> MultiSiteReport {
    let sites = multi.sites().len();
    let mut routed = RoutingPlanner::new(
        FleetPlanner::for_engine(multi).with_coordination(true),
        config,
    )
    .unwrap();
    multi
        .run_routed(&mut smart_boxes(sites, clock), &mut routed, config)
        .unwrap()
}

/// Asserts the full conservation law on a routed run's ledger: every
/// frame balances against the backlog it inherited, the records sum to
/// the totals, the queue drains by the horizon, and no cohort outwaits
/// the age bound.
fn assert_conserved(load: &LoadTotals, config: RoutingConfig, label: &str) {
    let mut carried = Energy::ZERO;
    let mut arrived = Energy::ZERO;
    let mut served = Energy::ZERO;
    let mut absorbed = Energy::ZERO;
    let mut migrated = Energy::ZERO;
    for (k, rec) in load.frames.iter().enumerate() {
        let inflow = rec.arrived + carried;
        let outflow = rec.served_spot + rec.absorbed + rec.migrated + rec.backlog;
        assert!(
            (inflow - outflow).mwh().abs() < 1e-9,
            "{label} frame {k}: {} MWh in vs {} MWh out",
            inflow.mwh(),
            outflow.mwh()
        );
        carried = rec.backlog;
        arrived += rec.arrived;
        served += rec.served_spot;
        absorbed += rec.absorbed;
        migrated += rec.migrated;
    }
    // Cumulative: the per-frame records reconstruct the run totals.
    assert!((arrived - load.arrived).mwh().abs() < 1e-9, "{label}");
    assert!((served - load.served_spot).mwh().abs() < 1e-9, "{label}");
    assert!((absorbed - load.absorbed).mwh().abs() < 1e-9, "{label}");
    assert!((migrated - load.migrated).mwh().abs() < 1e-9, "{label}");
    assert_eq!(carried, load.final_backlog, "{label}");
    // The horizon cap drains every cohort by the final frame.
    assert_eq!(
        load.final_backlog,
        Energy::ZERO,
        "{label}: backlog must drain"
    );
    // And nothing ever outwaits the age bound.
    assert!(
        load.max_wait_frames <= config.max_queue_age,
        "{label}: waited {} frames, bound {}",
        load.max_wait_frames,
        config.max_queue_age
    );
}

#[test]
fn conservation_holds_per_frame_and_cumulatively_on_every_builtin_variant() {
    let clock = SlotClock::new(4, 24, 1.0).unwrap();
    let config = RoutingConfig::icdcs13();
    let mut variants_checked = 0usize;
    let mut total_arrived = Energy::ZERO;
    for &name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(name).unwrap();
        for v in 0..pack.len() {
            let label = format!("{name}/{}", pack.variant(v).unwrap().0);
            let multi = fleet(&pack, v, 3, &clock);
            let report = run_coopt(&multi, clock, config);
            assert_eq!(report.load.frames.len(), clock.frames(), "{label}");
            assert_conserved(&report.load, config, &label);
            total_arrived += report.load.arrived;
            variants_checked += 1;
        }
    }
    assert_eq!(
        variants_checked, 20,
        "the builtin roster is the 20-variant acceptance matrix"
    );
    assert!(
        total_arrived > Energy::ZERO,
        "test premise: the traffic-wave pack routes real work"
    );
}

#[test]
fn routing_off_is_byte_inert_on_the_pre_existing_roster() {
    let clock = SlotClock::new(3, 24, 1.0).unwrap();
    let config = RoutingConfig::icdcs13();
    let mut variants_checked = 0usize;
    for &name in ScenarioPack::builtin_names() {
        if name == "traffic-wave" {
            continue; // the 16 pre-existing variants
        }
        let pack = ScenarioPack::builtin(name).unwrap();
        for v in 0..pack.len() {
            let label = format!("{name}/{}", pack.variant(v).unwrap().0);
            let multi = fleet(&pack, v, 3, &clock);
            let off = run_off(&multi, clock);
            // 1. The plain path carries a byte-inert ledger …
            assert!(off.load.is_inert(), "{label}: run_with must not route");
            // 2. … so the fleet total has no load term.
            assert_eq!(
                off.total_cost(),
                off.cost_before_transfers() - off.transfer_savings + off.wheeling_cost,
                "{label}: no load term in the routing-off total"
            );
            // 3. The routed run's energy side is byte-identical: zero the
            // ledger and the whole report must compare equal.
            let routed = run_coopt(&multi, clock, config);
            let mut energy_only = routed.clone();
            energy_only.load = LoadTotals::default();
            assert_eq!(
                energy_only, off,
                "{label}: the request layer perturbed the energy settlement"
            );
            // These traces carry no arrival stream, so the routed ledger
            // is all zeros too (records exist, but nothing flows).
            assert_eq!(routed.load.arrived, Energy::ZERO, "{label}");
            assert_eq!(routed.load.cost, dpss_units::Money::ZERO, "{label}");
            variants_checked += 1;
        }
    }
    assert_eq!(variants_checked, 16, "the pre-routing acceptance matrix");
}

#[test]
fn co_optimized_total_never_exceeds_routing_off_on_any_variant() {
    let clock = SlotClock::new(4, 24, 1.0).unwrap();
    let config = RoutingConfig::icdcs13();
    let mut variants_checked = 0usize;
    for &name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(name).unwrap();
        for v in 0..pack.len() {
            let label = format!("{name}/{}", pack.variant(v).unwrap().0);
            let multi = fleet(&pack, v, 3, &clock);
            let off_cost = run_off(&multi, clock).total_cost()
                + multi
                    .workload_ledger(config)
                    .unwrap()
                    .serve_on_arrival()
                    .cost;
            let coopt_cost = run_coopt(&multi, clock, config).total_cost();
            assert!(
                coopt_cost.dollars() <= off_cost.dollars() + 1e-9,
                "{label}: co-optimized ${} vs off ${}",
                coopt_cost.dollars(),
                off_cost.dollars()
            );
            variants_checked += 1;
        }
    }
    assert_eq!(variants_checked, 20);
}

#[test]
fn conservation_scales_to_a_hundred_site_ring() {
    // Short calendar, full fleet: 100 sites on the lossy ring with the
    // flash-crowd arrival stream: the routed loop pinned at the scale
    // the fleet axis actually targets.
    let clock = SlotClock::new(3, 12, 1.0).unwrap();
    let config = RoutingConfig::icdcs13();
    let pack = ScenarioPack::builtin("traffic-wave").unwrap();
    let flash = 2usize;
    let multi = fleet(&pack, flash, 100, &clock);
    let serial = run_coopt(&multi, clock, config);
    assert!(serial.load.arrived > Energy::ZERO, "flash crowd arrives");
    assert_conserved(&serial.load, config, "traffic-wave/flash-crowd@100");
    // Thread scheduling must not move a byte — ledger included.
    let threaded_engine = multi.clone().with_threads(8);
    let threaded = run_coopt(&threaded_engine, clock, config);
    assert!(
        serial.sites.iter().all(|r| r.slot_outcomes.is_some()),
        "test premise: every site records its slot outcomes"
    );
    assert_eq!(serial, threaded, "threads = 8 must not move a byte");
}

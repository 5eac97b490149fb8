//! Physics property suite for the interconnect settlement — the
//! conformance net pinning the multi-site control surface:
//!
//! * **fleet energy conservation** — over random topologies, caps and
//!   losses: total delivered ≤ total sent, and with a uniform line loss
//!   the gap is the loss *exactly* (`delivered = sent × (1 − loss)`);
//! * **loss monotonicity** — a higher line loss never increases the
//!   fleet's `transfer_savings`;
//! * **decoupling identity** — `cap = 0` (or a severed topology) makes
//!   the settlement bit-exactly the decoupled per-site sum;
//! * **planned ≤ post-hoc** — the `FleetPlanner` LP settles at least as
//!   well as the greedy fold on random topologies, and — with zero loss
//!   and zero wheeling — on every built-in scenario-pack variant at
//!   seed 42 (the acceptance property of the planned mode);
//! * **coordinated ≤ planned ≤ post-hoc** — on the contention scenario
//!   (price-spike pack, 3 sites, lossy ring) the frame-synchronous
//!   dispatch loop's buy-to-export directives *measurably* beat the
//!   planned post-hoc settlement (documented dollar margin, not just
//!   `≤ +1e-9`);
//! * **lockstep identity** — threaded stepping and a mid-horizon resume
//!   reproduce the serial run, compared slot by slot through per-site
//!   slot recorders.

use std::sync::{Arc, Mutex};

use dpss_core::{FleetPlanner, SmartDpss, SmartDpssConfig};
use dpss_sim::{
    Controller, Engine, EngineRun, EngineRunState, FrameDecision, FrameObservation, Interconnect,
    MultiSiteEngine, MultiSiteReport, SimError, SimParams, SlotDecision, SlotObservation,
    SlotOutcome, SlotRecorder, SystemView, UnroutedDispatcher,
};
use dpss_traces::{Scenario, ScenarioPack};
use dpss_units::{Energy, Money, Price, SlotClock};
use proptest::prelude::*;

/// Serves everything eagerly from the real-time market — cheap, and it
/// both curtails (renewable surplus) and buys real-time energy, so the
/// settlement always has donors and recipients to work with.
struct Eager;
impl Controller for Eager {
    fn name(&self) -> &str {
        "eager"
    }
    fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
        FrameDecision::default()
    }
    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        SlotDecision {
            purchase_rt: (obs.demand_ds + view.queue_backlog + obs.demand_dt - obs.renewable)
                .positive_part(),
            serve_fraction: 1.0,
        }
    }
}

/// A small fleet (2 frames × 12 slots) with per-site seeds. Eager sites
/// dispatch the same way under every topology, so one fleet settles the
/// same site runs under many interconnects.
fn small_fleet(sites: usize, seed: u64) -> MultiSiteEngine {
    let clock = SlotClock::new(2, 12, 1.0).unwrap();
    let engines: Vec<Engine> = (0..sites)
        .map(|s| {
            let traces = Scenario::icdcs13()
                .generate(&clock, seed ^ (0x9E37 * (s as u64 + 1)))
                .unwrap();
            Engine::new(SimParams::icdcs13(), traces).unwrap()
        })
        .collect();
    MultiSiteEngine::new(engines).unwrap()
}

fn eager_boxes(n: usize) -> Vec<Box<dyn Controller>> {
    (0..n)
        .map(|_| Box::new(Eager) as Box<dyn Controller>)
        .collect()
}

fn smart_boxes(n: usize, params: SimParams, clock: SlotClock) -> Vec<Box<dyn Controller>> {
    (0..n)
        .map(|_| {
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>
        })
        .collect()
}

/// Runs the eager fleet over `ic`, settling greedily.
fn settle(multi: &MultiSiteEngine, ic: Interconnect) -> MultiSiteReport {
    multi
        .clone()
        .with_interconnect(ic)
        .unwrap()
        .run(&mut eager_boxes(multi.site_count()))
        .unwrap()
}

/// Runs the eager fleet over `ic`, settling through a fresh planner.
fn settle_planned(multi: &MultiSiteEngine, ic: Interconnect) -> MultiSiteReport {
    let coupled = multi.clone().with_interconnect(ic).unwrap();
    let mut planner = FleetPlanner::for_engine(&coupled);
    coupled
        .run_with(&mut eager_boxes(multi.site_count()), &mut planner)
        .unwrap()
}

/// A random directed topology: per-pair caps in [0, 2.5] MWh/frame, a
/// uniform loss, a uniform wheeling price and an optional pooled cap.
fn random_topology(sites: usize) -> impl Strategy<Value = (Vec<f64>, f64, f64, Option<f64>)> {
    (
        proptest::collection::vec(0.0..2.5f64, sites * sites),
        0.0..0.9f64,
        0.0..8.0f64,
        // Values above 4 mean "no pooled cap" (the vendored proptest has
        // no Option strategy).
        0.0..8.0f64,
    )
        .prop_map(|(caps, loss, wheel, pool)| (caps, loss, wheel, (pool <= 4.0).then_some(pool)))
}

fn build_topology(
    sites: usize,
    caps: &[f64],
    loss: f64,
    wheel: f64,
    pool: Option<f64>,
) -> Interconnect {
    let mut ic = Interconnect::decoupled(sites).unwrap();
    for i in 0..sites {
        for j in 0..sites {
            if i != j {
                ic = ic
                    .with_link(i, j, Energy::from_mwh(caps[i * sites + j]))
                    .unwrap();
            }
        }
    }
    ic.with_uniform_loss(loss)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(wheel))
        .unwrap()
        .with_pool_cap(pool.map(Energy::from_mwh))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fleet energy conservation: delivered ≤ sent always, and with a
    /// uniform loss the gap is the line loss exactly.
    #[test]
    fn energy_is_conserved_up_to_line_losses(
        sites in 2usize..4,
        seed in 0u64..1_000,
        cap in 0.0..3.0f64,
        loss in 0.0..0.9f64,
    ) {
        let multi = small_fleet(sites, seed);
        let ic = Interconnect::uniform(sites, Energy::from_mwh(cap))
            .unwrap()
            .with_uniform_loss(loss)
            .unwrap();
        let r = settle(&multi, ic);
        prop_assert!(r.energy_delivered <= r.energy_transferred + Energy::from_mwh(1e-12));
        // Uniform loss ⇒ the sent/delivered gap is the loss *exactly*.
        prop_assert!(
            (r.energy_delivered.mwh() - r.energy_transferred.mwh() * (1.0 - loss)).abs() <= 1e-9,
            "sent {} delivered {} loss {loss}", r.energy_transferred, r.energy_delivered
        );
        // Donors can only export what they actually curtailed.
        prop_assert!(r.energy_transferred <= r.total_energy_wasted() + Energy::from_mwh(1e-9));
        // The settlement books balance by definition of the fleet row.
        prop_assert!(r.transfer_savings >= Money::ZERO);
        prop_assert_eq!(
            r.total_cost(),
            r.cost_before_transfers() - r.transfer_savings + r.wheeling_cost
        );
        // The per-link economics guard keeps settling weakly profitable.
        prop_assert!(r.total_cost() <= r.cost_before_transfers() + Money::from_dollars(1e-9));
    }

    /// Loss monotonicity: a lossier grid never saves more.
    #[test]
    fn higher_loss_never_increases_savings(
        sites in 2usize..4,
        seed in 0u64..1_000,
        cap in 0.1..3.0f64,
        loss_lo in 0.0..0.9f64,
        delta in 0.0..0.5f64,
    ) {
        let loss_hi = (loss_lo + delta).min(0.999_999);
        let multi = small_fleet(sites, seed);
        let base = Interconnect::uniform(sites, Energy::from_mwh(cap)).unwrap();
        let lo = settle(&multi, base.clone().with_uniform_loss(loss_lo).unwrap());
        let hi = settle(&multi, base.with_uniform_loss(loss_hi).unwrap());
        prop_assert!(
            hi.transfer_savings <= lo.transfer_savings + Money::from_dollars(1e-9),
            "loss {loss_lo} saves ${}, loss {loss_hi} saves ${}",
            lo.transfer_savings.dollars(),
            hi.transfer_savings.dollars()
        );
    }

    /// `cap = 0` ⇔ the settlement is bit-exactly the decoupled per-site
    /// sum, through every zero-capacity spelling of the topology.
    #[test]
    fn zero_capacity_is_bit_exactly_decoupled(
        sites in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let multi = small_fleet(sites, seed);
        let per_site_sum: Money = multi
            .sites()
            .iter()
            .map(|site| site.run(&mut Eager).unwrap().total_cost())
            .sum();
        for ic in [
            Interconnect::decoupled(sites).unwrap(),
            Interconnect::pooled(sites, Energy::ZERO).unwrap(),
            Interconnect::uniform(sites, Energy::from_mwh(2.0))
                .unwrap()
                .with_pool_cap(Some(Energy::ZERO))
                .unwrap(),
        ] {
            let r = settle(&multi, ic);
            prop_assert_eq!(r.energy_transferred, Energy::ZERO);
            prop_assert_eq!(r.transfer_savings, Money::ZERO);
            prop_assert_eq!(r.wheeling_cost, Money::ZERO);
            prop_assert_eq!(r.total_cost(), per_site_sum);
            prop_assert_eq!(r.total_cost(), r.cost_before_transfers());
        }
    }

    /// The planner's LP is never worse than the greedy fold — on fully
    /// random topologies (directed caps, losses, wheeling, pool caps).
    #[test]
    fn planned_settlement_never_loses_to_post_hoc(
        sites in 2usize..4,
        seed in 0u64..1_000,
        topo in random_topology(3),
    ) {
        let (caps, loss, wheel, pool) = topo;
        let multi = small_fleet(sites, seed);
        let ic = build_topology(sites, &caps, loss, wheel, pool);
        let posthoc = settle(&multi, ic.clone());
        let planned = settle_planned(&multi, ic);
        // Identical per-site physics; only the settlement differs.
        prop_assert_eq!(planned.cost_before_transfers(), posthoc.cost_before_transfers());
        prop_assert!(
            planned.total_cost() <= posthoc.total_cost() + Money::from_dollars(1e-9),
            "planned ${} vs post-hoc ${}",
            planned.total_cost().dollars(),
            posthoc.total_cost().dollars()
        );
        // The planner obeys the same physics bounds.
        prop_assert!(planned.energy_delivered <= planned.energy_transferred
            + Energy::from_mwh(1e-12));
        prop_assert!(planned.energy_transferred <= planned.total_energy_wasted()
            + Energy::from_mwh(1e-9));
    }
}

/// The acceptance property of the planned mode: with zero line loss and
/// zero wheeling, the planner's fleet `total_cost` is ≤ the post-hoc
/// settlement on **every built-in pack variant at seed 42** (SmartDPSS
/// per site, two sites of the variant's shared market, pooled default
/// cap — the `dpss sweep --pack` configuration on a 3-day calendar).
#[test]
fn planned_mode_never_costs_more_than_post_hoc_on_builtin_packs() {
    let clock = SlotClock::new(3, 24, 1.0).unwrap();
    let params = SimParams::icdcs13();
    let sites = 2usize;
    for name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(name).unwrap();
        for v in 0..pack.len() {
            let multi = MultiSiteEngine::from_pack(params, &pack, clock, 42, v, sites)
                .unwrap()
                .with_interconnect(Interconnect::pooled(sites, Energy::from_mwh(2.0)).unwrap())
                .unwrap();
            let posthoc = multi.run(&mut smart_boxes(sites, params, clock)).unwrap();
            let mut planner = FleetPlanner::for_engine(&multi);
            let planned = multi
                .run_with(&mut smart_boxes(sites, params, clock), &mut planner)
                .unwrap();
            assert!(
                planned.total_cost() <= posthoc.total_cost() + Money::from_dollars(1e-9),
                "{name}/{}: planned ${} vs post-hoc ${}",
                pack.variant(v).unwrap().0,
                planned.total_cost().dollars(),
                posthoc.total_cost().dollars()
            );
            // Zero loss + zero wheeling: nothing is lost and nothing is
            // billed, in either mode.
            assert_eq!(planned.energy_lost(), Energy::ZERO);
            assert_eq!(planned.wheeling_cost, Money::ZERO);
            assert_eq!(posthoc.energy_lost(), Energy::ZERO);
        }
    }
}

/// Non-vacuity premise of the property tests above: the sampled fleets
/// really do curtail, buy real-time energy and settle nonzero transfers
/// (otherwise conservation/monotonicity would hold trivially).
#[test]
fn sampled_fleets_actually_exchange_energy() {
    let mut settled = 0usize;
    for seed in 0..24u64 {
        let multi = small_fleet(3, seed);
        let r = settle(
            &multi,
            Interconnect::uniform(3, Energy::from_mwh(2.0)).unwrap(),
        );
        assert!(r.total_energy_wasted() >= Energy::ZERO);
        if r.energy_transferred > Energy::ZERO {
            assert!(r.transfer_savings > Money::ZERO);
            settled += 1;
        }
    }
    assert!(
        settled >= 8,
        "only {settled}/24 sampled fleets settled energy — the property \
         suite would be near-vacuous"
    );
}

/// The acceptance property of coordinated dispatch: on the contention
/// scenario — the price-spike pack at seed 42, 3 SmartDPSS sites, a
/// lossy ring (5% line loss, $2/MWh wheeling, 2 MWh/frame pair caps) —
/// the frame-synchronous loop's buy-to-export directives beat the
/// planned post-hoc settlement *measurably* on the stressed variant
/// (persistent real-time elevation, where the causal price forecast is
/// reliable): **at least $500 of fleet cost over the month** (measured
/// ≈ $1219, ~1.6% of fleet cost, at the 0.6 default procure margin).
/// On the calmer variants the running-average forecast never clears the
/// margin, the directives stay inert, and coordinated must not lose to
/// planned anywhere. Planned ≤ post-hoc stays a theorem throughout.
#[test]
fn coordinated_dispatch_measurably_beats_planned_on_the_contention_pack() {
    /// The documented margin: how many dollars of fleet cost coordination
    /// must save on the stressed month for this suite to stay green.
    const COORDINATION_MARGIN: f64 = 500.0;

    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("price-spike").unwrap();
    let sites = 3usize;
    let ring = Interconnect::ring(sites, Energy::from_mwh(2.0))
        .unwrap()
        .with_uniform_loss(0.05)
        .unwrap()
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .unwrap();
    let mut stressed_gap = None;
    for v in 0..pack.len() {
        let multi = MultiSiteEngine::from_pack(params, &pack, clock, 42, v, sites)
            .unwrap()
            .with_interconnect(ring.clone())
            .unwrap();

        // Post-hoc and planned share the sites' physics; only the
        // settlement differs.
        let posthoc = multi.run(&mut smart_boxes(sites, params, clock)).unwrap();
        let mut planner = FleetPlanner::for_engine(&multi);
        let planned = multi
            .run_with(&mut smart_boxes(sites, params, clock), &mut planner)
            .unwrap();
        assert_eq!(planned.sites, posthoc.sites);
        // Coordinated re-dispatches the sites frame-synchronously.
        let mut dispatcher = FleetPlanner::for_engine(&multi).with_coordination(true);
        let coordinated = multi
            .run_with(&mut smart_boxes(sites, params, clock), &mut dispatcher)
            .unwrap();

        let name = pack.variant(v).unwrap().0;
        // Theorem: the greedy settlement is a feasible LP point.
        assert!(
            planned.total_cost() <= posthoc.total_cost() + Money::from_dollars(1e-9),
            "{name}: planned ${} vs post-hoc ${}",
            planned.total_cost().dollars(),
            posthoc.total_cost().dollars()
        );
        // Coordination never loses to planned on any variant of the
        // contention pack at the default margin.
        assert!(
            coordinated.total_cost() <= planned.total_cost() + Money::from_dollars(1e-9),
            "{name}: coordinated ${} vs planned ${}",
            coordinated.total_cost().dollars(),
            planned.total_cost().dollars()
        );
        if name == "stressed" {
            stressed_gap =
                Some(planned.total_cost().dollars() - coordinated.total_cost().dollars());
        }
    }
    let gap = stressed_gap.expect("the pack has a stressed variant");
    assert!(
        gap >= COORDINATION_MARGIN,
        "coordinated dispatch must beat planned settlement by ≥ ${COORDINATION_MARGIN} \
         on the stressed month (measured gap: ${gap:.2})"
    );
}

/// On the legacy pooled lossless topology the greedy fold is optimal, so
/// the planner must *match* it (not just weakly beat it) — the guard
/// that the planned mode introduces no spurious drift on the published
/// post-hoc configuration.
#[test]
fn planner_matches_greedy_value_on_pooled_lossless_fleets() {
    let multi = small_fleet(3, 7);
    let ic = Interconnect::pooled(3, Energy::from_mwh(1.5)).unwrap();
    let posthoc = settle(&multi, ic.clone());
    let planned = settle_planned(&multi, ic);
    assert!(
        (planned.transfer_savings.dollars() - posthoc.transfer_savings.dollars()).abs() < 1e-9,
        "planned ${} vs greedy ${}",
        planned.transfer_savings.dollars(),
        posthoc.transfer_savings.dollars()
    );
}

/// One site's slot log, shared with its [`SlotRecorder`].
type SlotLog = Arc<Mutex<Vec<SlotOutcome>>>;

/// `roster` with every controller inside a [`SlotRecorder`], plus the
/// recorders' logs in site order.
fn recorded(roster: Vec<Box<dyn Controller>>) -> (Vec<Box<dyn Controller>>, Vec<SlotLog>) {
    roster
        .into_iter()
        .map(|ctl| {
            let recorder = SlotRecorder::new(ctl);
            let log = recorder.log();
            (Box::new(recorder) as Box<dyn Controller>, log)
        })
        .unzip()
}

/// Every site's slot outcomes so far, in site order.
fn read(logs: &[SlotLog]) -> Vec<Vec<SlotOutcome>> {
    logs.iter().map(|log| log.lock().unwrap().clone()).collect()
}

/// A 3-site, 3-day pooled fleet; the tests below run it through slot
/// recorders, so they compare each slot outcome, not just the totals.
fn lockstep_fleet() -> MultiSiteEngine {
    let clock = SlotClock::new(3, 24, 1.0).unwrap();
    let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
    let engines: Vec<Engine> = (0..3)
        .map(|s| {
            Engine::new(
                SimParams::icdcs13(),
                pack.generate_site(&clock, 42, 0, s).unwrap(),
            )
            .unwrap()
        })
        .collect();
    MultiSiteEngine::new(engines)
        .unwrap()
        .with_interconnect(Interconnect::pooled(3, Energy::from_mwh(1.5)).unwrap())
        .unwrap()
}

#[test]
fn threaded_stepping_is_byte_identical_to_serial() {
    let (mut ctls, logs) = recorded(eager_boxes(3));
    let serial = lockstep_fleet().run(&mut ctls).unwrap();
    let serial_slots = read(&logs);
    assert!(serial_slots.iter().all(|log| log.len() == 72));
    // 2 < sites, 4 > sites, 0 = available parallelism: every budget
    // must reproduce the serial run exactly.
    for threads in [2, 4, 0] {
        let multi = lockstep_fleet().with_threads(threads);
        assert!(multi.threads() >= 1);
        let (mut ctls, logs) = recorded(eager_boxes(3));
        let threaded = multi.run(&mut ctls).unwrap();
        assert_eq!(threaded, serial, "threads = {threads}");
        assert_eq!(read(&logs), serial_slots, "threads = {threads}");
    }
}

#[test]
fn fleet_run_resumes_mid_horizon_byte_identically() {
    let multi = lockstep_fleet();
    let (mut full_ctls, full_logs) = recorded(eager_boxes(3));
    let full = multi.run(&mut full_ctls).unwrap();
    let mut greedy = UnroutedDispatcher(multi.interconnect().clone());
    let (mut ctls, logs) = recorded(eager_boxes(3));
    let mut run = multi.begin().unwrap();
    run.step_frame(&mut ctls, &mut greedy).unwrap();
    assert!(matches!(
        run.clone().finish(),
        Err(SimError::RunIncomplete { frames_done: 1, .. })
    ));
    let states: Vec<EngineRunState> = run.runs().iter().map(EngineRun::state).collect();
    assert!(matches!(
        multi.resume(states[1..].to_vec(), run.settled()),
        Err(SimError::SiteMismatch { site: 2, .. })
    ));
    let mut resumed = multi.resume(states, run.settled()).unwrap();
    assert_eq!(resumed.frames_completed(), 1);
    while !resumed.is_done() {
        resumed.step_frame(&mut ctls, &mut greedy).unwrap();
    }
    assert_eq!(resumed.finish().unwrap(), full);
    assert_eq!(read(&logs), read(&full_logs));
}

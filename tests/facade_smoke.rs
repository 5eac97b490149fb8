//! Facade smoke test: one short run of each headline controller through
//! the `smartdpss` re-exports alone, asserting the Theorem 2 cost ordering
//! `offline ≤ smart ≤ impatient` (offline sees the whole future, so it
//! lower-bounds any online policy; impatient serves immediately at any
//! price, so a cost-aware online policy must not lose to it).

use smartdpss::{
    Engine, Impatient, OfflineOptimal, RunReport, Scenario, SimParams, SlotClock, SmartDpss,
    SmartDpssConfig,
};

/// The horizon-edge-backlog invariant. The cost ordering is only
/// meaningful if no controller "wins" by parking served-never-paid demand
/// past the horizon edge, so the edge behaviour is asserted, not assumed:
///
/// * every controller's parked backlog is FIFO-consistent — it cannot
///   exceed one `Ddtmax` arrival per slot of its oldest pending age;
/// * the *online* policies drain: whatever remains at horizon end arrived
///   within the last few slots (the service-latency floor of Eq. (2)'s
///   pre-arrival semantics, which makes even eager service one slot
///   late);
/// * the *offline benchmark* is the documented exception: its frame LP
///   enforces an intra-frame service deadline that a backlog beyond the
///   grid headroom overflows (and the plant may clip its plan), so it
///   can defer up to one coarse frame of arrivals past the edge — never
///   more. This slack is cost it never pays, which is why the ordering
///   below is checked on a horizon long enough (6 days) for it to be
///   strict anyway.
fn assert_horizon_edge_invariant(name: &str, r: &RunReport, slots_per_frame: usize) {
    let ddt_max = smartdpss::traces::paper_ddt_max().mwh();
    let age_slots = r.oldest_pending_age.map_or(0, |a| a + 1);
    assert!(
        r.final_backlog.mwh() <= age_slots as f64 * ddt_max + 1e-9,
        "{name}: parked backlog {} MWh exceeds {} slots of Ddtmax arrivals",
        r.final_backlog.mwh(),
        age_slots,
    );
    let drain_slots = if name == "offline" {
        slots_per_frame // the documented horizon-edge exception
    } else {
        3 // online service-latency floor
    };
    assert!(
        age_slots <= drain_slots,
        "{name}: oldest parked backlog is {age_slots} slots old \
         (allowed {drain_slots}) — horizon-edge draining regressed",
    );
    assert!(
        r.final_backlog.mwh() <= drain_slots as f64 * ddt_max + 1e-9,
        "{name}: parked backlog {} MWh exceeds the {drain_slots}-slot \
         horizon-edge allowance",
        r.final_backlog.mwh(),
    );
}

#[test]
fn theorem_2_cost_ordering_on_a_tiny_trace() {
    // Six days: the shortest horizon on which the ordering is strict
    // (see `assert_horizon_edge_invariant` for why short horizons are
    // delicate at the edge).
    let clock = SlotClock::new(6, 24, 1.0).unwrap();
    let traces = Scenario::icdcs13().generate(&clock, 42).unwrap();
    let params = SimParams::icdcs13();
    let engine = Engine::new(params, traces.clone()).unwrap();

    let mut smart = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
    let mut offline = OfflineOptimal::new(params, traces).unwrap();
    let mut impatient = Impatient::two_markets();

    let smart_run = engine.run(&mut smart).unwrap();
    let offline_run = engine.run(&mut offline).unwrap();
    let impatient_run = engine.run(&mut impatient).unwrap();

    // Every controller must keep the datacenter up, and none may escape
    // the horizon-edge backlog invariant.
    for (name, r) in [
        ("smart", &smart_run),
        ("offline", &offline_run),
        ("impatient", &impatient_run),
    ] {
        assert_eq!(r.availability_violations, 0, "{name} caused a blackout");
        assert_eq!(r.unserved_ds.mwh(), 0.0, "{name} dropped DS demand");
        assert_horizon_edge_invariant(name, r, clock.slots_per_frame());
    }

    let (off, smart, imp) = (
        offline_run.total_cost().dollars(),
        smart_run.total_cost().dollars(),
        impatient_run.total_cost().dollars(),
    );
    // Tiny tolerance: offline's frame LP and the online policies round
    // through the same plant, so ties at 1e-9 scale are equalities.
    assert!(
        off <= smart + 1e-6,
        "offline (${off:.4}) must lower-bound smart (${smart:.4})"
    );
    assert!(
        smart <= imp + 1e-6,
        "smart (${smart:.4}) must not lose to impatient (${imp:.4})"
    );
}

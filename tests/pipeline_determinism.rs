//! Cross-crate pipeline properties: deterministic reproduction, CSV
//! round-trips feeding the engine, and per-slot energy conservation
//! audits.

use smartdpss::sim::SlotOutcome;
use smartdpss::{
    Controller, Energy, Engine, RunReport, SimParams, SlotClock, SlotRecorder, SmartDpss,
    SmartDpssConfig, TraceSet,
};

/// Runs `ctl` on `engine` through a [`SlotRecorder`], returning the
/// report and every slot outcome in slot order.
fn run_recorded(engine: &Engine, ctl: impl Controller + 'static) -> (RunReport, Vec<SlotOutcome>) {
    let mut recorder = SlotRecorder::new(Box::new(ctl));
    let log = recorder.log();
    let report = engine.run(&mut recorder).unwrap();
    let outcomes = log.lock().unwrap().clone();
    (report, outcomes)
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let params = SimParams::icdcs13();
    let clock = SlotClock::icdcs13_month();
    let mk = || {
        let traces = smartdpss::traces::paper_month_traces(77).unwrap();
        let engine = Engine::new(params, traces).unwrap();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        engine.run(&mut ctl).unwrap()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn csv_round_trip_preserves_simulation_results() {
    let truth = smartdpss::traces::paper_month_traces(5).unwrap();
    let csv = truth.to_csv();
    let back = TraceSet::from_csv(truth.clock, &csv).unwrap();
    assert_eq!(back, truth);

    let params = SimParams::icdcs13();
    let clock = truth.clock;
    let a = {
        let engine = Engine::new(params, truth).unwrap();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        engine.run(&mut ctl).unwrap()
    };
    let b = {
        let engine = Engine::new(params, back).unwrap();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        engine.run(&mut ctl).unwrap()
    };
    assert_eq!(a, b, "csv round-trip changed the physics");
}

#[test]
fn per_slot_energy_balance_holds_over_the_month() {
    let truth = smartdpss::traces::paper_month_traces(13).unwrap();
    let params = SimParams::icdcs13();
    let clock = truth.clock;
    let engine = Engine::new(params, truth.clone()).unwrap();
    let ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
    let (r, outcomes) = run_recorded(&engine, ctl);
    assert_eq!(outcomes.len(), clock.total_slots());
    for o in &outcomes {
        // Eq. (4): s(τ) + bdc − brc = d_ds + s_dt + W (+ unserved slack).
        let lhs = o.supply_lt + o.purchase_rt + o.renewable + o.discharge;
        let rhs = o.served_ds + o.served_dt + o.charge + o.waste + o.unserved_ds;
        assert!(
            (lhs.mwh() - rhs.mwh()).abs() < 1e-6,
            "balance broken at slot {}",
            o.slot.index
        );
        // Battery exclusivity: brc(τ)·bdc(τ) ≡ 0.
        assert!(
            o.charge.mwh() == 0.0 || o.discharge.mwh() == 0.0,
            "simultaneous charge/discharge at slot {}",
            o.slot.index
        );
        // Interconnect cap (Eq. 5).
        assert!(o.grid_draw().mwh() <= 2.0 + 1e-9, "Pgrid exceeded");
        // Served delay-sensitive demand never exceeds the truth.
        assert!(o.served_ds.mwh() <= truth.demand_ds[o.slot.index].mwh() + 1e-9);
    }
    // Queue conservation at the horizon: arrivals = served + final backlog.
    let arrivals: f64 = truth.demand_dt.iter().map(|e| e.mwh()).sum();
    let accounted = r.served_dt.mwh() + r.final_backlog.mwh();
    assert!(
        (arrivals - accounted).abs() < 1e-6,
        "dt energy leak: {arrivals} vs {accounted}"
    );
}

#[test]
fn fifteen_minute_slots_run_end_to_end() {
    // The paper's other granularity (§II: slots are "15 or 60 minutes").
    // One week of 15-minute slots: 7 daily frames × 96 slots.
    let clock = SlotClock::new(7, 96, 0.25).unwrap();
    let truth = smartdpss::Scenario::icdcs13().generate(&clock, 21).unwrap();
    let params = SimParams::icdcs13();
    let engine = Engine::new(params, truth).unwrap();
    let ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
    let (r, outcomes) = run_recorded(&engine, ctl);
    assert_eq!(r.slots, 672);
    assert_eq!(outcomes.len(), 672);
    assert_eq!(r.availability_violations, 0);
    assert_eq!(r.unserved_ds.mwh(), 0.0);
    assert!((r.availability() - 1.0).abs() < 1e-12);
    for o in &outcomes {
        // Interconnect cap scales with the slot length: 2 MW × 0.25 h.
        assert!(o.grid_draw().mwh() <= 0.5 + 1e-9, "Pgrid over 15 minutes");
        let lhs = o.supply_lt + o.purchase_rt + o.renewable + o.discharge;
        let rhs = o.served_ds + o.served_dt + o.charge + o.waste + o.unserved_ds;
        assert!((lhs.mwh() - rhs.mwh()).abs() < 1e-6);
    }
}

#[test]
fn different_seeds_produce_different_but_valid_worlds() {
    let params = SimParams::icdcs13();
    let clock = SlotClock::icdcs13_month();
    let mut costs = Vec::new();
    for seed in [1, 2, 3] {
        let truth = smartdpss::traces::paper_month_traces(seed).unwrap();
        let engine = Engine::new(params, truth).unwrap();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let r = engine.run(&mut ctl).unwrap();
        assert_eq!(r.availability_violations, 0, "seed {seed}");
        costs.push(r.total_cost().dollars());
    }
    assert!(
        costs[0] != costs[1] && costs[1] != costs[2],
        "seeds must matter"
    );
}

#[test]
fn slot_recorder_is_transparent() {
    // Recording never feeds back into a decision: the report of a run
    // through the recorder is byte-identical to the bare controller's,
    // and the log sums, in slot order, to the report's energy totals.
    let truth = smartdpss::traces::paper_month_traces(42).unwrap();
    let params = SimParams::icdcs13();
    let clock = truth.clock;
    let engine = Engine::new(params, truth).unwrap();
    let smart = || SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
    let bare = engine.run(&mut smart()).unwrap();
    let (recorded, outcomes) = run_recorded(&engine, smart());
    assert_eq!(
        serde_json::to_string(&recorded).unwrap(),
        serde_json::to_string(&bare).unwrap()
    );
    assert_eq!(outcomes.len(), clock.total_slots());
    for (k, o) in outcomes.iter().enumerate() {
        assert_eq!(o.slot.index, k, "outcomes arrive in slot order");
    }
    let sum = |field: fn(&SlotOutcome) -> Energy| {
        outcomes.iter().fold(Energy::ZERO, |acc, o| acc + field(o))
    };
    assert_eq!(sum(|o| o.supply_lt), bare.energy_lt);
    assert_eq!(sum(|o| o.purchase_rt), bare.energy_rt);
    assert_eq!(sum(|o| o.waste), bare.energy_wasted);
    assert_eq!(sum(|o| o.served_ds), bare.served_ds);
    assert_eq!(sum(|o| o.served_dt), bare.served_dt);
}

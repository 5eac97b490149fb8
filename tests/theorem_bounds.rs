//! Empirical verification of the Theorem 2 guarantees (paper §V-A).
//!
//! What holds *exactly* in this reproduction, for every configuration:
//! the battery window `b(τ) ∈ [Bmin, Bmax]` (Thm 2(2)), the derived
//! `X(t)` window (Thm 2(1)), and datacenter availability.
//!
//! What holds *as a scaling law*: `Qmax`, `Ymax` and `λmax` grow `O(V)`
//! and the cost gap shrinks `O(1/V)`. The paper's deterministic constants
//! assume the printed price-free service rule; a price-respecting service
//! rule (either P5 objective against a real market) tracks prices instead,
//! so we assert the bounds up to a documented constant multiple and the
//! exact scaling direction.

use smartdpss::{
    BatteryParams, Engine, P5Objective, SimParams, SlotClock, SlotRecorder, SmartDpss,
    SmartDpssConfig, TheoremBounds,
};

/// Loose empirical multiples: regressions that break the mechanism blow
/// past these by orders of magnitude; honest O(V) behaviour sits well
/// inside. Keyed to the vendored deterministic RNG stream: on seed 42 the
/// worst observed multiples are ~8.6× Qmax and ~4.4× λmax (PaperLiteral
/// objective at V = 0.3); Derived stays below 5× on every bound.
const QUEUE_SLACK: f64 = 12.0;
const DELAY_SLACK: f64 = 6.0;

fn month_engine(params: SimParams) -> Engine {
    let traces = smartdpss::traces::paper_month_traces(42).unwrap();
    Engine::new(params, traces).unwrap()
}

/// The theorem's own regime: a battery large enough that `Vmax > 0`.
fn big_battery_params() -> SimParams {
    let mut params = SimParams::icdcs13();
    params.battery = BatteryParams::icdcs13(120.0);
    params
}

#[test]
fn battery_window_holds_for_every_configuration() {
    for minutes in [0.0, 15.0, 120.0] {
        let params = SimParams::icdcs13_with_battery(minutes);
        let engine = month_engine(params);
        for v in [0.05, 1.0, 5.0] {
            let mut ctl = SmartDpss::new(
                SmartDpssConfig::icdcs13().with_v(v),
                params,
                SlotClock::icdcs13_month(),
            )
            .unwrap();
            let r = engine.run(&mut ctl).unwrap();
            assert!(
                r.battery_min.mwh() >= params.battery.min_level.mwh() - 1e-9,
                "Bmin violated at {minutes} min, V {v}"
            );
            assert!(
                r.battery_max.mwh() <= params.battery.capacity.mwh() + 1e-9,
                "Bmax violated at {minutes} min, V {v}"
            );
            assert_eq!(
                r.availability_violations, 0,
                "blackout at {minutes} min, V {v}"
            );
        }
    }
}

#[test]
fn x_queue_stays_in_theorem_window() {
    let params = big_battery_params();
    let engine = month_engine(params);
    let config = SmartDpssConfig::icdcs13().with_v(0.3);
    let ctl = SmartDpss::new(config, params, SlotClock::icdcs13_month()).unwrap();
    let bounds = *ctl.bounds();
    assert!(bounds.v_max >= 0.3, "test must run inside the premise");
    let mut recorder = SlotRecorder::new(Box::new(ctl));
    let log = recorder.log();
    engine.run(&mut recorder).unwrap();
    let outcomes = log.lock().unwrap();
    assert_eq!(outcomes.len(), engine.clock().total_slots());
    for o in outcomes.iter() {
        let x = bounds.x_of_level(&params, o.battery_level_after.mwh());
        assert!(
            x >= bounds.x_lower - 1e-9 && x <= bounds.x_upper + 1e-9,
            "X {x} outside [{}, {}] at slot {}",
            bounds.x_lower,
            bounds.x_upper,
            o.slot.index
        );
    }
}

#[test]
fn queue_and_delay_track_their_bounds_up_to_constants() {
    let params = big_battery_params();
    let engine = month_engine(params);
    for obj in [P5Objective::Derived, P5Objective::PaperLiteral] {
        for v in [0.3, 1.0] {
            let config = SmartDpssConfig::icdcs13().with_v(v).with_p5_objective(obj);
            let bounds = TheoremBounds::compute(&config, &params, &SlotClock::icdcs13_month());
            let mut ctl = SmartDpss::new(config, params, SlotClock::icdcs13_month()).unwrap();
            let r = engine.run(&mut ctl).unwrap();
            assert!(
                r.max_backlog.mwh() <= QUEUE_SLACK * bounds.q_max,
                "{obj:?} V={v}: backlog {} vs Qmax {}",
                r.max_backlog.mwh(),
                bounds.q_max
            );
            assert!(
                ctl.y_max_seen() <= QUEUE_SLACK * bounds.y_max,
                "{obj:?} V={v}: Y {} vs Ymax {}",
                ctl.y_max_seen(),
                bounds.y_max
            );
            assert!(
                (r.max_delay_slots as f64) <= DELAY_SLACK * bounds.lambda_max_slots,
                "{obj:?} V={v}: delay {} vs λmax {}",
                r.max_delay_slots,
                bounds.lambda_max_slots
            );
        }
    }
}

#[test]
fn queue_delay_and_cost_scale_as_theorem_2_predicts() {
    // O(V) queues/delay, O(1/V) cost gap: sweep V over two decades and
    // check monotone direction with a small tolerance for trace noise.
    let params = SimParams::icdcs13();
    let engine = month_engine(params);
    let mut costs = Vec::new();
    let mut delays = Vec::new();
    let mut backlogs = Vec::new();
    for v in [0.1, 0.5, 1.0, 2.0, 5.0] {
        let mut ctl = SmartDpss::new(
            SmartDpssConfig::icdcs13().with_v(v),
            params,
            SlotClock::icdcs13_month(),
        )
        .unwrap();
        let r = engine.run(&mut ctl).unwrap();
        costs.push(r.time_average_cost().dollars());
        delays.push(r.average_delay_slots);
        backlogs.push(r.max_backlog.mwh());
    }
    for w in delays.windows(2) {
        assert!(w[1] >= w[0] * 0.95, "delay not growing with V: {delays:?}");
    }
    for w in backlogs.windows(2) {
        assert!(
            w[1] >= w[0] * 0.9,
            "backlog not growing with V: {backlogs:?}"
        );
    }
    for w in costs.windows(2) {
        assert!(w[1] <= w[0] * 1.02, "cost not shrinking with V: {costs:?}");
    }
    // Two decades of V must produce a material spread.
    assert!(delays[4] > 3.0 * delays[0], "delay O(V): {delays:?}");
    assert!(costs[0] > costs[4] * 1.1, "cost O(1/V): {costs:?}");
}

#[test]
fn epsilon_controls_the_delay_cost_knob() {
    // Fig. 7's ε effect: larger ε → shorter delay, weakly higher cost.
    let params = SimParams::icdcs13();
    let engine = month_engine(params);
    let mut prev_delay = f64::INFINITY;
    for eps in [0.25, 0.5, 1.0, 2.0] {
        let mut ctl = SmartDpss::new(
            SmartDpssConfig::icdcs13().with_epsilon(eps),
            params,
            SlotClock::icdcs13_month(),
        )
        .unwrap();
        let r = engine.run(&mut ctl).unwrap();
        assert!(
            r.average_delay_slots <= prev_delay * 1.05,
            "delay must shrink as ε grows (ε {eps}: {} vs prev {prev_delay})",
            r.average_delay_slots
        );
        prev_delay = r.average_delay_slots;
    }
}

#[test]
fn bounds_are_internally_consistent() {
    let params = big_battery_params();
    let clock = SlotClock::icdcs13_month();
    for v in [0.1, 0.39, 1.0, 5.0] {
        let config = SmartDpssConfig::icdcs13().with_v(v);
        let b = TheoremBounds::compute(&config, &params, &clock);
        assert!(
            b.u_max >= b.q_max.max(b.y_max) - 1e-12,
            "Umax covers Q and Y"
        );
        assert!(b.x_lower < b.x_upper);
        assert!(b.lambda_max_slots >= 1.0);
        assert!(b.h2 >= b.h1);
        assert!(b.cost_gap > 0.0);
    }
}

//! The stepping-API conformance suite: `Engine::begin` +
//! `step_frame × K` + `finish` must reproduce `Engine::run` **byte for
//! byte** (compared as serialized report JSON) — across every built-in
//! scenario-pack variant, the paper's base scenario, and every built-in
//! controller family, at seed 42.
//!
//! `Engine::run` steps the same frame body as the stepping API, so this
//! pins two things at once: that the legacy entry point stays intact,
//! and that external frame-by-frame drivers (the frame-synchronous fleet
//! loop, the serve daemon, custom harnesses) see exactly the physics a
//! plain run sees.

use std::sync::Arc;

use smartdpss::core::RecedingHorizon;
use smartdpss::{
    Controller, Engine, GreedyBattery, Impatient, OfflineOptimal, Price, Scenario, ScenarioPack,
    SimParams, SlotClock, SmartDpss, SmartDpssConfig,
};

/// A fresh instance of every built-in controller family.
fn controller_roster(
    params: SimParams,
    engine: &Engine,
) -> Vec<(&'static str, Box<dyn Controller>)> {
    let clock = engine.clock();
    vec![
        (
            "smart",
            Box::new(SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap())
                as Box<dyn Controller>,
        ),
        (
            "offline",
            Box::new(OfflineOptimal::new(params, engine.truth().clone()).unwrap()),
        ),
        ("impatient", Box::new(Impatient::two_markets())),
        (
            "greedy",
            Box::new(GreedyBattery::around(Price::from_dollars_per_mwh(35.0)).unwrap()),
        ),
        ("receding", Box::new(RecedingHorizon::new(params).unwrap())),
    ]
}

fn assert_stepping_matches_run(engine: &Arc<Engine>, params: SimParams, what: &str) {
    let frames = engine.clock().frames();
    // Two fresh controller rosters: one per execution path, so neither
    // sees the other's internal state.
    let run_roster = controller_roster(params, engine);
    let step_roster = controller_roster(params, engine);
    for ((name, mut run_ctl), (_, mut step_ctl)) in run_roster.into_iter().zip(step_roster) {
        let via_run = engine.run(run_ctl.as_mut()).unwrap();
        let mut stepping = engine.begin().unwrap();
        for k in 0..frames {
            assert_eq!(stepping.frames_completed(), k);
            assert!(!stepping.is_done());
            stepping.step_frame(step_ctl.as_mut()).unwrap();
        }
        assert!(stepping.is_done());
        let via_steps = stepping.finish().unwrap();
        let run_json = serde_json::to_string(&via_run).unwrap();
        let steps_json = serde_json::to_string(&via_steps).unwrap();
        assert_eq!(
            run_json, steps_json,
            "{what}/{name}: stepped run diverged from Engine::run"
        );
    }
}

#[test]
fn stepping_reproduces_run_on_every_builtin_pack_variant() {
    let clock = SlotClock::new(4, 24, 1.0).unwrap();
    let params = SimParams::icdcs13();
    for pack_name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(pack_name).unwrap();
        for v in 0..pack.len() {
            let traces = pack.generate(&clock, 42, v).unwrap();
            let engine = Arc::new(Engine::new(params, traces).unwrap());
            let what = format!("{pack_name}/{}", pack.variant(v).unwrap().0);
            assert_stepping_matches_run(&engine, params, &what);
        }
    }
}

#[test]
fn stepping_reproduces_run_on_the_paper_scenario_with_recording() {
    // The base scenario, with slot recording on — the configuration the
    // multi-site fleet loop actually drives — so the recorded outcome
    // stream is pinned too.
    let clock = SlotClock::new(4, 24, 1.0).unwrap();
    let params = SimParams::icdcs13();
    let traces = Scenario::icdcs13().generate(&clock, 42).unwrap();
    let engine = Arc::new(
        Engine::new(params, traces)
            .unwrap()
            .with_slot_recording(true),
    );
    assert_stepping_matches_run(&engine, params, "icdcs13/recorded");
}

#[test]
fn finish_requires_every_frame_and_stepping_past_the_end_is_inert() {
    let clock = SlotClock::new(3, 8, 1.0).unwrap();
    let params = SimParams::icdcs13();
    let traces = Scenario::icdcs13().generate(&clock, 42).unwrap();
    let engine = Arc::new(Engine::new(params, traces).unwrap());
    let mut ctl = Impatient::two_markets();

    // Finishing early is an error that names the progress made.
    let mut partial = engine.begin().unwrap();
    partial.step_frame(&mut ctl).unwrap();
    match partial.finish() {
        Err(smartdpss::sim::SimError::RunIncomplete {
            frames_done,
            frames_total,
        }) => {
            assert_eq!((frames_done, frames_total), (1, 3));
        }
        other => panic!("expected RunIncomplete, got {other:?}"),
    }

    // Stepping past the end is a no-op, not an error.
    let mut ctl = Impatient::two_markets();
    let mut full = engine.begin().unwrap();
    for _ in 0..3 {
        full.step_frame(&mut ctl).unwrap();
    }
    assert!(full.is_done());
    full.step_frame(&mut ctl).unwrap();
    assert_eq!(full.frames_completed(), 3);
    let report = full.finish().unwrap();
    assert!(report.total_cost() > smartdpss::Money::ZERO);
    assert_eq!(report.energy_lt + report.energy_rt, {
        let mut ctl = Impatient::two_markets();
        let r = engine.run(&mut ctl).unwrap();
        r.energy_lt + r.energy_rt
    });
}

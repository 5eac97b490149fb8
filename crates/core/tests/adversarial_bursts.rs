//! Adversarial demand bursts through both frame-LP controllers.
//!
//! Each seed drops a burst of delay-tolerant work into one frame of a
//! four-day world, sized at 0.5–3× that frame's grid headroom, so most
//! bursts leave the next frame a backlog its deadline cannot meet. The
//! offline benchmark and the receding-horizon controller (under a causal
//! and a perfect forecast) must keep every exact guarantee on every run:
//! no availability violation, no unserved delay-sensitive energy, the
//! battery inside `[min_level, capacity]`, and every MWh of delay-tolerant
//! work that arrived either served or still queued.

use dpss_core::{OfflineOptimal, RecedingHorizon};
use dpss_sim::{Controller, Engine, ForecastPolicy, SimParams, SlotRecorder};
use dpss_traces::{Scenario, TraceSet};
use dpss_units::{Energy, SlotClock};
use proptest::prelude::TestRng;

const SEEDS: u64 = 32;

/// A four-day world of seed `seed` with one burst, and the burst's size
/// as a multiple of its frame's grid headroom.
fn burst_world(rng: &mut TestRng, params: &SimParams, seed: u64) -> (TraceSet, f64) {
    let clock = SlotClock::new(4, 24, 1.0).unwrap();
    let mut truth = Scenario::icdcs13().generate(&clock, seed).unwrap();
    let t = clock.slots_per_frame();
    let frame = (rng.next_u64() % 3) as usize;
    let cap = params.grid_slot_cap(clock.slot_hours()).mwh();
    // What the grid can deliver beyond the frame's net delay-sensitive
    // demand.
    let headroom: f64 = (frame * t..(frame + 1) * t)
        .map(|i| {
            let net = truth.demand_ds[i].mwh() - truth.renewable[i].mwh();
            (cap - net.max(0.0)).max(0.0)
        })
        .sum();
    let multiple = 0.5 + 2.5 * rng.next_f64();
    let slot = frame * t + (rng.next_u64() % t as u64) as usize;
    truth.demand_dt[slot] += Energy::from_mwh(multiple * headroom);
    truth.validate().unwrap();
    (truth, multiple)
}

/// Runs `controller` on `engine` and checks every exact guarantee.
fn check(engine: &Engine, controller: Box<dyn Controller>, params: &SimParams, what: &str) {
    let mut recorder = SlotRecorder::new(controller);
    let log = recorder.log();
    let report = engine.run(&mut recorder).unwrap();
    assert_eq!(report.availability_violations, 0, "{what}");
    assert_eq!(report.unserved_ds, Energy::ZERO, "{what}");
    let log = log.lock().unwrap();
    let bat = &params.battery;
    for outcome in log.iter() {
        let level = outcome.battery_level_after;
        assert!(
            bat.min_level <= level && level <= bat.capacity,
            "{what}: battery {level} at slot {}",
            outcome.slot.index
        );
    }
    let arrived: f64 = engine.truth().demand_dt.iter().map(|e| e.mwh()).sum();
    let served: f64 = log.iter().map(|o| o.served_dt.mwh()).sum();
    let queued = log.last().unwrap().queue_after.mwh();
    assert!(
        (arrived - served - queued).abs() <= 1e-9 * (1.0 + arrived),
        "{what}: arrived {arrived} vs served {served} + queued {queued}"
    );
}

#[test]
fn bursts_keep_every_exact_guarantee_through_both_frame_lp_controllers() {
    let mut rng = TestRng::deterministic("adversarial_bursts");
    let params = SimParams::icdcs13();
    let mut beyond_headroom = 0;
    for seed in 0..SEEDS {
        let (truth, multiple) = burst_world(&mut rng, &params, seed);
        beyond_headroom += usize::from(multiple > 1.0);
        let what = |name: &str| format!("seed {seed} ({multiple:.2}x headroom) {name}");
        let engine = Engine::new(params, truth.clone()).unwrap();
        let offline = OfflineOptimal::new(params, truth).unwrap();
        check(&engine, Box::new(offline), &params, &what("offline"));
        for policy in [ForecastPolicy::PrevFrameAverage, ForecastPolicy::Oracle] {
            let engine = engine.clone().with_forecast(policy).unwrap();
            let mpc = RecedingHorizon::new(params).unwrap();
            check(
                &engine,
                Box::new(mpc),
                &params,
                &what(&format!("{policy:?}")),
            );
        }
    }
    assert!(
        beyond_headroom >= SEEDS as usize / 2,
        "{beyond_headroom} bursts"
    );
}

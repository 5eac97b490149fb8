//! Property-based checks of the plant: for *arbitrary* (even adversarial)
//! controller decisions and random worlds, the engine must preserve the
//! physical invariants — energy balance, battery window, interconnect cap,
//! queue conservation — and never panic or emit NaN.

use dpss_sim::{
    Controller, Engine, FrameDecision, FrameObservation, SimParams, SlotDecision, SlotObservation,
    SlotRecorder, SystemView,
};
use dpss_traces::Scenario;
use dpss_units::{Energy, SlotClock};
use proptest::prelude::*;

/// A controller that plays back arbitrary fuzzed decisions.
struct Fuzzed {
    lt: Vec<f64>,
    rt: Vec<f64>,
    gamma: Vec<f64>,
    frame: usize,
    slot: usize,
}

impl Controller for Fuzzed {
    fn name(&self) -> &str {
        "fuzzed"
    }
    fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
        let x = self.lt[self.frame % self.lt.len()];
        self.frame += 1;
        FrameDecision {
            purchase_lt: Energy::from_mwh(x),
        }
    }
    fn plan_slot(&mut self, _: &SlotObservation, _: &SystemView) -> SlotDecision {
        let i = self.slot;
        self.slot += 1;
        SlotDecision {
            purchase_rt: Energy::from_mwh(self.rt[i % self.rt.len()]),
            serve_fraction: self.gamma[i % self.gamma.len()],
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn physics_invariants_hold_for_arbitrary_decisions(
        seed in 0u64..400,
        lt in proptest::collection::vec(0.0..100.0f64, 1..6),
        rt in proptest::collection::vec(0.0..5.0f64, 1..10),
        gamma in proptest::collection::vec(0.0..1.0f64, 1..10),
        battery_minutes in prop_oneof![Just(0.0), Just(15.0), Just(60.0)],
    ) {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let truth = Scenario::icdcs13().generate(&clock, seed).unwrap();
        let params = SimParams::icdcs13_with_battery(battery_minutes);
        let engine = Engine::new(params, truth.clone()).unwrap();
        let mut recorder = SlotRecorder::new(Box::new(Fuzzed { lt, rt, gamma, frame: 0, slot: 0 }));
        let log = recorder.log();
        let report = engine.run(&mut recorder).unwrap();
        let outcomes = log.lock().unwrap();
        prop_assert_eq!(outcomes.len(), clock.total_slots());

        // Battery window (Thm 2(2)).
        prop_assert!(report.battery_min >= params.battery.min_level - Energy::from_mwh(1e-9));
        prop_assert!(report.battery_max <= params.battery.capacity + Energy::from_mwh(1e-9));

        let mut arrivals = 0.0;
        for o in outcomes.iter() {
            // Energy balance (Eq. 4 + unserved slack).
            let lhs = o.supply_lt + o.purchase_rt + o.renewable + o.discharge;
            let rhs = o.served_ds + o.served_dt + o.charge + o.waste + o.unserved_ds;
            prop_assert!((lhs.mwh() - rhs.mwh()).abs() < 1e-6, "slot {}", o.slot.index);
            // Interconnect cap (Eq. 5).
            prop_assert!(o.grid_draw().mwh() <= 2.0 + 1e-9);
            // Exclusive battery operation.
            prop_assert!(o.charge.mwh() == 0.0 || o.discharge.mwh() == 0.0);
            // Nothing is NaN.
            prop_assert!(o.cost.total().is_finite());
            prop_assert!(o.battery_level_after.is_finite());
            arrivals += truth.demand_dt[o.slot.index].mwh();
        }
        // Queue conservation over the horizon.
        let accounted = report.served_dt.mwh() + report.final_backlog.mwh();
        prop_assert!((arrivals - accounted).abs() < 1e-6);
        // Served delay-sensitive energy never exceeds what was demanded.
        let ds_total: f64 = truth.demand_ds.iter().map(|e| e.mwh()).sum();
        prop_assert!(report.served_ds.mwh() <= ds_total + 1e-6);
    }

    #[test]
    fn delay_accounting_is_consistent(
        seed in 0u64..200,
        gamma in 0.0..1.0f64,
    ) {
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        let truth = Scenario::icdcs13().generate(&clock, seed).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, truth).unwrap();
        let mut ctl = Fuzzed {
            lt: vec![30.0],
            rt: vec![2.0],
            gamma: vec![gamma],
            frame: 0,
            slot: 0,
        };
        let report = engine.run(&mut ctl).unwrap();
        prop_assert!(report.average_delay_slots >= 0.0);
        prop_assert!(report.max_delay_slots as f64 >= report.average_delay_slots - 1e-9);
        if let Some(age) = report.oldest_pending_age {
            prop_assert!(age < 48, "age bounded by horizon");
        }
    }
}

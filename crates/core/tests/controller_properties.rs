//! Property-based checks of the SmartDPSS controller's decision sanity:
//! for arbitrary observations and plant states, decisions must be finite
//! and respect their caps. (The LP oracles that cross-check the
//! closed-form P4/P5 are crate-private; those checks live in the
//! `smart_dpss` unit tests.)

use dpss_core::{MarketMode, P5Objective, SmartDpss, SmartDpssConfig};
use dpss_sim::{Controller, FrameObservation, SlotObservation, SystemView};
use dpss_units::{Energy, Price, SlotClock, SlotId};
use proptest::prelude::*;

fn obs_strategy() -> impl Strategy<Value = (SlotObservation, SystemView)> {
    (
        0.0..2.0f64,   // demand_ds
        0.0..0.8f64,   // demand_dt
        0.0..3.0f64,   // renewable
        0.0..100.0f64, // price_rt
        0.0..0.5f64,   // battery level
        0.0..10.0f64,  // backlog
        0.0..2.0f64,   // lt allocation
    )
        .prop_map(|(ds, dt, r, prt, level, backlog, lt)| {
            let obs = SlotObservation {
                slot: SlotId {
                    index: 30,
                    frame: 1,
                    offset: 6,
                },
                slot_hours: 1.0,
                price_rt: Price::from_dollars_per_mwh(prt),
                price_lt: Price::from_dollars_per_mwh(36.0),
                demand_ds: Energy::from_mwh(ds),
                demand_dt: Energy::from_mwh(dt),
                renewable: Energy::from_mwh(r),
            };
            let view = SystemView {
                battery_level: Energy::from_mwh(level.max(0.034)),
                battery_headroom: Energy::from_mwh(((0.5 - level) / 0.8).clamp(0.0, 0.5)),
                battery_available: Energy::from_mwh(((level - 0.033) / 1.25).clamp(0.0, 0.5)),
                battery_ops_remaining: None,
                queue_backlog: Energy::from_mwh(backlog),
                lt_allocation: Energy::from_mwh(lt.min(2.0)),
                rt_purchase_cap: Energy::from_mwh((2.0 - lt).max(0.0)),
            };
            (obs, view)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_decisions_are_always_sane(
        (obs, view) in obs_strategy(),
        v in 0.05..5.0f64,
        obj in prop_oneof![Just(P5Objective::Derived), Just(P5Objective::PaperLiteral)],
    ) {
        let params = dpss_sim::SimParams::icdcs13();
        let clock = SlotClock::icdcs13_month();
        let config = SmartDpssConfig::icdcs13().with_v(v).with_p5_objective(obj);
        let mut ctl = SmartDpss::new(config, params, clock).unwrap();
        let d = ctl.plan_slot(&obs, &view);
        prop_assert!(d.purchase_rt.is_finite());
        prop_assert!(d.purchase_rt.mwh() >= 0.0);
        prop_assert!(d.purchase_rt <= view.rt_purchase_cap + Energy::from_mwh(1e-9));
        prop_assert!(d.serve_fraction.is_finite());
        prop_assert!((0.0..=1.0).contains(&d.serve_fraction));
    }

    #[test]
    fn frame_decisions_respect_market_mode_and_caps(
        ds in 0.0..2.0f64,
        dt in 0.0..0.8f64,
        r in 0.0..3.0f64,
        plt in 0.0..100.0f64,
        backlog in 0.0..10.0f64,
    ) {
        let params = dpss_sim::SimParams::icdcs13();
        let clock = SlotClock::icdcs13_month();
        let obs = FrameObservation {
            frame: 1,
            slot: 24,
            slots_in_frame: 24,
            slot_hours: 1.0,
            price_lt: Price::from_dollars_per_mwh(plt),
            demand_ds: Energy::from_mwh(ds),
            demand_dt: Energy::from_mwh(dt),
            renewable: Energy::from_mwh(r),
        };
        let view = SystemView {
            battery_level: Energy::from_mwh(0.3),
            battery_headroom: Energy::from_mwh(0.25),
            battery_available: Energy::from_mwh(0.2),
            battery_ops_remaining: None,
            queue_backlog: Energy::from_mwh(backlog),
            lt_allocation: Energy::ZERO,
            rt_purchase_cap: Energy::from_mwh(2.0),
        };
        let mut tm = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let d = tm.plan_frame(&obs, &view);
        prop_assert!(d.purchase_lt.is_finite());
        prop_assert!(d.purchase_lt.mwh() >= 0.0);
        prop_assert!(d.purchase_lt.mwh() <= 24.0 * 2.0 + 1e-9, "frame interconnect cap");

        let mut rtm = SmartDpss::new(
            SmartDpssConfig::icdcs13().with_market(MarketMode::RealTimeOnly),
            params,
            clock,
        )
        .unwrap();
        prop_assert_eq!(rtm.plan_frame(&obs, &view).purchase_lt, Energy::ZERO);
    }
}

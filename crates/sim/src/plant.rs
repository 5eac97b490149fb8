//! Single-slot physics: applies a controller's decisions to the plant under
//! the paper's balance equation (Eq. (4)) with a feasibility guard.
//!
//! Guard policy: when a decision would require more discharge than the
//! battery can deliver, the plant first buys emergency real-time energy up
//! to the interconnect limit, then reduces delay-tolerant service, and only
//! then — if delay-sensitive demand still cannot be met — records an
//! availability violation. Nothing is ever silently dropped.

use dpss_units::{Energy, Price, SlotId};

use crate::metrics::{SlotCost, SlotOutcome};
use crate::{Battery, DemandQueue, SimError, SimParams, SlotDecision};

/// Numerical dust threshold: flows below this are treated as zero so that
/// float noise does not count as battery operations.
const DUST: f64 = 1e-9;

/// True per-slot inputs (the plant always runs on the truth, regardless of
/// what the controller observed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotInputs {
    pub slot: SlotId,
    pub slot_hours: f64,
    pub demand_ds: Energy,
    pub demand_dt: Energy,
    pub renewable: Energy,
    pub price_rt: Price,
    pub price_lt: Price,
    /// Long-term energy scheduled for this slot, `g_bef(t)/T`.
    pub lt_alloc: Energy,
}

pub(crate) fn step(
    params: &SimParams,
    inp: &SlotInputs,
    decision: &SlotDecision,
    battery: &mut Battery,
    queue: &mut DemandQueue,
) -> Result<SlotOutcome, SimError> {
    // ---- Decision validation and clamping. ------------------------------
    if !decision.purchase_rt.is_finite() || decision.purchase_rt.mwh() < 0.0 {
        return Err(SimError::InvalidDecision {
            what: "purchase_rt",
            slot: inp.slot.index,
        });
    }
    if !decision.serve_fraction.is_finite() {
        return Err(SimError::InvalidDecision {
            what: "serve_fraction",
            slot: inp.slot.index,
        });
    }
    let gamma = decision.serve_fraction.clamp(0.0, 1.0);

    let grid_cap = params.grid_slot_cap(inp.slot_hours);
    let rt_cap = (grid_cap - inp.lt_alloc).positive_part();
    let mut g_rt = decision.purchase_rt.min(rt_cap);

    // Total-supply cap `Smax` (Eq. (1)): shrink the real-time purchase if
    // the circuit would exceed it.
    if let Some(smax) = params.supply_cap {
        let fixed = inp.lt_alloc + inp.renewable;
        g_rt = g_rt.min((smax - fixed).positive_part());
    }

    // ---- Targeted delay-tolerant service. --------------------------------
    let mut dt_target = queue.backlog() * gamma;
    if let Some(sdt_max) = params.sdt_max {
        dt_target = dt_target.min(sdt_max);
    }

    // ---- Balance, battery and the feasibility guard. ---------------------
    let supplies = inp.lt_alloc + g_rt + inp.renewable;
    let need = inp.demand_ds + dt_target;
    let net = supplies - need;

    let mut emergency = Energy::ZERO;
    let mut unserved_ds = Energy::ZERO;
    let brc: Energy;
    let bdc: Energy;
    let waste: Energy;
    if net.mwh() >= 0.0 {
        let charge = net.min(battery.headroom());
        brc = if charge.mwh() > DUST {
            charge
        } else {
            Energy::ZERO
        };
        waste = net - brc;
        bdc = Energy::ZERO;
    } else {
        brc = Energy::ZERO;
        let deficit = -net;
        let bdc_max = battery.available();
        // Guard stage 1: emergency real-time purchase for whatever the
        // battery cannot cover.
        let uncovered = (deficit - bdc_max).positive_part();
        if uncovered.mwh() > DUST {
            let mut room = (rt_cap - g_rt).positive_part();
            if let Some(smax) = params.supply_cap {
                room = room.min((smax - supplies).positive_part());
            }
            emergency = uncovered.min(room);
            g_rt += emergency;
        }
        let deficit = deficit - emergency;
        let discharge = deficit.min(bdc_max);
        bdc = if discharge.mwh() > DUST {
            discharge
        } else {
            Energy::ZERO
        };
        // Guard stages 2–3: shed delay-tolerant service, then record an
        // availability violation for any remaining delay-sensitive gap.
        let shortfall = (deficit - bdc).positive_part();
        if shortfall.mwh() > DUST {
            let dt_cut = shortfall.min(dt_target);
            dt_target -= dt_cut;
            unserved_ds = shortfall - dt_cut;
        }
        waste = Energy::ZERO;
    }

    // ---- Apply state transitions. -----------------------------------------
    if brc > Energy::ZERO {
        battery.charge(brc.min(battery.headroom()))?;
    } else if bdc > Energy::ZERO {
        battery.discharge(bdc.min(battery.available()))?;
    }
    let served_dt = queue.serve(inp.slot.index, dt_target);
    queue.arrive(inp.slot.index, inp.demand_dt);
    let served_ds = (inp.demand_ds - unserved_ds).positive_part();

    // ---- Costs (Eq. before (10)). ------------------------------------------
    let battery_op = brc.mwh() > DUST || bdc.mwh() > DUST;
    let cost = SlotCost {
        long_term: inp.lt_alloc * inp.price_lt,
        real_time: g_rt * inp.price_rt,
        battery: if battery_op {
            battery.params().op_cost
        } else {
            dpss_units::Money::ZERO
        },
        waste: waste * params.waste_price,
    };

    Ok(SlotOutcome {
        slot: inp.slot,
        supply_lt: inp.lt_alloc,
        purchase_rt: g_rt,
        emergency_rt: emergency,
        renewable: inp.renewable,
        served_ds,
        served_dt,
        charge: brc,
        discharge: bdc,
        waste,
        unserved_ds,
        battery_level_after: battery.level(),
        queue_after: queue.backlog(),
        battery_op,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatteryParams;
    use dpss_units::Money;

    fn setup() -> (SimParams, Battery, DemandQueue) {
        let params = SimParams::icdcs13();
        let battery = Battery::new(params.battery).unwrap();
        (params, battery, DemandQueue::new())
    }

    fn inputs(ds: f64, dt: f64, r: f64, lt: f64) -> SlotInputs {
        SlotInputs {
            slot: SlotId {
                index: 0,
                frame: 0,
                offset: 0,
            },
            slot_hours: 1.0,
            demand_ds: Energy::from_mwh(ds),
            demand_dt: Energy::from_mwh(dt),
            renewable: Energy::from_mwh(r),
            price_rt: Price::from_dollars_per_mwh(50.0),
            price_lt: Price::from_dollars_per_mwh(30.0),
            lt_alloc: Energy::from_mwh(lt),
        }
    }

    #[test]
    fn balance_holds_in_surplus() {
        let (params, mut battery, mut queue) = setup();
        let inp = inputs(0.5, 0.2, 0.4, 1.0); // supply 1.4 vs ds 0.5
        let d = SlotDecision {
            purchase_rt: Energy::ZERO,
            serve_fraction: 0.0,
        };
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        // Surplus 0.9: battery headroom = min(0.5, (0.5−b0)/0.8).
        let headroom = (0.5 - 2.0 / 60.0) / 0.8;
        let expect_charge = 0.9_f64.min(0.5).min(headroom);
        assert!((out.charge.mwh() - expect_charge).abs() < 1e-9);
        assert!((out.waste.mwh() - (0.9 - expect_charge)).abs() < 1e-9);
        assert_eq!(out.discharge, Energy::ZERO);
        assert_eq!(out.unserved_ds, Energy::ZERO);
        assert!(out.battery_op);
        // Eq. (4): s + bdc − brc = served + W.
        let lhs = out.supply_lt + out.purchase_rt + out.renewable + out.discharge - out.charge;
        let rhs = out.served_ds + out.served_dt + out.waste;
        assert!((lhs.mwh() - rhs.mwh()).abs() < 1e-9);
    }

    #[test]
    fn battery_covers_deficit() {
        let (params, _, mut queue) = setup();
        let mut bp = BatteryParams::icdcs13(15.0);
        bp.initial_level = Energy::from_mwh(0.5); // full
        let mut battery = Battery::new(bp).unwrap();
        let inp = inputs(1.0, 0.0, 0.2, 0.5); // deficit 0.3
        let d = SlotDecision::default();
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!((out.discharge.mwh() - 0.3).abs() < 1e-9);
        assert_eq!(out.emergency_rt, Energy::ZERO);
        assert_eq!(out.unserved_ds, Energy::ZERO);
        // Level drops by ηd·bdc.
        assert!((out.battery_level_after.mwh() - (0.5 - 1.25 * 0.3)).abs() < 1e-9);
    }

    #[test]
    fn guard_buys_emergency_before_shedding() {
        let (params, mut battery, mut queue) = setup();
        // Battery nearly empty: available ~ 0. Demand 1.5, supply 0.2.
        let inp = inputs(1.5, 0.0, 0.2, 0.0);
        let d = SlotDecision::default();
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!(out.emergency_rt.mwh() > 1.0, "guard bought energy");
        assert_eq!(out.unserved_ds, Energy::ZERO);
        assert_eq!(out.served_ds, Energy::from_mwh(1.5));
        assert!(out.cost.real_time.dollars() > 0.0);
    }

    #[test]
    fn guard_sheds_dt_before_ds() {
        let mut params = SimParams::icdcs13();
        params.grid_cap = dpss_units::Power::from_mw(1.0); // tight interconnect
        let mut battery = Battery::new(params.battery).unwrap();
        let mut queue = DemandQueue::new();
        queue.arrive(0, Energy::from_mwh(2.0));
        // Demand ds 0.9, serve all backlog (γ=1 → 2.0), supply 0.
        let inp = inputs(0.9, 0.0, 0.0, 0.0);
        let d = SlotDecision {
            purchase_rt: Energy::ZERO,
            serve_fraction: 1.0,
        };
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        // Grid gives at most 1.0; battery a little. dt gets shed first.
        assert!(out.served_dt < Energy::from_mwh(2.0));
        assert_eq!(out.unserved_ds, Energy::ZERO, "ds protected: {out:?}");
    }

    #[test]
    fn availability_violation_when_interconnect_saturated() {
        let mut params = SimParams::icdcs13_with_battery(0.0);
        params.grid_cap = dpss_units::Power::from_mw(1.0);
        let mut battery = Battery::new(params.battery).unwrap();
        let mut queue = DemandQueue::new();
        let inp = inputs(1.5, 0.0, 0.0, 0.0); // no battery, grid caps at 1.0
        let d = SlotDecision::default();
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!((out.unserved_ds.mwh() - 0.5).abs() < 1e-9);
        assert!((out.served_ds.mwh() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rt_purchase_clamped_to_interconnect() {
        let (params, mut battery, mut queue) = setup();
        let inp = inputs(0.0, 0.0, 0.0, 1.5);
        let d = SlotDecision {
            purchase_rt: Energy::from_mwh(5.0), // wants more than Pgrid−lt
            serve_fraction: 0.0,
        };
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!((out.purchase_rt.mwh() - 0.5).abs() < 1e-9, "2.0 − 1.5 cap");
    }

    #[test]
    fn supply_cap_limits_purchases() {
        let mut params = SimParams::icdcs13();
        params.supply_cap = Some(Energy::from_mwh(1.0));
        let mut battery = Battery::new(params.battery).unwrap();
        let mut queue = DemandQueue::new();
        let inp = inputs(0.0, 0.0, 0.8, 0.1);
        let d = SlotDecision {
            purchase_rt: Energy::from_mwh(2.0),
            serve_fraction: 0.0,
        };
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!(out.purchase_rt.mwh() <= 0.1 + 1e-9, "Smax − lt − r = 0.1");
    }

    #[test]
    fn sdt_max_caps_service() {
        let mut params = SimParams::icdcs13();
        params.sdt_max = Some(Energy::from_mwh(0.3));
        let mut battery = Battery::new(params.battery).unwrap();
        let mut queue = DemandQueue::new();
        queue.arrive(0, Energy::from_mwh(2.0));
        let inp = inputs(0.0, 0.0, 1.0, 0.5);
        let d = SlotDecision {
            purchase_rt: Energy::ZERO,
            serve_fraction: 1.0,
        };
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!((out.served_dt.mwh() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn queue_arrival_happens_after_service() {
        let (params, mut battery, mut queue) = setup();
        queue.arrive(0, Energy::from_mwh(1.0));
        let inp = inputs(0.0, 0.7, 2.0, 0.0); // new dt arrival 0.7
        let d = SlotDecision {
            purchase_rt: Energy::ZERO,
            serve_fraction: 1.0,
        };
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        // Serves the pre-arrival backlog 1.0, then 0.7 arrives.
        assert!((out.served_dt.mwh() - 1.0).abs() < 1e-9);
        assert!((out.queue_after.mwh() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn invalid_decisions_rejected() {
        let (params, mut battery, mut queue) = setup();
        let inp = inputs(0.0, 0.0, 0.0, 0.0);
        let bad_rt = SlotDecision {
            purchase_rt: Energy::from_mwh(f64::NAN),
            serve_fraction: 0.0,
        };
        assert!(matches!(
            step(&params, &inp, &bad_rt, &mut battery, &mut queue),
            Err(SimError::InvalidDecision {
                what: "purchase_rt",
                ..
            })
        ));
        let bad_gamma = SlotDecision {
            purchase_rt: Energy::ZERO,
            serve_fraction: f64::NAN,
        };
        assert!(matches!(
            step(&params, &inp, &bad_gamma, &mut battery, &mut queue),
            Err(SimError::InvalidDecision {
                what: "serve_fraction",
                ..
            })
        ));
        // Out-of-range gamma is clamped, not rejected.
        let clamped = SlotDecision {
            purchase_rt: Energy::ZERO,
            serve_fraction: 7.0,
        };
        assert!(step(&params, &inp, &clamped, &mut battery, &mut queue).is_ok());
    }

    #[test]
    fn idle_slot_has_no_battery_cost() {
        let (params, mut battery, mut queue) = setup();
        let inp = inputs(0.5, 0.0, 0.0, 0.5); // exactly balanced
        let d = SlotDecision::default();
        let out = step(&params, &inp, &d, &mut battery, &mut queue).unwrap();
        assert!(!out.battery_op);
        assert_eq!(out.cost.battery, Money::ZERO);
        assert_eq!(out.charge, Energy::ZERO);
        assert_eq!(out.discharge, Energy::ZERO);
    }
}

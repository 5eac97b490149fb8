//! The per-coarse-frame planning linear program shared by the
//! [`OfflineOptimal`](crate::OfflineOptimal) benchmark (which feeds it the
//! truth) and the [`RecedingHorizon`](crate::RecedingHorizon) MPC
//! controller (which feeds it forecasts).
//!
//! Variables per fine slot `i ∈ [0, T)`: real-time purchase `grt_i`,
//! backlog service `sdt_i`, battery charge `brc_i` / discharge `bdc_i`,
//! waste `w_i`, battery level `b_i` and backlog `q_i`; plus one long-term
//! rate `g_slot` for the whole frame. Constraints: the balance Eq. (4),
//! the interconnect Eq. (5), the battery recursion Eq. (3) and the queue
//! recursion Eq. (2) with pre-arrival service limits.
//!
//! The service deadline — the backlog `q0` standing at the frame start is
//! served within the frame's `T` slots — is a bound, not a row: the queue
//! recursion gives `q_{T−1} = q0 + Σ d_dt − Σ sdt`, so `Σ sdt ≥ q0` is
//! exactly `q_{T−1} ≤ Σ d_dt`. Arrivals inside the frame may wait into
//! the next one. Every frame therefore has the same shape: a [`FrameLp`]
//! is built once per `(T, slot_cap)`, and each frame only edits prices,
//! right-hand sides and that bound ([`FrameLp::plan`]).

// Variable and row ids are minted by the template build that later reads
// them back, and slot vectors are sized by the template's `T`.
// audit:allow-file(slice-index): variable ids and slot vectors are minted/sized in the same frame-LP template build

use dpss_lp::{ConstraintId, LpError, LpWorkspace, Problem, Relation, Sense, Variable};
use dpss_sim::SimParams;

use crate::CoreError;

/// One frame's inputs (energies in MWh, prices in $/MWh); every series
/// holds one value per fine slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameData<'a> {
    /// Long-term price for the frame.
    pub p_lt: f64,
    /// Real-time price per slot.
    pub p_rt: &'a [f64],
    /// Delay-sensitive demand per slot.
    pub d_ds: &'a [f64],
    /// Delay-tolerant arrivals per slot.
    pub d_dt: &'a [f64],
    /// Renewable production per slot.
    pub renewable: &'a [f64],
    /// Battery level at frame start.
    pub b0: f64,
    /// Backlog at frame start.
    pub q0: f64,
}

/// The solved plan: long-term per-slot rate, and per-slot real-time
/// purchases and backlog service.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FramePlan {
    pub g_slot: f64,
    pub grt: Vec<f64>,
    pub sdt: Vec<f64>,
}

/// Slot `i`'s rows whose right-hand side a frame sets: balance (Eq. 4,
/// `d_ds − r`), battery (Eq. 3, `b0` in slot 0), queue (Eq. 2, `d_dt`
/// plus `q0` in slot 0) and the pre-arrival service limit (`q0` in slot 0).
#[derive(Debug, Clone, Copy)]
struct SlotRows {
    balance: ConstraintId,
    battery: ConstraintId,
    queue: ConstraintId,
    service: ConstraintId,
}

/// The frame LP template for one `(T, slot_cap)`: the problem plus the
/// handles each frame edits or reads back.
#[derive(Debug, Clone)]
pub(crate) struct FrameLp {
    pub(crate) problem: Problem,
    slot_cap: f64,
    g_slot: Variable,
    grt: Vec<Variable>,
    sdt: Vec<Variable>,
    /// `q_{T−1}`; its upper bound is the deadline.
    last_backlog: Variable,
    rows: Vec<SlotRows>,
}

impl FrameLp {
    /// The template in `slot`, built on first use and rebuilt only when
    /// the frame length `t` or the per-slot grid cap `slot_cap` changes.
    pub fn reuse<'s>(
        slot: &'s mut Option<FrameLp>,
        params: &SimParams,
        t: usize,
        slot_cap: f64,
    ) -> Result<&'s mut FrameLp, CoreError> {
        let lp = match slot.take() {
            Some(lp) if lp.grt.len() == t && lp.slot_cap == slot_cap => lp,
            _ => FrameLp::new(params, t, slot_cap)?,
        };
        Ok(slot.insert(lp))
    }

    /// Builds the template for frames of `t ≥ 1` slots under the per-slot
    /// grid cap `slot_cap` (`Pgrid·Δh`). Prices and right-hand sides stay
    /// zero, and the deadline unset, until [`plan`](Self::plan) sets them.
    pub fn new(params: &SimParams, t: usize, slot_cap: f64) -> Result<Self, CoreError> {
        let bat = &params.battery;
        // An LP cannot price the per-operation indicator n(τ)·Cb; linearize
        // wear as cost-per-MWh at full rate (the realized report still pays
        // the true indicator cost).
        let wear = |rate: f64| {
            if rate > 0.0 {
                bat.op_cost.dollars() / rate
            } else {
                0.0
            }
        };
        let sdt_ub = params.sdt_max.map_or(f64::INFINITY, |s| s.mwh());
        let (eta_c, eta_d) = (bat.charge_efficiency, bat.discharge_efficiency);

        let mut p = Problem::new(Sense::Minimize);
        let g_slot = p.add_var(0.0, slot_cap, 0.0)?;
        let mut slots = Vec::with_capacity(t);
        for _ in 0..t {
            slots.push([
                p.add_var(0.0, slot_cap, 0.0)?,
                p.add_var(0.0, sdt_ub, 0.0)?,
                p.add_var(0.0, bat.max_charge.mwh(), wear(bat.max_charge.mwh()))?,
                p.add_var(0.0, bat.max_discharge.mwh(), wear(bat.max_discharge.mwh()))?,
                p.add_var(0.0, f64::INFINITY, params.waste_price.dollars_per_mwh())?,
                p.add_var(bat.min_level.mwh(), bat.capacity.mwh(), 0.0)?,
                p.add_var(0.0, f64::INFINITY, 0.0)?,
            ]);
        }
        let mut rows = Vec::with_capacity(t);
        let mut prev: Option<(Variable, Variable)> = None;
        for &[grt, sdt, brc, bdc, waste, level, backlog] in &slots {
            // Balance (Eq. 4): g + grt + r + bdc − brc = dds + sdt + w.
            let balance = [
                (g_slot, 1.0),
                (grt, 1.0),
                (bdc, 1.0),
                (brc, -1.0),
                (sdt, -1.0),
                (waste, -1.0),
            ];
            let balance = p.add_constraint(&balance, Relation::Eq, 0.0)?;
            // Interconnect (Eq. 5).
            p.add_constraint(&[(g_slot, 1.0), (grt, 1.0)], Relation::Le, slot_cap)?;
            // Battery recursion (Eq. 3), queue recursion (Eq. 2) and the
            // pre-arrival service limit, each chained to the slot before.
            let mut battery = vec![(level, 1.0)];
            battery.extend(prev.map(|(b, _)| (b, -1.0)));
            battery.extend([(brc, -eta_c), (bdc, eta_d)]);
            let battery = p.add_constraint(&battery, Relation::Eq, 0.0)?;
            let mut queue = vec![(backlog, 1.0)];
            queue.extend(prev.map(|(_, q)| (q, -1.0)));
            queue.push((sdt, 1.0));
            let queue = p.add_constraint(&queue, Relation::Eq, 0.0)?;
            let mut service = vec![(sdt, 1.0)];
            service.extend(prev.map(|(_, q)| (q, -1.0)));
            let service = p.add_constraint(&service, Relation::Le, 0.0)?;
            rows.push(SlotRows {
                balance,
                battery,
                queue,
                service,
            });
            prev = Some((level, backlog));
        }
        let (_, last_backlog) = prev.ok_or(CoreError::InvalidConfig {
            what: "frame length",
            requirement: "must be at least one slot",
        })?;
        Ok(FrameLp {
            problem: p,
            slot_cap,
            g_slot,
            grt: slots.iter().map(|s| s[0]).collect(),
            sdt: slots.iter().map(|s| s[1]).collect(),
            last_backlog,
            rows,
        })
    }

    /// Writes `frame`'s prices, right-hand sides and deadline into the
    /// template; everything else is the same for every frame.
    fn set_frame(&mut self, frame: &FrameData<'_>) -> Result<(), CoreError> {
        let p = &mut self.problem;
        p.set_objective(self.g_slot, frame.p_lt * self.grt.len() as f64)?;
        for (i, (&grt, rows)) in self.grt.iter().zip(&self.rows).enumerate() {
            p.set_objective(grt, frame.p_rt[i])?;
            p.set_rhs(rows.balance, frame.d_ds[i] - frame.renewable[i])?;
            // Slot 0 starts from the frame's battery level and backlog.
            let arrivals = frame.d_dt[i];
            let (b0, q0, queue) = match i {
                0 => (frame.b0, frame.q0, frame.q0 + arrivals),
                _ => (0.0, 0.0, arrivals),
            };
            p.set_rhs(rows.battery, b0)?;
            p.set_rhs(rows.queue, queue)?;
            p.set_rhs(rows.service, q0)?;
        }
        // The deadline Σ sdt ≥ q0, as a bound on the last backlog.
        p.set_bounds(self.last_backlog, 0.0, frame.d_dt.iter().sum())?;
        Ok(())
    }

    /// Plans `frame` through `ws`. Whether the solve starts from the
    /// previous frame's basis is the caller's policy: `RecedingHorizon`
    /// keeps the basis, `OfflineOptimal` clears it (see their docs). A
    /// frame the solver proves infeasible (a backlog beyond the frame's
    /// grid headroom) is re-solved with the deadline's bound lifted,
    /// letting delays grow rather than failing the frame; the next frame
    /// sets it again. Any other solver error reaches the caller.
    pub fn plan(
        &mut self,
        frame: &FrameData<'_>,
        ws: &mut LpWorkspace,
    ) -> Result<FramePlan, CoreError> {
        self.set_frame(frame)?;
        let sol = match self.problem.solve_with(ws) {
            Err(LpError::Infeasible) => {
                self.problem
                    .set_bounds(self.last_backlog, 0.0, f64::INFINITY)?;
                self.problem.solve_with(ws)?
            }
            solved => solved?,
        };
        Ok(FramePlan {
            g_slot: sol.value(self.g_slot),
            grt: self.grt.iter().map(|&v| sol.value(v)).collect(),
            sdt: self.sdt.iter().map(|&v| sol.value(v)).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss_units::Energy;
    use proptest::prelude::TestRng;

    /// An owned frame for tests.
    #[derive(Debug, Clone)]
    struct Frame {
        p_lt: f64,
        p_rt: Vec<f64>,
        d_ds: Vec<f64>,
        d_dt: Vec<f64>,
        renewable: Vec<f64>,
        b0: f64,
        q0: f64,
    }

    impl Frame {
        fn data(&self) -> FrameData<'_> {
            FrameData {
                p_lt: self.p_lt,
                p_rt: &self.p_rt,
                d_ds: &self.d_ds,
                d_dt: &self.d_dt,
                renewable: &self.renewable,
                b0: self.b0,
                q0: self.q0,
            }
        }
    }

    fn frame(p_rt: &[f64], d_ds: &[f64], d_dt: &[f64], renewable: &[f64]) -> Frame {
        Frame {
            p_lt: 35.0,
            p_rt: p_rt.to_vec(),
            d_ds: d_ds.to_vec(),
            d_dt: d_dt.to_vec(),
            renewable: renewable.to_vec(),
            b0: 0.25,
            q0: 0.5,
        }
    }

    fn plan(params: &SimParams, f: &Frame) -> Result<FramePlan, CoreError> {
        FrameLp::new(params, f.d_ds.len(), 2.0)?.plan(&f.data(), &mut LpWorkspace::new())
    }

    /// The cumulative-service formulation the template replaced: the
    /// deadline is the row `Σ sdt ≥ q0`, present only when `q0 > 0`
    /// (and `deadline` is set), and every backlog is unbounded above.
    fn reference(params: &SimParams, slot_cap: f64, f: &Frame, deadline: bool) -> Problem {
        let t = f.d_ds.len();
        let bat = &params.battery;
        let wear = |rate: Energy| {
            if rate.mwh() > 0.0 {
                bat.op_cost.dollars() / rate.mwh()
            } else {
                0.0
            }
        };
        let sdt_ub = params.sdt_max.map_or(f64::INFINITY, |s| s.mwh());
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var(0.0, slot_cap, f.p_lt * t as f64).unwrap();
        let mut vars = Vec::with_capacity(t);
        for &price in &f.p_rt {
            vars.push((
                p.add_var(0.0, slot_cap, price).unwrap(),
                p.add_var(0.0, sdt_ub, 0.0).unwrap(),
                p.add_var(0.0, bat.max_charge.mwh(), wear(bat.max_charge))
                    .unwrap(),
                p.add_var(0.0, bat.max_discharge.mwh(), wear(bat.max_discharge))
                    .unwrap(),
                p.add_var(0.0, f64::INFINITY, params.waste_price.dollars_per_mwh())
                    .unwrap(),
                p.add_var(bat.min_level.mwh(), bat.capacity.mwh(), 0.0)
                    .unwrap(),
                p.add_var(0.0, f64::INFINITY, 0.0).unwrap(),
            ));
        }
        let (eta_c, eta_d) = (bat.charge_efficiency, bat.discharge_efficiency);
        for (i, &(grt, sdt, brc, bdc, w, b, q)) in vars.iter().enumerate() {
            let terms = [
                (g, 1.0),
                (grt, 1.0),
                (bdc, 1.0),
                (brc, -1.0),
                (sdt, -1.0),
                (w, -1.0),
            ];
            p.add_constraint(&terms, Relation::Eq, f.d_ds[i] - f.renewable[i])
                .unwrap();
            p.add_constraint(&[(g, 1.0), (grt, 1.0)], Relation::Le, slot_cap)
                .unwrap();
            let (b_prev, q_prev) = match i.checked_sub(1) {
                Some(j) => (Some(vars[j].5), Some(vars[j].6)),
                None => (None, None),
            };
            let mut battery = vec![(b, 1.0), (brc, -eta_c), (bdc, eta_d)];
            battery.extend(b_prev.map(|v| (v, -1.0)));
            let start = if i == 0 { f.b0 } else { 0.0 };
            p.add_constraint(&battery, Relation::Eq, start).unwrap();
            let mut recursion = vec![(q, 1.0), (sdt, 1.0)];
            recursion.extend(q_prev.map(|v| (v, -1.0)));
            let standing = if i == 0 { f.q0 } else { 0.0 };
            p.add_constraint(&recursion, Relation::Eq, standing + f.d_dt[i])
                .unwrap();
            let mut service = vec![(sdt, 1.0)];
            service.extend(q_prev.map(|v| (v, -1.0)));
            p.add_constraint(&service, Relation::Le, standing).unwrap();
        }
        if deadline && f.q0 > 0.0 {
            let served: Vec<(Variable, f64)> = vars.iter().map(|v| (v.1, 1.0)).collect();
            p.add_constraint(&served, Relation::Ge, f.q0).unwrap();
        }
        p
    }

    /// The shapes the reformulation property covers, one per case in turn.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Case {
        NoBacklog,
        Surplus,
        NoBattery,
        ServiceCap,
        InfeasibleDeadline,
    }

    const CASES: [Case; 5] = [
        Case::NoBacklog,
        Case::Surplus,
        Case::NoBattery,
        Case::ServiceCap,
        Case::InfeasibleDeadline,
    ];

    fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.next_f64()
    }

    /// A random frame of `t` slots for `params` under `slot_cap`.
    fn random_frame(
        rng: &mut TestRng,
        params: &SimParams,
        t: usize,
        slot_cap: f64,
        case: Case,
    ) -> Frame {
        let mut series =
            |lo: f64, hi: f64| -> Vec<f64> { (0..t).map(|_| uniform(rng, lo, hi)).collect() };
        let p_rt = series(10.0, 100.0);
        let d_ds = series(0.0, 1.5);
        let d_dt = series(0.0, 0.8);
        let mut renewable = series(0.0, 1.0);
        let bat = &params.battery;
        let b0 = uniform(rng, bat.min_level.mwh(), bat.capacity.mwh());
        let mut q0 = uniform(rng, 0.0, 3.0);
        match case {
            Case::NoBacklog => q0 = 0.0,
            Case::Surplus => renewable[0] = d_ds[0] + uniform(rng, 0.1, 1.5),
            Case::InfeasibleDeadline => {
                // More than every slot's grid cap, renewable and battery
                // discharge could serve.
                let supply: f64 =
                    renewable.iter().sum::<f64>() + t as f64 * (slot_cap + bat.max_discharge.mwh());
                q0 = supply + uniform(rng, 0.5, 2.0);
            }
            Case::NoBattery | Case::ServiceCap => {}
        }
        Frame {
            p_lt: uniform(rng, 20.0, 60.0),
            p_rt,
            d_ds,
            d_dt,
            renewable,
            b0,
            q0,
        }
    }

    fn case_params(rng: &mut TestRng, case: Case) -> SimParams {
        match case {
            Case::NoBattery => SimParams::icdcs13_with_battery(0.0),
            Case::ServiceCap => SimParams {
                sdt_max: Some(Energy::from_mwh(uniform(rng, 0.1, 0.6))),
                ..SimParams::icdcs13()
            },
            _ => SimParams::icdcs13(),
        }
    }

    #[test]
    fn serves_standing_backlog_within_the_frame() {
        let params = SimParams::icdcs13();
        let p_rt = [45.0; 4];
        let d_ds = [0.8, 1.0, 0.9, 0.7];
        let d_dt = [0.3, 0.2, 0.4, 0.1];
        let r = [0.0, 0.5, 1.0, 0.2];
        let plan = plan(&params, &frame(&p_rt, &d_ds, &d_dt, &r)).unwrap();
        // The deadline forces all initial backlog served.
        let total_served: f64 = plan.sdt.iter().sum();
        assert!(total_served >= 0.5 - 1e-7, "served {total_served}");
        assert!(plan.g_slot >= 0.0 && plan.g_slot <= 2.0);
        for (g, s) in plan.grt.iter().zip(&plan.sdt) {
            assert!(*g >= 0.0 && *s >= -1e-9);
            assert!(plan.g_slot + g <= 2.0 + 1e-7, "interconnect");
        }
    }

    #[test]
    fn cheap_rt_slots_attract_purchases() {
        let params = SimParams::icdcs13();
        // Slot 2 is nearly free: the plan should buy there.
        let p_rt = [60.0, 60.0, 1.0, 60.0];
        let d_ds = [1.0; 4];
        let d_dt = [0.4; 4];
        let r = [0.0; 4];
        let plan = plan(&params, &frame(&p_rt, &d_ds, &d_dt, &r)).unwrap();
        let max_rt = plan.grt.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (plan.grt[2] - max_rt).abs() < 1e-9,
            "cheapest slot buys the most: {:?}",
            plan.grt
        );
    }

    #[test]
    fn reuse_rebuilds_only_for_a_new_shape() {
        let params = SimParams::icdcs13();
        let f = frame(&[45.0; 4], &[0.8; 4], &[0.3; 4], &[0.2; 4]);
        let mut slot = None;
        let lp = FrameLp::reuse(&mut slot, &params, 4, 2.0).unwrap();
        lp.plan(&f.data(), &mut LpWorkspace::new()).unwrap();
        let edited = format!("{:?}", lp.problem);
        // Same shape: the edited template comes back, not a fresh build.
        let lp = FrameLp::reuse(&mut slot, &params, 4, 2.0).unwrap();
        assert_eq!(format!("{:?}", lp.problem), edited);
        let lp = FrameLp::reuse(&mut slot, &params, 4, 1.0).unwrap();
        assert_eq!(lp.slot_cap, 1.0);
        let lp = FrameLp::reuse(&mut slot, &params, 6, 1.0).unwrap();
        assert_eq!(lp.grt.len(), 6);
        assert!(FrameLp::new(&params, 0, 1.0).is_err());
    }

    #[test]
    fn infeasible_deadline_is_relaxed_not_failed() {
        let params = SimParams::icdcs13_with_battery(0.0);
        // A backlog beyond what the interconnect can serve in T slots.
        let mut f = frame(&[45.0; 2], &[1.5; 2], &[0.8; 2], &[0.0; 2]);
        f.q0 = 5.0;
        let mut lp = FrameLp::new(&params, 2, 2.0).unwrap();
        lp.set_frame(&f.data()).unwrap();
        assert!(lp.problem.solve().is_err(), "deadline must be infeasible");
        assert!(dpss_lp_oracle::solve(&lp.problem).is_err());
        let relaxed = lp.plan(&f.data(), &mut LpWorkspace::new()).unwrap();
        let served: f64 = relaxed.sdt.iter().sum();
        assert!(served < f.q0, "served {served} of {}", f.q0);
        assert!(relaxed.g_slot + relaxed.grt[0] > 0.0, "still buys for d_ds");
        // The next frame is planned under the deadline again.
        f.q0 = 0.5;
        let next = lp.plan(&f.data(), &mut LpWorkspace::new()).unwrap();
        assert!(next.sdt.iter().sum::<f64>() >= 0.5 - 1e-7);
    }

    #[test]
    fn the_backlog_bound_is_the_cumulative_service_row() {
        // Same feasibility and optimal objective as the row formulation
        // solved by the dense oracle, with and without the deadline,
        // across every case shape.
        let mut rng = TestRng::deterministic("frame_lp::reformulation");
        let mut infeasible = 0;
        for k in 0..96 {
            let case = CASES[k % CASES.len()];
            let params = case_params(&mut rng, case);
            let t = 1 + (rng.next_u64() % 6) as usize;
            let slot_cap = uniform(&mut rng, 0.5, 2.5);
            let f = random_frame(&mut rng, &params, t, slot_cap, case);
            let mut lp = FrameLp::new(&params, t, slot_cap).unwrap();
            lp.set_frame(&f.data()).unwrap();
            let bounded = lp.problem.solve();
            let expected = reference(&params, slot_cap, &f, true);
            dpss_lp_oracle::agree(&expected, &bounded)
                .unwrap_or_else(|e| panic!("case {k} {case:?}: {e}"));
            if case == Case::InfeasibleDeadline {
                assert!(bounded.is_err(), "case {k}: deadline stayed feasible");
            }
            if bounded.is_err() {
                infeasible += 1;
            }
            // `plan` lifts an infeasible deadline: the relaxed frame is
            // the row formulation without its deadline row.
            let planned = lp.plan(&f.data(), &mut LpWorkspace::new());
            let relaxed = reference(&params, slot_cap, &f, bounded.is_ok());
            dpss_lp_oracle::agree(&relaxed, &lp.problem.solve())
                .unwrap_or_else(|e| panic!("case {k} {case:?} planned: {e}"));
            assert_eq!(
                planned.is_ok(),
                dpss_lp_oracle::solve(&relaxed).is_ok(),
                "case {k}"
            );
        }
        assert!(
            infeasible >= 96 / CASES.len(),
            "{infeasible} infeasible deadlines"
        );
    }

    #[test]
    fn an_edited_template_solves_like_a_fresh_one() {
        // One template edited through a chain of frames, solved cold after
        // each edit, must match a freshly built template bit for bit: no
        // edit (a lifted deadline included) outlives its frame.
        let mut rng = TestRng::deterministic("frame_lp::edited_template");
        let params = SimParams::icdcs13();
        let (t, slot_cap) = (4, 1.5);
        let mut lp = FrameLp::new(&params, t, slot_cap).unwrap();
        let mut relaxed = 0;
        for k in 0..64 {
            // The template's parameters are fixed, so the battery and
            // service-cap cases draw ordinary frames here.
            let case = CASES[(rng.next_u64() % CASES.len() as u64) as usize];
            let f = random_frame(&mut rng, &params, t, slot_cap, case);
            let edited = lp.plan(&f.data(), &mut LpWorkspace::new());
            let fresh = FrameLp::new(&params, t, slot_cap)
                .unwrap()
                .plan(&f.data(), &mut LpWorkspace::new());
            let bits = |p: &FramePlan| {
                let mut v = vec![p.g_slot.to_bits()];
                v.extend(p.grt.iter().chain(&p.sdt).map(|x| x.to_bits()));
                v
            };
            match (&edited, &fresh) {
                (Ok(a), Ok(b)) => assert_eq!(bits(a), bits(b), "frame {k} {case:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!("frame {k}: {edited:?} vs {fresh:?}"),
            }
            relaxed += usize::from(case == Case::InfeasibleDeadline);
        }
        assert!(relaxed > 0);
    }
}

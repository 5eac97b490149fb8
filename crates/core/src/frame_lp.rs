//! The per-coarse-frame planning linear program, and the [`FramePlanner`]
//! through which the [`OfflineOptimal`](crate::OfflineOptimal) benchmark
//! (fed the truth) and the [`RecedingHorizon`](crate::RecedingHorizon)
//! MPC controller (fed forecasts) plan with it and replay the plan.
//!
//! Variables per fine slot `i ∈ [0, T)`: real-time purchase `grt_i`,
//! backlog service `sdt_i`, battery charge `brc_i` / discharge `bdc_i`,
//! waste `w_i`, battery level `b_i` and backlog `q_i`; plus one long-term
//! rate `g_slot` for the whole frame and one overflow `o`. Constraints:
//! the balance Eq. (4), the interconnect Eq. (5), the battery recursion
//! Eq. (3) and the queue recursion Eq. (2) with pre-arrival service limits.
//!
//! # The elastic deadline
//!
//! The service deadline (the backlog `q0` standing at the frame start is
//! served within the frame's `T` slots) is the bound `q_{T−1} ≤ Σ d_dt`,
//! and the last queue row carries an overflow `o ≥ 0`:
//! `q_{T−1} + o = q0 + Σ d_dt − Σ sdt`. So `o ≥ q0 − Σ sdt` is standing
//! backlog carried past the deadline (arrivals inside the frame may wait
//! into the next one anyway). Each MWh of it costs the exact penalty
//!
//! ```text
//! π = (p_max + w_c + w_d)·η_d/η_c + 1,   p_max = max(p_lt, max_i p_rt_i),
//! ```
//!
//! with `w_c`, `w_d` the linearized wear per MWh charged and discharged.
//! Every frame has one shape, built once per `(T, slot_cap)` and edited
//! per frame, and is one solve, feasible whenever its delay-sensitive
//! demand can be met; a backlog beyond the grid headroom waits only for
//! what the headroom cannot serve.
//!
//! **Claim.** If a frame can meet its deadline, every optimum has `o = 0`,
//! so the plan and objective are those of the hard deadline.
//!
//! **Proof.** Let `x` be optimal with `o > 0`; we lower `o` by `ε` for at
//! most `(π − 1)·ε`, a contradiction.
//! - *Queue.* Trading `o` for `q_{T−1}` saves `π`, so `q_{T−1}` sits at its
//!   bound and `o = q0 − Σ sdt`. Then `q_i ≥ o + Σ_{k>i} sdt_k` for
//!   `i < T−1`: every backlog and pre-arrival limit has slack `o`, and `ε`
//!   more service in any slot lowers `o` by `ε`.
//! - *Energy.* Fix `g` at `x`'s value: a deadline-feasible plan stays one
//!   when its grid energy moves onto that `g`, wasting any excess. Without
//!   the slack rows, the rest is a generalized flow. The grid, waste and
//!   final battery level form the source, each slot has an energy and a
//!   level node, the battery has gains `η_c` in and `1/η_d` out, and
//!   service flows to the sink. `x` delivers less than a deadline-feasible
//!   flow, so its residual network holds a generalized augmenting path
//!   (Goldberg, Plotkin and Tardos, 1991). A slot's energy node touches
//!   only its own level node, the source and the sink. So a simple path
//!   crosses the battery at most once, and the only cycles away from the
//!   source undo a charge and a discharge in one slot, refunding wear.
//!   Per MWh served the path buys at most `η_d/η_c` MWh at `p ≤ p_max`
//!   and wears at most `w_c` per MWh charged and `w_d` per MWh served:
//!   `((p_max + w_c)·η_d/η_c + w_d)·ε ≤ (π − 1)·ε`, as `η_d/η_c ≥ 1`. ∎

// Variable and row ids are minted by the template build that later reads
// them back, and slot vectors are sized by the template's `T`.
// audit:allow-file(slice-index): variable ids and slot vectors are minted/sized in the same frame-LP template build

use dpss_lp::{ConstraintId, LpWorkspace, Problem, Relation, Sense, Variable};
use dpss_sim::SimParams;
use dpss_units::Energy;

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
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FramePlan {
    pub g_slot: f64,
    pub grt: Vec<f64>,
    pub sdt: Vec<f64>,
}

impl FramePlan {
    /// The empty plan (nothing bought, nothing served), keeping the
    /// buffers' allocation.
    fn clear(&mut self) {
        self.g_slot = 0.0;
        self.grt.clear();
        self.sdt.clear();
    }
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
    /// Backlog carried past the deadline, priced at `π`.
    overflow: Variable,
    /// `w_c + w_d` and `η_d/η_c`, the parameters' share of `π`.
    wear: f64,
    drain: f64,
    rows: Vec<SlotRows>,
}

impl FrameLp {
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
        let overflow = p.add_var(0.0, f64::INFINITY, 0.0)?;
        let mut rows = Vec::with_capacity(t);
        let mut prev: Option<(Variable, Variable)> = None;
        for (i, &[grt, sdt, brc, bdc, waste, level, backlog]) in slots.iter().enumerate() {
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
            // pre-arrival service limit, each chained to the slot before;
            // the last queue row carries the overflow.
            let mut battery = vec![(level, 1.0)];
            battery.extend(prev.map(|(b, _)| (b, -1.0)));
            battery.extend([(brc, -eta_c), (bdc, eta_d)]);
            let battery = p.add_constraint(&battery, Relation::Eq, 0.0)?;
            let mut queue = vec![(backlog, 1.0)];
            queue.extend(prev.map(|(_, q)| (q, -1.0)));
            queue.push((sdt, 1.0));
            queue.extend((i + 1 == t).then_some((overflow, 1.0)));
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
            overflow,
            wear: wear(bat.max_charge.mwh()) + wear(bat.max_discharge.mwh()),
            drain: eta_d / eta_c,
            rows,
        })
    }

    /// Writes `frame`'s prices, right-hand sides, deadline and overflow
    /// penalty into the template; everything else is the same for every
    /// frame.
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
        // The deadline Σ sdt ≥ q0, as a bound on the last backlog, made
        // elastic by the overflow at the exact penalty π (module doc).
        p.set_bounds(self.last_backlog, 0.0, frame.d_dt.iter().sum())?;
        let p_max = frame.p_rt.iter().fold(frame.p_lt, |m, &p| m.max(p));
        p.set_objective(self.overflow, (p_max + self.wear) * self.drain + 1.0)?;
        Ok(())
    }

    /// Plans `frame` through `ws` in one solve, writing the plan into
    /// `out` in place so its buffers keep their allocation; an error
    /// leaves `out` empty. Whether the solve starts from the previous
    /// frame's basis is the caller's policy: `RecedingHorizon` keeps the
    /// basis, `OfflineOptimal` clears it (see their docs).
    pub fn plan(
        &mut self,
        frame: &FrameData<'_>,
        ws: &mut LpWorkspace,
        out: &mut FramePlan,
    ) -> Result<(), CoreError> {
        out.clear();
        self.set_frame(frame)?;
        let sol = self.problem.solve_with(ws)?;
        out.g_slot = sol.value(self.g_slot);
        out.grt.extend(self.grt.iter().map(|&v| sol.value(v)));
        out.sdt.extend(self.sdt.iter().map(|&v| sol.value(v)));
        ws.recycle(sol);
        Ok(())
    }
}

/// What a frame-LP controller keeps between frames: the template (rebuilt
/// only when the frame length or the per-slot grid cap changes), the
/// workspace whose basis the next solve may start from, and the last
/// plan, replayed slot by slot.
#[derive(Debug, Clone)]
pub(crate) struct FramePlanner {
    pub params: SimParams,
    pub lp: Option<FrameLp>,
    pub workspace: LpWorkspace,
    pub last: FramePlan,
}

impl FramePlanner {
    /// An empty planner for `params`; its first frame builds the template.
    pub fn new(params: SimParams) -> Self {
        FramePlanner {
            params,
            lp: None,
            workspace: LpWorkspace::new(),
            last: FramePlan::default(),
        }
    }

    /// Plans `frame` on slots of `slot_hours` and returns its long-term
    /// purchase `g_slot·T`. A solver error leaves the empty plan: nothing
    /// is bought ahead, every slot replays as zero, and the plant's guard
    /// keeps the lights on.
    pub fn plan(&mut self, slot_hours: f64, frame: &FrameData<'_>) -> Energy {
        let t = frame.p_rt.len();
        let slot_cap = self.params.grid_slot_cap(slot_hours).mwh();
        let planned = match self.lp.take() {
            Some(lp) if lp.grt.len() == t && lp.slot_cap == slot_cap => Ok(lp),
            _ => FrameLp::new(&self.params, t, slot_cap),
        }
        .and_then(|lp| {
            self.lp
                .insert(lp)
                .plan(frame, &mut self.workspace, &mut self.last)
        });
        if planned.is_err() {
            self.last.clear();
        }
        Energy::from_mwh((self.last.g_slot * t as f64).max(0.0))
    }

    /// Slot `i`'s planned real-time purchase, and the share of the
    /// standing `backlog` its planned service takes.
    pub fn slot(&self, i: usize, backlog: f64) -> (f64, f64) {
        let at = |plan: &[f64]| plan.get(i).copied().unwrap_or(0.0);
        let serve_fraction = if backlog > 1e-12 {
            (at(&self.last.sdt) / backlog).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (at(&self.last.grt), serve_fraction)
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
        plan_cold(&mut FrameLp::new(params, f.d_ds.len(), 2.0)?, f)
    }

    /// `f` planned on `lp` through a fresh workspace.
    fn plan_cold(lp: &mut FrameLp, f: &Frame) -> Result<FramePlan, CoreError> {
        let mut out = FramePlan::default();
        lp.plan(&f.data(), &mut LpWorkspace::new(), &mut out)?;
        Ok(out)
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
    fn the_planner_keeps_its_template_until_the_shape_changes() {
        let params = SimParams::icdcs13();
        let f = frame(&[45.0; 4], &[0.8; 4], &[0.3; 4], &[0.2; 4]);
        let mut planner = FramePlanner::new(params);
        let bought = planner.plan(1.0, &f.data());
        let rows = |p: &FramePlanner| p.lp.as_ref().map(|lp| lp.rows.as_ptr());
        let template = rows(&planner);
        // Same shape: the edited template is edited again, not rebuilt.
        assert_eq!(planner.plan(1.0, &f.data()), bought);
        assert_eq!(rows(&planner), template);
        // A new per-slot grid cap or frame length rebuilds it.
        planner.plan(0.5, &f.data());
        assert_eq!(planner.lp.as_ref().unwrap().slot_cap, 1.0);
        let longer = frame(&[45.0; 6], &[0.8; 6], &[0.3; 6], &[0.2; 6]);
        planner.plan(0.5, &longer.data());
        assert_eq!(planner.lp.as_ref().unwrap().grt.len(), 6);
        // Slot replay: the planned purchase and the planned service's
        // share of the standing backlog, capped at all of it.
        let (g_rt, serve) = planner.slot(2, 0.25);
        assert_eq!(g_rt, planner.last.grt[2]);
        assert_eq!(serve, (planner.last.sdt[2] / 0.25).clamp(0.0, 1.0));
        assert_eq!(planner.slot(2, 0.0).1, 0.0);
        assert_eq!(planner.slot(6, 1.0), (0.0, 0.0));
        // A frame the template cannot be built for leaves the empty plan.
        let empty = frame(&[], &[], &[], &[]);
        assert_eq!(planner.plan(1.0, &empty.data()), Energy::ZERO);
        assert_eq!(planner.last, FramePlan::default());
        assert!(FrameLp::new(&params, 0, 1.0).is_err());
    }

    #[test]
    fn a_chain_of_same_length_frames_plans_into_the_same_buffers() {
        let mut rng = TestRng::deterministic("frame_lp::plan_buffers");
        let params = SimParams::icdcs13();
        let mut planner = FramePlanner::new(params);
        let buffers = |p: &FramePlanner| {
            let (grt, sdt) = (&p.last.grt, &p.last.sdt);
            (grt.as_ptr(), grt.capacity(), sdt.as_ptr(), sdt.capacity())
        };
        planner.plan(
            1.0,
            &random_frame(&mut rng, &params, 6, 2.0, Case::NoBacklog).data(),
        );
        let first = buffers(&planner);
        assert_eq!(planner.last.grt.len(), 6);
        let mut planned = 0;
        for k in 0..24 {
            let case = CASES[k % CASES.len()];
            let f = random_frame(&mut rng, &params, 6, 2.0, case);
            planner.plan(1.0, &f.data());
            // A frame that fails leaves the empty plan, in the same buffers.
            assert_eq!(buffers(&planner), first, "frame {k} {case:?}");
            let len = planner.last.sdt.len();
            assert!(len == 6 || len == 0, "frame {k} {case:?}");
            planned += usize::from(len == 6);
        }
        assert!(planned >= 16, "{planned} frames planned");
    }

    #[test]
    fn an_infeasible_deadline_overflows_and_serves_what_fits() {
        let params = SimParams::icdcs13_with_battery(0.0);
        // A backlog beyond what the interconnect can serve in T slots:
        // 0.5 MWh of headroom per slot after the delay-sensitive demand.
        let mut f = frame(&[45.0; 2], &[1.5; 2], &[0.8; 2], &[0.0; 2]);
        (f.b0, f.q0) = (0.0, 5.0);
        let mut lp = FrameLp::new(&params, 2, 2.0).unwrap();
        lp.set_frame(&f.data()).unwrap();
        assert!(dpss_lp_oracle::solve(&reference(&params, 2.0, &f, true)).is_err());
        let sol = lp.problem.solve();
        dpss_lp_oracle::agree(&lp.problem, &sol).unwrap();
        // Every MWh of headroom serves backlog; the rest overflows.
        let plan = plan_cold(&mut lp, &f).unwrap();
        let served: f64 = plan.sdt.iter().sum();
        assert!((served - 1.0).abs() < 1e-9, "served {served} of {}", f.q0);
        assert!((sol.unwrap().value(lp.overflow) - 4.0).abs() < 1e-9);
        // The next frame meets its deadline again, with nothing carried.
        f.q0 = 0.5;
        lp.set_frame(&f.data()).unwrap();
        assert_eq!(lp.problem.solve().unwrap().value(lp.overflow), 0.0);
        let next = plan_cold(&mut lp, &f).unwrap();
        assert!(next.sdt.iter().sum::<f64>() >= 0.5 - 1e-7);
    }

    #[test]
    fn the_penalty_outbids_a_battery_hop_at_the_top_price() {
        // Slot 1's grid is full and each slot serves at most 0.5 MWh, so
        // the last 0.3 MWh of backlog is served only by buying at the top
        // price in slot 0 and carrying it through the battery: each MWh
        // costs (p_max + w_c)·η_d/η_c + w_d, just under π.
        let params = SimParams {
            sdt_max: Some(Energy::from_mwh(0.5)),
            ..SimParams::icdcs13()
        };
        let mut f = frame(&[60.0; 2], &[0.5, 2.0], &[0.0; 2], &[0.0; 2]);
        (f.p_lt, f.b0, f.q0) = (60.0, params.battery.min_level.mwh(), 0.8);
        let mut lp = FrameLp::new(&params, 2, 2.0).unwrap();
        lp.set_frame(&f.data()).unwrap();
        let sol = lp.problem.solve().unwrap();
        let deadline = dpss_lp_oracle::solve(&reference(&params, 2.0, &f, true)).unwrap();
        assert!((sol.objective() - deadline.objective).abs() < 1e-9);
        assert_eq!(sol.value(lp.overflow), 0.0);
        let served: f64 = lp.sdt.iter().map(|&v| sol.value(v)).sum();
        assert!(served >= f.q0 - 1e-9, "served {served} of {}", f.q0);
        // A penalty below that hop's cost would rather carry the backlog.
        let hop = (60.0 + 0.2) * 1.25 / 0.8 + 0.2;
        lp.problem.set_objective(lp.overflow, hop - 0.1).unwrap();
        assert!(lp.problem.solve().unwrap().value(lp.overflow) > 0.1);
    }

    #[test]
    fn the_elastic_deadline_is_exact_where_it_can_be_met() {
        // Where the deadline can be met, the template plans no overflow
        // and the optimal objective of the row formulation solved by the
        // dense oracle. Where it cannot, it still plans, and serves at
        // least what the plan without any deadline serves.
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
            let sol = lp.problem.solve();
            dpss_lp_oracle::agree(&lp.problem, &sol)
                .unwrap_or_else(|e| panic!("case {k} {case:?}: {e}"));
            let Ok(sol) = sol else {
                // A frame that fails beyond its deadline (delay-sensitive
                // demand the grid cannot cover) fails without one too.
                let relaxed = reference(&params, slot_cap, &f, false);
                assert!(dpss_lp_oracle::solve(&relaxed).is_err(), "case {k}");
                assert!(plan_cold(&mut lp, &f).is_err());
                continue;
            };
            let overflow = sol.value(lp.overflow);
            let served: f64 = lp.sdt.iter().map(|&v| sol.value(v)).sum();
            match dpss_lp_oracle::solve(&reference(&params, slot_cap, &f, true)) {
                Ok(deadline) => {
                    assert_ne!(case, Case::InfeasibleDeadline, "case {k}");
                    assert_eq!(overflow, 0.0, "case {k} {case:?}");
                    let tol = 1e-9 * (1.0 + deadline.objective.abs());
                    let gap = (sol.objective() - deadline.objective).abs();
                    assert!(gap <= tol, "case {k} {case:?}: off by {gap}");
                }
                Err(_) => {
                    infeasible += 1;
                    assert!(overflow > 0.0, "case {k} {case:?}");
                    // The plan without any deadline: the bound lifted and
                    // no overflow.
                    let mut relaxed = lp.clone();
                    let p = &mut relaxed.problem;
                    p.set_bounds(relaxed.last_backlog, 0.0, f64::INFINITY)
                        .unwrap();
                    p.set_bounds(relaxed.overflow, 0.0, 0.0).unwrap();
                    let lifted = p.solve().unwrap();
                    let lifted: f64 = relaxed.sdt.iter().map(|&v| lifted.value(v)).sum();
                    assert!(served >= lifted - 1e-9, "case {k}: {served} < {lifted}");
                }
            }
            let planned = plan_cold(&mut lp, &f).unwrap();
            assert_eq!(planned.sdt.iter().sum::<f64>(), served, "case {k}");
        }
        assert!(
            infeasible >= 96 / CASES.len(),
            "{infeasible} infeasible deadlines"
        );
    }

    /// Plant parameters drawn across their admissible ranges: any
    /// battery, efficiencies, wear and waste price, with or without a
    /// service cap.
    fn random_params(rng: &mut TestRng) -> SimParams {
        let mut params = SimParams::icdcs13();
        let bat = &mut params.battery;
        bat.capacity = Energy::from_mwh(uniform(rng, 0.0, 2.0));
        bat.min_level = bat.capacity * uniform(rng, 0.0, 0.5);
        bat.max_charge = Energy::from_mwh(uniform(rng, 0.0, 1.0));
        bat.max_discharge = Energy::from_mwh(uniform(rng, 0.0, 1.0));
        bat.charge_efficiency = uniform(rng, 0.5, 1.0);
        bat.discharge_efficiency = uniform(rng, 1.0, 2.0);
        bat.op_cost = dpss_units::Money::from_dollars(uniform(rng, 0.0, 3.0));
        params.waste_price = dpss_units::Price::from_dollars_per_mwh(uniform(rng, 0.0, 5.0));
        if rng.next_u64().is_multiple_of(2) {
            params.sdt_max = Some(Energy::from_mwh(uniform(rng, 0.05, 1.0)));
        }
        params
    }

    #[test]
    fn the_penalty_holds_at_the_edge_of_the_deadline() {
        // The cost of serving one more MWh peaks where the deadline is
        // barely feasible. Bisect each random frame's standing backlog to
        // that edge, step just inside it, and the elastic template must
        // still carry nothing past the deadline, at the oracle's optimum.
        let mut rng = TestRng::deterministic("frame_lp::edge");
        let mut edges = 0;
        for k in 0..48 {
            let params = random_params(&mut rng);
            let t = 1 + (rng.next_u64() % 6) as usize;
            let slot_cap = uniform(&mut rng, 0.5, 2.5);
            // A plain draw (the case only picks parameters, drawn above),
            // with prices down to zero.
            let mut f = random_frame(&mut rng, &params, t, slot_cap, Case::NoBattery);
            f.p_lt = uniform(&mut rng, 0.0, 100.0);
            f.p_rt
                .iter_mut()
                .for_each(|p| *p = uniform(&mut rng, 0.0, 100.0));
            f.b0 = uniform(&mut rng, 0.0, 1.0)
                * (params.battery.capacity - params.battery.min_level).mwh()
                + params.battery.min_level.mwh();
            let deadline =
                |f: &Frame| dpss_lp_oracle::solve(&reference(&params, slot_cap, f, true));
            let feasible = |q0: f64| deadline(&Frame { q0, ..f.clone() }).is_ok();
            if !feasible(0.0) {
                continue;
            }
            let (mut lo, mut hi) = (0.0, 1.0);
            while feasible(hi) {
                (lo, hi) = (hi, 2.0 * hi);
            }
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                *(if feasible(mid) { &mut lo } else { &mut hi }) = mid;
            }
            // Inside the edge by more than the oracle's feasibility
            // tolerance.
            f.q0 = (lo - (1e-4 * lo).max(1e-6)).max(0.0);
            let Ok(want) = deadline(&f) else { continue };
            let mut lp = FrameLp::new(&params, t, slot_cap).unwrap();
            lp.set_frame(&f.data()).unwrap();
            let sol = lp.problem.solve().unwrap();
            assert!(
                sol.value(lp.overflow) <= 1e-12,
                "case {k}: o = {}",
                sol.value(lp.overflow)
            );
            let gap = (sol.objective() - want.objective).abs();
            assert!(
                gap <= 1e-9 * (1.0 + want.objective.abs()),
                "case {k}: off by {gap}"
            );
            edges += 1;
        }
        assert!(edges >= 32, "{edges} edges probed");
    }

    #[test]
    fn an_edited_template_solves_like_a_fresh_one() {
        // One template edited through a chain of frames, solved cold after
        // each edit, must match a freshly built template bit for bit: no
        // edit (an overflowing frame's included) outlives its frame.
        let mut rng = TestRng::deterministic("frame_lp::edited_template");
        let params = SimParams::icdcs13();
        let (t, slot_cap) = (4, 1.5);
        let mut lp = FrameLp::new(&params, t, slot_cap).unwrap();
        let mut overflowed = 0;
        for k in 0..64 {
            // The template's parameters are fixed, so the battery and
            // service-cap cases draw ordinary frames here.
            let case = CASES[(rng.next_u64() % CASES.len() as u64) as usize];
            let f = random_frame(&mut rng, &params, t, slot_cap, case);
            let edited = plan_cold(&mut lp, &f);
            let fresh = plan_cold(&mut FrameLp::new(&params, t, slot_cap).unwrap(), &f);
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
            overflowed += usize::from(case == Case::InfeasibleDeadline);
        }
        assert!(overflowed > 0);
    }
}

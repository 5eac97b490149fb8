// Slot/frame ranges here derive from the validated clock the truth traces
// were constructed against, so `[start..start + t]` windows stay inside
// every series by the TraceSet invariant.
// audit:allow-file(slice-index): slot/frame windows derive from the clock the truth TraceSet was validated against

use dpss_sim::{
    Controller, FrameDecision, FrameObservation, SimParams, SlotDecision, SlotObservation,
    SystemView,
};
use dpss_traces::TraceSet;
use dpss_units::Energy;

use crate::frame_lp::{self, FrameLpInputs};
use crate::CoreError;

/// The paper's offline benchmark (§II-D): per coarse frame, solve the
/// cost-minimizing linear program over that frame's `T` fine slots with
/// *full knowledge* of demand, renewables and prices, carrying battery and
/// queue state across frames.
///
/// Deviations from the idealized P2, both forced by the LP form:
/// the battery wear term `n(τ)·Cb` is linearized in the LP objective (an
/// LP cannot price an indicator; the *realized* report still pays the true
/// per-operation cost), and frame-coupled battery strategy beyond one
/// frame is out of scope exactly as in the paper's "solve K times P2"
/// formulation.
///
/// Each frame LP is solved **cold** (the workspace basis is cleared
/// before every frame): `K` independent `P2` solves, exactly as the paper
/// defines the benchmark. Delay-tolerant demand standing at a frame start
/// or arriving inside it must be served within `T` slots; a frame where
/// that deadline is infeasible (a tight interconnect) is re-solved
/// without it. Real-time purchases stay allowed: Lemma 1 shows the
/// optimum never needs them when `p_rt > p_lt`, and keeping them keeps
/// every frame feasible.
///
/// # Examples
///
/// ```
/// use dpss_core::OfflineOptimal;
/// use dpss_sim::{Engine, SimParams};
/// use dpss_traces::paper_month_traces;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let truth = paper_month_traces(5)?;
/// let params = SimParams::icdcs13();
/// let engine = Engine::new(params, truth.clone())?;
/// let mut offline = OfflineOptimal::new(params, truth)?;
/// let report = engine.run(&mut offline)?;
/// assert_eq!(report.availability_violations, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OfflineOptimal {
    params: SimParams,
    truth: TraceSet,
    plan_grt: Vec<f64>,
    plan_sdt: Vec<f64>,
    /// Reused across the per-frame LPs so the tableau allocation is paid
    /// once per run; its basis is cleared before every frame.
    workspace: dpss_lp::LpWorkspace,
}

impl OfflineOptimal {
    /// Creates the benchmark over the `truth` traces.
    ///
    /// # Errors
    ///
    /// Propagates parameter/trace validation.
    pub fn new(params: SimParams, truth: TraceSet) -> Result<Self, CoreError> {
        params.validate()?;
        truth.validate().map_err(dpss_sim::SimError::from)?;
        Ok(OfflineOptimal {
            params,
            truth,
            plan_grt: Vec::new(),
            plan_sdt: Vec::new(),
            workspace: dpss_lp::LpWorkspace::new(),
        })
    }

    fn solve_frame(
        &mut self,
        frame: usize,
        t: usize,
        slot_hours: f64,
        b0: f64,
        q0: f64,
        deadline: Option<usize>,
    ) -> Result<frame_lp::FramePlan, CoreError> {
        self.workspace.clear_basis();
        let start = frame * t;
        let to_f64 = |xs: &[Energy]| xs.iter().map(|e| e.mwh()).collect::<Vec<_>>();
        let p_rt: Vec<f64> = self.truth.price_rt[start..start + t]
            .iter()
            .map(|p| p.dollars_per_mwh())
            .collect();
        let d_ds = to_f64(&self.truth.demand_ds[start..start + t]);
        let d_dt = to_f64(&self.truth.demand_dt[start..start + t]);
        let renewable = to_f64(&self.truth.renewable[start..start + t]);
        frame_lp::solve(
            &FrameLpInputs {
                params: &self.params,
                t,
                slot_cap: self.params.grid_slot_cap(slot_hours).mwh(),
                p_lt: self.truth.price_lt[frame].dollars_per_mwh(),
                p_rt: &p_rt,
                d_ds: &d_ds,
                d_dt: &d_dt,
                renewable: &renewable,
                b0,
                q0,
                deadline,
            },
            &mut self.workspace,
        )
    }
}

impl Controller for OfflineOptimal {
    fn name(&self) -> &str {
        "offline"
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        let t = obs.slots_in_frame;
        let b0 = view.battery_level.mwh();
        let q0 = view.queue_backlog.mwh();
        let solved = self
            .solve_frame(obs.frame, t, obs.slot_hours, b0, q0, Some(t))
            .or_else(|_| {
                // Deadline infeasible under a tight interconnect: relax it
                // and let delays grow rather than fail the run.
                self.solve_frame(obs.frame, t, obs.slot_hours, b0, q0, None)
            });
        match solved {
            Ok(plan) => {
                let total = plan.g_slot * t as f64;
                self.plan_grt = plan.grt;
                self.plan_sdt = plan.sdt;
                FrameDecision {
                    purchase_lt: Energy::from_mwh(total.max(0.0)),
                }
            }
            Err(_) => {
                // Pathological frame: fall back to pure real-time operation
                // (the plant's guard keeps the lights on).
                self.plan_grt = vec![0.0; t];
                self.plan_sdt = vec![0.0; t];
                FrameDecision {
                    purchase_lt: Energy::ZERO,
                }
            }
        }
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        let i = obs.slot.offset;
        let g_rt = self.plan_grt.get(i).copied().unwrap_or(0.0);
        let target = self.plan_sdt.get(i).copied().unwrap_or(0.0);
        let backlog = view.queue_backlog.mwh();
        let serve_fraction = if backlog > 1e-12 {
            (target / backlog).clamp(0.0, 1.0)
        } else {
            0.0
        };
        SlotDecision {
            purchase_rt: Energy::from_mwh(g_rt.max(0.0)),
            serve_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss_sim::Engine;
    use dpss_traces::Scenario;
    use dpss_units::SlotClock;

    fn short_traces(seed: u64) -> TraceSet {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        Scenario::icdcs13().generate(&clock, seed).unwrap()
    }

    #[test]
    fn runs_cleanly_and_serves_demand() {
        let truth = short_traces(2);
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, truth.clone()).unwrap();
        let mut offline = OfflineOptimal::new(params, truth).unwrap();
        let r = engine.run(&mut offline).unwrap();
        assert_eq!(r.unserved_ds, Energy::ZERO);
        assert_eq!(r.availability_violations, 0);
        // Deadline T keeps worst-case delay within ~2 frames.
        assert!(
            r.max_delay_slots <= 2 * 24,
            "max delay {}",
            r.max_delay_slots
        );
        // Lemma 1's spirit: with p_rt above p_lt on average, the long-term
        // market dominates. (Some real-time top-up remains because the
        // long-term delivery is a flat g_bef/T per slot and cannot track
        // the diurnal peak.)
        assert!(r.energy_lt.mwh() > 0.0);
        assert!(
            r.energy_rt.mwh() < r.energy_lt.mwh(),
            "rt {} vs lt {}",
            r.energy_rt,
            r.energy_lt
        );
    }

    #[test]
    fn beats_impatient_on_cost() {
        let truth = short_traces(3);
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, truth.clone()).unwrap();
        let mut offline = OfflineOptimal::new(params, truth).unwrap();
        let r_off = engine.run(&mut offline).unwrap();
        let r_imp = engine.run(&mut crate::Impatient::two_markets()).unwrap();
        assert!(
            r_off.total_cost() <= r_imp.total_cost(),
            "offline {} vs impatient {}",
            r_off.total_cost(),
            r_imp.total_cost()
        );
    }

    #[test]
    fn every_frame_lp_solves_cold() {
        // The paper's benchmark is K independent P2 solves: no frame may
        // start from the previous frame's basis.
        let truth = short_traces(6);
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, truth.clone()).unwrap();
        let mut offline = OfflineOptimal::new(params, truth).unwrap();
        engine.run(&mut offline).unwrap();
        let ws = &offline.workspace;
        // One LP per frame (the deadline variant stayed feasible).
        assert_eq!(ws.cold_solves(), 3);
        assert_eq!(ws.warm_solves() + ws.warm_rejects(), 0);
    }

    #[test]
    fn no_battery_configuration_still_solves() {
        let truth = short_traces(5);
        let params = SimParams::icdcs13_with_battery(0.0);
        let engine = Engine::new(params, truth.clone()).unwrap();
        let mut offline = OfflineOptimal::new(params, truth).unwrap();
        let r = engine.run(&mut offline).unwrap();
        assert_eq!(r.unserved_ds, Energy::ZERO);
        assert_eq!(r.battery_ops, 0);
    }
}

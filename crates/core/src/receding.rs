use dpss_sim::{
    Controller, ControllerState, FrameDecision, FrameDirective, FrameObservation, SimError,
    SimParams, SlotDecision, SlotObservation, SystemView,
};
use dpss_units::Energy;
use serde::{Deserialize, Serialize};

use crate::frame_lp::{self, FrameLpInputs};
use crate::CoreError;

/// A receding-horizon (model-predictive) controller — the
/// forecast-driven alternative the paper positions SmartDPSS against
/// (§VII discusses T-step-lookahead designs; extension, not in the
/// paper's evaluation).
///
/// At every coarse-frame start it solves the same per-frame LP as
/// [`OfflineOptimal`](crate::OfflineOptimal), but fed with *forecasts*
/// instead of the truth: the demand/renewable fields of the frame
/// observation (whose quality is governed by the engine's
/// [`ForecastPolicy`](dpss_sim::ForecastPolicy)) extended flat across the
/// frame, the observed long-term price, and a real-time price proxy
/// `p_lt · rt_markup`. Within the frame it replays the plan; the plant's
/// feasibility guard covers forecast misses.
///
/// Each frame LP warm-starts from the previous frame's optimal basis:
/// consecutive frames share the constraint structure and change only
/// right-hand sides and prices, so most solves skip phase 1. The basis
/// is part of the checkpointed state (see [`Controller::save_state`]), so
/// a batch run, a stepped run and a `dpss-serve` session resumed from a
/// snapshot all plan from the same vertices.
///
/// Comparing this controller under `PrevFrameAverage`, `NoisyOracle` and
/// `Oracle` forecasts against SmartDPSS quantifies exactly how much of
/// MPC's advantage depends on forecast quality — the trade the paper's
/// statistics-free design avoids.
///
/// # Examples
///
/// ```
/// use dpss_core::RecedingHorizon;
/// use dpss_sim::{Engine, ForecastPolicy, SimParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let truth = dpss_traces::paper_month_traces(3)?;
/// let params = SimParams::icdcs13();
/// let engine = Engine::new(params, truth)?
///     .with_forecast(ForecastPolicy::Oracle)?;
/// let mut mpc = RecedingHorizon::new(params)?;
/// let report = engine.run(&mut mpc)?;
/// assert_eq!(report.availability_violations, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecedingHorizon {
    params: SimParams,
    plan_grt: Vec<f64>,
    plan_sdt: Vec<f64>,
    /// Workspace shared by the per-frame LPs (see
    /// [`LpWorkspace`](dpss_lp::LpWorkspace)): reuses the tableau buffers
    /// and the previous frame's basis.
    workspace: dpss_lp::LpWorkspace,
    /// Fleet dispatch directive for the coming frame, if a coordinated
    /// [`MultiSiteEngine`](dpss_sim::MultiSiteEngine) run delivered one.
    directive: Option<FrameDirective>,
}

/// Real-time price proxy as a multiple of the observed `p_lt`: the trace
/// model's mean markup.
const RT_MARKUP: f64 = 1.35;

impl RecedingHorizon {
    /// Creates the controller. It prices real-time energy at 1.35× the
    /// observed long-term price (the trace model's mean markup) and asks
    /// the frame LP to serve delay-tolerant demand within the frame.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation.
    pub fn new(params: SimParams) -> Result<Self, CoreError> {
        params.validate()?;
        Ok(RecedingHorizon {
            params,
            plan_grt: Vec::new(),
            plan_sdt: Vec::new(),
            workspace: dpss_lp::LpWorkspace::new(),
            directive: None,
        })
    }

    /// The frame LP over this frame's flat forecasts, with service
    /// deadline `deadline`.
    fn frame_lp(
        &self,
        obs: &FrameObservation,
        view: &SystemView,
        deadline: Option<usize>,
    ) -> Result<frame_lp::FrameLp, CoreError> {
        let t = obs.slots_in_frame;
        // Flat forecast: the frame observation extended across the frame.
        let d_ds = vec![obs.demand_ds.mwh().max(0.0); t];
        let d_dt = vec![obs.demand_dt.mwh().max(0.0); t];
        let renewable = vec![obs.renewable.mwh().max(0.0); t];
        let p_lt = obs.price_lt.dollars_per_mwh();
        let p_rt = vec![p_lt * RT_MARKUP; t];
        frame_lp::build(&FrameLpInputs {
            params: &self.params,
            t,
            slot_cap: self.params.grid_slot_cap(obs.slot_hours).mwh(),
            p_lt,
            p_rt: &p_rt,
            d_ds: &d_ds,
            d_dt: &d_dt,
            renewable: &renewable,
            b0: view.battery_level.mwh(),
            q0: view.queue_backlog.mwh(),
            deadline,
        })
    }
}

/// The checkpointable internals of [`RecedingHorizon`], carried as the
/// [`ControllerState`] payload (JSON). The warm-start basis rides along
/// so a resumed warm-started controller re-solves from the same vertex
/// the uninterrupted run would have — on degenerate frames a cold
/// re-solve can land on a *different* optimal vertex and fork the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RecedingPayload {
    plan_grt: Vec<f64>,
    plan_sdt: Vec<f64>,
    directive: Option<FrameDirective>,
    basis: dpss_lp::BasisSnapshot,
}

impl Controller for RecedingHorizon {
    fn name(&self) -> &str {
        "receding-horizon"
    }

    fn save_state(&self) -> ControllerState {
        let payload = RecedingPayload {
            plan_grt: self.plan_grt.clone(),
            plan_sdt: self.plan_sdt.clone(),
            directive: self.directive,
            basis: self.workspace.export_basis(),
        };
        ControllerState {
            payload: serde_json::to_string(&payload).ok(),
            ..ControllerState::empty()
        }
    }

    fn load_state(&mut self, state: &ControllerState) -> Result<(), SimError> {
        let Some(json) = &state.payload else {
            return Err(SimError::InvalidState {
                what: "receding-horizon state must carry a payload",
            });
        };
        let payload: RecedingPayload =
            serde_json::from_str(json).map_err(|_| SimError::InvalidState {
                what: "receding-horizon payload is not a valid state record",
            })?;
        if payload
            .plan_grt
            .iter()
            .chain(&payload.plan_sdt)
            .any(|x| !x.is_finite())
        {
            return Err(SimError::InvalidState {
                what: "receding-horizon plan values must be finite",
            });
        }
        self.workspace
            .import_basis(&payload.basis)
            .map_err(|_| SimError::InvalidState {
                what: "receding-horizon warm-start basis failed validation",
            })?;
        self.plan_grt = payload.plan_grt;
        self.plan_sdt = payload.plan_sdt;
        self.directive = payload.directive;
        Ok(())
    }

    fn receive_directive(&mut self, directive: &FrameDirective) {
        self.directive = Some(*directive);
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        let t = obs.slots_in_frame;
        let solved = match self
            .frame_lp(obs, view, Some(t))
            .and_then(|lp| lp.solve(&mut self.workspace))
        {
            Ok(plan) => Ok(plan),
            // Deadline infeasible under a tight interconnect: relax it
            // and let delays grow rather than fail the frame.
            Err(_) => self
                .frame_lp(obs, view, None)
                .and_then(|lp| lp.solve(&mut self.workspace)),
        };
        // Buy-to-export: a coordinated fleet directive tops the hedge off
        // with energy destined for a neighbour (re-checked against the
        // actual quoted p_lt by `economic_top_off`; the engine clamps
        // the sum to the *grid* frame cap `T·Pgrid·Δh`).
        let top_off = self.directive.map_or(Energy::ZERO, |d| {
            d.economic_top_off(obs.frame, obs.price_lt, self.params.waste_price)
        });
        match solved {
            Ok(plan) => {
                let total = plan.g_slot * t as f64;
                self.plan_grt = plan.grt;
                self.plan_sdt = plan.sdt;
                FrameDecision {
                    purchase_lt: Energy::from_mwh(total.max(0.0)) + top_off,
                }
            }
            Err(_) => {
                self.plan_grt = vec![0.0; t];
                self.plan_sdt = vec![0.0; t];
                FrameDecision {
                    purchase_lt: top_off,
                }
            }
        }
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        let i = obs.slot.offset;
        // Planned purchase, corrected in real time for the *observed*
        // forecast miss on this slot's delay-sensitive demand.
        let planned = self.plan_grt.get(i).copied().unwrap_or(0.0);
        let planned_supply = view.lt_allocation.mwh() + planned + obs.renewable.mwh();
        let miss = (obs.demand_ds.mwh() - planned_supply).max(0.0);
        let target = self.plan_sdt.get(i).copied().unwrap_or(0.0);
        let backlog = view.queue_backlog.mwh();
        let serve_fraction = if backlog > 1e-12 {
            (target / backlog).clamp(0.0, 1.0)
        } else {
            0.0
        };
        SlotDecision {
            purchase_rt: Energy::from_mwh((planned + miss).max(0.0)).min(view.rt_purchase_cap),
            serve_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss_sim::{Engine, ForecastPolicy};
    use dpss_traces::Scenario;
    use dpss_units::SlotClock;

    fn world(seed: u64) -> (Engine, SimParams) {
        let clock = SlotClock::new(6, 24, 1.0).unwrap();
        let truth = Scenario::icdcs13().generate(&clock, seed).unwrap();
        let params = SimParams::icdcs13();
        (Engine::new(params, truth).unwrap(), params)
    }

    #[test]
    fn keeps_the_lights_on_with_causal_forecasts() {
        let (engine, params) = world(11);
        let mut mpc = RecedingHorizon::new(params).unwrap();
        let r = engine.run(&mut mpc).unwrap();
        assert_eq!(r.availability_violations, 0);
        assert_eq!(r.unserved_ds, Energy::ZERO);
        assert!(r.energy_lt.mwh() > 0.0, "MPC must hedge long-term");
    }

    #[test]
    fn better_forecasts_do_not_hurt() {
        let (engine, params) = world(12);
        let causal = engine
            .run(&mut RecedingHorizon::new(params).unwrap())
            .unwrap();
        let oracle_engine = engine
            .clone()
            .with_forecast(ForecastPolicy::Oracle)
            .unwrap();
        let oracle = oracle_engine
            .run(&mut RecedingHorizon::new(params).unwrap())
            .unwrap();
        // A perfect frame forecast should be at least roughly as good
        // (small tolerance: the flat-profile approximation still bites).
        assert!(
            oracle.total_cost().dollars() <= causal.total_cost().dollars() * 1.05,
            "oracle {} vs causal {}",
            oracle.total_cost(),
            causal.total_cost()
        );
    }

    /// Replays a controller's frame LPs from the basis it held before
    /// each warm frame, and re-solves the same LP cold.
    struct ColdReSolve {
        inner: RecedingHorizon,
        warm_frames: usize,
    }

    impl Controller for ColdReSolve {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
            let before = self.inner.workspace.clone();
            let decision = self.inner.plan_frame(obs, view);
            if self.inner.workspace.last_was_warm() {
                let lp = self
                    .inner
                    .frame_lp(obs, view, Some(obs.slots_in_frame))
                    .unwrap();
                let warm = lp.problem.solve_with(&mut before.clone()).unwrap();
                let cold = lp.problem.solve().unwrap();
                let tol = 1e-9 * (1.0 + cold.objective().abs());
                assert!(
                    (warm.objective() - cold.objective()).abs() <= tol,
                    "frame {}: warm {} vs cold {}",
                    obs.frame,
                    warm.objective(),
                    cold.objective()
                );
                self.warm_frames += 1;
            }
            decision
        }

        fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
            self.inner.plan_slot(obs, view)
        }
    }

    #[test]
    fn warm_chain_on_the_paper_month_matches_cold_objectives() {
        // A frame whose LP keeps the previous frame's shape starts from
        // its basis; the counts pin that path at the canonical seed, and
        // each warm frame's objective must equal a cold solve of the same
        // LP.
        let truth = dpss_traces::paper_month_traces(42).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, truth).unwrap();
        let mut audit = ColdReSolve {
            inner: RecedingHorizon::new(params).unwrap(),
            warm_frames: 0,
        };
        let r = engine.run(&mut audit).unwrap();
        assert_eq!(r.availability_violations, 0);
        let ws = &audit.inner.workspace;
        let counts = (ws.warm_solves(), ws.cold_solves(), ws.warm_rejects());
        assert_eq!(counts, (29, 2, 0), "warm/cold/reject frame solves");
        assert_eq!(audit.warm_frames as u64, ws.warm_solves());
    }

    #[test]
    fn save_load_state_resumes_byte_identically_from_the_warm_basis() {
        // Warm starts make the basis load-bearing: on degenerate frames a
        // cold re-solve after restore could pick a different optimal
        // vertex. Byte-identical resume therefore proves the basis
        // snapshot round-trips faithfully.
        let (engine, params) = world(42);
        let engine = std::sync::Arc::new(engine);
        let fresh = || RecedingHorizon::new(params).unwrap();
        let full = engine.run(&mut fresh()).unwrap();

        let mut ctl = fresh();
        let mut run = engine.begin().unwrap();
        for _ in 0..3 {
            run.step_frame(&mut ctl).unwrap();
        }
        let engine_state = run.state();
        let ctl_state = ctl.save_state();

        let mut restored = fresh();
        restored.load_state(&ctl_state).unwrap();
        let mut resumed = engine.resume(engine_state).unwrap();
        while !resumed.is_done() {
            resumed.step_frame(&mut restored).unwrap();
        }
        assert_eq!(resumed.finish().unwrap(), full);
    }

    #[test]
    fn load_state_rejects_missing_or_bad_payload() {
        let params = SimParams::icdcs13();
        let mut ctl = RecedingHorizon::new(params).unwrap();
        assert!(ctl.load_state(&dpss_sim::ControllerState::empty()).is_err());
        let bad = dpss_sim::ControllerState {
            payload: Some("{".to_owned()),
            ..dpss_sim::ControllerState::empty()
        };
        assert!(ctl.load_state(&bad).is_err());
    }

    #[test]
    fn beats_impatient_with_honest_forecasts() {
        let (engine, params) = world(13);
        let mpc = engine
            .run(&mut RecedingHorizon::new(params).unwrap())
            .unwrap();
        let imp = engine.run(&mut crate::Impatient::two_markets()).unwrap();
        assert!(
            mpc.total_cost() < imp.total_cost(),
            "mpc {} vs impatient {}",
            mpc.total_cost(),
            imp.total_cost()
        );
    }
}

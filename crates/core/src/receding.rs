use dpss_sim::{
    Controller, ControllerState, FrameDecision, FrameDirective, FrameObservation, SimError,
    SimParams, SlotDecision, SlotObservation, SystemView,
};
use dpss_units::Energy;
use serde::{Deserialize, Serialize};

use crate::frame_lp::{FrameData, FramePlanner};
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
/// feasibility guard covers forecast misses. A backlog beyond the grid
/// headroom is served as far as it goes (the frame LP's elastic deadline).
///
/// Each frame LP warm-starts from the previous frame's optimal basis:
/// consecutive frames share the constraint structure and change only
/// right-hand sides, prices and the deadline bound, so a solve starts
/// from the last plan's vertex and, when the new data leaves it
/// infeasible, repairs it with a few dual pivots instead of starting
/// over. The basis is part of the checkpointed state (see
/// [`Controller::save_state`]), so a batch run, a stepped run and a
/// `dpss-serve` session resumed from a snapshot all plan from the same
/// vertices.
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
    /// Keeps the previous frame's basis; its template is not checkpointed.
    planner: FramePlanner,
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
    /// the frame LP to serve the standing backlog within the frame.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation.
    pub fn new(params: SimParams) -> Result<Self, CoreError> {
        params.validate()?;
        Ok(RecedingHorizon {
            planner: FramePlanner::new(params),
            directive: None,
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
    basis: Option<dpss_lp::BasisSnapshot>,
}

impl Controller for RecedingHorizon {
    fn name(&self) -> &str {
        "receding-horizon"
    }

    fn save_state(&self) -> ControllerState {
        let payload = RecedingPayload {
            plan_grt: self.planner.last.grt.clone(),
            plan_sdt: self.planner.last.sdt.clone(),
            directive: self.directive,
            basis: self.planner.workspace.export_basis(),
        };
        ControllerState {
            payload: serde_json::to_string(&payload).ok(),
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
        self.planner
            .workspace
            .import_basis(payload.basis.as_ref())
            .map_err(|_| SimError::InvalidState {
                what: "receding-horizon warm-start basis failed validation",
            })?;
        self.planner.last.grt = payload.plan_grt;
        self.planner.last.sdt = payload.plan_sdt;
        self.directive = payload.directive;
        Ok(())
    }

    fn receive_directive(&mut self, directive: &FrameDirective) {
        self.directive = Some(*directive);
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        let t = obs.slots_in_frame;
        // Flat forecast: the frame observation extended across the frame.
        let d_ds = vec![obs.demand_ds.mwh().max(0.0); t];
        let d_dt = vec![obs.demand_dt.mwh().max(0.0); t];
        let renewable = vec![obs.renewable.mwh().max(0.0); t];
        let p_lt = obs.price_lt.dollars_per_mwh();
        let p_rt = vec![p_lt * RT_MARKUP; t];
        let frame = FrameData {
            p_lt,
            p_rt: &p_rt,
            d_ds: &d_ds,
            d_dt: &d_dt,
            renewable: &renewable,
            b0: view.battery_level.mwh(),
            q0: view.queue_backlog.mwh(),
        };
        let planned = self.planner.plan(obs.slot_hours, &frame);
        // Buy-to-export: a coordinated fleet directive tops the hedge off
        // with energy destined for a neighbour (re-checked against the
        // actual quoted p_lt by `economic_top_off`; the engine clamps
        // the sum to the *grid* frame cap `T·Pgrid·Δh`).
        let top_off = self.directive.map_or(Energy::ZERO, |d| {
            d.economic_top_off(obs.frame, obs.price_lt, self.planner.params.waste_price)
        });
        FrameDecision {
            purchase_lt: planned + top_off,
        }
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        // Planned purchase, corrected in real time for the *observed*
        // forecast miss on this slot's delay-sensitive demand.
        let (planned, serve_fraction) =
            self.planner.slot(obs.slot.offset, view.queue_backlog.mwh());
        let planned_supply = view.lt_allocation.mwh() + planned + obs.renewable.mwh();
        let miss = (obs.demand_ds.mwh() - planned_supply).max(0.0);
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
    use dpss_traces::{Scenario, TraceSet};
    use dpss_units::{Price, SlotClock};

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
            let before = self.inner.planner.workspace.clone();
            let decision = self.inner.plan_frame(obs, view);
            if self.inner.planner.workspace.last_was_warm() {
                let lp = &self.inner.planner.lp.as_ref().unwrap().problem;
                let warm = lp.solve_with(&mut before.clone()).unwrap();
                let cold = lp.solve().unwrap();
                dpss_lp_oracle::agree(lp, &Ok(cold.clone())).unwrap();
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
        // Every frame edits one fixed-shape template, so only the first
        // solve is cold; the counts pin that path at the canonical seed,
        // and each warm frame's objective must equal a cold solve of the
        // same LP.
        let truth = dpss_traces::paper_month_traces(42).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, truth).unwrap();
        let mut audit = ColdReSolve {
            inner: RecedingHorizon::new(params).unwrap(),
            warm_frames: 0,
        };
        let r = engine.run(&mut audit).unwrap();
        assert_eq!(r.availability_violations, 0);
        let ws = &audit.inner.planner.workspace;
        let counts = (ws.warm_solves(), ws.cold_solves(), ws.warm_rejects());
        assert_eq!(counts, (30, 1, 0), "warm/cold/reject frame solves");
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

    /// Four one-day frames; a burst of delay-tolerant work at the end of
    /// frame 0 leaves more backlog than frame 1's grid can serve, and
    /// frame 2's renewables make room for it again.
    fn backlog_burst() -> Engine {
        let clock = SlotClock::new(4, 24, 1.0).unwrap();
        let n = clock.total_slots();
        let mut demand_dt = vec![Energy::from_mwh(0.1); n];
        demand_dt[23] = Energy::from_mwh(60.0);
        let renewable = (0..n)
            .map(|i| Energy::from_mwh(if i / 24 == 2 { 3.0 } else { 0.0 }))
            .collect();
        let truth = TraceSet::new(
            clock,
            vec![Energy::from_mwh(0.5); n],
            demand_dt,
            renewable,
            vec![Price::from_dollars_per_mwh(40.0); 4],
            vec![Price::from_dollars_per_mwh(55.0); n],
        )
        .unwrap();
        Engine::new(SimParams::icdcs13(), truth)
            .unwrap()
            .with_forecast(ForecastPolicy::Oracle)
            .unwrap()
    }

    /// Records, per frame, the standing backlog, the planned service,
    /// the long-term purchase and whether the frame LP solved warm.
    struct FrameLog {
        inner: RecedingHorizon,
        frames: Vec<(f64, f64, f64, bool)>,
    }

    impl Controller for FrameLog {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
            let decision = self.inner.plan_frame(obs, view);
            self.frames.push((
                view.queue_backlog.mwh(),
                self.inner.planner.last.sdt.iter().sum(),
                decision.purchase_lt.mwh(),
                self.inner.planner.workspace.last_was_warm(),
            ));
            decision
        }

        fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
            self.inner.plan_slot(obs, view)
        }
    }

    #[test]
    fn a_backlog_beyond_the_grid_is_served_as_far_as_the_grid_goes() {
        let engine = backlog_burst();
        let params = SimParams::icdcs13();
        let mut log = FrameLog {
            inner: RecedingHorizon::new(params).unwrap(),
            frames: Vec::new(),
        };
        let full = engine.run(&mut log).unwrap();
        let (q1, served1, bought1, _) = log.frames[1];
        // Frame 1 cannot serve its backlog within 24 slots of a 2 MW
        // grid. It serves what the 1.5 MWh of headroom per slot allows
        // (36 MWh), and only the rest waits past the deadline.
        assert!(q1 > 48.0, "frame 1 backlog {q1}");
        assert!(served1 >= 36.0 - 1e-6, "frame 1 served {served1} of {q1}");
        assert!(served1 < q1, "frame 1 served {served1} of {q1}");
        assert!(bought1 > 0.0, "an overflowing frame still hedges");
        // Frame 2's renewables make the deadline feasible again, and it
        // solves warm from the overflowing frame's basis: the overflow
        // leaves the problem's shape alone.
        let (q2, served2, _, warm2) = log.frames[2];
        assert!(served2 >= q2 - 1e-6, "frame 2 served {served2} of {q2}");
        assert!(warm2, "frame 2 must start from the previous frame's basis");

        // A checkpoint taken just after the overflowing frame resumes to
        // the same bytes.
        let engine = std::sync::Arc::new(engine);
        let mut ctl = RecedingHorizon::new(params).unwrap();
        let mut run = engine.begin().unwrap();
        for _ in 0..2 {
            run.step_frame(&mut ctl).unwrap();
        }
        let mut restored = RecedingHorizon::new(params).unwrap();
        restored.load_state(&ctl.save_state()).unwrap();
        let mut resumed = engine.resume(run.state()).unwrap();
        while !resumed.is_done() {
            resumed.step_frame(&mut restored).unwrap();
        }
        assert_eq!(resumed.finish().unwrap(), full);
    }

    #[test]
    fn an_imported_basis_at_a_bound_the_frame_lp_lacks_is_a_warm_reject() {
        // A checkpoint is untrusted input: mark a waste column (unbounded
        // above) as resting at its upper bound. The next frame must
        // reject the basis before computing anything from it and plan
        // exactly what a cold solve plans.
        let (engine, params) = world(42);
        let engine = std::sync::Arc::new(engine);
        let mut ctl = RecedingHorizon::new(params).unwrap();
        let mut run = engine.begin().unwrap();
        run.step_frame(&mut ctl).unwrap();
        let json = ctl.save_state().payload.unwrap();
        let mut payload: RecedingPayload = serde_json::from_str(&json).unwrap();
        let basis = payload.basis.as_mut().unwrap();
        // Column 1 + 7·i + 4 is slot i's waste; pick one that is nonbasic.
        let waste = (0..24)
            .map(|i| 5 + 7 * i)
            .find(|j| !basis.basis.contains(j))
            .expect("some slot wastes nothing");
        basis.at_upper[waste] = true;
        let forged = ControllerState {
            payload: Some(serde_json::to_string(&payload).unwrap()),
        };
        let mut restored = RecedingHorizon::new(params).unwrap();
        restored.load_state(&forged).unwrap();
        let mut cold = RecedingHorizon::new(params).unwrap();
        cold.load_state(&ctl.save_state()).unwrap();
        cold.planner.workspace.clear_basis();
        let mut a = engine.resume(run.state()).unwrap();
        let mut b = engine.resume(run.state()).unwrap();
        a.step_frame(&mut restored).unwrap();
        b.step_frame(&mut cold).unwrap();
        assert_eq!(restored.planner.workspace.warm_rejects(), 1);
        assert!(!restored.planner.workspace.last_was_warm());
        assert!(restored
            .planner
            .last
            .grt
            .iter()
            .chain(&restored.planner.last.sdt)
            .all(|x| x.is_finite()));
        assert_eq!(restored.planner.last.grt, cold.planner.last.grt);
        assert_eq!(restored.planner.last.sdt, cold.planner.last.sdt);
    }

    #[test]
    fn load_state_rejects_missing_or_bad_payload() {
        let params = SimParams::icdcs13();
        let mut ctl = RecedingHorizon::new(params).unwrap();
        assert!(ctl.load_state(&dpss_sim::ControllerState::empty()).is_err());
        let bad = dpss_sim::ControllerState {
            payload: Some("{".to_owned()),
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

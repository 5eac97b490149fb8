use dpss_sim::{
    Controller, ControllerState, FrameDecision, FrameDirective, FrameObservation, SimError,
    SimParams, SlotDecision, SlotObservation, SlotOutcome, SystemView,
};
use dpss_units::{Energy, SlotClock};
use serde::{Deserialize, Serialize};

use crate::{p4, p5, CoreError, MarketMode, P4Variant, SmartDpssConfig, TheoremBounds};

/// The SmartDPSS online controller (Algorithm 1).
///
/// State: the delay-aware virtual queue `Y(t)` (Eq. (12)). The demand
/// backlog `Q(t)` lives in the plant and is read from the
/// [`SystemView`]; the availability queue `X(t)` is the battery level
/// shifted by `Umax + Bmin + Bdmax·ηd` (Eq. (14)) and is derived per slot.
///
/// Decisions:
///
/// * at each coarse-frame start, subproblem **P4** picks the long-term
///   purchase `g_bef(t)` from the weight `V·p_lt(t) − Q(t) − Y(t)`;
/// * at each fine slot, subproblem **P5** picks the real-time purchase
///   `g_rt(τ)` and the service fraction `γ(τ)`, trading purchase cost,
///   waste and battery wear against queue reduction (see
///   [`P5Objective`](crate::P5Objective));
/// * after the plant applies the decisions, `Y(t)` is updated with the
///   realized service (`Y ← max{Y − s_dt + ε·1[Q>0], 0}`).
///
/// The controller requires no statistics of the future: everything it
/// sees is the current observation and its own queues, which is the
/// paper's headline property.
///
/// # Examples
///
/// See the crate-level example. For the cost–delay trade-off, sweep `V`:
///
/// ```
/// use dpss_core::{SmartDpss, SmartDpssConfig};
/// use dpss_sim::{Engine, SimParams};
/// use dpss_traces::Scenario;
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::new(4, 24, 1.0)?;
/// let traces = Scenario::icdcs13().generate(&clock, 1)?;
/// let params = SimParams::icdcs13();
/// let engine = Engine::new(params, traces)?;
/// let mut low_v = SmartDpss::new(SmartDpssConfig::icdcs13().with_v(0.05), params, clock)?;
/// let mut high_v = SmartDpss::new(SmartDpssConfig::icdcs13().with_v(5.0), params, clock)?;
/// let r_low = engine.run(&mut low_v)?;
/// let r_high = engine.run(&mut high_v)?;
/// // Larger V defers more aggressively.
/// assert!(r_high.average_delay_slots >= r_low.average_delay_slots);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SmartDpss {
    config: SmartDpssConfig,
    params: SimParams,
    bounds: TheoremBounds,
    /// Delay-aware virtual queue `Y(t)` (MWh-equivalent scalar).
    y: f64,
    /// Backlog observed when the current slot was planned (for the
    /// `1[Q(t)>0]` indicator of Eq. (12)).
    planned_backlog: f64,
    /// Largest `Y(t)` seen (for bound audits).
    y_max_seen: f64,
    /// Fleet dispatch directive for the coming frame, if a coordinated
    /// [`MultiSiteEngine`](dpss_sim::MultiSiteEngine) run delivered one.
    directive: Option<FrameDirective>,
}

impl SmartDpss {
    /// Creates a controller for the given configuration, plant parameters
    /// and calendar.
    ///
    /// # Errors
    ///
    /// Propagates configuration and parameter validation.
    pub fn new(
        config: SmartDpssConfig,
        params: SimParams,
        clock: SlotClock,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        params.validate()?;
        let bounds = TheoremBounds::compute(&config, &params, &clock);
        Ok(SmartDpss {
            config,
            params,
            bounds,
            y: 0.0,
            planned_backlog: 0.0,
            y_max_seen: 0.0,
            directive: None,
        })
    }

    /// Clears the controller's internal state (the virtual queue `Y(t)`
    /// and its statistics) so the instance can be reused for a fresh run.
    ///
    /// The engine builds a fresh plant per run, but controller state is
    /// the controller's own; reusing an instance without resetting would
    /// carry the previous run's delay pressure into the new one.
    pub fn reset(&mut self) {
        self.y = 0.0;
        self.planned_backlog = 0.0;
        self.y_max_seen = 0.0;
        self.directive = None;
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SmartDpssConfig {
        &self.config
    }

    /// The Theorem 2 bounds for this parameterization.
    #[must_use]
    pub fn bounds(&self) -> &TheoremBounds {
        &self.bounds
    }

    /// Current value of the delay-aware virtual queue `Y(t)`.
    #[must_use]
    pub fn virtual_queue_y(&self) -> f64 {
        self.y
    }

    /// Largest `Y(t)` observed so far (bound audits).
    #[must_use]
    pub fn y_max_seen(&self) -> f64 {
        self.y_max_seen
    }

    /// The availability queue `X(t)` for a given battery level (Eq. (14)).
    #[must_use]
    pub fn x_of(&self, battery_level: Energy) -> f64 {
        self.bounds.x_of_level(&self.params, battery_level.mwh())
    }

    fn p5_inputs(&self, obs: &SlotObservation, view: &SystemView) -> p5::P5Inputs {
        let base = (view.lt_allocation + obs.renewable - obs.demand_ds).mwh();
        let mut g_cap = view.rt_purchase_cap.mwh();
        if let Some(smax) = self.params.supply_cap {
            let fixed = view.lt_allocation + obs.renewable;
            g_cap = g_cap.min((smax - fixed).positive_part().mwh());
        }
        let mut y_cap = view.queue_backlog.mwh();
        if let Some(sdt) = self.params.sdt_max {
            y_cap = y_cap.min(sdt.mwh());
        }
        p5::P5Inputs {
            base,
            g_cap,
            y_cap,
            headroom: view.battery_headroom.mwh(),
            available: view.battery_available.mwh(),
            q: view.queue_backlog.mwh(),
            y_queue: self.y,
            x: self.x_of(view.battery_level),
            v: self.config.v,
            p_rt: obs.price_rt.dollars_per_mwh(),
            cb: self.params.battery.op_cost.dollars(),
            w_pen: self.params.waste_price.dollars_per_mwh(),
            eta_c: self.params.battery.charge_efficiency,
            eta_d: self.params.battery.discharge_efficiency,
            objective: self.config.p5_objective,
        }
    }

    /// Algorithm 1, step 1: the frame decision, with P4 solved by `p4`.
    fn decide_frame(
        &self,
        obs: &FrameObservation,
        view: &SystemView,
        p4: impl FnOnce(&p4::P4Inputs) -> f64,
    ) -> FrameDecision {
        if self.config.market == MarketMode::RealTimeOnly {
            return FrameDecision {
                purchase_lt: Energy::ZERO,
            };
        }
        let slot_cap = self.params.grid_slot_cap(obs.slot_hours).mwh();
        // How much the battery offsets the per-slot demand cover. The
        // printed P4 uses the level `b(t)` as a per-slot resource; the
        // waste-aware variant spreads the battery's deliverable *energy*
        // over the frame (it cannot discharge its capacity every slot).
        let battery_offset = match self.config.p4_variant {
            P4Variant::PaperLiteral => view.battery_available,
            P4Variant::WasteAware => {
                (view.battery_level - self.params.battery.min_level).positive_part()
                    / (self.params.battery.discharge_efficiency * obs.slots_in_frame as f64)
            }
        };
        let need_per_slot = (obs.demand_ds - obs.renewable - battery_offset).mwh();
        let total_cap = match self.config.p4_variant {
            P4Variant::PaperLiteral => f64::INFINITY,
            P4Variant::WasteAware => {
                // Frame absorption: projected net demand of both classes
                // plus the standing backlog. Deliberately buying extra to
                // fill the battery is excluded — round-tripping purchased
                // energy through ηc·ηd < 1 loses more than time-shifting
                // gains; the battery fills from incidental surplus instead.
                let per_slot_net = (obs.demand_ds + obs.demand_dt - obs.renewable).positive_part();
                // audit:allow(unit-cast): slot count scales an Energy, it is not a unit conversion
                (per_slot_net * obs.slots_in_frame as f64 + view.queue_backlog).mwh()
            }
        };
        let inputs = p4::P4Inputs {
            weight: self.config.v * obs.price_lt.dollars_per_mwh()
                - (view.queue_backlog.mwh() + self.y),
            need_per_slot,
            slots: obs.slots_in_frame as f64,
            slot_cap,
            total_cap,
        };
        let total = p4(&inputs);
        // Buy-to-export: a coordinated fleet directive can top the frame
        // purchase off with energy destined for a neighbour (re-checked
        // against the actual quoted p_lt by `economic_top_off`); the
        // engine clamps the sum to the *grid* frame cap `T·Pgrid·Δh` —
        // link caps only bound it indirectly, through the planner's
        // export-headroom input.
        let top_off = self.directive.map_or(Energy::ZERO, |d| {
            d.economic_top_off(obs.frame, obs.price_lt, self.params.waste_price)
        });
        FrameDecision {
            purchase_lt: Energy::from_mwh(total.max(0.0)) + top_off,
        }
    }

    /// Algorithm 1, step 2: the slot decision, with P5 solved by `p5`.
    fn decide_slot(
        &mut self,
        obs: &SlotObservation,
        view: &SystemView,
        p5: impl FnOnce(&p5::P5Inputs) -> p5::P5Solution,
    ) -> SlotDecision {
        self.planned_backlog = view.queue_backlog.mwh();
        let inputs = self.p5_inputs(obs, view);
        let sol = p5(&inputs);
        let backlog = view.queue_backlog.mwh();
        let serve_fraction = if backlog > 1e-12 {
            (sol.s_dt / backlog).clamp(0.0, 1.0)
        } else {
            0.0
        };
        SlotDecision {
            purchase_rt: Energy::from_mwh(sol.g_rt.max(0.0)),
            serve_fraction,
        }
    }
}

/// The checkpointable internals of [`SmartDpss`], carried as the
/// [`ControllerState`] payload (JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SmartDpssPayload {
    y: f64,
    planned_backlog: f64,
    y_max_seen: f64,
    directive: Option<FrameDirective>,
}

impl Controller for SmartDpss {
    fn name(&self) -> &str {
        "smart-dpss"
    }

    fn save_state(&self) -> ControllerState {
        let payload = SmartDpssPayload {
            y: self.y,
            planned_backlog: self.planned_backlog,
            y_max_seen: self.y_max_seen,
            directive: self.directive,
        };
        ControllerState {
            payload: serde_json::to_string(&payload).ok(),
            ..ControllerState::empty()
        }
    }

    fn load_state(&mut self, state: &ControllerState) -> Result<(), SimError> {
        let Some(json) = &state.payload else {
            return Err(SimError::InvalidState {
                what: "smart-dpss state must carry a payload",
            });
        };
        let payload: SmartDpssPayload =
            serde_json::from_str(json).map_err(|_| SimError::InvalidState {
                what: "smart-dpss payload is not a valid state record",
            })?;
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !ok(payload.y) || !ok(payload.planned_backlog) || !ok(payload.y_max_seen) {
            return Err(SimError::InvalidState {
                what: "smart-dpss queue state must be finite and non-negative",
            });
        }
        self.y = payload.y;
        self.planned_backlog = payload.planned_backlog;
        self.y_max_seen = payload.y_max_seen;
        self.directive = payload.directive;
        Ok(())
    }

    fn receive_directive(&mut self, directive: &FrameDirective) {
        self.directive = Some(*directive);
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        self.decide_frame(obs, view, p4::solve_closed_form)
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        self.decide_slot(obs, view, p5::solve_closed_form)
    }

    fn end_slot(&mut self, outcome: &SlotOutcome, _view: &SystemView) {
        // Eq. (12): Y(t+1) = max{Y(t) − s_dt(t) + ε·1[Q(t)>0], 0}, with the
        // *realized* service and the backlog as seen at planning time.
        let indicator = if self.planned_backlog > 1e-12 {
            1.0
        } else {
            0.0
        };
        self.y = (self.y - outcome.served_dt.mwh() + self.config.epsilon * indicator).max(0.0);
        self.y_max_seen = self.y_max_seen.max(self.y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss_sim::Engine;
    use dpss_traces::Scenario;
    use dpss_units::Price;
    use proptest::prelude::*;

    fn run_frames(config: SmartDpssConfig, seed: u64, frames: usize) -> dpss_sim::RunReport {
        let clock = SlotClock::new(frames, 24, 1.0).unwrap();
        let traces = Scenario::icdcs13().generate(&clock, seed).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, traces).unwrap();
        let mut ctl = SmartDpss::new(config, params, clock).unwrap();
        engine.run(&mut ctl).unwrap()
    }

    fn run_with(config: SmartDpssConfig, seed: u64) -> dpss_sim::RunReport {
        run_frames(config, seed, 6)
    }

    #[test]
    fn construction_validates() {
        let clock = SlotClock::icdcs13_month();
        let params = SimParams::icdcs13();
        assert!(SmartDpss::new(SmartDpssConfig::icdcs13().with_v(-1.0), params, clock).is_err());
        let ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        assert_eq!(ctl.name(), "smart-dpss");
        assert_eq!(ctl.virtual_queue_y(), 0.0);
        assert!(ctl.bounds().q_max > 0.0);
    }

    #[test]
    fn serves_all_demand_without_violations() {
        let r = run_with(SmartDpssConfig::icdcs13(), 42);
        assert_eq!(r.unserved_ds, Energy::ZERO);
        assert_eq!(r.availability_violations, 0);
        // Delay-tolerant demand is eventually served (small residue may
        // remain at the horizon edge).
        assert!(r.served_dt.mwh() > 0.0);
    }

    #[test]
    fn real_time_only_mode_buys_nothing_long_term() {
        let r = run_with(
            SmartDpssConfig::icdcs13().with_market(MarketMode::RealTimeOnly),
            42,
        );
        assert_eq!(r.energy_lt, Energy::ZERO);
        assert_eq!(r.cost_lt.dollars(), 0.0);
        assert!(r.energy_rt.mwh() > 0.0);
    }

    #[test]
    fn two_markets_cheaper_than_real_time_only() {
        // The Fig. 7 "TM vs RTM" claim. Two weeks, not six days: the
        // prev-frame-average forecast needs warm-up before the E[p_rt] >
        // E[p_lt] gap dominates per-trace noise; at 14+ frames TM wins on
        // every seed tried, at 6 it is a coin flip.
        let tm = run_frames(SmartDpssConfig::icdcs13(), 42, 14);
        let rtm = run_frames(
            SmartDpssConfig::icdcs13().with_market(MarketMode::RealTimeOnly),
            42,
            14,
        );
        assert!(
            tm.total_cost() < rtm.total_cost(),
            "tm {} vs rtm {}",
            tm.total_cost(),
            rtm.total_cost()
        );
    }

    /// SmartDPSS with P4 and P5 solved by the `dpss-lp` oracles instead
    /// of the closed forms.
    struct LpOracle(SmartDpss);

    impl Controller for LpOracle {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
            self.0
                .decide_frame(obs, view, |inp| p4::solve_lp(inp).expect("P4 LP solves"))
        }

        fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
            self.0
                .decide_slot(obs, view, |inp| p5::solve_lp(inp).expect("P5 LP solves"))
        }

        fn end_slot(&mut self, outcome: &SlotOutcome, view: &SystemView) {
            self.0.end_slot(outcome, view);
        }
    }

    /// Runs the closed-form controller and its LP oracle on `engine`.
    fn closed_form_and_lp(
        engine: &Engine,
        params: SimParams,
        clock: SlotClock,
    ) -> (dpss_sim::RunReport, dpss_sim::RunReport) {
        let new = || SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let cf = engine.run(&mut new()).unwrap();
        let lp = engine.run(&mut LpOracle(new())).unwrap();
        (cf, lp)
    }

    #[test]
    fn lp_and_closed_form_paths_agree_end_to_end() {
        let clock = SlotClock::new(6, 24, 1.0).unwrap();
        let traces = Scenario::icdcs13().generate(&clock, 7).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, traces).unwrap();
        let (cf, lp) = closed_form_and_lp(&engine, params, clock);
        assert!(
            (cf.total_cost().dollars() - lp.total_cost().dollars()).abs()
                < 1e-6 * cf.total_cost().dollars().abs().max(1.0),
            "cf {} vs lp {}",
            cf.total_cost(),
            lp.total_cost()
        );
        assert!((cf.average_delay_slots - lp.average_delay_slots).abs() < 1e-6);
    }

    #[test]
    fn lp_backed_controller_matches_closed_form_on_the_full_month() {
        let truth = dpss_traces::paper_month_traces(9).unwrap();
        let params = SimParams::icdcs13();
        let clock = truth.clock;
        let engine = Engine::new(params, truth).unwrap();
        let (r_cf, r_lp) = closed_form_and_lp(&engine, params, clock);
        let rel = (r_cf.total_cost().dollars() - r_lp.total_cost().dollars()).abs()
            / r_cf.total_cost().dollars();
        assert!(
            rel < 1e-6,
            "cf {} vs lp {}",
            r_cf.total_cost(),
            r_lp.total_cost()
        );
        assert!((r_cf.average_delay_slots - r_lp.average_delay_slots).abs() < 1e-6);
        assert_eq!(r_cf.availability_violations, r_lp.availability_violations);
    }

    fn slot_strategy() -> impl Strategy<Value = (SlotObservation, SystemView)> {
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
                    slot: dpss_units::SlotId {
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
        fn lp_and_closed_form_agree_per_slot(
            (obs, view) in slot_strategy(),
            v in 0.05..5.0f64,
        ) {
            let params = SimParams::icdcs13();
            let clock = SlotClock::icdcs13_month();
            let new = || SmartDpss::new(SmartDpssConfig::icdcs13().with_v(v), params, clock).unwrap();
            let d_cf = new().plan_slot(&obs, &view);
            let d_lp = LpOracle(new()).plan_slot(&obs, &view);
            // The argmin may differ on exact ties; realized (g_rt, s_dt) costs
            // must agree. Compare the decisions' physical effect:
            let served_cf = view.queue_backlog.mwh() * d_cf.serve_fraction;
            let served_lp = view.queue_backlog.mwh() * d_lp.serve_fraction;
            let net_cf = d_cf.purchase_rt.mwh() - served_cf;
            let net_lp = d_lp.purchase_rt.mwh() - served_lp;
            prop_assert!(
                (net_cf - net_lp).abs() < 1e-6
                    || (d_cf.purchase_rt.mwh() - d_lp.purchase_rt.mwh()).abs() < 1e-6,
                "cf {d_cf:?} vs lp {d_lp:?}"
            );
        }
    }

    #[test]
    fn y_queue_updates_follow_eq_12() {
        let clock = SlotClock::new(2, 4, 1.0).unwrap();
        let params = SimParams::icdcs13();
        let mut ctl =
            SmartDpss::new(SmartDpssConfig::icdcs13().with_epsilon(0.5), params, clock).unwrap();
        // Simulate an end_slot with backlog present and no service.
        ctl.planned_backlog = 1.0;
        let outcome = fake_outcome(0.0);
        ctl.end_slot(&outcome, &fake_view());
        assert!((ctl.virtual_queue_y() - 0.5).abs() < 1e-12);
        // Service shrinks Y; floor at zero.
        ctl.planned_backlog = 1.0;
        let outcome = fake_outcome(5.0);
        ctl.end_slot(&outcome, &fake_view());
        assert_eq!(ctl.virtual_queue_y(), 0.0);
        // Empty backlog → no growth.
        ctl.planned_backlog = 0.0;
        let outcome = fake_outcome(0.0);
        ctl.end_slot(&outcome, &fake_view());
        assert_eq!(ctl.virtual_queue_y(), 0.0);
        assert!((ctl.y_max_seen() - 0.5).abs() < 1e-12);
    }

    fn fake_outcome(served_dt: f64) -> SlotOutcome {
        SlotOutcome {
            slot: dpss_units::SlotId {
                index: 0,
                frame: 0,
                offset: 0,
            },
            supply_lt: Energy::ZERO,
            purchase_rt: Energy::ZERO,
            emergency_rt: Energy::ZERO,
            renewable: Energy::ZERO,
            served_ds: Energy::ZERO,
            served_dt: Energy::from_mwh(served_dt),
            charge: Energy::ZERO,
            discharge: Energy::ZERO,
            waste: Energy::ZERO,
            unserved_ds: Energy::ZERO,
            battery_level_after: Energy::ZERO,
            queue_after: Energy::ZERO,
            battery_op: false,
            cost: dpss_sim::SlotCost::default(),
        }
    }

    fn fake_view() -> SystemView {
        SystemView {
            battery_level: Energy::ZERO,
            battery_headroom: Energy::ZERO,
            battery_available: Energy::ZERO,
            battery_ops_remaining: None,
            queue_backlog: Energy::ZERO,
            lt_allocation: Energy::ZERO,
            rt_purchase_cap: Energy::ZERO,
        }
    }

    #[test]
    fn directives_top_off_the_frame_purchase_only_when_economic() {
        let clock = SlotClock::new(2, 4, 1.0).unwrap();
        let params = SimParams::icdcs13();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let obs = FrameObservation {
            frame: 0,
            slot: 0,
            slots_in_frame: 4,
            slot_hours: 1.0,
            price_lt: dpss_units::Price::from_dollars_per_mwh(30.0),
            demand_ds: Energy::from_mwh(0.5),
            demand_dt: Energy::from_mwh(0.2),
            renewable: Energy::from_mwh(0.1),
        };
        let base = ctl.plan_frame(&obs, &fake_view()).purchase_lt;

        // A profitable export directive (delivered value beats
        // p_lt + waste penalty) tops the purchase off by exactly the
        // procure amount.
        ctl.receive_directive(&FrameDirective {
            frame: 0,
            procure_for_export: Energy::from_mwh(2.0),
            export_quota: Energy::from_mwh(2.0),
            import_expectation: Energy::ZERO,
            export_value: 60.0,
        });
        let directed = ctl.plan_frame(&obs, &fake_view()).purchase_lt;
        assert!((directed.mwh() - base.mwh() - 2.0).abs() < 1e-12);

        // Uneconomic value ($30 < $30 + $1 waste): ignored.
        ctl.receive_directive(&FrameDirective {
            export_value: 30.0,
            ..FrameDirective {
                frame: 0,
                procure_for_export: Energy::from_mwh(2.0),
                export_quota: Energy::from_mwh(2.0),
                import_expectation: Energy::ZERO,
                export_value: 0.0,
            }
        });
        assert_eq!(ctl.plan_frame(&obs, &fake_view()).purchase_lt, base);

        // Stale directive (wrong frame): ignored.
        ctl.receive_directive(&FrameDirective {
            frame: 1,
            procure_for_export: Energy::from_mwh(2.0),
            export_quota: Energy::from_mwh(2.0),
            import_expectation: Energy::ZERO,
            export_value: 60.0,
        });
        assert_eq!(ctl.plan_frame(&obs, &fake_view()).purchase_lt, base);

        // Inert directives never change the decision, and reset clears
        // any stored one.
        ctl.receive_directive(&FrameDirective::inert(0));
        assert_eq!(ctl.plan_frame(&obs, &fake_view()).purchase_lt, base);
        ctl.receive_directive(&FrameDirective {
            frame: 0,
            procure_for_export: Energy::from_mwh(2.0),
            export_quota: Energy::from_mwh(2.0),
            import_expectation: Energy::ZERO,
            export_value: 60.0,
        });
        ctl.reset();
        assert_eq!(ctl.plan_frame(&obs, &fake_view()).purchase_lt, base);
    }

    #[test]
    fn waste_aware_p4_never_exceeds_paper_literal_waste() {
        let literal = run_with(SmartDpssConfig::icdcs13(), 11);
        let aware = run_with(
            SmartDpssConfig::icdcs13().with_p4_variant(P4Variant::WasteAware),
            11,
        );
        assert!(
            aware.energy_wasted.mwh() <= literal.energy_wasted.mwh() + 1e-9,
            "aware {} vs literal {}",
            aware.energy_wasted,
            literal.energy_wasted
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_with(SmartDpssConfig::icdcs13(), 3);
        let b = run_with(SmartDpssConfig::icdcs13(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_state_resumes_byte_identically() {
        let clock = SlotClock::new(6, 24, 1.0).unwrap();
        let traces = Scenario::icdcs13().generate(&clock, 42).unwrap();
        let params = SimParams::icdcs13();
        let engine = std::sync::Arc::new(Engine::new(params, traces).unwrap());
        let mut full_ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let full = engine.run(&mut full_ctl).unwrap();

        // Step 3 frames, checkpoint engine + controller, restore both
        // into fresh instances, finish: the report must be identical.
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let mut run = engine.begin().unwrap();
        for _ in 0..3 {
            run.step_frame(&mut ctl).unwrap();
        }
        let engine_state = run.state();
        let ctl_state = ctl.save_state();
        assert!(!ctl_state.is_empty());

        let mut restored = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        restored.load_state(&ctl_state).unwrap();
        assert_eq!(restored.virtual_queue_y(), ctl.virtual_queue_y());
        let mut resumed = engine.resume(engine_state).unwrap();
        while !resumed.is_done() {
            resumed.step_frame(&mut restored).unwrap();
        }
        assert_eq!(resumed.finish().unwrap(), full);
    }

    #[test]
    fn load_state_rejects_garbage() {
        let clock = SlotClock::new(2, 4, 1.0).unwrap();
        let params = SimParams::icdcs13();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        // Missing payload.
        assert!(ctl.load_state(&dpss_sim::ControllerState::empty()).is_err());
        // Unparseable payload.
        let bad = dpss_sim::ControllerState {
            payload: Some("not json".to_owned()),
            ..dpss_sim::ControllerState::empty()
        };
        assert!(ctl.load_state(&bad).is_err());
        // Negative virtual queue.
        let bad = dpss_sim::ControllerState {
            payload: Some(
                "{\"y\":-1.0,\"planned_backlog\":0.0,\"y_max_seen\":0.0,\"directive\":null}"
                    .to_owned(),
            ),
            ..dpss_sim::ControllerState::empty()
        };
        assert!(ctl.load_state(&bad).is_err());
    }

    #[test]
    fn reset_makes_an_instance_reusable() {
        let clock = SlotClock::new(4, 24, 1.0).unwrap();
        let traces = Scenario::icdcs13().generate(&clock, 5).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, traces).unwrap();
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).unwrap();
        let first = engine.run(&mut ctl).unwrap();
        assert!(ctl.virtual_queue_y() > 0.0, "run leaves Y state behind");
        // Without reset the second run differs; with reset it reproduces.
        ctl.reset();
        assert_eq!(ctl.virtual_queue_y(), 0.0);
        assert_eq!(ctl.y_max_seen(), 0.0);
        let second = engine.run(&mut ctl).unwrap();
        assert_eq!(first, second);
    }
}

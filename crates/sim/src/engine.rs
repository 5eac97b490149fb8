// The run loop iterates the validated calendar and reads the traces it
// owns through `Engine::storage_frame`, which maps every calendar frame
// onto a frame of the validated trace set (the identity for a batch
// engine, `k % 2` for a stream engine's two-frame window), so every index
// it hands out is in bounds for every series.
// audit:allow-file(slice-index): slot/frame indices come from the validated clock that sized every buffer in the run

//! The run loop: [`Engine`] (configuration plus true traces) and
//! [`EngineRun`] (one in-flight run, stepped a coarse frame at a time).
//!
//! A *batch* engine ([`Engine::new`]) holds the whole calendar's traces
//! up front. A *stream* engine ([`Engine::stream`]) holds only a
//! two-frame window: calendar frame `k` lives in window frame `k % 2`,
//! written by [`EngineRun::write_frame`] just before `k` is stepped. No
//! step reads further back than the previous frame — the causal
//! [`PrevFrameAverage`](crate::ForecastPolicy::PrevFrameAverage)
//! forecast reads `k − 1`, the oracle forecasts and the slot loop read
//! `k` — so a stream engine's memory, and its checkpoint
//! ([`EngineRunState::prev_traces`](crate::EngineRunState::prev_traces)),
//! do not grow with the calendar.

use std::sync::Arc;

use dpss_traces::TraceSet;
use dpss_units::{Energy, Price, SlotClock};

use crate::plant::{self, SlotInputs};
use crate::{
    Battery, Controller, DemandQueue, FrameObservation, FrameTotals, RunReport, SimError,
    SimParams, SlotObservation, SystemView,
};

/// Coarse frames a stream engine's trace window holds: the frame being
/// stepped and the one before it, which the causal forecast reads.
const STREAM_WINDOW: usize = 2;

/// The two-timescale simulation driver.
///
/// An engine owns the physical parameters, the calendar and the *true*
/// traces — the whole calendar's for a batch engine, a two-frame window
/// for a stream engine (see the module docs); optionally it also carries
/// an *observed* trace set (same shape as the truth) that is shown to the
/// controller instead of the truth — this is how the Fig. 9 robustness
/// experiment injects estimation errors without corrupting the physics.
///
/// `run` borrows the engine immutably, so one engine can evaluate many
/// controllers on identical inputs (exactly what the figure sweeps do).
///
/// # Examples
///
/// See the crate-level example; every controller in `dpss-core` runs
/// through this same entry point.
#[derive(Debug, Clone)]
pub struct Engine {
    params: SimParams,
    /// The run's calendar; the truth's own clock for a batch engine.
    clock: SlotClock,
    /// Whether `truth` is a two-frame stream window.
    stream: bool,
    truth: TraceSet,
    observed: Option<TraceSet>,
    forecast: crate::ForecastPolicy,
}

impl Engine {
    /// Creates an engine for the given parameters and true traces.
    ///
    /// # Errors
    ///
    /// Propagates parameter and trace validation failures.
    pub fn new(params: SimParams, truth: TraceSet) -> Result<Self, SimError> {
        params.validate()?;
        truth.validate()?;
        Ok(Engine {
            params,
            clock: truth.clock,
            stream: false,
            truth,
            observed: None,
            forecast: crate::ForecastPolicy::default(),
        })
    }

    /// Creates a stream engine for `calendar`: its truth is a zero-filled
    /// two-frame window, and each calendar frame's traces are written with
    /// [`EngineRun::write_frame`] just before the frame is stepped. Runs
    /// report over the whole calendar exactly as a batch engine holding
    /// the same traces would.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn stream(params: SimParams, calendar: SlotClock) -> Result<Self, SimError> {
        let window = SlotClock::new(
            STREAM_WINDOW,
            calendar.slots_per_frame(),
            calendar.slot_hours(),
        )?;
        let slots = window.total_slots();
        let truth = TraceSet::new(
            window,
            vec![Energy::ZERO; slots],
            vec![Energy::ZERO; slots],
            vec![Energy::ZERO; slots],
            vec![Price::ZERO; STREAM_WINDOW],
            vec![Price::ZERO; slots],
        )?;
        Ok(Engine {
            clock: calendar,
            stream: true,
            ..Engine::new(params, truth)?
        })
    }

    /// Selects how the frame observations' demand/renewable fields are
    /// produced (default: causal previous-frame averages). See
    /// [`ForecastPolicy`](crate::ForecastPolicy).
    ///
    /// # Errors
    ///
    /// Propagates policy validation.
    pub fn with_forecast(mut self, policy: crate::ForecastPolicy) -> Result<Self, SimError> {
        policy.validate()?;
        self.forecast = policy;
        Ok(self)
    }

    /// Supplies an observed trace set (what controllers see). Must share
    /// the truth's clock.
    ///
    /// # Errors
    ///
    /// [`SimError::ObservationMismatch`] if the calendars differ, plus
    /// validation failures of the observed set itself.
    pub fn with_observed(mut self, observed: TraceSet) -> Result<Self, SimError> {
        observed.validate()?;
        if observed.clock != self.truth.clock {
            return Err(SimError::ObservationMismatch);
        }
        self.observed = Some(observed);
        Ok(self)
    }

    /// Derives a sweep-cell engine: identical traces, observations and
    /// forecast policy, but different physical parameters.
    ///
    /// This is the cheap path for parameter sweeps (battery sizing,
    /// interconnect scaling, …): the trace set is reused as-is instead of
    /// being regenerated per cell, so only `params` is re-validated. Runs
    /// on the derived engine are byte-identical to building a fresh
    /// engine from the same seed with the new parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn with_params(&self, params: SimParams) -> Result<Self, SimError> {
        params.validate()?;
        let mut cell = self.clone();
        cell.params = params;
        Ok(cell)
    }

    /// The physical parameters.
    #[must_use]
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The run's calendar.
    #[must_use]
    pub fn clock(&self) -> SlotClock {
        self.clock
    }

    /// The true traces: the whole calendar's for a batch engine, the
    /// two-frame window for a stream engine.
    #[must_use]
    pub fn truth(&self) -> &TraceSet {
        &self.truth
    }

    /// The frame of the truth (and observed) trace set holding calendar
    /// frame `frame`.
    fn storage_frame(&self, frame: usize) -> usize {
        if self.stream {
            frame % STREAM_WINDOW
        } else {
            frame
        }
    }

    /// A stream engine's copy of calendar frame `next_frame − 1`, the
    /// frame the next step's causal forecast reads, as a one-frame trace
    /// set; `None` for a batch engine and before the first frame.
    fn saved_frame(&self, next_frame: usize) -> Option<TraceSet> {
        if !self.stream || next_frame == 0 {
            return None;
        }
        let t = self.clock.slots_per_frame();
        let k = self.storage_frame(next_frame - 1);
        let slots = k * t..(k + 1) * t;
        Some(TraceSet {
            // Cannot fail: the calendar validated the same slot grid.
            clock: SlotClock::new(1, t, self.clock.slot_hours()).ok()?,
            demand_ds: self.truth.demand_ds[slots.clone()].to_vec(),
            demand_dt: self.truth.demand_dt[slots.clone()].to_vec(),
            renewable: self.truth.renewable[slots.clone()].to_vec(),
            price_lt: vec![self.truth.price_lt[k]],
            price_rt: self.truth.price_rt[slots].to_vec(),
            arrivals: None,
        })
    }

    /// Runs one controller over the whole horizon and aggregates a report:
    /// exactly [`begin`](Self::begin), [`EngineRun::step_frame`] for every
    /// coarse frame, then [`EngineRun::finish`], on a copy of this engine
    /// the run owns (`tests/stepping_equivalence.rs` pins the report JSON
    /// against stepping by hand).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDecision`] if the controller emits NaN/negative
    /// decisions; battery errors cannot escape the plant's clamping.
    pub fn run(&self, controller: &mut dyn Controller) -> Result<RunReport, SimError> {
        let mut run = Arc::new(self.clone()).begin()?;
        while !run.is_done() {
            run.step_frame(controller)?;
        }
        run.finish()
    }

    /// Starts a resumable run: the returned [`EngineRun`] owns the plant
    /// state (battery, queue, partial report) and a shared handle on this
    /// engine, and advances one coarse frame at a time through
    /// [`EngineRun::step_frame`]. This is the frame-synchronous entry
    /// point [`MultiSiteEngine`](crate::MultiSiteEngine) uses to run a
    /// fleet in lockstep, delivering a `FrameDirective` to each site's
    /// controller between frames.
    ///
    /// # Errors
    ///
    /// Propagates battery-construction failures (invalid parameters are
    /// normally caught at [`Engine::new`]).
    pub fn begin(self: &Arc<Self>) -> Result<EngineRun, SimError> {
        let clock = self.clock;
        Ok(EngineRun {
            engine: Arc::clone(self),
            battery: Battery::new(self.params.battery)?,
            queue: DemandQueue::new(),
            lt_alloc: Energy::ZERO,
            report: empty_report("", clock.total_slots()),
            last_frame: FrameTotals::EMPTY,
            next_frame: 0,
            failed: false,
        })
    }

    /// The observed trace set (what controllers see): the injected
    /// observation set when one was supplied, the truth otherwise.
    pub(crate) fn observed_traces(&self) -> &TraceSet {
        self.observed.as_ref().unwrap_or(&self.truth)
    }

    /// Reinstates a checkpointed run on this engine. The engine must be
    /// configured exactly as the one the state was captured from (same
    /// parameters, traces and forecast policy); a stream engine gets the
    /// state's saved previous frame written into its window (on its own
    /// copy when the engine is shared). Continuing the resumed run is
    /// then byte-for-byte identical to continuing the original.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if the state's progress or saved frame
    /// disagree with this engine's calendar and kind; the
    /// [`TraceSet::write_frame`] rejections of a misshapen or non-finite
    /// saved frame; plus the
    /// per-component validation of [`Battery::from_state`] and
    /// [`DemandQueue::from_state`].
    pub fn resume(self: &Arc<Self>, state: crate::EngineRunState) -> Result<EngineRun, SimError> {
        let clock = self.clock;
        if state.next_frame > clock.frames() {
            return Err(SimError::InvalidState {
                what: "resume frame is beyond the calendar",
            });
        }
        if state.report.slots != clock.total_slots() {
            return Err(SimError::InvalidState {
                what: "report slot count disagrees with the calendar",
            });
        }
        if !state.lt_alloc.is_finite() || state.lt_alloc.mwh() < 0.0 {
            return Err(SimError::InvalidState {
                what: "long-term allocation must be finite and non-negative",
            });
        }
        let last = &state.last_frame;
        if !(last.waste.is_finite()
            && last.energy_rt.is_finite()
            && last.cost_rt.is_finite()
            && last.grid_draw.is_finite())
        {
            return Err(SimError::InvalidState {
                what: "last-frame totals must be finite",
            });
        }
        let mut engine = Arc::clone(self);
        match (self.stream && state.next_frame > 0, &state.prev_traces) {
            (true, Some(prev)) => {
                let k = self.storage_frame(state.next_frame - 1);
                Arc::make_mut(&mut engine).truth.write_frame(k, prev)?;
            }
            (false, None) => {}
            (true, None) => {
                return Err(SimError::InvalidState {
                    what: "a stream run past frame 0 must carry its previous frame",
                })
            }
            (false, Some(_)) => {
                return Err(SimError::InvalidState {
                    what: "only a stream run past frame 0 carries a previous frame",
                })
            }
        }
        Ok(EngineRun {
            engine,
            battery: Battery::from_state(self.params.battery, &state.battery)?,
            queue: DemandQueue::from_state(&state.queue)?,
            lt_alloc: state.lt_alloc,
            report: state.report,
            last_frame: state.last_frame,
            next_frame: state.next_frame,
            failed: false,
        })
    }
}

/// An in-flight [`Engine`] run: plant state plus the partially aggregated
/// report, advanced one coarse frame at a time.
///
/// Produced by [`Engine::begin`] or [`Engine::resume`]; [`Engine::run`]
/// is exactly `begin` + [`step_frame`](EngineRun::step_frame) ×
/// `frames` + [`finish`](EngineRun::finish). Within a frame nothing is
/// externally observable; between frames the accessors expose what a
/// fleet dispatcher needs (the partial report, the last frame's totals,
/// battery headroom).
#[derive(Debug, Clone)]
pub struct EngineRun {
    engine: Arc<Engine>,
    battery: Battery,
    queue: DemandQueue,
    lt_alloc: Energy,
    report: RunReport,
    last_frame: FrameTotals,
    next_frame: usize,
    /// Set when a frame step failed part-way: the plant is mid-frame and
    /// must not be stepped again.
    failed: bool,
}

impl EngineRun {
    /// The engine this run steps.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Coarse frames completed so far (also the index of the next frame
    /// to step).
    #[must_use]
    pub fn frames_completed(&self) -> usize {
        self.next_frame
    }

    /// Whether every coarse frame of the calendar has been stepped.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_frame >= self.engine.clock.frames()
    }

    /// The realized totals of the most recently completed frame
    /// ([`FrameTotals::EMPTY`] before the first).
    #[must_use]
    pub fn last_frame(&self) -> &FrameTotals {
        &self.last_frame
    }

    /// The report aggregated over the frames stepped so far (horizon
    /// statistics are only filled in by [`finish`](Self::finish)).
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The battery as of the last completed frame.
    #[must_use]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The delay-tolerant demand queue as of the last completed frame.
    #[must_use]
    pub fn queue(&self) -> &DemandQueue {
        &self.queue
    }

    /// Grid-side charge the battery currently accepts in one slot — the
    /// export-dispatch planner's "held for a planned send" input.
    #[must_use]
    pub fn battery_headroom(&self) -> Energy {
        self.battery.headroom()
    }

    /// Captures the run's full mutable state (plant + partial report) for
    /// checkpointing; reinstated with [`Engine::resume`]. Only meaningful
    /// at a frame boundary — which is the only time a caller can observe
    /// the run anyway.
    #[must_use]
    pub fn state(&self) -> crate::EngineRunState {
        crate::EngineRunState {
            next_frame: self.next_frame,
            lt_alloc: self.lt_alloc,
            battery: self.battery.state(),
            queue: self.queue.state(),
            report: self.report.clone(),
            last_frame: self.last_frame,
            prev_traces: self.engine.saved_frame(self.next_frame),
        }
    }

    /// Writes coarse frame `frame`'s true traces in place from a one-frame
    /// trace set — the streaming path, where each frame's data arrives
    /// just before the frame is stepped. A stream engine takes only the
    /// next frame to step: a later one would overwrite the previous
    /// frame, which the causal forecast still reads. The write needs the
    /// run's handle to be the engine's only one: a shared engine is
    /// refused, never copied.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if the run already stepped `frame`, a
    /// stream engine is handed any frame but the next, another handle
    /// shares the engine, or the engine shows controllers an observed
    /// trace set the write would leave stale; the
    /// [`TraceSet::write_frame`] rejections otherwise.
    pub fn write_frame(&mut self, frame: usize, data: &TraceSet) -> Result<(), SimError> {
        if frame < self.next_frame {
            return Err(SimError::InvalidState {
                what: "cannot rewrite a frame the run has already stepped",
            });
        }
        if self.engine.stream && frame != self.next_frame {
            return Err(SimError::InvalidState {
                what: "a stream engine takes only the next frame to step",
            });
        }
        let engine = Arc::get_mut(&mut self.engine).ok_or(SimError::InvalidState {
            what: "traces can only be written through the engine's sole handle",
        })?;
        if engine.observed.is_some() {
            return Err(SimError::InvalidState {
                what: "cannot write truth traces under an observed trace set",
            });
        }
        let k = engine.storage_frame(frame);
        engine.truth.write_frame(k, data)?;
        Ok(())
    }

    /// Advances the run by one coarse frame: one `plan_frame` decision,
    /// then `plan_slot` / plant step / `end_slot` for each of the frame's
    /// fine slots. No-op when the run [`is_done`](Self::is_done).
    ///
    /// The first call stamps the controller's name into the report; a
    /// fleet harness must keep handing the same controller to the same
    /// run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDecision`] if the controller emits NaN/negative
    /// decisions. A failed step leaves the plant mid-frame, so every
    /// later step returns [`SimError::InvalidState`].
    pub fn step_frame(&mut self, controller: &mut dyn Controller) -> Result<(), SimError> {
        if self.failed {
            return Err(SimError::InvalidState {
                what: "an earlier frame step failed part-way through the frame",
            });
        }
        if self.is_done() {
            return Ok(());
        }
        self.failed = true;
        self.step_slots(controller)?;
        self.failed = false;
        self.next_frame += 1;
        Ok(())
    }

    fn step_slots(&mut self, controller: &mut dyn Controller) -> Result<(), SimError> {
        let engine = &*self.engine;
        let clock = engine.clock;
        let obs_traces = engine.observed_traces();
        let slot_hours = clock.slot_hours();
        let t = clock.slots_per_frame();
        let grid_slot_cap = engine.params.grid_slot_cap(slot_hours);
        if self.report.controller.is_empty() {
            self.report.controller = controller.name().to_owned();
        }

        let frame = self.next_frame;
        // Window frames holding this frame and the previous one.
        let now = engine.storage_frame(frame);
        let prev = engine.storage_frame(frame.saturating_sub(1));
        self.last_frame = FrameTotals::EMPTY;
        let view = |battery: &Battery, queue: &DemandQueue, lt_alloc: Energy| SystemView {
            battery_level: battery.level(),
            battery_headroom: battery.headroom(),
            battery_available: battery.available(),
            battery_ops_remaining: battery.operations_remaining(),
            queue_backlog: queue.backlog(),
            lt_allocation: lt_alloc,
            rt_purchase_cap: (grid_slot_cap - lt_alloc).positive_part(),
        };

        for j in 0..t {
            let id = clock.slot_id(frame * t + j);
            // Where this slot's traces live.
            let at = now * t + j;

            // ---- Long-term-ahead planning at frame starts. ----------------
            if id.is_frame_start() {
                // The paper observes "the demand d(t) and renewable r(t)
                // generated during time slot t" when committing g_bef(t);
                // causally that is the *previous* frame's realization
                // (frame 0 sees its first slot's values). The forecast
                // policy can substitute (noisy) coming-frame oracles.
                let avg = |series: &[Energy], component: u64| -> Energy {
                    match engine.forecast {
                        crate::ForecastPolicy::PrevFrameAverage => {
                            if id.frame == 0 {
                                series[at]
                            } else {
                                let start = prev * t;
                                series[start..start + t].iter().sum::<Energy>() / t as f64
                            }
                        }
                        crate::ForecastPolicy::Oracle
                        | crate::ForecastPolicy::NoisyOracle { .. } => {
                            let start = now * t;
                            let mean = series[start..start + t].iter().sum::<Energy>() / t as f64;
                            mean * engine.forecast.noise_factor(id.frame, component)
                        }
                    }
                };
                let fobs = FrameObservation {
                    frame: id.frame,
                    slot: id.index,
                    slots_in_frame: t,
                    slot_hours,
                    price_lt: obs_traces.price_lt[now],
                    demand_ds: avg(&obs_traces.demand_ds, 0),
                    demand_dt: avg(&obs_traces.demand_dt, 1),
                    renewable: avg(&obs_traces.renewable, 2),
                };
                let v = view(&self.battery, &self.queue, Energy::ZERO);
                let decision = controller.plan_frame(&fobs, &v);
                if !decision.purchase_lt.is_finite() || decision.purchase_lt.mwh() < 0.0 {
                    return Err(SimError::InvalidDecision {
                        what: "purchase_lt",
                        slot: id.index,
                    });
                }
                let frame_cap = grid_slot_cap * t as f64;
                self.lt_alloc = decision.purchase_lt.min(frame_cap) / t as f64;
            }

            // ---- Real-time balancing. --------------------------------------
            let sobs = SlotObservation {
                slot: id,
                slot_hours,
                price_rt: obs_traces.price_rt[at],
                price_lt: obs_traces.price_lt[now],
                demand_ds: obs_traces.demand_ds[at],
                demand_dt: obs_traces.demand_dt[at],
                renewable: obs_traces.renewable[at],
            };
            let v = view(&self.battery, &self.queue, self.lt_alloc);
            let decision = controller.plan_slot(&sobs, &v);

            let inputs = SlotInputs {
                slot: id,
                slot_hours,
                demand_ds: engine.truth.demand_ds[at],
                demand_dt: engine.truth.demand_dt[at],
                renewable: engine.truth.renewable[at],
                price_rt: engine.truth.price_rt[at],
                price_lt: engine.truth.price_lt[now],
                lt_alloc: self.lt_alloc,
            };
            let outcome = plant::step(
                &engine.params,
                &inputs,
                &decision,
                &mut self.battery,
                &mut self.queue,
            )?;

            // ---- Aggregate metrics. ----------------------------------------
            let report = &mut self.report;
            report.cost_lt += outcome.cost.long_term;
            report.cost_rt += outcome.cost.real_time;
            report.cost_battery += outcome.cost.battery;
            report.cost_waste += outcome.cost.waste;
            report.energy_lt += outcome.supply_lt;
            report.energy_rt += outcome.purchase_rt;
            report.energy_emergency += outcome.emergency_rt;
            report.energy_renewable += outcome.renewable;
            report.energy_wasted += outcome.waste;
            report.served_ds += outcome.served_ds;
            report.served_dt += outcome.served_dt;
            report.unserved_ds += outcome.unserved_ds;
            if outcome.unserved_ds > Energy::ZERO {
                report.availability_violations += 1;
            }
            report.peak_grid_draw = report.peak_grid_draw.max(outcome.grid_draw());
            self.last_frame.add(&outcome);

            let v_after = view(&self.battery, &self.queue, self.lt_alloc);
            controller.end_slot(&outcome, &v_after);
        }
        Ok(())
    }

    /// Seals the run and produces the final [`RunReport`] (peak demand
    /// charge, queue/battery statistics).
    ///
    /// # Errors
    ///
    /// [`SimError::RunIncomplete`] unless every coarse frame has been
    /// stepped — a partial run has no meaningful horizon statistics.
    pub fn finish(mut self) -> Result<RunReport, SimError> {
        let clock = self.engine.clock;
        if !self.is_done() {
            return Err(SimError::RunIncomplete {
                frames_done: self.next_frame,
                frames_total: clock.frames(),
            });
        }
        let slot_hours = clock.slot_hours();

        // ---- Peak demand charge (extension; off by default). -----------------
        if self.engine.params.peak_charge_per_mw > 0.0 {
            let peak_mw = self.report.peak_grid_draw.mwh() / slot_hours;
            self.report.cost_peak =
                dpss_units::Money::from_dollars(peak_mw * self.engine.params.peak_charge_per_mw);
        }

        // ---- Final queue/battery statistics. --------------------------------
        let last = clock.total_slots() - 1;
        self.report.average_delay_slots = self.queue.ledger().average_delay_slots();
        self.report.max_delay_slots = self.queue.ledger().max_delay_slots();
        self.report.oldest_pending_age = self.queue.ledger().oldest_pending_age(last);
        self.report.final_backlog = self.queue.backlog();
        self.report.max_backlog = self.queue.max_backlog_seen();
        self.report.battery_ops = self.battery.operations();
        self.report.battery_min = self.battery.min_level_seen();
        self.report.battery_max = self.battery.max_level_seen();
        Ok(self.report)
    }
}

fn empty_report(controller: &str, slots: usize) -> RunReport {
    RunReport {
        controller: controller.to_owned(),
        slots,
        cost_lt: dpss_units::Money::ZERO,
        cost_rt: dpss_units::Money::ZERO,
        cost_battery: dpss_units::Money::ZERO,
        cost_waste: dpss_units::Money::ZERO,
        cost_peak: dpss_units::Money::ZERO,
        energy_lt: Energy::ZERO,
        energy_rt: Energy::ZERO,
        energy_emergency: Energy::ZERO,
        energy_renewable: Energy::ZERO,
        energy_wasted: Energy::ZERO,
        served_ds: Energy::ZERO,
        served_dt: Energy::ZERO,
        unserved_ds: Energy::ZERO,
        availability_violations: 0,
        average_delay_slots: 0.0,
        max_delay_slots: 0,
        oldest_pending_age: None,
        final_backlog: Energy::ZERO,
        max_backlog: Energy::ZERO,
        battery_ops: 0,
        battery_min: Energy::ZERO,
        battery_max: Energy::ZERO,
        peak_grid_draw: Energy::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameDecision, SlotDecision};
    use dpss_traces::{paper_month_traces, Scenario, UniformError};
    use dpss_units::SlotClock;

    /// Serves everything eagerly from the real-time market.
    struct Eager;
    impl Controller for Eager {
        fn name(&self) -> &str {
            "eager"
        }
        fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
            FrameDecision::default()
        }
        fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
            SlotDecision {
                purchase_rt: (obs.demand_ds + view.queue_backlog + obs.demand_dt - obs.renewable)
                    .positive_part(),
                serve_fraction: 1.0,
            }
        }
    }

    /// Buys a fixed long-term block every frame, nothing real-time.
    struct LtOnly(f64);
    impl Controller for LtOnly {
        fn name(&self) -> &str {
            "lt-only"
        }
        fn plan_frame(&mut self, obs: &FrameObservation, _: &SystemView) -> FrameDecision {
            FrameDecision {
                purchase_lt: Energy::from_mwh(self.0 * obs.slots_in_frame as f64),
            }
        }
        fn plan_slot(&mut self, _: &SlotObservation, _: &SystemView) -> SlotDecision {
            SlotDecision {
                purchase_rt: Energy::ZERO,
                serve_fraction: 1.0,
            }
        }
    }

    /// Buys the observed frame's net demand ahead, and logs every
    /// observation it is shown.
    #[derive(Default)]
    struct BuyObserved {
        seen: Vec<String>,
    }
    impl Controller for BuyObserved {
        fn name(&self) -> &str {
            "buy-observed"
        }
        fn plan_frame(&mut self, obs: &FrameObservation, _: &SystemView) -> FrameDecision {
            self.seen.push(format!("{obs:?}"));
            FrameDecision {
                purchase_lt: (obs.demand_ds + obs.demand_dt - obs.renewable).positive_part()
                    * obs.slots_in_frame as f64,
            }
        }
        fn plan_slot(&mut self, obs: &SlotObservation, _: &SystemView) -> SlotDecision {
            self.seen.push(format!("{obs:?}"));
            SlotDecision {
                purchase_rt: Energy::ZERO,
                serve_fraction: 1.0,
            }
        }
    }

    /// Coarse frame `k` of `traces` as a one-frame trace set (a tick).
    fn frame_of(traces: &TraceSet, k: usize) -> TraceSet {
        let t = traces.clock.slots_per_frame();
        let slots = k * t..(k + 1) * t;
        TraceSet::new(
            SlotClock::new(1, t, traces.clock.slot_hours()).unwrap(),
            traces.demand_ds[slots.clone()].to_vec(),
            traces.demand_dt[slots.clone()].to_vec(),
            traces.renewable[slots.clone()].to_vec(),
            vec![traces.price_lt[k]],
            traces.price_rt[slots].to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn eager_controller_serves_everything() {
        let traces = paper_month_traces(42).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces.clone()).unwrap();
        let r = engine.run(&mut Eager).unwrap();
        assert_eq!(r.unserved_ds, Energy::ZERO);
        assert_eq!(r.availability_violations, 0);
        // All delay-tolerant demand served promptly → tiny final backlog.
        assert!(r.final_backlog.mwh() < 1.0, "backlog {}", r.final_backlog);
        // Eq. (2) serves the *pre-arrival* backlog, so even an eager policy
        // incurs exactly one slot of delay.
        assert!(r.average_delay_slots <= 1.0 + 1e-9);
        assert!(r.average_delay_slots >= 1.0 - 1e-9);
        // Conservation: served ≤ demand.
        assert!(r.served_ds.mwh() <= traces.demand_ds.iter().sum::<Energy>().mwh() + 1e-6);
    }

    #[test]
    fn energy_conservation_across_run() {
        let traces = paper_month_traces(7).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces).unwrap();
        let mut recorder = crate::SlotRecorder::new(Box::new(Eager));
        let log = recorder.log();
        engine.run(&mut recorder).unwrap();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), engine.clock().total_slots());
        // Per-slot balance: supply + discharge = served + charge + waste.
        for o in log.iter() {
            let lhs = o.supply_lt + o.purchase_rt + o.renewable + o.discharge;
            let rhs = o.served_ds + o.served_dt + o.charge + o.waste + o.unserved_ds;
            assert!(
                (lhs.mwh() - rhs.mwh()).abs() < 1e-6,
                "slot {}: {lhs:?} vs {rhs:?}",
                o.slot.index
            );
        }
    }

    #[test]
    fn lt_only_controller_uses_long_term_market() {
        let traces = paper_month_traces(3).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces).unwrap();
        let r = engine.run(&mut LtOnly(1.2)).unwrap();
        assert!(r.cost_lt.dollars() > 0.0);
        assert!(r.energy_lt.mwh() > 0.0);
        // Emergency purchases may exist (tight slots) but the bulk is LT.
        assert!(r.energy_lt > r.energy_rt);
        assert_eq!(r.unserved_ds, Energy::ZERO, "guard keeps availability");
    }

    #[test]
    fn lt_purchase_clamped_to_interconnect() {
        let traces = paper_month_traces(4).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces).unwrap();
        // Ask for an absurd block; per-slot allocation must be ≤ Pgrid·Δh.
        let r = engine.run(&mut LtOnly(1e9)).unwrap();
        assert!(r.energy_lt.mwh() <= 2.0 * 744.0 + 1e-6);
        assert!(r.peak_grid_draw.mwh() <= 2.0 + 1e-9);
    }

    #[test]
    fn battery_level_never_leaves_window() {
        let traces = paper_month_traces(5).unwrap();
        let params = SimParams::icdcs13();
        let engine = Engine::new(params, traces).unwrap();
        let r = engine.run(&mut Eager).unwrap();
        assert!(r.battery_min >= params.battery.min_level - Energy::from_mwh(1e-9));
        assert!(r.battery_max <= params.battery.capacity + Energy::from_mwh(1e-9));
    }

    #[test]
    fn with_params_matches_fresh_engine() {
        let traces = paper_month_traces(21).unwrap();
        let base = Engine::new(SimParams::icdcs13(), traces.clone()).unwrap();
        let mut bigger = SimParams::icdcs13();
        bigger.grid_cap = bigger.grid_cap * 2.0;
        let derived = base.with_params(bigger).unwrap();
        let fresh = Engine::new(bigger, traces).unwrap();
        assert_eq!(
            derived.run(&mut Eager).unwrap(),
            fresh.run(&mut Eager).unwrap(),
            "derived cell engine must behave exactly like a fresh one"
        );
        // Invalid parameters are rejected, not deferred to run time.
        let mut bad = SimParams::icdcs13();
        bad.battery.charge_efficiency = -1.0;
        assert!(base.with_params(bad).is_err());
    }

    #[test]
    fn observed_traces_must_share_calendar() {
        let truth = paper_month_traces(6).unwrap();
        let other = Scenario::icdcs13()
            .generate(&SlotClock::new(2, 24, 1.0).unwrap(), 6)
            .unwrap();
        let engine = Engine::new(SimParams::icdcs13(), truth).unwrap();
        assert!(matches!(
            engine.with_observed(other),
            Err(SimError::ObservationMismatch)
        ));
    }

    #[test]
    fn observation_errors_change_decisions_not_physics() {
        let truth = paper_month_traces(8).unwrap();
        let observed = UniformError::new(0.5).unwrap().perturb(&truth, 99).unwrap();
        let base = Engine::new(SimParams::icdcs13(), truth.clone()).unwrap();
        let noisy = Engine::new(SimParams::icdcs13(), truth)
            .unwrap()
            .with_observed(observed)
            .unwrap();
        let r_base = base.run(&mut Eager).unwrap();
        let r_noisy = noisy.run(&mut Eager).unwrap();
        // Physics identical in total demand served + unserved + backlog...
        let total_base = r_base.served_ds + r_base.unserved_ds;
        let total_noisy = r_noisy.served_ds + r_noisy.unserved_ds;
        assert!((total_base.mwh() - total_noisy.mwh()).abs() < 1e-6);
        // ...but the decisions (and hence costs) differ.
        assert_ne!(r_base.total_cost(), r_noisy.total_cost());
    }

    #[test]
    fn invalid_lt_decision_is_reported() {
        struct BadLt;
        impl Controller for BadLt {
            fn name(&self) -> &str {
                "bad"
            }
            fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
                FrameDecision {
                    purchase_lt: Energy::from_mwh(-1.0),
                }
            }
            fn plan_slot(&mut self, _: &SlotObservation, _: &SystemView) -> SlotDecision {
                SlotDecision::default()
            }
        }
        let traces = paper_month_traces(9).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces).unwrap();
        assert!(matches!(
            engine.run(&mut BadLt),
            Err(SimError::InvalidDecision {
                what: "purchase_lt",
                ..
            })
        ));
    }

    #[test]
    fn run_is_repeatable_and_engine_reusable() {
        let traces = paper_month_traces(10).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces).unwrap();
        let a = engine.run(&mut Eager).unwrap();
        let b = engine.run(&mut Eager).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forecast_policies_change_frame_observations_only() {
        // An oracle forecast changes lt purchasing decisions (frame obs)
        // but must not touch the physics or the per-slot observations.
        let traces = paper_month_traces(12).unwrap();
        let params = SimParams::icdcs13();
        let base = Engine::new(params, traces.clone()).unwrap();
        let oracle = Engine::new(params, traces)
            .unwrap()
            .with_forecast(crate::ForecastPolicy::Oracle)
            .unwrap();
        let r_base = base.run(&mut LtOnly(1.0)).unwrap();
        let r_oracle = oracle.run(&mut LtOnly(1.0)).unwrap();
        // LtOnly ignores the frame observation content except via its own
        // constant, so outcomes are identical → proves no physics change.
        assert_eq!(r_base.total_cost(), r_oracle.total_cost());

        // Eager uses frame observations? No — it ignores them too; use a
        // controller that buys the observed frame demand ahead.
        let r_base = base.run(&mut BuyObserved::default()).unwrap();
        let r_oracle = oracle.run(&mut BuyObserved::default()).unwrap();
        assert_ne!(
            r_base.total_cost(),
            r_oracle.total_cost(),
            "oracle forecast must change frame decisions"
        );
    }

    #[test]
    fn noisy_oracle_validates_and_runs() {
        let traces = paper_month_traces(14).unwrap();
        let params = SimParams::icdcs13();
        assert!(Engine::new(params, traces.clone())
            .unwrap()
            .with_forecast(crate::ForecastPolicy::NoisyOracle {
                rel_std: -1.0,
                seed: 0
            })
            .is_err());
        let engine = Engine::new(params, traces)
            .unwrap()
            .with_forecast(crate::ForecastPolicy::NoisyOracle {
                rel_std: 0.22,
                seed: 7,
            })
            .unwrap();
        let r = engine.run(&mut Eager).unwrap();
        assert_eq!(r.unserved_ds, Energy::ZERO);
    }

    #[test]
    fn peak_charge_prices_the_largest_draw() {
        let traces = paper_month_traces(15).unwrap();
        let mut params = SimParams::icdcs13();
        params.peak_charge_per_mw = 1_000.0;
        let engine = Engine::new(params, traces).unwrap();
        let r = engine.run(&mut Eager).unwrap();
        let expected = r.peak_grid_draw.mwh() / 1.0 * 1_000.0;
        assert!((r.cost_peak.dollars() - expected).abs() < 1e-9);
        assert!(r.total_cost() > r.cost_lt + r.cost_rt + r.cost_battery + r.cost_waste);
        // Default configuration charges nothing.
        let free = Engine::new(SimParams::icdcs13(), paper_month_traces(15).unwrap()).unwrap();
        assert_eq!(free.run(&mut Eager).unwrap().cost_peak.dollars(), 0.0);
    }

    #[test]
    fn state_resume_matches_uninterrupted_run() {
        let traces = paper_month_traces(42).unwrap();
        let engine = Arc::new(Engine::new(SimParams::icdcs13(), traces).unwrap());
        let mut recorder = crate::SlotRecorder::new(Box::new(Eager));
        let full_log = recorder.log();
        let full = engine.run(&mut recorder).unwrap();
        let frames = engine.clock().frames();
        for cut in [1usize, frames / 2, frames - 1] {
            let mut recorder = crate::SlotRecorder::new(Box::new(Eager));
            let log = recorder.log();
            let mut run = engine.begin().unwrap();
            for _ in 0..cut {
                run.step_frame(&mut recorder).unwrap();
            }
            // Serialize the state across a simulated process boundary.
            let json = serde_json::to_string(&run.state()).unwrap();
            drop(run);
            let state: crate::EngineRunState = serde_json::from_str(&json).unwrap();
            let mut resumed = engine.resume(state).unwrap();
            assert_eq!(resumed.frames_completed(), cut);
            while !resumed.is_done() {
                resumed.step_frame(&mut recorder).unwrap();
            }
            let report = resumed.finish().unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&full).unwrap(),
                "resume at frame {cut} must be byte-identical"
            );
            assert_eq!(
                *log.lock().unwrap(),
                *full_log.lock().unwrap(),
                "resume at frame {cut} must replay every slot"
            );
        }
    }

    #[test]
    fn resume_rejects_inconsistent_state() {
        let traces = paper_month_traces(42).unwrap();
        let engine = Arc::new(Engine::new(SimParams::icdcs13(), traces.clone()).unwrap());
        let mut run = engine.begin().unwrap();
        run.step_frame(&mut Eager).unwrap();
        let good = run.state();

        let mut bad = good.clone();
        bad.next_frame = engine.clock().frames() + 1;
        assert!(matches!(
            engine.resume(bad),
            Err(SimError::InvalidState { .. })
        ));

        let mut bad = good.clone();
        bad.lt_alloc = Energy::from_mwh(f64::NAN);
        assert!(engine.resume(bad).is_err());

        let mut bad = good.clone();
        bad.last_frame.cost_rt = dpss_units::Money::from_dollars(f64::INFINITY);
        assert!(engine.resume(bad).is_err());

        let mut bad = good.clone();
        bad.battery.level = Energy::from_mwh(1e9);
        assert!(engine.resume(bad).is_err());

        let mut bad = good.clone();
        bad.queue.backlog += Energy::from_mwh(1.0);
        assert!(engine.resume(bad).is_err());

        let mut bad = good.clone();
        bad.report.slots = 3;
        assert!(engine.resume(bad).is_err());

        // Only a stream engine's state carries a saved frame.
        let mut bad = good;
        bad.prev_traces = Some(frame_of(&traces, 0));
        assert!(engine.resume(bad).is_err());
    }

    #[test]
    fn writes_and_steps_are_guarded() {
        // Writes need the sole handle, an unstepped frame and one frame
        // of the calendar's slots; a failed step poisons the run.
        struct NanLt;
        impl Controller for NanLt {
            fn name(&self) -> &str {
                "nan"
            }
            fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
                FrameDecision {
                    purchase_lt: Energy::from_mwh(f64::NAN),
                }
            }
            fn plan_slot(&mut self, _: &SlotObservation, _: &SystemView) -> SlotDecision {
                SlotDecision::default()
            }
        }
        let traces = paper_month_traces(3).unwrap();
        let frame = Scenario::icdcs13()
            .generate(&SlotClock::new(1, 24, 1.0).unwrap(), 3)
            .unwrap();
        let engine = Arc::new(Engine::new(SimParams::icdcs13(), traces.clone()).unwrap());
        let mut run = engine.begin().unwrap();
        let shared = run.write_frame(1, &frame);
        assert!(matches!(shared, Err(SimError::InvalidState { .. })));
        drop(engine);
        assert!(
            run.write_frame(1, &traces).is_err(),
            "a month is not a frame"
        );
        run.write_frame(1, &frame).unwrap();
        assert_eq!(run.engine().truth().demand_ds[24..48], frame.demand_ds[..]);
        run.step_frame(&mut Eager).unwrap();
        assert!(
            run.write_frame(0, &frame).is_err(),
            "stepped frames are final"
        );
        assert!(run.step_frame(&mut NanLt).is_err());
        let poisoned = run.step_frame(&mut Eager);
        assert!(matches!(poisoned, Err(SimError::InvalidState { .. })));
    }

    #[test]
    fn stream_engine_month_matches_the_batch_month() {
        // Fed one frame per step, the two-frame window reproduces the
        // batch month, including across a checkpoint at every frame.
        let traces = paper_month_traces(42).unwrap();
        let params = SimParams::icdcs13();
        let batch = Engine::new(params, traces.clone()).unwrap();
        let golden = serde_json::to_string(&batch.run(&mut BuyObserved::default()).unwrap());
        let stream = Engine::stream(params, traces.clock).unwrap();
        assert_eq!(stream.clock(), traces.clock);
        assert_eq!(stream.truth().clock.frames(), STREAM_WINDOW);
        let mut ctl = BuyObserved::default();
        let mut run = Arc::new(stream.clone()).begin().unwrap();
        for k in 0..traces.clock.frames() {
            let state = run.state();
            assert_eq!(state.prev_traces.is_some(), k > 0);
            let json = serde_json::to_string(&state).unwrap();
            let state = serde_json::from_str(&json).unwrap();
            run = Arc::new(stream.clone()).resume(state).unwrap();
            run.write_frame(k, &frame_of(&traces, k)).unwrap();
            run.step_frame(&mut ctl).unwrap();
        }
        assert_eq!(serde_json::to_string(&run.finish().unwrap()), golden);
    }

    #[test]
    fn stream_engines_take_only_the_next_frame() {
        let traces = paper_month_traces(3).unwrap();
        let engine = Engine::stream(SimParams::icdcs13(), traces.clock).unwrap();
        let mut run = Arc::new(engine).begin().unwrap();
        assert!(matches!(
            run.write_frame(1, &frame_of(&traces, 1)),
            Err(SimError::InvalidState { .. })
        ));
        run.write_frame(0, &frame_of(&traces, 0)).unwrap();
        run.step_frame(&mut Eager).unwrap();
        assert!(run.write_frame(0, &frame_of(&traces, 0)).is_err());
        assert!(run.write_frame(2, &frame_of(&traces, 2)).is_err());
        run.write_frame(1, &frame_of(&traces, 1)).unwrap();
    }

    #[test]
    fn stepping_frame_k_reads_only_frames_k_minus_1_and_k() {
        // Two calendars that agree only on frames k − 1 and k: from the
        // same state, frame k must step identically under every forecast
        // policy — the window a stream engine keeps is all a step reads.
        let a = paper_month_traces(42).unwrap();
        let b = paper_month_traces(7).unwrap();
        let t = a.clock.slots_per_frame();
        let policies = [
            crate::ForecastPolicy::PrevFrameAverage,
            crate::ForecastPolicy::Oracle,
            crate::ForecastPolicy::NoisyOracle {
                rel_std: 0.3,
                seed: 5,
            },
        ];
        for k in [0, 1, 15, a.clock.frames() - 1] {
            let mut mixed = b.clone();
            for f in k.saturating_sub(1)..=k {
                mixed.write_frame(f, &frame_of(&a, f)).unwrap();
            }
            assert_ne!(mixed, a, "the calendars must differ outside the window");
            for policy in policies {
                let engine = |traces: &TraceSet| {
                    let e = Engine::new(SimParams::icdcs13(), traces.clone()).unwrap();
                    Arc::new(e.with_forecast(policy).unwrap())
                };
                let (on_a, on_mixed) = (engine(&a), engine(&mixed));
                let mut run = on_a.begin().unwrap();
                for _ in 0..k {
                    run.step_frame(&mut BuyObserved::default()).unwrap();
                }
                let step_k = |engine: &Arc<Engine>| {
                    let mut run = engine.resume(run.state()).unwrap();
                    let mut ctl = BuyObserved::default();
                    run.step_frame(&mut ctl).unwrap();
                    (ctl.seen, run.state())
                };
                let (seen_a, state_a) = step_k(&on_a);
                let (seen_mixed, state_mixed) = step_k(&on_mixed);
                assert_eq!(seen_a.len(), t + 1);
                assert_eq!(
                    seen_a, seen_mixed,
                    "frame {k} under {policy:?} saw other frames"
                );
                assert_eq!(
                    state_a, state_mixed,
                    "frame {k} under {policy:?} stepped differently"
                );
            }
        }
    }

    #[test]
    fn report_names_controller() {
        let traces = paper_month_traces(11).unwrap();
        let engine = Engine::new(SimParams::icdcs13(), traces).unwrap();
        let r = engine.run(&mut Eager).unwrap();
        assert_eq!(r.controller, "eager");
        assert!(r.summary().contains("eager"));
    }
}

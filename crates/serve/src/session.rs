//! Resumable control sessions.
//!
//! A session holds the same stepping object the batch run uses — an
//! [`EngineRun`] for one datacenter, a [`FleetRun`] for a fleet — and
//! advances it one coarse frame per request, so a session's frames are
//! the batch run's frames by construction. A stream session runs a
//! [stream engine](Engine::stream), which holds only the frame being
//! stepped and the one before it: a tick writes its frame's traces into
//! that window in place just before stepping it. The plain-data
//! [`EngineRunState`] is captured only when a snapshot is taken — for a
//! stream session it carries the one previous frame the next step reads,
//! so a snapshot does not grow with the calendar. `Engine::resume`
//! reconstructs the exact mid-month state from it, so a session that is
//! snapshotted, killed and resumed finishes with a report byte-identical
//! to an uninterrupted [`Engine::run`](dpss_sim::Engine::run) — the
//! property the `resume_equivalence` suite pins for every built-in pack
//! variant and for a stream month.
//!
//! Two shapes exist: [`SingleSession`] (one datacenter; `scenario`,
//! `pack` or tick-driven `stream` traces) and [`FleetSession`] (several
//! sites stepped in lockstep over an interconnect by the frame body of
//! [`dpss_sim::MultiSiteEngine::run_with`], with the dispatcher in the
//! loop).

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dpss_core::{
    default_interconnect, DispatchMode, FleetPlannerState, ModeDispatcher, RecedingHorizon,
    SmartDpss, SmartDpssConfig,
};
use dpss_sim::{
    Controller, ControllerState, Engine, EngineRun, EngineRunState, FleetRun, FrameDirective,
    FrameSettlement, MultiSiteEngine, MultiSiteReport, RunReport, SimParams, UnroutedDispatcher,
};
use dpss_traces::{Scenario, ScenarioPack, TraceSet};
use dpss_units::{Energy, Money, Price, SlotClock};

use crate::protocol::{Fault, RawRequest};

/// Largest calendar a session may ask for, in site-slots (`sites × days
/// × slots_per_frame`): 2²², ten times a 512-site month. Scenario and
/// pack sessions generate their whole calendar's traces up front, so the
/// cap bounds what their `init` allocates. A stream session holds two
/// frames whatever its calendar; for it the cap stays a protocol limit,
/// so every mode accepts the same calendars.
const MAX_SITE_SLOTS: usize = 1 << 22;

/// Longest frame a `receding` session may plan, in slots: a month of
/// hourly slots. Each of its frames solves one frame LP over every slot
/// of the frame, and that solve grows faster than the frame, so the cap
/// keeps one `init` from pinning the daemon for minutes.
const MAX_RECEDING_FRAME_SLOTS: usize = 744;

/// Everything needed to rebuild a session's engines from scratch:
/// the deterministic trace recipe, the plant, and the control roster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Trace source: `scenario`, `pack` or `stream`.
    pub mode: String,
    /// Controller kind: `smart` or `receding`.
    pub controller: String,
    /// Master seed for trace generation.
    pub seed: u64,
    /// Coarse frames in the horizon (daily frames in the paper).
    pub days: usize,
    /// Fine slots per coarse frame.
    pub slots_per_frame: usize,
    /// Duration of a fine slot, hours.
    pub slot_hours: f64,
    /// Battery capacity in minutes of peak demand.
    pub battery_min: f64,
    /// Built-in scenario pack (`pack` mode only).
    pub pack: Option<String>,
    /// Variant index within the pack.
    pub variant: usize,
    /// Number of datacenter sites; `>1` selects fleet mode.
    pub sites: usize,
    /// Fleet dispatch mode: `post-hoc`, `planned` or `coordinated`.
    pub dispatch: String,
}

impl SessionConfig {
    /// Builds a config from an `init` request, applying the documented
    /// defaults and validating every field.
    ///
    /// # Errors
    ///
    /// Returns a `protocol` [`Fault`] for unknown modes, controllers,
    /// packs, dispatch modes, or out-of-range numeric fields.
    pub fn from_request(req: &RawRequest) -> Result<Self, Fault> {
        let mode = match &req.mode {
            Some(m) => m.clone(),
            None => {
                if req.pack.is_some() {
                    "pack".to_owned()
                } else {
                    "scenario".to_owned()
                }
            }
        };
        let config = SessionConfig {
            mode,
            controller: req.controller.clone().unwrap_or_else(|| "smart".to_owned()),
            seed: req.seed.unwrap_or(42),
            days: req.days.unwrap_or(31),
            slots_per_frame: req.slots_per_frame.unwrap_or(24),
            slot_hours: req.slot_hours.unwrap_or(1.0),
            battery_min: req.battery_min.unwrap_or(15.0),
            pack: req.pack.clone(),
            variant: req.variant.unwrap_or(0),
            sites: req.sites.unwrap_or(1),
            dispatch: req.dispatch.clone().unwrap_or_else(|| "planned".to_owned()),
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks every field against the protocol's documented domain.
    ///
    /// # Errors
    ///
    /// Returns a `protocol` [`Fault`] naming the offending field.
    pub fn validate(&self) -> Result<(), Fault> {
        match self.mode.as_str() {
            "scenario" | "pack" | "stream" => {}
            other => {
                return Err(Fault::new(
                    "protocol",
                    format!("unknown mode: {other} (expected scenario|pack|stream)"),
                ))
            }
        }
        match self.controller.as_str() {
            "smart" | "receding" => {}
            other => {
                return Err(Fault::new(
                    "protocol",
                    format!("unknown controller: {other} (expected smart|receding)"),
                ))
            }
        }
        DispatchMode::parse(&self.dispatch).map_err(|e| Fault::new("protocol", e))?;
        if self.mode == "pack" {
            let Some(name) = &self.pack else {
                return Err(Fault::new("protocol", "pack mode requires a pack name"));
            };
            let Some(pack) = ScenarioPack::builtin(name) else {
                return Err(Fault::new(
                    "protocol",
                    format!(
                        "unknown scenario pack: {name} (expected {})",
                        ScenarioPack::builtin_names().join("|")
                    ),
                ));
            };
            if self.variant >= pack.len() {
                return Err(Fault::new(
                    "protocol",
                    format!(
                        "variant {} out of range for pack {name} ({} variants)",
                        self.variant,
                        pack.len()
                    ),
                ));
            }
        }
        if self.sites == 0 {
            return Err(Fault::new("protocol", "sites must be at least 1"));
        }
        if self.sites > 1 && self.mode != "pack" {
            return Err(Fault::new(
                "protocol",
                "fleet sessions (sites > 1) are pack-sourced; set mode=pack",
            ));
        }
        if self.sites > 512 {
            return Err(Fault::new(
                "protocol",
                format!("sites {} exceeds the protocol cap of 512", self.sites),
            ));
        }
        let site_slots = self
            .sites
            .checked_mul(self.days)
            .and_then(|n| n.checked_mul(self.slots_per_frame));
        if site_slots.is_none_or(|n| n > MAX_SITE_SLOTS) {
            return Err(Fault::new(
                "protocol",
                format!(
                    "calendar of {} sites x {} days x {} slots exceeds the protocol cap of \
                     {MAX_SITE_SLOTS} site-slots",
                    self.sites, self.days, self.slots_per_frame
                ),
            ));
        }
        if self.controller == "receding" && self.slots_per_frame > MAX_RECEDING_FRAME_SLOTS {
            return Err(Fault::new(
                "protocol",
                format!(
                    "receding frames of {} slots exceed the protocol cap of \
                     {MAX_RECEDING_FRAME_SLOTS} slots per frame",
                    self.slots_per_frame
                ),
            ));
        }
        self.clock().map(|_| ())
    }

    /// The session's calendar.
    ///
    /// # Errors
    ///
    /// Returns a `protocol` [`Fault`] for a degenerate calendar.
    pub fn clock(&self) -> Result<SlotClock, Fault> {
        SlotClock::new(self.days, self.slots_per_frame, self.slot_hours)
            .map_err(|e| Fault::new("protocol", format!("invalid calendar: {e}")))
    }

    /// The session's plant parameters.
    #[must_use]
    pub fn params(&self) -> SimParams {
        SimParams::icdcs13_with_battery(self.battery_min)
    }
}

/// Builds the controller roster entry named by `kind`.
fn build_controller(
    kind: &str,
    params: SimParams,
    clock: SlotClock,
) -> Result<Box<dyn Controller>, Fault> {
    match kind {
        "smart" => {
            let ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock)
                .map_err(|e| Fault::new("protocol", format!("controller rejected: {e}")))?;
            Ok(Box::new(ctl))
        }
        "receding" => {
            let ctl = RecedingHorizon::new(params)
                .map_err(|e| Fault::new("protocol", format!("controller rejected: {e}")))?;
            Ok(Box::new(ctl))
        }
        other => Err(Fault::new(
            "protocol",
            format!("unknown controller: {other} (expected smart|receding)"),
        )),
    }
}

/// Extracts one stream frame from a `tick` request as a one-frame trace
/// set on `clock`'s slot grid (the trace set validates every value).
///
/// # Errors
///
/// Returns a `protocol` [`Fault`] for missing fields, wrong series
/// lengths, or non-finite / negative values.
pub fn tick_frame(req: &RawRequest, clock: SlotClock) -> Result<TraceSet, Fault> {
    fn series<T>(
        name: &str,
        values: &Option<Vec<f64>>,
        unit: fn(f64) -> T,
    ) -> Result<Vec<T>, Fault> {
        let values = values
            .as_deref()
            .ok_or_else(|| Fault::new("protocol", format!("tick is missing {name}")))?;
        Ok(values.iter().copied().map(unit).collect())
    }
    let Some(price_lt) = req.price_lt else {
        return Err(Fault::new("protocol", "tick is missing price_lt"));
    };
    let rejected =
        |e: &dyn fmt::Display| Fault::new("protocol", format!("tick data rejected: {e}"));
    TraceSet::new(
        SlotClock::new(1, clock.slots_per_frame(), clock.slot_hours()).map_err(|e| rejected(&e))?,
        series("demand_ds", &req.demand_ds, Energy::from_mwh)?,
        series("demand_dt", &req.demand_dt, Energy::from_mwh)?,
        series("renewable", &req.renewable, Energy::from_mwh)?,
        vec![Price::from_dollars_per_mwh(price_lt)],
        series("price_rt", &req.price_rt, Price::from_dollars_per_mwh)?,
    )
    .map_err(|e| rejected(&e))
}

/// What one stepped frame looked like, for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameStep {
    /// The coarse frame that was stepped.
    pub frame: usize,
    /// Long-term energy purchased this frame, MWh.
    pub purchased_lt_mwh: f64,
    /// Real-time energy purchased this frame, MWh.
    pub purchased_rt_mwh: f64,
    /// Cumulative cost so far, dollars.
    pub cost_dollars: f64,
    /// Battery level after the frame, MWh.
    pub battery_mwh: f64,
    /// Delay-tolerant backlog after the frame, MWh.
    pub backlog_mwh: f64,
    /// Whether every frame of the horizon has now been stepped.
    pub done: bool,
}

/// What one stepped fleet frame looked like, for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStep {
    /// The coarse frame that was stepped.
    pub frame: usize,
    /// Cumulative fleet cost so far (pre-settlement), dollars.
    pub cost_dollars: f64,
    /// Cumulative energy sent over the interconnect, MWh.
    pub transferred_mwh: f64,
    /// Cumulative real-time cost displaced by transfers, dollars.
    pub savings_dollars: f64,
    /// Directives applied to the sites before this frame.
    pub directives: Vec<FrameDirective>,
    /// Whether every frame of the horizon has now been stepped.
    pub done: bool,
}

/// Durable image of a single-site session (the snapshot payload body).
/// A stream session's previous frame rides in
/// [`EngineRunState::prev_traces`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleSnapshot {
    /// The engine-side mid-month state.
    pub run_state: EngineRunState,
    /// The controller's internal state.
    pub controller: ControllerState,
}

/// Durable image of a fleet session (the snapshot payload body).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-site engine states, in site order.
    pub run_states: Vec<EngineRunState>,
    /// Per-site controller states, in site order.
    pub controllers: Vec<ControllerState>,
    /// The fleet planner's state (planned/coordinated dispatch only).
    pub planner: Option<FleetPlannerState>,
    /// Cumulative energy sent by donors, MWh.
    pub sent_mwh: f64,
    /// Cumulative energy delivered after losses, MWh.
    pub delivered_mwh: f64,
    /// Cumulative displaced real-time cost, dollars.
    pub savings_dollars: f64,
    /// Cumulative wheeling charges, dollars.
    pub wheeling_dollars: f64,
}

/// The full snapshot payload: config plus exactly one session image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session's rebuild recipe.
    pub config: SessionConfig,
    /// Single-site image (mutually exclusive with `fleet`).
    pub single: Option<SingleSnapshot>,
    /// Fleet image (mutually exclusive with `single`).
    pub fleet: Option<FleetSnapshot>,
}

/// A live session of either shape.
pub enum Session {
    /// One datacenter.
    Single(Box<SingleSession>),
    /// Several sites in lockstep over an interconnect.
    Fleet(Box<FleetSession>),
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Session::Single(s) => s.fmt(f),
            Session::Fleet(s) => s.fmt(f),
        }
    }
}

impl Session {
    /// Creates a fresh session from a validated config.
    ///
    /// # Errors
    ///
    /// Propagates configuration faults from the underlying engines.
    pub fn new(config: SessionConfig) -> Result<Self, Fault> {
        if config.sites > 1 {
            Ok(Session::Fleet(Box::new(FleetSession::new(config)?)))
        } else {
            Ok(Session::Single(Box::new(SingleSession::new(config)?)))
        }
    }

    /// Reconstructs a session from a decoded snapshot payload.
    ///
    /// # Errors
    ///
    /// Returns a `snapshot` [`Fault`] when the payload does not describe
    /// a state the engines accept.
    pub fn restore(snapshot: SessionSnapshot) -> Result<Self, Fault> {
        snapshot.config.validate()?;
        match (snapshot.single, snapshot.fleet) {
            (Some(single), None) => Ok(Session::Single(Box::new(SingleSession::restore(
                snapshot.config,
                single,
            )?))),
            (None, Some(fleet)) => Ok(Session::Fleet(Box::new(FleetSession::restore(
                snapshot.config,
                fleet,
            )?))),
            _ => Err(Fault::new(
                "snapshot",
                "snapshot must carry exactly one of single/fleet state",
            )),
        }
    }

    /// Captures the session as a snapshot payload.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        match self {
            Session::Single(s) => s.snapshot(),
            Session::Fleet(s) => s.snapshot(),
        }
    }

    /// The session's config.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        match self {
            Session::Single(s) => &s.config,
            Session::Fleet(s) => &s.config,
        }
    }

    /// Next coarse frame the session will step.
    #[must_use]
    pub fn next_frame(&self) -> usize {
        match self {
            Session::Single(s) => s.run.frames_completed(),
            Session::Fleet(s) => s.run.frames_completed(),
        }
    }

    /// Coarse frames in the horizon.
    #[must_use]
    pub fn frames(&self) -> usize {
        match self {
            Session::Single(s) => s.clock.frames(),
            Session::Fleet(s) => s.clock.frames(),
        }
    }

    /// Whether every frame has been stepped.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_frame() >= self.frames()
    }
}

/// A single-datacenter session.
pub struct SingleSession {
    /// The rebuild recipe.
    pub config: SessionConfig,
    clock: SlotClock,
    controller: Box<dyn Controller>,
    /// The run; in stream mode it holds the only handle on its stream
    /// engine, so each tick writes its frame into the engine's window in
    /// place and steps it at once.
    run: EngineRun,
}

impl fmt::Debug for SingleSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SingleSession")
            .field("config", &self.config)
            .field("next_frame", &self.run.frames_completed())
            .finish_non_exhaustive()
    }
}

/// Builds the session's engine: a stream engine for stream sessions,
/// otherwise a batch engine over the traces the config's mode generates.
fn session_engine(config: &SessionConfig, clock: SlotClock) -> Result<Engine, Fault> {
    let params = config.params();
    let engine = if config.mode == "stream" {
        Engine::stream(params, clock)
    } else {
        Engine::new(params, source_traces(config, clock)?)
    };
    engine.map_err(|e| Fault::new("protocol", format!("engine rejected traces: {e}")))
}

/// Generates the traces of a scenario or pack session.
fn source_traces(config: &SessionConfig, clock: SlotClock) -> Result<TraceSet, Fault> {
    match config.mode.as_str() {
        "scenario" => Scenario::icdcs13()
            .generate(&clock, config.seed)
            .map_err(|e| Fault::new("protocol", format!("trace generation failed: {e}"))),
        _ => {
            let name = config.pack.as_deref().unwrap_or_default();
            let pack = ScenarioPack::builtin(name)
                .ok_or_else(|| Fault::new("protocol", format!("unknown scenario pack: {name}")))?;
            pack.generate(&clock, config.seed, config.variant)
                .map_err(|e| Fault::new("protocol", format!("trace generation failed: {e}")))
        }
    }
}

impl SingleSession {
    /// Creates a fresh single-site session.
    ///
    /// # Errors
    ///
    /// Propagates configuration faults from the engine and controller.
    pub fn new(config: SessionConfig) -> Result<Self, Fault> {
        let clock = config.clock()?;
        let engine = session_engine(&config, clock)?;
        let controller = build_controller(&config.controller, config.params(), clock)?;
        let run = Arc::new(engine)
            .begin()
            .map_err(|e| Fault::new("protocol", format!("engine could not start: {e}")))?;
        Ok(SingleSession {
            config,
            clock,
            controller,
            run,
        })
    }

    /// Reconstructs a single-site session from its snapshot image.
    fn restore(config: SessionConfig, image: SingleSnapshot) -> Result<Self, Fault> {
        let clock = config.clock()?;
        let run = Arc::new(session_engine(&config, clock)?)
            .resume(image.run_state)
            .map_err(|e| Fault::new("snapshot", format!("run state rejected: {e}")))?;
        let mut controller = build_controller(&config.controller, config.params(), clock)?;
        controller
            .load_state(&image.controller)
            .map_err(|e| Fault::new("snapshot", format!("controller state rejected: {e}")))?;
        Ok(SingleSession {
            config,
            clock,
            controller,
            run,
        })
    }

    /// Captures the session as a snapshot image.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            config: self.config.clone(),
            single: Some(SingleSnapshot {
                run_state: self.run.state(),
                controller: self.controller.save_state(),
            }),
            fleet: None,
        }
    }

    /// Absorbs one stream tick: writes frame `frame`'s trace data (a
    /// one-frame trace set, see [`tick_frame`]) into the run's engine and
    /// steps that frame.
    ///
    /// # Errors
    ///
    /// `protocol` faults for non-stream sessions and malformed data;
    /// `order` faults for out-of-order frames.
    pub fn tick(&mut self, frame: usize, data: &TraceSet) -> Result<FrameStep, Fault> {
        if self.config.mode != "stream" {
            return Err(Fault::new(
                "protocol",
                "tick is only valid in stream sessions; use step",
            ));
        }
        let next = self.run.frames_completed();
        if frame != next {
            return Err(Fault::new(
                "order",
                format!("out-of-order tick: expected frame {next}, got {frame}"),
            ));
        }
        if frame >= self.clock.frames() {
            return Err(Fault::new(
                "order",
                format!("tick past the horizon ({} frames)", self.clock.frames()),
            ));
        }
        self.run
            .write_frame(frame, data)
            .map_err(|e| Fault::new("protocol", format!("tick data rejected: {e}")))?;
        self.advance()
    }

    /// Advances one coarse frame of a scenario or pack session.
    ///
    /// # Errors
    ///
    /// `protocol` faults for stream sessions (they advance by tick);
    /// `order` faults when the horizon is complete; `state` faults when
    /// the frame step fails.
    pub fn step(&mut self) -> Result<FrameStep, Fault> {
        if self.config.mode == "stream" {
            return Err(Fault::new(
                "protocol",
                "stream sessions advance via tick, not step",
            ));
        }
        self.advance()
    }

    fn advance(&mut self) -> Result<FrameStep, Fault> {
        if self.run.is_done() {
            return Err(Fault::new(
                "order",
                "all frames already stepped; send finish",
            ));
        }
        let frame = self.run.frames_completed();
        let before_lt = self.run.report().energy_lt;
        let before_rt = self.run.report().energy_rt;
        self.run
            .step_frame(self.controller.as_mut())
            .map_err(|e| Fault::new("state", format!("frame step failed: {e}")))?;
        let report = self.run.report();
        Ok(FrameStep {
            frame,
            purchased_lt_mwh: (report.energy_lt - before_lt).mwh(),
            purchased_rt_mwh: (report.energy_rt - before_rt).mwh(),
            cost_dollars: report.total_cost().dollars(),
            battery_mwh: self.run.battery().level().mwh(),
            backlog_mwh: self.run.queue().backlog().mwh(),
            done: self.run.is_done(),
        })
    }

    /// Closes the month and produces the final report.
    ///
    /// # Errors
    ///
    /// `order` faults when frames remain; `state` faults when the run
    /// cannot be sealed.
    pub fn finish(&self) -> Result<RunReport, Fault> {
        if !self.run.is_done() {
            return Err(Fault::new(
                "order",
                format!(
                    "cannot finish: {} of {} frames stepped",
                    self.run.frames_completed(),
                    self.clock.frames()
                ),
            ));
        }
        self.run
            .clone()
            .finish()
            .map_err(|e| Fault::new("state", format!("finish failed: {e}")))
    }
}

/// A multi-site session stepping every site in lockstep through the
/// fleet's one frame body ([`FleetRun::step_frame`]), with the
/// dispatcher in the loop exactly as [`MultiSiteEngine::run_with`]
/// places it.
pub struct FleetSession {
    /// The rebuild recipe.
    pub config: SessionConfig,
    clock: SlotClock,
    fleet: MultiSiteEngine,
    controllers: Vec<Box<dyn Controller>>,
    dispatcher: ModeDispatcher,
    run: FleetRun,
}

impl fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetSession")
            .field("config", &self.config)
            .field("next_frame", &self.run.frames_completed())
            .finish_non_exhaustive()
    }
}

impl FleetSession {
    /// Creates a fresh fleet session.
    ///
    /// # Errors
    ///
    /// Propagates configuration faults from the engines, interconnect
    /// and controllers.
    pub fn new(config: SessionConfig) -> Result<Self, Fault> {
        let clock = config.clock()?;
        let params = config.params();
        let name = config.pack.as_deref().unwrap_or_default();
        let pack = ScenarioPack::builtin(name)
            .ok_or_else(|| Fault::new("protocol", format!("unknown scenario pack: {name}")))?;
        let fleet = MultiSiteEngine::from_pack(
            params,
            &pack,
            clock,
            config.seed,
            config.variant,
            config.sites,
        )
        .and_then(|f| f.with_interconnect(default_interconnect(config.sites)?))
        .map_err(|e| Fault::new("protocol", format!("fleet rejected: {e}")))?;
        let dispatcher = DispatchMode::parse(&config.dispatch)
            .map_err(|e| Fault::new("protocol", e))?
            .dispatcher(fleet.interconnect());
        let mut controllers = Vec::with_capacity(config.sites);
        for _ in 0..config.sites {
            controllers.push(build_controller(&config.controller, params, clock)?);
        }
        let run = fleet
            .begin()
            .map_err(|e| Fault::new("protocol", format!("engine could not start: {e}")))?;
        Ok(FleetSession {
            config,
            clock,
            fleet,
            controllers,
            dispatcher,
            run,
        })
    }

    /// Reconstructs a fleet session from its snapshot image.
    fn restore(config: SessionConfig, image: FleetSnapshot) -> Result<Self, Fault> {
        let mut session = FleetSession::new(config)?;
        if image.run_states.len() != session.config.sites
            || image.controllers.len() != session.config.sites
        {
            return Err(Fault::new(
                "snapshot",
                "snapshot site roster differs from the session config",
            ));
        }
        for (ctl, state) in session.controllers.iter_mut().zip(&image.controllers) {
            ctl.load_state(state)
                .map_err(|e| Fault::new("snapshot", format!("controller state rejected: {e}")))?;
        }
        match (&mut session.dispatcher, &image.planner) {
            (ModeDispatcher::Planner(p), Some(state)) => {
                p.import_state(state)
                    .map_err(|e| Fault::new("snapshot", format!("planner state rejected: {e}")))?;
            }
            (ModeDispatcher::Planner(_), None) => {
                return Err(Fault::new(
                    "snapshot",
                    "snapshot is missing the planner state its dispatch mode requires",
                ));
            }
            (ModeDispatcher::Greedy(_), Some(_)) => {
                return Err(Fault::new(
                    "snapshot",
                    "snapshot carries planner state but the dispatch mode is post-hoc",
                ));
            }
            (ModeDispatcher::Greedy(_), None) => {}
        }
        for v in [
            image.sent_mwh,
            image.delivered_mwh,
            image.savings_dollars,
            image.wheeling_dollars,
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Fault::new(
                    "snapshot",
                    "snapshot settlement totals are not finite non-negative numbers",
                ));
            }
        }
        let settled = FrameSettlement {
            sent: Energy::from_mwh(image.sent_mwh),
            delivered: Energy::from_mwh(image.delivered_mwh),
            savings: Money::from_dollars(image.savings_dollars),
            wheeling: Money::from_dollars(image.wheeling_dollars),
        };
        session.run = session
            .fleet
            .resume(image.run_states, settled)
            .map_err(|e| Fault::new("snapshot", format!("run state rejected: {e}")))?;
        Ok(session)
    }

    /// Captures the session as a snapshot image.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        let settled = self.run.settled();
        SessionSnapshot {
            config: self.config.clone(),
            single: None,
            fleet: Some(FleetSnapshot {
                run_states: self.run.runs().iter().map(EngineRun::state).collect(),
                controllers: self.controllers.iter().map(|c| c.save_state()).collect(),
                planner: match &self.dispatcher {
                    ModeDispatcher::Planner(p) => Some(p.export_state()),
                    ModeDispatcher::Greedy(_) => None,
                },
                sent_mwh: settled.sent.mwh(),
                delivered_mwh: settled.delivered.mwh(),
                savings_dollars: settled.savings.dollars(),
                wheeling_dollars: settled.wheeling.dollars(),
            }),
        }
    }

    /// Advances every site one coarse frame in lockstep, with the
    /// dispatcher directing before and settling after, through the batch
    /// fleet loop's own frame body.
    ///
    /// # Errors
    ///
    /// `order` faults when the horizon is complete; `state` faults when
    /// the frame step fails.
    pub fn step(&mut self) -> Result<FleetStep, Fault> {
        if self.run.is_done() {
            return Err(Fault::new(
                "order",
                "all frames already stepped; send finish",
            ));
        }
        let frame = self.run.frames_completed();
        let directives = self
            .run
            .step_frame(
                &mut self.controllers,
                &mut UnroutedDispatcher(&mut self.dispatcher),
            )
            .map_err(|e| Fault::new("state", format!("frame step failed: {e}")))?;
        let cost: Money = self
            .run
            .runs()
            .iter()
            .map(|r| r.report().total_cost())
            .sum();
        let settled = self.run.settled();
        Ok(FleetStep {
            frame,
            cost_dollars: cost.dollars(),
            transferred_mwh: settled.sent.mwh(),
            savings_dollars: settled.savings.dollars(),
            directives,
            done: self.run.is_done(),
        })
    }

    /// Closes the month and assembles the fleet report — identical to
    /// what the batch loop would have produced over the same frames.
    ///
    /// # Errors
    ///
    /// `order` faults when frames remain; `state` faults when the run
    /// cannot be sealed.
    pub fn finish(&self) -> Result<MultiSiteReport, Fault> {
        if !self.run.is_done() {
            return Err(Fault::new(
                "order",
                format!(
                    "cannot finish: {} of {} frames stepped",
                    self.run.frames_completed(),
                    self.clock.frames()
                ),
            ));
        }
        self.run
            .clone()
            .finish()
            .map_err(|e| Fault::new("state", format!("finish failed: {e}")))
    }
}

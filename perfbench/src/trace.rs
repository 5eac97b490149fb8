//! Outside-in tracing: pass-through decorators over the library's public
//! traits. Each forwards every call unchanged and only reads the clock
//! around it, so a decorated run makes exactly the decisions of an
//! undecorated one (the workloads assert this on every run).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dpss_core::{FleetPlanner, RoutingPlanner};
use dpss_lp::SolverStats;
use dpss_sim::{
    Controller, ControllerState, FleetDispatcher, FrameDecision, FrameDirective, FrameExchange,
    FrameObservation, FrameOutlook, FrameSettlement, Interconnect, LoadFrame, LoadPlan,
    RoutedDispatcher, SimError, SlotDecision, SlotObservation, SlotOutcome, SystemView,
};

/// One site's span over one coarse frame: from the start of its
/// `plan_frame` to the end of the frame's last `end_slot`, with the time
/// spent inside the controller's calls.
#[derive(Debug, Clone, Copy)]
pub struct SiteFrame {
    pub start: Instant,
    pub end: Instant,
    /// Nanoseconds inside `plan_frame`.
    pub frame_ns: u64,
    /// Nanoseconds inside `plan_slot` and `end_slot`.
    pub slot_ns: u64,
    /// `plan_slot` calls.
    pub slot_calls: u64,
}

impl SiteFrame {
    /// Controller time inside the span.
    pub fn controller_s(&self) -> f64 {
        (self.frame_ns + self.slot_ns) as f64 * 1e-9
    }
}

/// Site-frame spans of a whole fleet, shared by its decorated
/// controllers (each pushes once per frame).
pub type SiteLog = Arc<Mutex<Vec<SiteFrame>>>;

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Controller`] decorator recording one [`SiteFrame`] per frame.
pub struct TracedController {
    inner: Box<dyn Controller>,
    log: SiteLog,
    open: Option<SiteFrame>,
    slots_left: usize,
}

impl TracedController {
    pub fn new(inner: Box<dyn Controller>, log: SiteLog) -> Self {
        TracedController {
            inner,
            log,
            open: None,
            slots_left: 0,
        }
    }
}

impl Controller for TracedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn receive_directive(&mut self, directive: &FrameDirective) {
        self.inner.receive_directive(directive);
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        let t0 = Instant::now();
        let decision = self.inner.plan_frame(obs, view);
        let t1 = Instant::now();
        self.open = Some(SiteFrame {
            start: t0,
            end: t1,
            frame_ns: ns_between(t0, t1),
            slot_ns: 0,
            slot_calls: 0,
        });
        self.slots_left = obs.slots_in_frame;
        decision
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        let t0 = Instant::now();
        let decision = self.inner.plan_slot(obs, view);
        let t1 = Instant::now();
        if let Some(span) = &mut self.open {
            span.slot_ns += ns_between(t0, t1);
            span.slot_calls += 1;
        }
        decision
    }

    fn end_slot(&mut self, outcome: &SlotOutcome, view: &SystemView) {
        let t0 = Instant::now();
        self.inner.end_slot(outcome, view);
        let t1 = Instant::now();
        if let Some(span) = &mut self.open {
            span.slot_ns += ns_between(t0, t1);
            span.end = t1;
        }
        self.slots_left = self.slots_left.saturating_sub(1);
        if self.slots_left == 0 {
            if let Some(span) = self.open.take() {
                self.log
                    .lock()
                    .expect("a site log is poisoned only if a worker panicked")
                    .push(span);
            }
        }
    }

    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &ControllerState) -> Result<(), SimError> {
        self.inner.load_state(state)
    }
}

/// A dispatcher call: start, end, and network-kernel nanoseconds spent
/// inside it (read from the planner's `SolverStats`).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    pub lp_ns: u64,
}

/// Planners whose solver telemetry the probe can read.
pub trait Telemetry {
    fn lp_stats(&self) -> SolverStats;
}

impl Telemetry for FleetPlanner {
    fn lp_stats(&self) -> SolverStats {
        self.solver_stats()
    }
}

impl Telemetry for RoutingPlanner {
    fn lp_stats(&self) -> SolverStats {
        self.solver_stats()
    }
}

/// A dispatcher decorator recording every `direct` and `settle` call.
/// Untraced passes keep it too, for the per-frame clock (two clock
/// reads per call); only traced passes read the solver telemetry.
pub struct Probe<D> {
    pub inner: D,
    pub direct: Vec<Call>,
    pub settle: Vec<Call>,
    traced: bool,
}

impl<D: Telemetry> Probe<D> {
    pub fn new(inner: D, traced: bool, frames: usize) -> Self {
        Probe {
            inner,
            direct: Vec::with_capacity(frames),
            settle: Vec::with_capacity(frames),
            traced,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> (R, Call) {
        let before = if self.traced {
            self.inner.lp_stats().solve_ns
        } else {
            0
        };
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let lp_ns = if self.traced {
            self.inner.lp_stats().solve_ns - before
        } else {
            0
        };
        (out, Call { start, end, lp_ns })
    }
}

impl<D: FleetDispatcher + Telemetry> FleetDispatcher for Probe<D> {
    fn topology(&self) -> Option<&Interconnect> {
        FleetDispatcher::topology(&self.inner)
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        let (out, call) = self.timed(|d| FleetDispatcher::direct(d, outlook));
        self.direct.push(call);
        out
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        let (out, call) = self.timed(|d| d.settle(ex));
        self.settle.push(call);
        out
    }
}

impl<D: RoutedDispatcher + Telemetry> RoutedDispatcher for Probe<D> {
    fn topology(&self) -> Option<&Interconnect> {
        RoutedDispatcher::topology(&self.inner)
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        let (out, call) = self.timed(|d| RoutedDispatcher::direct(d, outlook));
        self.direct.push(call);
        out
    }

    fn settle_routed(
        &mut self,
        ex: &FrameExchange,
        load: &LoadFrame,
    ) -> (FrameSettlement, LoadPlan) {
        let (out, call) = self.timed(|d| d.settle_routed(ex, load));
        self.settle.push(call);
        out
    }
}

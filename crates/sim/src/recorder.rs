//! [`SlotRecorder`]: per-slot outcome logging as a controller decorator.
//!
//! The engine reports totals; every realized slot outcome already reaches
//! [`Controller::end_slot`]. A caller that wants the slot-by-slot record
//! wraps its controller in a recorder and keeps a handle on the log, so
//! the engine, its report and its checkpoints stay O(state).

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::{
    Controller, ControllerState, FrameDecision, FrameDirective, FrameObservation, SimError,
    SlotDecision, SlotObservation, SlotOutcome, SystemView,
};

/// A [`Controller`] that forwards every call to the one it wraps and
/// appends each [`end_slot`](Controller::end_slot) outcome to a shared
/// log, in slot order.
///
/// The recorder owns its controller boxed, so it wraps a concrete
/// controller and a roster's `Box<dyn Controller>` alike. The log handle
/// ([`log`](Self::log)) outlives the recorder, so a recorder boxed into
/// a fleet roster can still be read back after the run. Recording never
/// feeds back into a decision: a run through a recorder is
/// byte-identical to a run of the bare controller.
///
/// # Examples
///
/// ```
/// use dpss_sim::{Engine, SimParams, SlotRecorder};
/// # use dpss_sim::{Controller, FrameDecision, FrameObservation, SlotDecision,
/// #                SlotObservation, SystemView};
/// # struct Idle;
/// # impl Controller for Idle {
/// #     fn name(&self) -> &str { "idle" }
/// #     fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
/// #         FrameDecision::default()
/// #     }
/// #     fn plan_slot(&mut self, _: &SlotObservation, _: &SystemView) -> SlotDecision {
/// #         SlotDecision::default()
/// #     }
/// # }
/// use dpss_traces::paper_month_traces;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = Engine::new(SimParams::icdcs13(), paper_month_traces(42)?)?;
/// let mut recorder = SlotRecorder::new(Box::new(Idle));
/// let log = recorder.log();
/// engine.run(&mut recorder)?;
/// assert_eq!(log.lock().unwrap().len(), engine.clock().total_slots());
/// # Ok(())
/// # }
/// ```
pub struct SlotRecorder {
    inner: Box<dyn Controller>,
    log: Arc<Mutex<Vec<SlotOutcome>>>,
}

impl SlotRecorder {
    /// Wraps `inner` with an empty log.
    #[must_use]
    pub fn new(inner: Box<dyn Controller>) -> Self {
        SlotRecorder {
            inner,
            log: Arc::default(),
        }
    }

    /// A handle on the log: every outcome recorded so far, in slot order.
    #[must_use]
    pub fn log(&self) -> Arc<Mutex<Vec<SlotOutcome>>> {
        Arc::clone(&self.log)
    }
}

impl fmt::Debug for SlotRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotRecorder")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl Controller for SlotRecorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn receive_directive(&mut self, directive: &FrameDirective) {
        self.inner.receive_directive(directive);
    }

    fn plan_frame(&mut self, obs: &FrameObservation, view: &SystemView) -> FrameDecision {
        self.inner.plan_frame(obs, view)
    }

    fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
        self.inner.plan_slot(obs, view)
    }

    fn end_slot(&mut self, outcome: &SlotOutcome, view: &SystemView) {
        self.inner.end_slot(outcome, view);
        // A reader that panicked holding the lock cannot corrupt a Vec
        // push, so a poisoned log is still the log.
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(*outcome);
    }

    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &ControllerState) -> Result<(), SimError> {
        self.inner.load_state(state)
    }
}

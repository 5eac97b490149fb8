//! Serializable mid-run state: everything a checkpoint must carry to put
//! an [`EngineRun`](crate::EngineRun) back exactly where it was.
//!
//! The stepping API (`Engine::begin` / `step_frame` / `finish`) made runs
//! *pausable*; these records make them *portable*. A streaming control
//! service snapshots [`EngineRunState`] (plus each controller's
//! [`ControllerState`]) to disk between frames, and a restarted process
//! rebuilds the identical run with
//! [`Engine::resume`](crate::Engine::resume) — the continuation is
//! byte-for-byte the run that would have happened without the restart
//! (`crates/serve/tests/resume_equivalence.rs` pins this for every
//! builtin scenario pack).
//!
//! Every record is O(state): none grows with the frames stepped or the
//! calendar's length. A batch engine rebuilds its traces from the
//! session's recipe, so its state carries none; a stream engine's state
//! carries the one previous frame its next step's causal forecast reads
//! ([`EngineRunState::prev_traces`]), never the calendar.
//!
//! All records have public fields and serde derives; they are *data*, not
//! handles — validation happens at restore time, never at construction.

use dpss_traces::TraceSet;
use dpss_units::Energy;
use serde::{Deserialize, Serialize};

use crate::{FrameTotals, RunReport, SlotOutcome};

/// A [`Battery`](crate::Battery)'s full mutable state (level plus the
/// wear/audit counters the final report needs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryState {
    /// Current stored energy `b(τ)`.
    pub level: Energy,
    /// Operating slots so far (`Σ n(τ)`).
    pub operations: u64,
    /// Total grid-side energy ever charged.
    pub total_charged: Energy,
    /// Total load-side energy ever discharged.
    pub total_discharged: Energy,
    /// Lowest level observed so far.
    pub min_seen: Energy,
    /// Highest level observed so far.
    pub max_seen: Energy,
}

/// A [`DelayLedger`](crate::DelayLedger)'s full state: the FIFO of
/// still-pending arrivals plus the served-delay accumulators.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerState {
    /// Pending batches front-to-back as `(arrival_slot, mwh)`; arrival
    /// slots are non-decreasing (FIFO order).
    pub pending: Vec<(usize, f64)>,
    /// Σ served MWh × delay-in-slots.
    pub weighted_delay_mwh_slots: f64,
    /// Total MWh served through the ledger.
    pub served_mwh: f64,
    /// Worst delay of any served energy, in slots.
    pub max_delay: usize,
}

/// A [`DemandQueue`](crate::DemandQueue)'s full state (backlog, high-water
/// mark and the embedded delay ledger).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueState {
    /// Current backlog `Q(τ)`.
    pub backlog: Energy,
    /// Largest backlog observed so far.
    pub max_backlog: Energy,
    /// The delay ledger's state.
    pub ledger: LedgerState,
}

/// Everything an [`EngineRun`](crate::EngineRun) accumulates between
/// frames: plant state, the partial report and — for a stream engine —
/// the previous frame's traces. Captured with
/// [`EngineRun::state`](crate::EngineRun::state), reinstated with
/// [`Engine::resume`](crate::Engine::resume) on an engine built from the
/// *same* parameters and traces (the engine itself is configuration and
/// is deliberately not part of this record — the checkpoint layer
/// rebuilds it from its recipe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineRunState {
    /// Coarse frames completed (also the next frame to step).
    pub next_frame: usize,
    /// Per-slot long-term allocation of the most recent frame decision.
    pub lt_alloc: Energy,
    /// Battery state.
    pub battery: BatteryState,
    /// Demand-queue state.
    pub queue: QueueState,
    /// Partially aggregated report.
    pub report: RunReport,
    /// Realized totals of the most recently completed frame (what a
    /// fleet's next outlook reads).
    pub last_frame: FrameTotals,
    /// Per-slot outcomes recorded so far; present iff the engine has slot
    /// recording enabled.
    pub recorded: Option<Vec<SlotOutcome>>,
    /// The previous coarse frame's true traces as a one-frame trace set;
    /// present iff the engine is a [stream](crate::Engine::stream) engine
    /// past frame 0.
    pub prev_traces: Option<TraceSet>,
}

/// A controller's internal state as a generic property bag: named scalars,
/// named vectors and one opaque string payload (controllers with
/// structured internals — e.g. a serialized warm-start basis — stash JSON
/// there). The shape is deliberately schema-free so the `Controller`
/// trait stays object-safe and new controllers need no wire changes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerState {
    /// Named scalar state, in insertion order.
    pub scalars: Vec<(String, f64)>,
    /// Named vector state, in insertion order.
    pub vectors: Vec<(String, Vec<f64>)>,
    /// Opaque controller-defined payload (conventionally JSON).
    pub payload: Option<String>,
}

impl ControllerState {
    /// A state with nothing in it (what stateless controllers save).
    #[must_use]
    pub fn empty() -> Self {
        ControllerState::default()
    }

    /// Whether the state carries nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty() && self.vectors.is_empty() && self.payload.is_none()
    }

    /// Records a named scalar (replacing any previous value of `name`).
    pub fn set_scalar(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.scalars.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.scalars.push((name.to_owned(), value));
        }
    }

    /// Looks up a named scalar.
    #[must_use]
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Records a named vector (replacing any previous value of `name`).
    pub fn set_vector(&mut self, name: &str, value: Vec<f64>) {
        if let Some(slot) = self.vectors.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.vectors.push((name.to_owned(), value));
        }
    }

    /// Looks up a named vector.
    #[must_use]
    pub fn vector(&self, name: &str) -> Option<&[f64]> {
        self.vectors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_state_bag_semantics() {
        let mut s = ControllerState::empty();
        assert!(s.is_empty());
        s.set_scalar("y", 1.5);
        s.set_scalar("y", 2.5);
        s.set_vector("plan", vec![1.0, 2.0]);
        assert!(!s.is_empty());
        assert_eq!(s.scalar("y"), Some(2.5));
        assert_eq!(s.scalar("missing"), None);
        assert_eq!(s.vector("plan"), Some(&[1.0, 2.0][..]));
        assert_eq!(s.scalars.len(), 1, "set_scalar replaces, not appends");
    }

    #[test]
    fn controller_state_roundtrips_through_json() {
        let mut s = ControllerState::empty();
        s.set_scalar("y", 0.25);
        s.set_vector("plan_grt", vec![0.0, 1.0, 2.0]);
        s.payload = Some("{\"basis\":[1,2]}".to_owned());
        let json = serde_json::to_string(&s).unwrap();
        let back: ControllerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

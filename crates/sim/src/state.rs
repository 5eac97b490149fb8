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

use crate::{FrameTotals, RunReport};

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
    /// The previous coarse frame's true traces as a one-frame trace set;
    /// present iff the engine is a [stream](crate::Engine::stream) engine
    /// past frame 0.
    pub prev_traces: Option<TraceSet>,
}

/// A controller's internal state: one opaque payload (conventionally
/// JSON) that only the controller that saved it interprets — e.g. a
/// Lyapunov queue, or a serialized warm-start basis. Keeping it opaque
/// keeps the `Controller` trait object-safe and lets new controllers
/// checkpoint without wire changes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerState {
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
        self.payload.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_state_roundtrips_through_json() {
        let s = ControllerState {
            payload: Some("{\"basis\":[1,2]}".to_owned()),
        };
        assert!(!s.is_empty());
        assert!(ControllerState::empty().is_empty());
        let json = serde_json::to_string(&s).unwrap();
        let back: ControllerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

//! Reusable solver state for repeated, structurally similar solves.
//!
//! The DPSS controllers solve one frame LP per coarse frame, and the
//! fleet planners one flow LP per frame; consecutive solves share the
//! constraint structure and differ only in right-hand sides (demands,
//! battery/queue state), bounds (caps) and objective coefficients
//! (prices). A [`LpWorkspace`] makes that loop cheap twice over:
//!
//! * **allocation reuse** — the kernel's problem image, eta file and
//!   scratch vectors are owned by the workspace and recycled, so a warm
//!   re-solve chain allocates nothing once primed;
//! * **warm starts** — the optimal basis of the previous solve is saved
//!   and, when the next problem has the same shape, the solve starts
//!   from it (see the kernel module docs for how a basis the new data
//!   made primal-infeasible is restored or rejected). Results are always
//!   identical in objective and feasibility status to a cold solve.
//!
//! The saved basis travels across process restarts as a
//! [`BasisSnapshot`](crate::BasisSnapshot).
//!
//! # Examples
//!
//! ```
//! use dpss_lp::{LpWorkspace, Problem, Relation, Sense};
//!
//! # fn main() -> Result<(), dpss_lp::LpError> {
//! let mut ws = LpWorkspace::new();
//! for demand in [1.0, 1.2, 0.9] {
//!     let mut p = Problem::new(Sense::Minimize);
//!     let g = p.add_var(0.0, 2.0, 40.0)?;
//!     p.add_constraint(&[(g, 1.0)], Relation::Ge, demand)?;
//!     let sol = p.solve_with(&mut ws)?;
//!     assert!((sol.value(g) - demand).abs() < 1e-9);
//! }
//! assert_eq!(ws.cold_solves(), 1); // first solve primes the basis
//! assert_eq!(ws.warm_solves(), 2); // later solves reuse it
//! # Ok(())
//! # }
//! ```

use serde::Serialize;

use crate::network::{NetState, NetworkBasis};
use crate::solution::Solution;

/// Cumulative solver telemetry for one workspace (one solve template).
///
/// Every solve runs on the factorized kernel, so the warm/cold/reject
/// counters and the kernel counters (`pivots`, `refactorizations`, eta
/// length, scratch bytes, nanoseconds) cover the same solves, failed
/// ones included. Obtained from
/// [`LpWorkspace::stats`], merged across a fleet's workspaces by the
/// planner layers, and rendered by `dpss sweep --solver-stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SolverStats {
    /// Total solves through the workspace (warm + cold).
    pub solves: u64,
    /// Solves that resumed from a saved basis.
    pub warm_solves: u64,
    /// Solves that ran the cold path from scratch.
    pub cold_solves: u64,
    /// Warm attempts abandoned (each also counted in `cold_solves`).
    pub warm_rejects: u64,
    /// Solves the kernel ran — every solve, so equal to `solves`.
    pub kernel_solves: u64,
    /// Simplex pivots performed by the kernel (dual restore and primal
    /// simplex).
    pub pivots: u64,
    /// Eta-file rebuilds triggered by the cap or drift guard.
    pub refactorizations: u64,
    /// Peak off-pivot eta entries held in any one solve's file.
    pub eta_len_peak: usize,
    /// Peak bytes of heap capacity pinned by the kernel arenas.
    pub peak_scratch_bytes: usize,
    /// Wall-clock nanoseconds spent inside the kernel.
    pub solve_ns: u64,
}

impl SolverStats {
    /// Folds another workspace's counters into this one (sums for the
    /// tallies, maxima for the peaks).
    pub fn merge(&mut self, other: &SolverStats) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
        self.warm_rejects += other.warm_rejects;
        self.kernel_solves += other.kernel_solves;
        self.pivots += other.pivots;
        self.refactorizations += other.refactorizations;
        self.eta_len_peak = self.eta_len_peak.max(other.eta_len_peak);
        self.peak_scratch_bytes = self.peak_scratch_bytes.max(other.peak_scratch_bytes);
        self.solve_ns += other.solve_ns;
    }

    /// Refactorizations per kernel solve — the headline drift-control
    /// telemetry (the `refactor rate` row of `dpss sweep --solver-stats`).
    #[must_use]
    pub fn refactor_rate(&self) -> f64 {
        if self.kernel_solves == 0 {
            0.0
        } else {
            self.refactorizations as f64 / self.kernel_solves as f64
        }
    }
}

/// Reusable buffers and warm-start state for [`Problem::solve_with`]
/// (see the module docs for the full story).
///
/// [`Problem::solve_with`]: crate::Problem::solve_with
#[derive(Debug, Clone, Default)]
pub struct LpWorkspace {
    /// Basis of the previous successful solve — `live` when reusable.
    /// Kept in place (not an `Option`) so warm chains rewrite it without
    /// allocating.
    pub(crate) saved: NetworkBasis,
    /// Arenas and persistent state of the factorized kernel.
    pub(crate) net: NetState,
    /// Recycled [`Solution`] value buffer (see [`recycle`](Self::recycle)).
    pub(crate) sol_pool: Vec<f64>,
    warm_solves: u64,
    cold_solves: u64,
    warm_rejects: u64,
    last_was_warm: bool,
    kernel_solves: u64,
    kernel_pivots: u64,
    kernel_refactorizations: u64,
    kernel_eta_len_peak: usize,
    kernel_scratch_peak: usize,
    kernel_solve_ns: u64,
}

impl LpWorkspace {
    /// Creates an empty workspace (first solve is necessarily cold).
    #[must_use]
    pub fn new() -> Self {
        LpWorkspace::default()
    }

    /// Number of solves that started from a saved basis.
    #[must_use]
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Number of solves that started cold from the all-slack basis.
    #[must_use]
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }

    /// Number of warm attempts abandoned because the saved basis was
    /// unusable for the new data — singular, holding a column at an upper
    /// bound it no longer has, beyond the dual feasibility restore of a
    /// general-form problem, or primal-infeasible for a packing-form one
    /// (each such solve is also counted in
    /// [`cold_solves`](Self::cold_solves)).
    #[must_use]
    pub fn warm_rejects(&self) -> u64 {
        self.warm_rejects
    }

    /// Whether the most recent solve completed on the warm path.
    #[must_use]
    pub fn last_was_warm(&self) -> bool {
        self.last_was_warm
    }

    /// Cumulative solver telemetry for this workspace — warm/cold
    /// counters plus the factorized kernel's pivot,
    /// refactorization, eta-length, scratch and timing counters.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            solves: self.warm_solves + self.cold_solves,
            warm_solves: self.warm_solves,
            cold_solves: self.cold_solves,
            warm_rejects: self.warm_rejects,
            kernel_solves: self.kernel_solves,
            pivots: self.kernel_pivots,
            refactorizations: self.kernel_refactorizations,
            eta_len_peak: self.kernel_eta_len_peak,
            peak_scratch_bytes: self.kernel_scratch_peak,
            solve_ns: self.kernel_solve_ns,
        }
    }

    /// Sets the kernel's eta-file cap: the file is refactorized
    /// once it holds `cap` etas (clamped to ≥ 1; the default is
    /// restored by passing `0`). `cap = 1` forces a refactorization
    /// after every basis exchange — useful for stress tests; production
    /// callers should leave the default.
    pub fn set_network_refactor_cap(&mut self, cap: usize) {
        self.net.refactor_eta_cap = cap;
    }

    /// Returns a finished [`Solution`]'s value buffer to the workspace
    /// pool. The next solve reuses it for its own values,
    /// which makes steady-state warm re-solve chains allocation-free
    /// (asserted by a counting-allocator gate in the bench harness).
    pub fn recycle(&mut self, sol: Solution) {
        let values = sol.into_values();
        if values.capacity() > self.sol_pool.capacity() {
            self.sol_pool = values;
        }
    }

    /// Drops the saved basis so the next solve is forced cold (the
    /// buffers remain allocated).
    pub fn clear_basis(&mut self) {
        self.saved.live = false;
    }

    /// Accumulates one kernel solve's telemetry.
    pub(crate) fn note_kernel_solve(
        &mut self,
        pivots: u64,
        refactorizations: u64,
        eta_entry_peak: usize,
        scratch_bytes: usize,
        ns: u64,
    ) {
        self.kernel_solves += 1;
        self.kernel_pivots += pivots;
        self.kernel_refactorizations += refactorizations;
        self.kernel_eta_len_peak = self.kernel_eta_len_peak.max(eta_entry_peak);
        self.kernel_scratch_peak = self.kernel_scratch_peak.max(scratch_bytes);
        self.kernel_solve_ns += ns;
    }

    pub(crate) fn note_warm(&mut self) {
        self.warm_solves += 1;
        self.last_was_warm = true;
    }

    pub(crate) fn note_cold(&mut self) {
        self.cold_solves += 1;
        self.last_was_warm = false;
    }

    pub(crate) fn note_warm_reject(&mut self) {
        self.warm_rejects += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation, Sense};

    fn cover_lp(demand: f64, price: f64) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var(0.0, 5.0, price).unwrap();
        let w = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(g, 1.0), (w, -1.0)], Relation::Ge, demand)
            .unwrap();
        p
    }

    #[test]
    fn warm_path_engages_on_repeat_solves() {
        let mut ws = LpWorkspace::new();
        for (d, pr) in [(1.0, 40.0), (2.0, 45.0), (0.5, 38.0), (3.0, 41.0)] {
            let sol = cover_lp(d, pr).solve_with(&mut ws).unwrap();
            assert!((sol.objective() - d * pr).abs() < 1e-9);
        }
        assert_eq!(ws.cold_solves(), 1);
        assert_eq!(ws.warm_solves(), 3);
        assert!(ws.last_was_warm());
    }

    #[test]
    fn shape_change_falls_back_to_cold() {
        let mut ws = LpWorkspace::new();
        cover_lp(1.0, 40.0).solve_with(&mut ws).unwrap();
        // Different shape: one more variable and row.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        let y = p.add_var(0.0, 1.0, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 0.4).unwrap();
        let sol = p.solve_with(&mut ws).unwrap();
        assert!((sol.objective() - (0.4 + 2.0 * 0.6)).abs() < 1e-9);
        assert_eq!(ws.cold_solves(), 2);
        assert!(!ws.last_was_warm());
    }

    #[test]
    fn clear_basis_forces_cold() {
        let mut ws = LpWorkspace::new();
        cover_lp(1.0, 40.0).solve_with(&mut ws).unwrap();
        ws.clear_basis();
        cover_lp(1.5, 40.0).solve_with(&mut ws).unwrap();
        assert_eq!(ws.cold_solves(), 2);
        assert_eq!(ws.warm_solves(), 0);
    }
}

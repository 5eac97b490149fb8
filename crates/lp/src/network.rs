//! The LP kernel: a sparse revised simplex on a **factorized basis**,
//! with allocation-free warm re-solves.
//!
//! # General form
//!
//! Every variable of a [`Problem`] has a finite lower bound (the model
//! refuses any other), so column `j` is model variable `j`, shifted:
//! `x = lo + y` with `y ∈ [0, up − lo]` (`up` possibly infinite). No
//! variable is negated or split. Each row becomes `Σ aᵢⱼ·yⱼ + sᵢ = bᵢ −
//! Σ aᵢⱼ·loⱼ` with one slack column:
//!
//! * a `≤` row's slack lives on `[0, ∞)`; a `≥` row is negated and gets
//!   the same slack; an `=` row's slack is fixed at `[0, 0]` and never
//!   enters the basis.
//!
//! The fleet flow problems — per-frame export settlement, the
//! prospective directive LP and the routing transportation LP — are in
//! **packing form**: every row `≤` with `bᵢ ≥ 0` and every variable on
//! `[0, u]` with `u` finite. For them the shift is zero and **the
//! all-slack basis is feasible** (`x = 0`, `s = b ≥ 0`), and the primal
//! simplex starts from it. Any other problem (the per-frame planning LP,
//! with its balance and recursion equalities and its unbounded waste and
//! backlog columns) starts cold from the all-slack basis, made feasible
//! by the same cost-shifted **dual simplex** a warm start uses (below),
//! then runs the primal simplex. The dual restore is the kernel's only
//! route to a feasible basis, and its verdict is final: a violated row
//! that no column can repair is a Farkas certificate, so the problem is
//! [`LpError::Infeasible`]; a spent budget, a pivot too small to divide
//! by or a wedged basis is [`LpError::IterationLimit`].
//!
//! # The factorized basis
//!
//! Instead of an explicit dense `m × m` basis inverse with `O(m²)`
//! rank-one pivot updates, the kernel holds `B⁻¹` in **product form**
//! (an eta file, [`crate::factor::Factorization`]): each pivot appends
//! one elementary eta matrix built from the entering direction, and the
//! two solves per pivot become FTRAN/BTRAN passes over the file. The
//! file is rebuilt from the basis columns (*refactorization*) whenever
//! it grows past the workspace's eta cap
//! ([`LpWorkspace::set_network_refactor_cap`], default
//! [`DEFAULT_REFACTOR_ETA_CAP`]) or a pivot element falls below
//! [`SMALL_PIVOT_TOL`] — the drift trigger. Refactorization processes
//! slack columns first (free identity etas) and structural columns in
//! ascending-sparsity order with largest-pivot row selection, so it is
//! deterministic. A general-form basis first places its triangular part
//! (row singletons), which keeps the frame LP's recursion chains free
//! of fill. Packing-form bases keep the plain order: placing their row
//! singletons too leaves the fleet results bit-identical but only adds
//! the per-row counting, since fleet bases have no recursion chains to
//! keep free of fill (`fleet-512-coordinated` `pass_s` 0.0987 →
//! 0.1025 s, medians of three alternating seed-1 `perfbench` pairs on
//! a 2-vCPU container).
//!
//! # Work that follows what a pivot changed
//!
//! The entering direction `w` is a [`crate::factor::SparseWork`]: it
//! records its nonzero pattern and stays zero between uses. Scattering a
//! column, the indexed FTRAN (which visits only the etas that act on the
//! result, found through the file's row index), refactorization's
//! pivot-row choice, the primal ratio test, the `x_B` update and the eta
//! append all walk that pattern rather than `0..m`. The pattern is
//! ascending, so rows are visited in the order the full scans used: the
//! same floating-point operations in the same order, the same lowest-row
//! tie-breaks, the same eta entry order — and therefore the same pivot
//! sequence, bit for bit.
//!
//! Primal pricing works the same way. A bound flip changes neither the
//! basis, the file nor `c_B`, so the multipliers `y` and the reduced
//! costs `d` stand. An exchange changes `c_B` at the pivot row only, and
//! the cone BTRAN ([`crate::factor::Factorization::btran_update`])
//! re-applies just the etas whose inputs changed. `d` is cached for every
//! column: after a cone update only the columns on the rows whose
//! multiplier bits moved are recomputed (through a row-wise copy of the
//! matrix, in the same column-order dot product), and a full BTRAN after
//! an install or a refactorization recomputes all of it. Debug builds
//! check every incremental update against a from-scratch pass, bit for
//! bit.
//!
//! # Allocation-free warm re-solves
//!
//! All solver state — the column-major problem image, the basis and its
//! factorization, every scratch vector (`y`, `w`, right-hand-side work,
//! the pricing candidate list) — lives in arenas owned by the
//! [`LpWorkspace`] and is reused across solves with `clear()` +
//! `extend()`. After a first priming solve of a given shape, re-solves
//! along a [`Problem::set_objective`] / [`set_bounds`] / [`set_rhs`]
//! edit chain perform **zero heap allocations** when the caller returns
//! the previous [`Solution`]'s buffer via [`LpWorkspace::recycle`]
//! (gated by a counting-allocator test in the bench harness, whose
//! frame chain holds zero-pivot stretches that keep their file). Such
//! a chain also keeps the matrix image: the column- and row-wise copies
//! are rebuilt only when the problem's structure id (redrawn by every
//! `add_var` and `add_constraint`, process-wide, so two problems of one
//! shape never share it) or its packing form changes; otherwise a load
//! refreshes the costs, uppers and right-hand sides in `O(n + nnz)`.
//!
//! # Pricing
//!
//! Dantzig pricing is upgraded to a **candidate-list partial-pricing**
//! scheme: a cyclic sweep refills a bounded list of attractive columns,
//! later iterations re-price only that list, and optimality is declared
//! only after a full sweep finds nothing attractive. After a streak of
//! [`DEGENERATE_STREAK_LIMIT`] degenerate pivots the kernel falls back to
//! Bland's rule (full lowest-index scans), which guarantees termination.
//!
//! # Warm re-solves
//!
//! [`Problem::set_objective`] / [`set_bounds`] / [`set_rhs`] leave the
//! coefficient matrix untouched, so the previous optimal basis is still
//! meaningful. A re-solve refactorizes that basis from the current
//! columns (deterministic, so a checkpoint-restored workspace continues
//! bit-identically). The refactorization depends only on the basis set
//! and the columns, so it is skipped when the image was kept and the
//! file already factorizes exactly the saved basis — the last solve
//! ended on a refactorization or the all-slack start, with no exchange
//! since, as after a re-solve that pivots nowhere. The kept file is the
//! one the refactorization would rebuild, bit for bit (debug builds
//! rebuild it beside the kept one and compare), and it reports the same
//! eta-entry peak and scratch bytes. `x_B` and the full reprice run on
//! every solve. Then:
//!
//! * a **packing-form** problem checks the basis for primal feasibility
//!   under the new data and, when it holds, resumes pricing from there;
//!   a basis that went primal-infeasible is discarded for the feasible
//!   all-slack start;
//! * a **general-form** problem restores primal feasibility with a
//!   bounded **dual simplex**. Its guide is the current reduced costs of
//!   the saved basis, each moved onto the side its column's bound status
//!   allows (a cost shift, so the guide is dual-feasible by
//!   construction). The primal simplex on the true costs then finishes.
//!   A restore that fails for any reason goes cold, and the cold start's
//!   own restore gives the verdict, so the cold path alone classifies
//!   errors.
//!
//! A saved basis that is singular for the current columns, or that
//! holds a column at an upper bound the current problem no longer has,
//! is rejected for the cold start. The objective and feasibility verdict
//! never depend on workspace history. Results agree with a dense
//! two-phase oracle to [`TOLERANCE`] on randomized flow, frame and
//! general instances and on ≥200-edit warm chains
//! (`tests/network_equivalence.rs`, `tests/warm_start_properties.rs`,
//! `tests/factorized_warm_chain.rs`). Kernel telemetry (pivots, eta
//! length, refactorizations, peak scratch bytes, ns per solve) is
//! recorded on the workspace ([`LpWorkspace::stats`]).
//!
//! [`Problem::set_objective`]: crate::Problem::set_objective
//! [`set_bounds`]: crate::Problem::set_bounds
//! [`set_rhs`]: crate::Problem::set_rhs
//! [`Solution`]: crate::Solution

// Revised-simplex kernel: every index is a row below `m` or a column
// below `n + m`, minted in one construction pass (columns from the
// problem's validated terms, rows from its constraint count) and
// preserved by every pivot. Runtime bound checks in the sparse inner
// loops would be pure overhead.
// audit:allow-file(slice-index): kernel indices are bounded by the n/m the buffers were sized with; see module note
#![allow(clippy::indexing_slicing)]
// Timing here is telemetry only: the measured nanoseconds land in
// `SolverStats::solve_ns` for perf artifacts and are never read back
// into pricing, pivoting, or any other result-producing decision.
// audit:allow-file(wall-clock): solve timing is write-only telemetry, never steers the solve

use std::time::Instant;

use crate::factor::{Factorization, SparseWork};
use crate::model::{Problem, Relation, Sense};
use crate::solution::Solution;
use crate::workspace::LpWorkspace;
use crate::{LpError, TOLERANCE};

/// Feasibility slack allowed when deciding whether a saved basis is
/// still primal-feasible for re-solved packing data (looser than the
/// pricing tolerance: a basic value overshooting its bound by rounding
/// noise is repaired by the ratio test, not worth a cold restart).
const WARM_FEAS_TOL: f64 = 1e-7;

/// How many consecutive degenerate pivots trigger the Bland's-rule
/// fallback. Dantzig pricing can cycle forever on degenerate vertices
/// (Beale's example); Bland's rule provably terminates, so after this
/// many zero-progress pivots the kernel switches pricing rules until the
/// objective moves again.
const DEGENERATE_STREAK_LIMIT: usize = 24;

/// Eta-file length at which the kernel refactorizes by default. Long
/// files slow FTRAN/BTRAN and accumulate rounding drift; rebuilding
/// every ~64 pivots keeps both bounded at negligible rebuild cost.
pub(crate) const DEFAULT_REFACTOR_ETA_CAP: usize = 64;

/// Pivot magnitudes below this trigger an immediate refactorization
/// after the exchange — the drift guard: a near-singular eta amplifies
/// rounding in every later solve against the file.
const SMALL_PIVOT_TOL: f64 = 1e-7;

/// Partial-pricing candidate list size: a refill sweep stops once this
/// many attractive columns are in hand, and later pivots price only the
/// list until it runs dry.
const CANDIDATE_TARGET: usize = 32;

/// Pivots smaller than this are refused outright during
/// refactorization — the basis is treated as numerically singular.
const SINGULAR_TOL: f64 = 1e-9;

/// Whether `p` is in packing form: every constraint `≤` with a
/// non-negative right-hand side and every variable bounded `[0, u]`
/// with `u` finite. Its all-slack basis is feasible.
fn is_packing_form(p: &Problem) -> bool {
    p.vars.iter().all(|v| v.lo == 0.0 && v.up.is_finite())
        && p.constraints
            .iter()
            .all(|c| c.relation == Relation::Le && c.rhs >= 0.0)
}

/// Visits a row's nonzero terms as `(column, coefficient)` pairs, scaled
/// by the row's sign (`−1` for a negated `≥` row).
fn for_each_term(relation: Relation, terms: &[(usize, f64)], mut visit: impl FnMut(usize, f64)) {
    let sign = if relation == Relation::Ge { -1.0 } else { 1.0 };
    for &(j, a) in terms {
        if a != 0.0 {
            visit(j, sign * a);
        }
    }
}

/// The saved state of a successful solve: the optimal basis and the
/// nonbasic bound statuses. The factorization is *not* saved — the next
/// warm install rebuilds it deterministically from the current
/// problem's columns, or keeps the workspace's file when that is
/// exactly the rebuild (see the module docs), which keeps checkpoints
/// small and makes a restored workspace continue bit-identically to the
/// donor.
///
/// Lives in-place inside the workspace (the `live` flag plays the role
/// an `Option` would) so warm chains never reallocate it.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetworkBasis {
    /// Whether the stored basis is valid for reuse. Cleared when the
    /// basis is consumed by a solve attempt and re-set on success.
    pub(crate) live: bool,
    /// Internal structural column count the basis was built for.
    pub(crate) n: usize,
    /// Constraint row count the basis was built for.
    pub(crate) m: usize,
    /// Basic column per row, each `< n + m`.
    pub(crate) basis: Vec<usize>,
    /// Nonbasic-at-upper-bound flags, one per column (`n + m`).
    pub(crate) at_upper: Vec<bool>,
}

impl NetworkBasis {
    /// Overwrites this saved basis from the solver state, reusing the
    /// existing buffers.
    fn store_from(&mut self, state: &NetState) {
        self.live = true;
        self.n = state.n;
        self.m = state.m;
        self.basis.clear();
        self.basis.extend_from_slice(&state.basis);
        self.at_upper.clear();
        self.at_upper.extend_from_slice(&state.at_upper);
    }
}

/// Persistent solver state: the column-major problem image, basis,
/// factorization and every scratch vector, all owned by the
/// [`LpWorkspace`] and recycled across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetState {
    /// The [`Problem`] structure id the matrix image was built from
    /// (`None`: no image yet).
    image: Option<u64>,
    /// Whether the current solve's load kept the image.
    reused_image: bool,
    /// Structural columns, one per model variable.
    n: usize,
    m: usize,
    /// Whether the loaded problem is in packing form.
    packing: bool,
    /// Column-major sparse structural matrix in CSC form: column `j`
    /// owns `col_row/col_val[col_off[j]..col_off[j + 1]]`, rows
    /// ascending. Slack columns (`n + i`) are the implicit identity.
    col_off: Vec<u32>,
    col_row: Vec<u32>,
    col_val: Vec<f64>,
    /// Row-wise copy of the structural pattern: row `i` holds columns
    /// `row_col[row_off[i]..row_off[i + 1]]` — the reduced costs a change
    /// of `y[i]` reaches.
    row_off: Vec<u32>,
    row_col: Vec<u32>,
    /// Cursor scratch for the CSC fill pass.
    col_cursor: Vec<u32>,
    /// Minimization-sense costs of the structural columns.
    cost: Vec<f64>,
    /// Upper bounds of the structural columns, followed by the slacks'
    /// (`0` for an equality row, `∞` otherwise) when some row is an
    /// equality; slacks past the end are unbounded.
    upper: Vec<f64>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    at_upper: Vec<bool>,
    in_basis: Vec<bool>,
    /// Values of the basic variables, row-aligned with `basis`.
    xb: Vec<f64>,
    /// The basis inverse in product (eta-file) form.
    factor: Factorization,
    /// Whether `factor`'s first `base_etas` etas are what refactorizing
    /// `basis` against the image's columns gives: set by a successful
    /// refactorization and by the all-slack start, cleared when a
    /// refactorization fails or an install gives up.
    file_fresh: bool,
    /// The debug self-check's refactorization of a kept basis.
    #[cfg(debug_assertions)]
    fresh_file: Factorization,
    /// Costs of the basic columns, row-aligned with `basis`.
    cb: Vec<f64>,
    /// The simplex multipliers `y = c_Bᵀ·B⁻¹`, kept current across
    /// exchanges by the cone BTRAN (the dual restore borrows it for the
    /// pivot row `e_rᵀ·B⁻¹`).
    y: Vec<f64>,
    /// Reduced cost of every column under `y` (slacks included), kept
    /// current for the rows whose multiplier moved (the dual restore's
    /// guide while it runs).
    d: Vec<f64>,
    /// The dual restore's pivot row `e_rᵀ·B⁻¹·A`, per column.
    alpha: Vec<f64>,
    /// Rows whose multiplier bits the last cone BTRAN changed.
    changed_rows: Vec<u32>,
    /// FTRAN scratch: the entering direction (or, while refactorizing,
    /// the column being pivoted in) with its nonzero pattern. All zero
    /// between uses; each use clears only the previous pattern.
    w: SparseWork,
    /// Right-hand-side work vector for `compute_xb`.
    rhs_work: Vec<f64>,
    /// Partial-pricing candidate list (column indices).
    candidates: Vec<u32>,
    /// Cyclic pricing cursor — reset at every solve so results never
    /// depend on workspace history.
    cursor: usize,
    /// Refactorization scratch: processing order, pivoted-row marks and
    /// the reordered basis under construction.
    order: Vec<u32>,
    row_pivoted: Vec<bool>,
    new_basis: Vec<usize>,
    /// General-form refactorization scratch: unplaced basic columns per
    /// unpivoted row, and the rows down to one.
    row_count: Vec<u32>,
    singletons: Vec<u32>,
    /// Eta cap before a refactorization is forced; `0` means
    /// [`DEFAULT_REFACTOR_ETA_CAP`]. Set via
    /// [`LpWorkspace::set_network_refactor_cap`].
    pub(crate) refactor_eta_cap: usize,
    /// Eta-file length right after the last (re)factorization. The cap
    /// bounds *update* etas appended since then — the base factorization
    /// itself can legitimately hold one eta per structural column, far
    /// past the cap on large bases.
    base_etas: usize,
    /// Per-solve telemetry, reset by [`load`](Self::load) and drained
    /// into the workspace counters by [`solve`].
    solve_pivots: u64,
    solve_refactorizations: u64,
    eta_entry_peak: usize,
    /// Whether the warm install kept the file instead of refactorizing;
    /// only the unit tests observe it.
    #[cfg(test)]
    kept_file: bool,
}

/// Where a primal ratio test stopped the entering column.
type Leave = Option<(usize, bool)>;

impl NetState {
    /// Loads `p` (no allocation once the arenas have grown to the
    /// template's working set) and resets the per-solve scratch so
    /// results never depend on workspace history. The matrix image — the
    /// CSC and CSR copies — is rebuilt only when `p`'s structure or its
    /// packing form differs from the image's; otherwise only the costs,
    /// uppers and right-hand sides are refreshed. Packing form is kept
    /// in the image's key because refactorization orders its bases by
    /// it.
    fn load(&mut self, p: &Problem) {
        let m = p.constraints.len();
        let packing = is_packing_form(p);
        self.reused_image =
            self.image == Some(p.structure) && self.m == m && self.packing == packing;
        self.packing = packing;
        if !self.reused_image {
            self.build_image(p);
            self.image = Some(p.structure);
        }
        let sign = match p.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.cost.clear();
        self.cost.extend(p.vars.iter().map(|v| sign * v.obj));
        self.upper.clear();
        self.upper.extend(p.vars.iter().map(|v| v.up - v.lo));
        if p.constraints.iter().any(|c| c.relation == Relation::Eq) {
            self.upper
                .extend(p.constraints.iter().map(|c| match c.relation {
                    Relation::Eq => 0.0,
                    Relation::Le | Relation::Ge => f64::INFINITY,
                }));
        }
        self.rhs.clear();
        self.rhs.extend(p.constraints.iter().map(|c| {
            let mut b = c.rhs;
            for &(j, a) in &c.terms {
                let lo = p.vars[j].lo;
                if lo != 0.0 {
                    b -= a * lo;
                }
            }
            if c.relation == Relation::Ge {
                -b
            } else {
                b
            }
        }));

        self.xb.clear();
        self.xb.resize(m, 0.0);
        self.w.reset(m);
        // A cone BTRAN reports each row at most once.
        self.changed_rows.clear();
        self.changed_rows.reserve(m);
        self.candidates.clear();
        self.cursor = 0;
        self.solve_pivots = 0;
        self.solve_refactorizations = 0;
        self.eta_entry_peak = 0;
        #[cfg(test)]
        {
            self.kept_file = false;
        }
    }

    /// Rebuilds the matrix image of `p`: the column count and the CSR
    /// and CSC copies of the constraint rows.
    fn build_image(&mut self, p: &Problem) {
        let n = p.vars.len();
        self.n = n;
        self.m = p.constraints.len();

        // CSR pattern: the constraint rows.
        let (row_off, row_col) = (&mut self.row_off, &mut self.row_col);
        row_off.clear();
        row_off.push(0);
        row_col.clear();
        for c in &p.constraints {
            for_each_term(c.relation, &c.terms, |j, _| row_col.push(j as u32));
            row_off.push(row_col.len() as u32);
        }

        // CSC fill: count per column, prefix-sum, scatter.
        let col_off = &mut self.col_off;
        col_off.clear();
        col_off.resize(n + 1, 0);
        for c in &p.constraints {
            for_each_term(c.relation, &c.terms, |j, _| col_off[j + 1] += 1);
        }
        for j in 0..n {
            col_off[j + 1] += col_off[j];
        }
        let nnz = col_off[n] as usize;
        let (col_row, col_val, cursor) =
            (&mut self.col_row, &mut self.col_val, &mut self.col_cursor);
        col_row.clear();
        col_row.resize(nnz, 0);
        col_val.clear();
        col_val.resize(nnz, 0.0);
        cursor.clear();
        cursor.extend_from_slice(&col_off[..n]);
        for (i, c) in p.constraints.iter().enumerate() {
            for_each_term(c.relation, &c.terms, |j, a| {
                let k = cursor[j] as usize;
                col_row[k] = i as u32;
                col_val[k] = a;
                cursor[j] += 1;
            });
        }
    }

    fn col_upper(&self, j: usize) -> f64 {
        self.upper.get(j).copied().unwrap_or(f64::INFINITY)
    }

    fn col_cost(&self, j: usize) -> f64 {
        if j < self.n {
            self.cost[j]
        } else {
            0.0
        }
    }

    /// Whether column `j` may enter the basis: nonbasic, and not the
    /// fixed slack of an equality row.
    fn can_enter(&self, j: usize) -> bool {
        !self.in_basis[j] && (j < self.n || self.col_upper(j) != 0.0)
    }

    fn eta_cap(&self) -> usize {
        if self.refactor_eta_cap == 0 {
            DEFAULT_REFACTOR_ETA_CAP
        } else {
            self.refactor_eta_cap
        }
    }

    /// The cold start: installs the all-slack basis (`x = 0`, `s = b`,
    /// the factorization the identity), feasible in packing form
    /// (`b ≥ 0`) and otherwise made feasible by the dual restore.
    fn start_cold(&mut self, budget: usize) -> Result<(), LpError> {
        let (n, m) = (self.n, self.m);
        self.basis.clear();
        self.basis.extend(n..n + m);
        self.at_upper.clear();
        self.at_upper.resize(n + m, false);
        self.in_basis.clear();
        self.in_basis.resize(n + m, false);
        for i in 0..m {
            self.in_basis[n + i] = true;
        }
        self.factor.reset(m);
        self.base_etas = 0;
        self.file_fresh = true;
        self.compute_xb();
        if self.packing {
            Ok(())
        } else {
            self.restore_feasibility(budget)
        }
    }

    /// Installs a saved basis: copies it in, refuses a column held at an
    /// upper bound the current problem does not have (before any `x_B`
    /// is computed from it), refactorizes the basis against the
    /// *current* columns and computes `x_B`. Returns whether the basis
    /// was usable — nonsingular, statuses consistent.
    ///
    /// The refactorization is skipped when the file already factorizes
    /// this very basis against an unchanged image, with no exchange since
    /// it was built: refactorizing depends only on the basis set and the
    /// columns, so it would rebuild the same file bit for bit.
    fn install_saved(&mut self, basis: &[usize], at_upper: &[bool]) -> bool {
        let (n, m) = (self.n, self.m);
        debug_assert_eq!(basis.len(), m);
        debug_assert_eq!(at_upper.len(), n + m);
        let keep = self.reused_image
            && self.file_fresh
            && self.factor.eta_count() == self.base_etas
            && self.basis == basis;
        self.file_fresh = false;
        self.basis.clear();
        self.basis.extend_from_slice(basis);
        self.at_upper.clear();
        self.at_upper.extend_from_slice(at_upper);
        self.in_basis.clear();
        self.in_basis.resize(n + m, false);
        for &j in &self.basis {
            if j >= n + m {
                return false;
            }
            self.in_basis[j] = true;
        }
        for (j, f) in self.in_basis.iter().enumerate() {
            if *f {
                self.at_upper[j] = false;
            }
        }
        for j in 0..n + m {
            if self.at_upper[j] && !self.col_upper(j).is_finite() {
                return false;
            }
        }
        if keep {
            // Report what the skipped refactorization would have: its
            // eta-entry peak and the capacity of the marks it sizes.
            self.reset_refactor_marks();
            self.eta_entry_peak = self.eta_entry_peak.max(self.factor.entry_count());
            self.file_fresh = true;
            #[cfg(test)]
            {
                self.kept_file = true;
            }
            #[cfg(debug_assertions)]
            self.assert_kept_file_is_fresh(basis);
        } else if !self.refactorize() {
            return false;
        }
        self.compute_xb();
        true
    }

    /// Debug self-check of a kept file: refactorizing the kept basis into
    /// the workspace-held spare file gives the same basis order and the
    /// kept file, eta for eta, bit for bit. The spare grows with the live
    /// file, so once a chain is primed the check allocates nothing.
    #[cfg(debug_assertions)]
    fn assert_kept_file_is_fresh(&mut self, kept: &[usize]) {
        self.fresh_file.reserve_like(&self.factor);
        std::mem::swap(&mut self.factor, &mut self.fresh_file);
        assert!(self.refactorize(), "a kept basis no longer factorizes");
        std::mem::swap(&mut self.factor, &mut self.fresh_file);
        assert_eq!(self.basis, kept, "a kept basis was reordered");
        assert!(
            self.factor.same_file(&self.fresh_file),
            "a kept file differs from its refactorization"
        );
    }

    /// Whether every basic value lies within its box, up to `tol`.
    fn primal_feasible(&self, tol: f64) -> bool {
        self.basis
            .iter()
            .zip(&self.xb)
            .all(|(&j, &x)| x >= -tol && x <= self.col_upper(j) + tol)
    }

    /// Rebuilds the eta file from the basis columns: slack columns first
    /// (identity etas, skipped), then structural columns in ascending
    /// nnz order (ties by column index), each pivoting on its
    /// largest-magnitude entry over the still-unpivoted rows (ties by
    /// lowest row). Deterministic by construction. Returns `false` if
    /// the basis is numerically singular; the file is then unusable and
    /// the caller must fall back to the slack basis.
    fn refactorize(&mut self) -> bool {
        let (n, m) = (self.n, self.m);
        self.file_fresh = false;
        self.factor.reset(m);
        self.reset_refactor_marks();
        // Slack columns: e_r pivots on its own row for free.
        for pos in 0..m {
            let j = self.basis[pos];
            if j >= n {
                let r = j - n;
                if self.row_pivoted[r] {
                    return false; // duplicate slack
                }
                self.row_pivoted[r] = true;
                self.new_basis[r] = j;
            }
        }
        if !self.packing && !self.pivot_row_singletons() {
            return false;
        }
        // Structural columns, sparsest first (sort_unstable is in-place;
        // the (nnz, column) key is a total order, so the result is
        // deterministic).
        self.order.clear();
        for pos in 0..m {
            let j = self.basis[pos];
            if j < n {
                self.order.push(j as u32);
            }
        }
        let (col_off, order) = (&self.col_off, &mut self.order);
        order.sort_unstable_by_key(|&j| (col_off[j as usize + 1] - col_off[j as usize], j));
        for k in 0..self.order.len() {
            let j = self.order[k] as usize;
            self.direction(j);
            let mut r_best = usize::MAX;
            let mut v_best = SINGULAR_TOL;
            for &r in self.w.pattern() {
                let (r, wr) = (r as usize, self.w.get(r as usize));
                if !self.row_pivoted[r] && wr.abs() > v_best {
                    v_best = wr.abs();
                    r_best = r;
                }
            }
            if r_best == usize::MAX {
                return false; // singular (or a duplicate structural column)
            }
            if !self.factor.push_eta(r_best, &self.w) {
                return false;
            }
            self.row_pivoted[r_best] = true;
            self.new_basis[r_best] = j;
        }
        if self.new_basis.contains(&usize::MAX) {
            return false;
        }
        std::mem::swap(&mut self.basis, &mut self.new_basis);
        self.base_etas = self.factor.eta_count();
        self.eta_entry_peak = self.eta_entry_peak.max(self.factor.entry_count());
        self.file_fresh = true;
        true
    }

    /// Clears the per-row marks a refactorization starts from: pivoted
    /// rows, the reordered basis and, in general form, the row counts of
    /// the triangular pass.
    fn reset_refactor_marks(&mut self) {
        let m = self.m;
        self.row_pivoted.clear();
        self.row_pivoted.resize(m, false);
        self.new_basis.clear();
        self.new_basis.resize(m, usize::MAX);
        if !self.packing {
            self.row_count.clear();
            self.row_count.resize(m, 0);
        }
    }

    /// The triangular part of a general-form refactorization: while some
    /// unpivoted row meets exactly one unplaced basic column, that column
    /// pivots on that row. No later column touches the row, so no later
    /// FTRAN passes through the eta, and a triangular basis — the frame
    /// LP's recursion chains — factors with no fill at all; the columns
    /// left over (the bump) take the sparsest-first rule. Placed columns
    /// leave `basis` (their slot becomes `usize::MAX`) until the swap at
    /// the end. Returns `false` if an eta cannot be appended.
    fn pivot_row_singletons(&mut self) -> bool {
        let (n, m) = (self.n, self.m);
        for r in 0..m {
            if !self.row_pivoted[r] {
                let cols = &self.row_col[self.row_off[r] as usize..self.row_off[r + 1] as usize];
                self.row_count[r] =
                    cols.iter().filter(|&&j| self.in_basis[j as usize]).count() as u32;
            }
        }
        self.singletons.clear();
        self.singletons.extend(
            (0..m as u32)
                .rev()
                .filter(|&r| self.row_count[r as usize] == 1),
        );
        let mut placed = 0;
        while let Some(r) = self.singletons.pop() {
            let r = r as usize;
            if self.row_pivoted[r] || self.row_count[r] != 1 {
                continue;
            }
            let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
            let Some(j) = self.row_col[s..e]
                .iter()
                .map(|&j| j as usize)
                .find(|&j| self.in_basis[j])
            else {
                continue;
            };
            self.direction(j);
            if self.w.get(r).abs() <= SINGULAR_TOL {
                continue; // left for the bump's largest-pivot rule
            }
            if !self.factor.push_eta(r, &self.w) {
                return false;
            }
            self.row_pivoted[r] = true;
            self.new_basis[r] = j;
            self.in_basis[j] = false;
            placed += 1;
            for t in self.col_off[j] as usize..self.col_off[j + 1] as usize {
                let i = self.col_row[t] as usize;
                if !self.row_pivoted[i] {
                    self.row_count[i] -= 1;
                    if self.row_count[i] == 1 {
                        self.singletons.push(i as u32);
                    }
                }
            }
        }
        if placed > 0 {
            for pos in 0..m {
                let j = self.basis[pos];
                if j < n && !self.in_basis[j] {
                    self.basis[pos] = usize::MAX;
                }
            }
            for r in 0..m {
                let j = self.new_basis[r];
                if j < n {
                    self.in_basis[j] = true;
                }
            }
        }
        true
    }

    /// Recomputes the basic values `x_B = B⁻¹·(b − Σ_{j at upper} Aⱼuⱼ)`
    /// through a fresh FTRAN (not the incremental pivot updates — also
    /// the accuracy refresh after each refactorization and before
    /// extraction). Slacks are never at an upper bound.
    fn compute_xb(&mut self) {
        self.rhs_work.clear();
        self.rhs_work.extend_from_slice(&self.rhs);
        for j in 0..self.n {
            if self.at_upper[j] && !self.in_basis[j] {
                let u = self.upper[j];
                if u != 0.0 {
                    let (s, e) = (self.col_off[j] as usize, self.col_off[j + 1] as usize);
                    for t in s..e {
                        self.rhs_work[self.col_row[t] as usize] -= self.col_val[t] * u;
                    }
                }
            }
        }
        self.factor.ftran(&mut self.rhs_work);
        self.xb.clear();
        self.xb.extend_from_slice(&self.rhs_work);
    }

    /// Prices from scratch after the basis or its file was rebuilt:
    /// `c_B` from the basis, `y = c_Bᵀ B⁻¹` by a full BTRAN (which
    /// records every eta's output for the cone updates), and every
    /// reduced cost.
    fn reprice(&mut self) {
        let (n, m) = (self.n, self.m);
        self.cb.clear();
        for r in 0..m {
            let c = self.col_cost(self.basis[r]);
            self.cb.push(c);
        }
        self.y.clear();
        self.y.resize(m, 0.0);
        self.factor.btran(&self.cb, &mut self.y);
        self.d.clear();
        for j in 0..n + m {
            let dj = self.reduced_cost(j);
            self.d.push(dj);
        }
    }

    /// Prices after the exchange at row `r` appended one eta: `c_B`
    /// changes at `r` only, the cone BTRAN re-applies the etas whose
    /// inputs changed, and the reduced costs of the columns on every row
    /// whose multiplier moved are recomputed — the same bits
    /// [`reprice`](Self::reprice) would give.
    fn reprice_exchange(&mut self, r: usize) {
        self.cb[r] = self.col_cost(self.basis[r]);
        self.changed_rows.clear();
        self.factor
            .btran_update(&self.cb, &mut self.y, &mut self.changed_rows);
        for c in 0..self.changed_rows.len() {
            let q = self.changed_rows[c] as usize;
            for t in self.row_off[q] as usize..self.row_off[q + 1] as usize {
                let j = self.row_col[t] as usize;
                self.d[j] = self.reduced_cost(j);
            }
            self.d[self.n + q] = -self.y[q];
        }
        #[cfg(debug_assertions)]
        self.assert_pricing_is_fresh();
    }

    /// Debug self-check of [`reprice_exchange`](Self::reprice_exchange):
    /// `c_B`, `y`, the recorded eta outputs and every reduced cost equal
    /// a from-scratch pass, bit for bit. Allocation-free, so the warm
    /// re-solve allocation gate holds in debug builds too: the fresh
    /// pass borrows `compute_xb`'s scratch, which every use rewrites.
    #[cfg(debug_assertions)]
    fn assert_pricing_is_fresh(&mut self) {
        let (n, m) = (self.n, self.m);
        for r in 0..m {
            assert_eq!(self.cb[r].to_bits(), self.col_cost(self.basis[r]).to_bits());
        }
        self.rhs_work.clear();
        self.rhs_work.resize(m, 0.0);
        assert!(
            self.factor
                .btran_is_fresh(&self.cb, &self.y, &mut self.rhs_work),
            "the cone BTRAN drifted from a full pass"
        );
        for j in 0..n + m {
            let fresh = self.reduced_cost(j);
            assert_eq!(self.d[j].to_bits(), fresh.to_bits(), "stale d[{j}]");
        }
    }

    /// `vᵀ·Aⱼ` for column `j` (a slack's column is `e_i`).
    fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        if j < self.n {
            let (s, e) = (self.col_off[j] as usize, self.col_off[j + 1] as usize);
            let mut dot = 0.0;
            for t in s..e {
                dot += v[self.col_row[t] as usize] * self.col_val[t];
            }
            dot
        } else {
            v[j - self.n]
        }
    }

    /// Reduced cost of column `j` under the current multipliers, from
    /// scratch (the cached copy lives in `d`).
    fn reduced_cost(&self, j: usize) -> f64 {
        if j < self.n {
            self.cost[j] - self.col_dot(j, &self.y)
        } else {
            -self.y[j - self.n]
        }
    }

    /// How much the objective improves per unit move of nonbasic column
    /// `j` off its current bound (positive = attractive).
    fn violation(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.d[j]
        } else {
            -self.d[j]
        }
    }

    /// `w = B⁻¹ Aⱼ`, the entering column in the basis frame, via the
    /// indexed FTRAN: `O(nnz)` to clear and scatter, never `O(m)`.
    fn direction(&mut self, j: usize) {
        self.w.clear();
        if j < self.n {
            let (s, e) = (self.col_off[j] as usize, self.col_off[j + 1] as usize);
            for t in s..e {
                self.w.add(self.col_row[t] as usize, self.col_val[t]);
            }
        } else {
            self.w.add(j - self.n, 1.0);
        }
        self.factor.ftran_indexed(&mut self.w);
    }

    /// Bland's rule: the lowest-index attractive column, by a full scan.
    /// Used only on degenerate streaks — it guarantees termination.
    fn price_bland(&self) -> Option<usize> {
        (0..self.n + self.m).find(|&j| self.can_enter(j) && self.violation(j) > TOLERANCE)
    }

    /// Candidate-list partial pricing: re-price the standing list under
    /// the current reduced costs and return its best column; when the list
    /// runs dry, refill it with a cyclic sweep. Returns `None` — the
    /// optimality verdict — only after a full sweep finds nothing
    /// attractive.
    fn price(&mut self) -> Option<usize> {
        let mut cands = std::mem::take(&mut self.candidates);
        let mut best: Option<usize> = None;
        let mut best_v = TOLERANCE;
        cands.retain(|&jc| {
            let j = jc as usize;
            if self.in_basis[j] {
                return false;
            }
            let v = self.violation(j);
            if v > TOLERANCE {
                if v > best_v {
                    best_v = v;
                    best = Some(j);
                }
                true
            } else {
                false
            }
        });
        self.candidates = cands;
        if best.is_some() {
            return best;
        }
        self.refill_candidates()
    }

    /// One cyclic sweep from the pricing cursor, collecting up to
    /// [`CANDIDATE_TARGET`] attractive columns; scans the entire column
    /// range before concluding nothing is attractive.
    fn refill_candidates(&mut self) -> Option<usize> {
        let total = self.n + self.m;
        if total == 0 {
            return None;
        }
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        let mut best: Option<usize> = None;
        let mut best_v = TOLERANCE;
        let mut j = self.cursor % total;
        for _ in 0..total {
            if self.can_enter(j) {
                let v = self.violation(j);
                if v > TOLERANCE {
                    cands.push(j as u32);
                    if v > best_v {
                        best_v = v;
                        best = Some(j);
                    }
                    if cands.len() >= CANDIDATE_TARGET {
                        j = (j + 1) % total;
                        break;
                    }
                }
            }
            j = (j + 1) % total;
        }
        self.cursor = j;
        self.candidates = cands;
        best
    }

    /// The primal ratio test for the direction in `w`: the entering
    /// column moves off its bound by `t ≥ 0` (`sigma = −1` from upper)
    /// until a basic variable reaches a bound or the column crosses its
    /// box. Returns the step and the blocking row with the bound it
    /// leaves at (`None`: a bound flip).
    fn ratio_test(&self, j: usize, sigma: f64) -> (f64, Leave) {
        let mut t = self.col_upper(j); // bound-flip limit: box width
        let mut leave: Leave = None;
        // Rows off the pattern hold exactly zero and can neither block
        // nor move; walking it ascending keeps the lowest-row tie-break.
        for &r in self.w.pattern() {
            let r = r as usize;
            let wr = sigma * self.w.get(r);
            if wr > TOLERANCE {
                let ratio = (self.xb[r] / wr).max(0.0);
                if ratio < t {
                    t = ratio;
                    leave = Some((r, false));
                }
            } else if wr < -TOLERANCE {
                let ub = self.col_upper(self.basis[r]);
                if ub.is_finite() {
                    let ratio = ((ub - self.xb[r]) / -wr).max(0.0);
                    if ratio < t {
                        t = ratio;
                        leave = Some((r, true));
                    }
                }
            }
        }
        (t, leave)
    }

    /// Moves the entering column `j` by `t` in direction `sigma` along
    /// `w` and, when a basic variable blocks, exchanges it out and
    /// appends the exchange's eta. A slack always leaves at its lower
    /// bound: a fixed slack's bounds are both `0`.
    fn step(&mut self, j: usize, sigma: f64, t: f64, leave: Leave, eta_cap: usize) -> StepOutcome {
        for &r in self.w.pattern() {
            self.xb[r as usize] -= sigma * t * self.w.get(r as usize);
        }
        let Some((r, leaves_at_upper)) = leave else {
            // The entering variable crossed its box without any basic
            // variable blocking: a bound flip, no basis, factorization or
            // `c_B` change, so `y` and `d` stand.
            self.at_upper[j] = !self.at_upper[j];
            return StepOutcome::Flipped;
        };
        let out = self.basis[r];
        self.in_basis[out] = false;
        self.at_upper[out] = leaves_at_upper && out < self.n;
        self.basis[r] = j;
        self.in_basis[j] = true;
        self.at_upper[j] = false;
        self.xb[r] = if sigma > 0.0 {
            t
        } else {
            self.col_upper(j) - t
        };
        self.append_eta(r, eta_cap)
    }

    /// Appends the eta of the exchange at row `r` (the entering direction
    /// is in `w`); refactorizes on the update-eta cap (appends since the
    /// last rebuild — the base factorization itself may hold one eta per
    /// structural column) or the small-pivot (drift) trigger, or if the
    /// pivot was too small to divide by at all.
    fn append_eta(&mut self, r: usize, eta_cap: usize) -> StepOutcome {
        let small = self.w.get(r).abs() < SMALL_PIVOT_TOL;
        let pushed = self.factor.push_eta(r, &self.w);
        self.eta_entry_peak = self.eta_entry_peak.max(self.factor.entry_count());
        let updates = self.factor.eta_count().saturating_sub(self.base_etas);
        if !pushed || small || updates >= eta_cap {
            if self.refactorize() {
                self.solve_refactorizations += 1;
                self.compute_xb();
                StepOutcome::Refactorized
            } else {
                StepOutcome::Wedged
            }
        } else {
            StepOutcome::Exchanged(r)
        }
    }

    /// Runs the primal simplex from the installed, primal-feasible basis
    /// to optimality.
    fn optimize(&mut self, budget: usize) -> Result<(), LpError> {
        let eta_cap = self.eta_cap();
        let mut pivots = 0usize;
        let mut bland = false;
        let mut degenerate_streak = 0usize;
        self.reprice();
        let result = loop {
            let enter = if bland {
                self.price_bland()
            } else {
                self.price()
            };
            let Some(j) = enter else {
                break Ok(());
            };
            if pivots >= budget {
                break Err(LpError::IterationLimit { pivots });
            }
            pivots += 1;

            self.direction(j);
            // The entering variable moves away from its current bound by
            // `t ≥ 0`: up from lower (σ = +1) or down from upper (σ = −1);
            // basic values respond as `x_B −= σ·t·w`.
            let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
            let (t, leave) = self.ratio_test(j, sigma);
            if t.is_infinite() {
                break Err(LpError::Unbounded);
            }

            if t <= TOLERANCE {
                degenerate_streak += 1;
                if degenerate_streak >= DEGENERATE_STREAK_LIMIT {
                    bland = true;
                }
            } else {
                degenerate_streak = 0;
                bland = false;
            }

            match self.step(j, sigma, t, leave, eta_cap) {
                StepOutcome::Flipped => {}
                StepOutcome::Exchanged(r) => self.reprice_exchange(r),
                StepOutcome::Refactorized => self.reprice(),
                StepOutcome::Wedged => {
                    // Numerically wedged basis: start cold again rather
                    // than return wrong answers from a drifted file.
                    if let Err(e) = self.start_cold(budget) {
                        break Err(e);
                    }
                    self.reprice();
                }
            }
        };
        self.solve_pivots += pivots as u64;
        result
    }

    /// Restores primal feasibility of an installed general-form basis —
    /// a saved one, or the all-slack basis of a cold start — by a bounded
    /// dual simplex (see the module docs). The guide is the current
    /// reduced costs, each moved onto the side its column's bound status
    /// allows; every dual pivot keeps it dual-feasible. A violated row
    /// with no entering column is a Farkas certificate:
    /// [`LpError::Infeasible`]. A spent budget, a pivot below
    /// [`TOLERANCE`] or a wedged basis is [`LpError::IterationLimit`].
    fn restore_feasibility(&mut self, budget: usize) -> Result<(), LpError> {
        let eta_cap = self.eta_cap();
        let (n, m) = (self.n, self.m);
        let mut pivots = 0usize;
        let restored = loop {
            // Leaving row: the largest bound violation (ties → lowest row).
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..m {
                let (x, ub) = (self.xb[r], self.col_upper(self.basis[r]));
                let violation = (-x).max(x - ub);
                if violation > TOLERANCE && leaving.is_none_or(|(_, v)| violation > v) {
                    leaving = Some((r, violation));
                }
            }
            let Some((r, _)) = leaving else {
                break Ok(());
            };
            if pivots >= budget {
                break Err(LpError::IterationLimit { pivots });
            }
            if pivots == 0 {
                // The guide, priced only when the basis needs a pivot.
                self.reprice();
                for j in 0..n + m {
                    if !self.in_basis[j] {
                        self.d[j] = if self.at_upper[j] {
                            self.d[j].min(0.0)
                        } else {
                            self.d[j].max(0.0)
                        };
                    }
                }
            }
            pivots += 1;
            let below = self.xb[r] < 0.0;
            // The pivot row ρ_r = e_rᵀ·B⁻¹ (in `y`) and α = ρ_r·A.
            self.rhs_work.clear();
            self.rhs_work.resize(m, 0.0);
            self.rhs_work[r] = 1.0;
            self.y.clear();
            self.y.resize(m, 0.0);
            self.factor.btran(&self.rhs_work, &mut self.y);
            self.alpha.clear();
            self.alpha.resize(n + m, 0.0);
            // Dual ratio test: among the columns whose move off their
            // bound pushes `x_r` toward the violated bound, the smallest
            // |d_j / α_j| (ties → lowest column).
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..n + m {
                if !self.can_enter(j) {
                    continue;
                }
                let a = self.col_dot(j, &self.y);
                self.alpha[j] = a;
                // x_r moves by −α_j per unit of x_j; `s > 0` means
                // raising x_j helps.
                let s = if below { -a } else { a };
                let helps = if self.at_upper[j] {
                    s < -TOLERANCE
                } else {
                    s > TOLERANCE
                };
                if helps {
                    let ratio = (self.d[j] / s).max(0.0);
                    if entering.is_none_or(|(_, best)| ratio < best - TOLERANCE) {
                        entering = Some((j, ratio));
                    }
                }
            }
            let Some((q, _)) = entering else {
                break Err(LpError::Infeasible);
            };
            // Primal side: x_q moves until x_r sits on its violated bound.
            self.direction(q);
            let wr = self.w.get(r);
            if wr.abs() <= TOLERANCE {
                break Err(LpError::IterationLimit { pivots });
            }
            let target = if below {
                0.0
            } else {
                self.col_upper(self.basis[r])
            };
            let delta = (self.xb[r] - target) / wr;
            for &i in self.w.pattern() {
                self.xb[i as usize] -= delta * self.w.get(i as usize);
            }
            let from = if self.at_upper[q] {
                self.col_upper(q)
            } else {
                0.0
            };
            // Dual side: d_j −= θ·α_j, the leaving column takes −θ.
            let theta = self.d[q] / self.alpha[q];
            for j in 0..n + m {
                if !self.in_basis[j] {
                    self.d[j] -= theta * self.alpha[j];
                }
            }
            let out = self.basis[r];
            self.d[q] = 0.0;
            self.d[out] = -theta;
            self.in_basis[out] = false;
            self.at_upper[out] = !below && out < n;
            self.basis[r] = q;
            self.in_basis[q] = true;
            self.at_upper[q] = false;
            self.xb[r] = from + delta;
            if let StepOutcome::Wedged = self.append_eta(r, eta_cap) {
                break Err(LpError::IterationLimit { pivots });
            }
        };
        self.solve_pivots += pivots as u64;
        restored
    }

    /// Maps the optimal basis back to model space, snapping values onto
    /// their box within [`TOLERANCE`]. The value buffer comes from the
    /// workspace's recycle pool, so warm chains that return it via
    /// [`LpWorkspace::recycle`] allocate nothing here.
    fn extract(&mut self, p: &Problem, pivots: usize, pool: &mut Vec<f64>) -> Solution {
        self.compute_xb();
        let mut x = std::mem::take(pool);
        x.clear();
        x.resize(self.n, 0.0);
        for (j, xj) in x.iter_mut().enumerate() {
            if !self.in_basis[j] && self.at_upper[j] {
                *xj = self.upper[j];
            }
        }
        for (r, &j) in self.basis.iter().enumerate() {
            if j < self.n {
                x[j] = self.xb[r];
            }
        }
        for (j, v) in x.iter_mut().enumerate() {
            if v.abs() < TOLERANCE {
                *v = 0.0;
            } else if (*v - self.upper[j]).abs() < TOLERANCE {
                *v = self.upper[j];
            }
        }
        for (v, var) in x.iter_mut().zip(&p.vars) {
            *v += var.lo;
            if v.abs() < TOLERANCE {
                *v = 0.0;
            }
            *v = v.clamp(var.lo, var.up);
        }
        let objective = p.objective_at(&x);
        Solution::new(x, objective, pivots)
    }

    /// Bytes of heap capacity currently pinned by the kernel arenas —
    /// the `peak_scratch_bytes` telemetry input.
    fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        let u32s = self.col_off.capacity()
            + self.col_row.capacity()
            + self.col_cursor.capacity()
            + self.candidates.capacity()
            + self.order.capacity()
            + self.row_count.capacity()
            + self.singletons.capacity()
            + self.row_off.capacity()
            + self.row_col.capacity()
            + self.changed_rows.capacity();
        let f64s = self.col_val.capacity()
            + self.cost.capacity()
            + self.upper.capacity()
            + self.rhs.capacity()
            + self.xb.capacity()
            + self.cb.capacity()
            + self.y.capacity()
            + self.d.capacity()
            + self.alpha.capacity()
            + self.rhs_work.capacity();
        let usizes = self.basis.capacity() + self.new_basis.capacity();
        let bools =
            self.at_upper.capacity() + self.in_basis.capacity() + self.row_pivoted.capacity();
        u32s * size_of::<u32>()
            + f64s * size_of::<f64>()
            + usizes * size_of::<usize>()
            + bools
            + self.w.capacity_bytes()
            + self.factor.capacity_bytes()
    }
}

/// What one primal step did to the basis.
#[derive(Debug, Clone, Copy)]
enum StepOutcome {
    /// The entering column crossed its box: no exchange.
    Flipped,
    /// An exchange at this row, with its eta appended.
    Exchanged(usize),
    /// An exchange followed by a refactorization (and fresh `x_B`).
    Refactorized,
    /// An exchange whose refactorization found the basis singular.
    Wedged,
}

/// The pivot budget of one dual restore and, separately, of one primal
/// simplex run: `200·(rows + columns) + 2000`, far above what well-posed
/// DPSS problems need.
fn pivot_budget(rows: usize, cols: usize) -> usize {
    200 * (rows + cols) + 2_000
}

/// Solves `p` through `ws`: warm from the saved basis when it fits (see
/// the module docs), else cold from the all-slack basis.
pub(crate) fn solve(p: &Problem, ws: &mut LpWorkspace) -> Result<Solution, LpError> {
    let clock = Instant::now();
    ws.net.load(p);
    let (n, m) = (ws.net.n, ws.net.m);
    let budget = pivot_budget(m, n + m);
    let mut warm = false;
    if ws.saved.live && ws.saved.n == n && ws.saved.m == m {
        // Consume the saved basis; it is revalidated on success below,
        // so a failed solve leaves the next one cold.
        ws.saved.live = false;
        warm = ws.net.install_saved(&ws.saved.basis, &ws.saved.at_upper)
            && if ws.net.packing {
                ws.net.primal_feasible(WARM_FEAS_TOL)
            } else {
                ws.net.restore_feasibility(budget).is_ok()
            };
        if !warm {
            ws.note_warm_reject();
        }
    } else {
        ws.saved.live = false;
    }
    let started = if warm {
        Ok(())
    } else {
        ws.net.start_cold(budget)
    };
    let outcome = started.and_then(|()| ws.net.optimize(budget));
    if warm {
        ws.note_warm();
    } else {
        ws.note_cold();
    }
    let result = outcome.map(|()| {
        let pivots = ws.net.solve_pivots as usize;
        let sol = ws.net.extract(p, pivots, &mut ws.sol_pool);
        ws.saved.store_from(&ws.net);
        sol
    });
    ws.note_kernel_solve(
        ws.net.solve_pivots,
        ws.net.solve_refactorizations,
        ws.net.eta_entry_peak,
        ws.net.scratch_bytes(),
        clock.elapsed().as_nanos() as u64,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintId, Problem, Relation, Variable};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn detects_packing_form() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 2.0, 3.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.5).unwrap();
        assert!(is_packing_form(&p));
        // A Ge row breaks the form.
        let mut q = p.clone();
        q.add_constraint(&[(x, 1.0)], Relation::Ge, 0.5).unwrap();
        assert!(!is_packing_form(&q));
        // A negative rhs breaks the form.
        let mut r = p.clone();
        r.add_constraint(&[(x, -1.0)], Relation::Le, -0.5).unwrap();
        assert!(!is_packing_form(&r));
        // An unbounded or shifted variable breaks the form.
        let mut s = p.clone();
        s.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        assert!(!is_packing_form(&s));
        let mut t = p.clone();
        t.add_var(1.0, 2.0, 1.0).unwrap();
        assert!(!is_packing_form(&t));
    }

    #[test]
    fn solves_a_small_packing_lp() {
        // max 3x + 2y  s.t.  x + y ≤ 4, x + 3y ≤ 6, x ≤ 3, y ≤ 5.
        // Optimum at x = 3, y = 1: objective 11.
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 3.0, 3.0).unwrap();
        let y = p.add_var(0.0, 5.0, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0)
            .unwrap();
        let mut ws = LpWorkspace::new();
        let sol = p.solve_with(&mut ws).unwrap();
        assert_close(sol.objective(), 11.0);
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), 1.0);
        assert_eq!(ws.cold_solves(), 1);
    }

    #[test]
    fn bound_flips_handle_unconstrained_columns() {
        // No rows at all: profitable variables flip straight to their
        // upper bound, costly ones stay at zero.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 2.0, -1.5).unwrap();
        let y = p.add_var(0.0, 3.0, 2.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 0.0);
        assert_close(sol.objective(), -3.0);
    }

    #[test]
    fn warm_resolve_reuses_the_basis() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 3.0, 3.0).unwrap();
        let y = p.add_var(0.0, 5.0, 2.0).unwrap();
        let cap = p
            .add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0)
            .unwrap();
        let mut ws = LpWorkspace::new();
        let first = p.solve_with(&mut ws).unwrap();
        assert_close(first.objective(), 11.0);
        // Re-price: the old vertex stays feasible, the warm path resumes
        // from it and pivots to the new optimum (y = 2 now dominates).
        p.set_objective(y, 10.0).unwrap();
        let second = p.solve_with(&mut ws).unwrap();
        assert_close(second.objective(), 20.0);
        assert_eq!(ws.cold_solves(), 1);
        assert_eq!(ws.warm_solves(), 1);
        assert!(ws.last_was_warm());
        // Tighten it below the warm vertex: a packing-form basis that
        // went primal-infeasible falls back cold, same answer as a fresh
        // workspace.
        p.set_rhs(cap, 1.0).unwrap();
        let third = p.solve_with(&mut ws).unwrap();
        let cold = p.solve().unwrap();
        assert_close(third.objective(), cold.objective());
        assert_eq!(ws.warm_rejects(), 1);
        assert_eq!(ws.cold_solves(), 2);
    }

    #[test]
    fn degenerate_rows_terminate() {
        // Several zero-rhs rows force degenerate pivots; the Bland
        // fallback guarantees termination.
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        let y = p.add_var(0.0, 1.0, 1.0).unwrap();
        let z = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 0.0)
            .unwrap();
        p.add_constraint(&[(y, 1.0), (z, -1.0)], Relation::Le, 0.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Le, 2.0)
            .unwrap();
        assert_close(p.solve().unwrap().objective(), 2.0);
    }

    #[test]
    fn zero_width_boxes_stay_pinned() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 0.0, 5.0).unwrap();
        let y = p.add_var(0.0, 2.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 0.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn eta_cap_one_forces_a_refactorization_per_pivot() {
        // With the cap at 1, every exchange crosses the trigger: the
        // kernel must refactorize after (almost) every pivot and still
        // land on the default cadence's optimum.
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 3.0, 3.0).unwrap();
        let y = p.add_var(0.0, 5.0, 2.0).unwrap();
        let z = p.add_var(0.0, 2.0, 4.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Le, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 3.0), (z, 0.5)], Relation::Le, 6.0)
            .unwrap();
        p.add_constraint(&[(x, 2.0), (z, 1.0)], Relation::Le, 5.0)
            .unwrap();
        let mut ws = LpWorkspace::new();
        ws.set_network_refactor_cap(1);
        let sol = p.solve_with(&mut ws).unwrap();
        assert_close(sol.objective(), p.solve().unwrap().objective());
        let stats = ws.stats();
        assert!(stats.pivots > 0, "the LP needs pivots: {stats:?}");
        assert!(
            stats.refactorizations >= stats.pivots.saturating_sub(1),
            "cap 1 must refactorize on every exchange: {stats:?}"
        );
        // Edits keep re-solving correctly across forced refactorizations.
        p.set_objective(y, 9.0).unwrap();
        let warm = p.solve_with(&mut ws).unwrap();
        assert_close(warm.objective(), p.solve().unwrap().objective());
    }

    #[test]
    fn a_zero_pivot_warm_solve_reports_its_refactorized_file() {
        // max x  s.t.  x ≤ 4, 2x ≤ 6: the optimum x = 3 keeps x basic on
        // row 1 with a two-row column, so the warm install's rebuilt file
        // holds an off-pivot entry even though the re-solve pivots zero
        // times.
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 10.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint(&[(x, 2.0)], Relation::Le, 6.0).unwrap();
        let mut ws = LpWorkspace::new();
        p.solve_with(&mut ws).unwrap();
        let sol = p.solve_with(&mut ws).unwrap();
        assert_close(sol.value(x), 3.0);
        assert!(ws.last_was_warm());
        // The per-solve figures `solve` drains into `SolverStats`.
        assert_eq!(ws.net.solve_pivots, 0);
        assert_eq!(ws.net.eta_entry_peak, 1);
        // The next re-solve keeps that file and reports it the same way.
        p.solve_with(&mut ws).unwrap();
        assert!(ws.net.kept_file);
        assert_eq!((ws.net.solve_pivots, ws.net.eta_entry_peak), (0, 1));
    }

    #[test]
    fn kernel_stats_accumulate() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 3.0, 3.0).unwrap();
        let y = p.add_var(0.0, 5.0, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        let mut ws = LpWorkspace::new();
        assert_eq!(ws.stats(), crate::SolverStats::default());
        p.solve_with(&mut ws).unwrap();
        p.set_objective(x, 1.0).unwrap();
        p.solve_with(&mut ws).unwrap();
        let stats = ws.stats();
        assert_eq!(stats.kernel_solves, 2);
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.warm_solves, 1);
        assert_eq!(stats.cold_solves, 1);
        assert!(stats.pivots >= 1);
        assert!(stats.peak_scratch_bytes > 0);
        assert!(stats.solve_ns > 0);
    }

    // ---- General form: cold starts from the all-slack basis -----------

    #[test]
    fn equality_constraints_start_from_an_infeasible_slack_basis() {
        // min 2x + 3y s.t. x + y = 10, x − y = 2 → x=6, y=4, obj 24.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 2.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 3.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 2.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 6.0);
        assert_close(sol.value(y), 4.0);
        assert_close(sol.objective(), 24.0);
    }

    #[test]
    fn shifted_variables_map_back() {
        // min x with x ∈ [−10, ∞) and x ≥ −5 by a row.
        let mut p = Problem::minimize();
        let x = p.add_var(-10.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, -5.0).unwrap();
        assert_close(p.solve().unwrap().value(x), -5.0);
        // max x with x ∈ [−8, 3]; min x with a floor row.
        let mut p = Problem::maximize();
        let x = p.add_var(-8.0, 3.0, 1.0).unwrap();
        assert_close(p.solve().unwrap().value(x), 3.0);
        let mut p = Problem::minimize();
        let x = p.add_var(-8.0, 3.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.5).unwrap();
        assert_close(p.solve().unwrap().value(x), 1.5);
        // x ∈ [−2, 7], both senses; a fixed variable.
        let mut p = Problem::minimize();
        let x = p.add_var(-2.0, 7.0, 1.0).unwrap();
        assert_close(p.solve().unwrap().value(x), -2.0);
        let mut p = Problem::maximize();
        let x = p.add_var(-2.0, 7.0, 1.0).unwrap();
        assert_close(p.solve().unwrap().value(x), 7.0);
        let mut p = Problem::minimize();
        let x = p.add_var(2.5, 2.5, -10.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 2.5);
        assert_close(sol.objective(), -25.0);
    }

    #[test]
    fn infeasible_and_unbounded_are_told_apart() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 2.0).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
        let mut p = Problem::minimize();
        p.add_var(0.0, f64::INFINITY, -1.0).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn redundant_equalities_and_negative_rhs_rows() {
        // x + y = 4 stated twice; min x + 2y → x=4, y=0.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 2.0).unwrap();
        for _ in 0..2 {
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
                .unwrap();
        }
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 4.0);
        assert_close(sol.value(y), 0.0);
        // −x ≤ −3 ⇔ x ≥ 3.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, -1.0)], Relation::Le, -3.0).unwrap();
        assert_close(p.solve().unwrap().value(x), 3.0);
    }

    #[test]
    fn the_diet_problem_lands_on_its_vertex() {
        // min 0.6a + b s.t. 10a + 4b ≥ 20, 5a + 10b ≥ 30: a = 1, b = 2.5.
        let mut p = Problem::minimize();
        let a = p.add_var(0.0, f64::INFINITY, 0.6).unwrap();
        let b = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(a, 10.0), (b, 4.0)], Relation::Ge, 20.0)
            .unwrap();
        p.add_constraint(&[(a, 5.0), (b, 10.0)], Relation::Ge, 30.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(a), 1.0);
        assert_close(sol.value(b), 2.5);
        assert_close(sol.objective(), 3.1);
    }

    #[test]
    fn mixed_relations_and_the_empty_problem() {
        // min 3x + 2y + z s.t. x + y + z = 10, x − y ≥ 1, z ≤ 4:
        // z = 4, x = 3.5, y = 2.5 → 19.5.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 3.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 2.0).unwrap();
        let z = p.add_var(0.0, 4.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Ge, 1.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(sol.values(), 1e-9));
        assert_close(sol.objective(), 19.5);
        let sol = Problem::minimize().solve().unwrap();
        assert!(sol.values().is_empty());
        assert_eq!(sol.objective(), 0.0);
    }

    // ---- General form: warm starts ------------------------------------

    /// min 40g + 90h s.t. g + h ≥ d, g − w = 0.5 with g ∈ [0, 5], h, w
    /// unbounded above: below d = 5 the basis holds g; past it h enters.
    fn cover(d: f64) -> Problem {
        let mut p = Problem::minimize();
        let g = p.add_var(0.0, 5.0, 40.0).unwrap();
        let h = p.add_var(0.0, f64::INFINITY, 90.0).unwrap();
        let w = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(g, 1.0), (h, 1.0)], Relation::Ge, d)
            .unwrap();
        p.add_constraint(&[(g, 1.0), (w, -1.0)], Relation::Eq, 0.5)
            .unwrap();
        p
    }

    #[test]
    fn a_dual_restore_keeps_a_general_form_chain_warm() {
        let mut ws = LpWorkspace::new();
        for d in [1.0, 1.5, 7.0, 2.0, 0.2, 9.0] {
            let p = cover(d);
            let sol = p.solve_with(&mut ws).unwrap();
            let want =
                40.0 * d.clamp(0.5, 5.0) + 90.0 * (d - 5.0).max(0.0) + (d.min(5.0) - 0.5).max(0.0);
            assert_close(sol.objective(), want);
            assert!(p.is_feasible(sol.values(), 1e-9), "d = {d}");
        }
        // Every re-solve stays warm: the rhs edits that leave the saved
        // basis primal-infeasible are repaired by dual pivots.
        assert_eq!(
            (ws.warm_solves(), ws.cold_solves(), ws.warm_rejects()),
            (5, 1, 0)
        );
    }

    #[test]
    fn a_zero_pivot_re_solve_keeps_its_file_until_the_structure_changes() {
        let mut p = cover(1.0);
        let mut ws = LpWorkspace::new();
        p.solve_with(&mut ws).unwrap();
        // (rhs, kept): the first warm solve refactorizes the cold solve's
        // updated file; later ones that pivot nowhere keep what it built.
        for (d, kept) in [(1.2, false), (1.4, true), (1.1, true)] {
            p.set_rhs(ConstraintId(0), d).unwrap();
            let sol = p.solve_with(&mut ws).unwrap();
            assert_eq!(sol.pivots(), 0, "d = {d}");
            assert!(ws.last_was_warm() && ws.net.reused_image);
            assert_eq!(ws.net.kept_file, kept, "d = {d}");
        }
        // A cost edit keeps the image and, pivoting nowhere, the file.
        p.set_objective(Variable(0), 41.0).unwrap();
        assert_eq!(p.solve_with(&mut ws).unwrap().pivots(), 0);
        assert!(ws.net.kept_file);
        // A lower bound below zero moves only the right-hand sides: the
        // image and, pivoting nowhere, the file stay.
        p.set_bounds(Variable(1), -0.5, 100.0).unwrap();
        let sol = p.solve_with(&mut ws).unwrap();
        assert_eq!(sol.pivots(), 0);
        assert!(ws.last_was_warm() && ws.net.reused_image && ws.net.kept_file);
        assert_close(sol.objective(), p.solve().unwrap().objective());
        // The same problem built again is a new structure of the same
        // shape: the image is rebuilt and the same basis refactorized
        // against it.
        p = cover(1.1);
        p.set_objective(Variable(0), 41.0).unwrap();
        p.set_bounds(Variable(1), -0.5, 100.0).unwrap();
        let sol = p.solve_with(&mut ws).unwrap();
        assert!(ws.last_was_warm() && !ws.net.reused_image && !ws.net.kept_file);
        assert_close(sol.objective(), p.solve().unwrap().objective());
        // A new row is a new structure: the image is rebuilt and, with
        // the shape changed, the solve runs cold.
        let mut q = p.clone();
        q.add_constraint(&[(Variable(2), 1.0)], Relation::Le, 50.0)
            .unwrap();
        q.solve_with(&mut ws).unwrap();
        assert!(!ws.last_was_warm() && !ws.net.reused_image);
    }

    #[test]
    fn a_kept_file_reports_what_its_refactorization_would() {
        // The all-slack optimum keeps the cold start's identity file; the
        // cover LPs keep a refactorized one, before and past the kink.
        let mut slack_optimal = Problem::minimize();
        let x = slack_optimal.add_var(0.0, 2.0, 1.0).unwrap();
        slack_optimal
            .add_constraint(&[(x, 1.0)], Relation::Le, 1.0)
            .unwrap();
        let no_clock = |s: crate::SolverStats| crate::SolverStats { solve_ns: 0, ..s };
        for p in [slack_optimal, cover(1.0), cover(7.0)] {
            // The twin runs the same chain, told before each re-solve that
            // its file is stale, so it refactorizes every time.
            let (mut ws, mut twin) = (LpWorkspace::new(), LpWorkspace::new());
            p.solve_with(&mut ws).unwrap();
            p.solve_with(&mut twin).unwrap();
            for _ in 0..2 {
                twin.net.file_fresh = false;
                let kept = p.solve_with(&mut ws).unwrap();
                let rebuilt = p.solve_with(&mut twin).unwrap();
                assert!(!twin.net.kept_file);
                assert_eq!(kept.objective().to_bits(), rebuilt.objective().to_bits());
                assert_eq!(ws.export_basis(), twin.export_basis());
                assert_eq!(ws.net.eta_entry_peak, twin.net.eta_entry_peak);
                assert_eq!(ws.net.scratch_bytes(), twin.net.scratch_bytes());
                assert_eq!(no_clock(ws.stats()), no_clock(twin.stats()));
            }
            assert!(ws.net.kept_file);
        }
    }

    #[test]
    fn an_infeasible_warm_restore_goes_cold_and_reports_infeasible() {
        let mut p = cover(1.0);
        let mut ws = LpWorkspace::new();
        p.solve_with(&mut ws).unwrap();
        // g ≤ 0.2 contradicts g − w = 0.5 with w ≥ 0.
        p.set_bounds(Variable(0), 0.0, 0.2).unwrap();
        assert!(matches!(p.solve_with(&mut ws), Err(LpError::Infeasible)));
        assert_eq!((ws.warm_rejects(), ws.cold_solves()), (1, 2));
    }

    #[test]
    fn a_basis_at_a_bound_the_problem_lost_is_rejected_before_x_b() {
        // max x + y  s.t.  x + y ≤ 3 with x ∈ [0, 2] at its upper bound at
        // the optimum; lifting x's bound to ∞ leaves the saved status
        // pointing at no bound.
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 2.0, 2.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0)
            .unwrap();
        let mut ws = LpWorkspace::new();
        p.solve_with(&mut ws).unwrap();
        let snap = ws.export_basis().unwrap();
        assert!(snap.at_upper[0], "x rests at its upper bound: {snap:?}");
        p.set_bounds(x, 0.0, f64::INFINITY).unwrap();
        let sol = p.solve_with(&mut ws).unwrap();
        assert!(sol.values().iter().all(|v| v.is_finite()));
        assert_close(sol.objective(), p.solve().unwrap().objective());
        assert_eq!((ws.warm_rejects(), ws.cold_solves()), (1, 2));
        // The same basis through an import is refused the same way.
        let mut fresh = LpWorkspace::new();
        fresh.import_basis(Some(&snap)).unwrap();
        let sol = p.solve_with(&mut fresh).unwrap();
        assert_close(sol.objective(), 6.0);
        assert_eq!(fresh.warm_rejects(), 1);
    }
}

//! Sparse revised simplex for network-structured ("packing-form") LPs,
//! on a **factorized basis** with allocation-free warm re-solves.
//!
//! The fleet flow problems — per-frame export settlement, the
//! prospective directive LP, and the routing transportation LP — share
//! one shape: every constraint is `Σ aᵢⱼ·xⱼ ≤ bᵢ` with `bᵢ ≥ 0`, and
//! every variable is box-bounded `0 ≤ xⱼ ≤ uⱼ` with `uⱼ` finite. That
//! shape has two consequences the dense two-phase tableau cannot
//! exploit: **the all-slack basis is feasible** (`x = 0`, `s = b ≥ 0`),
//! so phase 1 never runs, and **columns are sparse** (a flow variable
//! touches its donor row, its need row and maybe a pool row).
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
//! deterministic.
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
//! Pricing works the same way. A bound flip changes neither the basis,
//! the file nor `c_B`, so the multipliers `y` and the reduced costs `d`
//! stand. An exchange changes `c_B` at the pivot row only, and the cone
//! BTRAN ([`crate::factor::Factorization::btran_update`]) re-applies
//! just the etas whose inputs changed. `d` is cached for every column:
//! after a cone update only the columns on the rows whose multiplier
//! bits moved are recomputed (through a row-wise copy of the matrix, in
//! the same column-order dot product), and a full BTRAN after an install
//! or a refactorization recomputes all of it. Debug builds check every
//! incremental update against a from-scratch pass, bit for bit.
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
//! (gated by a counting-allocator test in the bench harness).
//!
//! # Pricing
//!
//! Dantzig pricing is upgraded to a **candidate-list partial-pricing**
//! scheme: a cyclic sweep refills a bounded list of attractive columns,
//! later iterations re-price only that list, and optimality is declared
//! only after a full sweep finds nothing attractive. The same
//! degenerate-streak fallback to Bland's rule (full lowest-index scans)
//! as the dense kernel guarantees termination.
//!
//! # Warm re-solves
//!
//! [`Problem::set_objective`] / [`set_bounds`] / [`set_rhs`] leave the
//! coefficient matrix untouched, so the previous optimal basis is still
//! meaningful. A re-solve refactorizes that basis from the current
//! columns (deterministic, so a checkpoint-restored workspace continues
//! bit-identically), checks it for primal feasibility under the new
//! data and, when it holds (the common frame-to-frame case), resumes
//! pricing from there — typically zero or a handful of pivots. A basis
//! that went primal-infeasible or singular is discarded for the cold
//! all-slack start, so the objective and feasibility verdict never
//! depend on workspace history.
//!
//! Entry point: [`Problem::solve_network_with`], which transparently
//! falls back to the dense path ([`Problem::solve_with`]) for problems
//! outside packing form. Results agree with the dense solver's
//! objective to [`TOLERANCE`] — property-tested over randomized flow
//! instances and ≥200-edit warm chains in `tests/network_equivalence.rs`
//! and `tests/factorized_warm_chain.rs`. Kernel telemetry (pivots, eta
//! length, refactorizations, peak scratch bytes, ns per solve) is
//! recorded on the workspace ([`LpWorkspace::stats`]).
//!
//! [`Problem::set_objective`]: crate::Problem::set_objective
//! [`set_bounds`]: crate::Problem::set_bounds
//! [`set_rhs`]: crate::Problem::set_rhs
//! [`Problem::solve_network_with`]: crate::Problem::solve_network_with
//! [`Problem::solve_with`]: crate::Problem::solve_with
//! [`Solution`]: crate::Solution

// Revised-simplex kernel: every index is a row below `m` or a column
// below `n + m`, minted in one construction pass (columns from the
// problem's validated terms, rows from its constraint count) and
// preserved by every pivot. Runtime bound checks in the sparse inner
// loops would be pure overhead, exactly as in the dense kernel.
// audit:allow-file(slice-index): kernel indices are bounded by the n/m the buffers were sized with; see module note
#![allow(clippy::indexing_slicing)]
// Timing here is telemetry only: the measured nanoseconds land in
// `SolverStats::solve_ns` for perf artifacts and are never read back
// into pricing, pivoting, or any other result-producing decision.
// audit:allow-file(wall-clock): solve timing is write-only telemetry, never steers the solve

use std::time::Instant;

use crate::factor::{Factorization, SparseWork};
use crate::model::{Problem, Relation, Sense};
use crate::simplex::DEGENERATE_STREAK_LIMIT;
use crate::solution::Solution;
use crate::workspace::LpWorkspace;
use crate::{LpError, TOLERANCE};

/// Feasibility slack allowed when deciding whether a saved basis is
/// still primal-feasible for re-solved data (looser than the pricing
/// tolerance: a basic value overshooting its bound by rounding noise is
/// repaired by the ratio test, not worth a cold restart).
const WARM_FEAS_TOL: f64 = 1e-7;

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
/// with `u` finite. Exactly the problems [`solve`] handles natively.
pub(crate) fn is_network_form(p: &Problem) -> bool {
    p.vars.iter().all(|v| v.lo == 0.0 && v.up.is_finite())
        && p.constraints
            .iter()
            .all(|c| c.relation == Relation::Le && c.rhs >= 0.0)
}

/// The saved state of a successful network solve: the optimal basis and
/// the nonbasic bound statuses. The factorization is *not* saved — it
/// is rebuilt deterministically from the current problem's columns on
/// the next warm install, which keeps checkpoints small and makes a
/// restored workspace continue bit-identically to the donor.
///
/// Lives in-place inside the workspace (the `live` flag plays the role
/// an `Option` used to) so warm chains never reallocate it.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetworkBasis {
    /// Whether the stored basis is valid for reuse. Cleared when the
    /// basis is consumed by a solve attempt and re-set on success.
    pub(crate) live: bool,
    /// Structural variable count the basis was built for.
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

/// Persistent solver state for the packing-form kernel: the column-major
/// problem image, basis, factorization and every scratch vector, all
/// owned by the [`LpWorkspace`] and recycled across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetState {
    n: usize,
    m: usize,
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
    /// Upper bounds of the structural columns (slacks are unbounded).
    upper: Vec<f64>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    at_upper: Vec<bool>,
    in_basis: Vec<bool>,
    /// Values of the basic variables, row-aligned with `basis`.
    xb: Vec<f64>,
    /// The basis inverse in product (eta-file) form.
    factor: Factorization,
    /// Costs of the basic columns, row-aligned with `basis`.
    cb: Vec<f64>,
    /// The simplex multipliers `y = c_Bᵀ·B⁻¹`, kept current across
    /// exchanges by the cone BTRAN.
    y: Vec<f64>,
    /// Reduced cost of every column under `y` (slacks included), kept
    /// current for the rows whose multiplier moved.
    d: Vec<f64>,
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
}

impl NetState {
    /// Rebuilds the problem image in place (no allocation once the
    /// arenas have grown to the template's working set) and resets the
    /// per-solve scratch so results never depend on workspace history.
    fn load(&mut self, p: &Problem) {
        let n = p.vars.len();
        let m = p.constraints.len();
        self.n = n;
        self.m = m;
        let sign = match p.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.cost.clear();
        self.cost.extend(p.vars.iter().map(|v| sign * v.obj));
        self.upper.clear();
        self.upper.extend(p.vars.iter().map(|v| v.up));
        self.rhs.clear();
        self.rhs.extend(p.constraints.iter().map(|c| c.rhs));

        // CSR pattern: the constraint rows as given.
        self.row_off.clear();
        self.row_off.push(0);
        self.row_col.clear();
        for c in &p.constraints {
            self.row_col
                .extend(c.terms.iter().filter(|t| t.1 != 0.0).map(|t| t.0 as u32));
            self.row_off.push(self.row_col.len() as u32);
        }

        // CSC fill: count per column, prefix-sum, scatter.
        self.col_off.clear();
        self.col_off.resize(n + 1, 0);
        for c in &p.constraints {
            for &(j, a) in &c.terms {
                if a != 0.0 {
                    self.col_off[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            self.col_off[j + 1] += self.col_off[j];
        }
        let nnz = self.col_off[n] as usize;
        self.col_row.clear();
        self.col_row.resize(nnz, 0);
        self.col_val.clear();
        self.col_val.resize(nnz, 0.0);
        self.col_cursor.clear();
        self.col_cursor.extend_from_slice(&self.col_off[..n]);
        for (i, c) in p.constraints.iter().enumerate() {
            for &(j, a) in &c.terms {
                if a != 0.0 {
                    let k = self.col_cursor[j] as usize;
                    self.col_row[k] = i as u32;
                    self.col_val[k] = a;
                    self.col_cursor[j] += 1;
                }
            }
        }

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
    }

    fn col_upper(&self, j: usize) -> f64 {
        if j < self.n {
            self.upper[j]
        } else {
            f64::INFINITY
        }
    }

    fn col_cost(&self, j: usize) -> f64 {
        if j < self.n {
            self.cost[j]
        } else {
            0.0
        }
    }

    fn eta_cap(&self) -> usize {
        if self.refactor_eta_cap == 0 {
            DEFAULT_REFACTOR_ETA_CAP
        } else {
            self.refactor_eta_cap
        }
    }

    /// Installs the cold all-slack basis (`x = 0`, `s = b`), feasible by
    /// packing form (`b ≥ 0`). The factorization is the identity.
    fn install_slack_basis(&mut self) {
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
        self.compute_xb();
    }

    /// Installs a saved basis: copies it in, refactorizes it against the
    /// *current* columns, and returns whether it is both nonsingular and
    /// primal-feasible for the current bounds and right-hand sides.
    fn install_saved(&mut self, basis: &[usize], at_upper: &[bool]) -> bool {
        let (n, m) = (self.n, self.m);
        debug_assert_eq!(basis.len(), m);
        debug_assert_eq!(at_upper.len(), n + m);
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
        if !self.refactorize() {
            return false;
        }
        self.compute_xb();
        self.basis
            .iter()
            .zip(&self.xb)
            .all(|(&j, &x)| x >= -WARM_FEAS_TOL && x <= self.col_upper(j) + WARM_FEAS_TOL)
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
        self.factor.reset(m);
        self.row_pivoted.clear();
        self.row_pivoted.resize(m, false);
        self.new_basis.clear();
        self.new_basis.resize(m, usize::MAX);
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
        true
    }

    /// Recomputes the basic values `x_B = B⁻¹·(b − Σ_{j at upper} Aⱼuⱼ)`
    /// through a fresh FTRAN (not the incremental pivot updates — also
    /// the accuracy refresh after each refactorization and before
    /// extraction).
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

    /// Reduced cost of column `j` under the current multipliers, from
    /// scratch (the cached copy lives in `d`).
    fn reduced_cost(&self, j: usize) -> f64 {
        if j < self.n {
            let (s, e) = (self.col_off[j] as usize, self.col_off[j + 1] as usize);
            let mut dot = 0.0;
            for t in s..e {
                dot += self.y[self.col_row[t] as usize] * self.col_val[t];
            }
            self.cost[j] - dot
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
        (0..self.n + self.m).find(|&j| !self.in_basis[j] && self.violation(j) > TOLERANCE)
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
            if !self.in_basis[j] {
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

    /// Runs primal simplex from the installed feasible basis to
    /// optimality. Returns the pivot count.
    fn optimize(&mut self, budget: usize) -> Result<usize, LpError> {
        let eta_cap = self.eta_cap();
        let mut pivots = 0usize;
        let mut bland = false;
        let mut degenerate_streak = 0usize;
        self.reprice();
        loop {
            let enter = if bland {
                self.price_bland()
            } else {
                self.price()
            };
            let Some(j) = enter else {
                self.solve_pivots = pivots as u64;
                return Ok(pivots);
            };
            if pivots >= budget {
                self.solve_pivots = pivots as u64;
                return Err(LpError::IterationLimit { pivots });
            }
            pivots += 1;

            self.direction(j);
            // The entering variable moves away from its current bound by
            // `t ≥ 0`: up from lower (σ = +1) or down from upper (σ = −1);
            // basic values respond as `x_B −= σ·t·w`.
            let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
            let mut t = self.col_upper(j); // bound-flip limit: box width
            let mut leave: Option<(usize, bool)> = None;
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
            if t.is_infinite() {
                self.solve_pivots = pivots as u64;
                return Err(LpError::Unbounded);
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

            for &r in self.w.pattern() {
                self.xb[r as usize] -= sigma * t * self.w.get(r as usize);
            }
            match leave {
                None => {
                    // The entering variable crossed its box without any
                    // basic variable blocking: a bound flip, no basis,
                    // factorization or `c_B` change, so `y` and `d` stand.
                    self.at_upper[j] = !self.at_upper[j];
                }
                Some((r, leaves_at_upper)) => {
                    let out = self.basis[r];
                    self.in_basis[out] = false;
                    self.at_upper[out] = leaves_at_upper;
                    self.basis[r] = j;
                    self.in_basis[j] = true;
                    self.at_upper[j] = false;
                    self.xb[r] = if sigma > 0.0 {
                        t
                    } else {
                        self.col_upper(j) - t
                    };
                    // Append the eta for this exchange; refactorize on
                    // the update-eta cap (appends since the last rebuild
                    // — the base factorization itself may hold one eta
                    // per structural column) or the small-pivot (drift)
                    // trigger, or if the pivot was too small to divide
                    // by at all.
                    let small = self.w.get(r).abs() < SMALL_PIVOT_TOL;
                    let pushed = self.factor.push_eta(r, &self.w);
                    self.eta_entry_peak = self.eta_entry_peak.max(self.factor.entry_count());
                    let updates = self.factor.eta_count().saturating_sub(self.base_etas);
                    if !pushed || small || updates >= eta_cap {
                        if self.refactorize() {
                            self.solve_refactorizations += 1;
                            self.compute_xb();
                        } else {
                            // Numerically wedged basis: restart cold
                            // from the all-slack basis within the same
                            // pivot budget — always feasible, always
                            // correct, never wrong answers from a
                            // drifted file.
                            self.install_slack_basis();
                        }
                        self.reprice();
                    } else {
                        self.reprice_exchange(r);
                    }
                }
            }
        }
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

/// Solves `p` on the sparse revised-simplex path when it is in packing
/// form, otherwise via the dense two-phase solver. See the module docs.
pub(crate) fn solve(p: &Problem, ws: &mut LpWorkspace) -> Result<Solution, LpError> {
    if !is_network_form(p) {
        return crate::standard::solve(p, ws);
    }
    let clock = Instant::now();
    let n = p.vars.len();
    let m = p.constraints.len();
    ws.net.load(p);
    let mut warm = false;
    if ws.net_saved.live && ws.net_saved.n == n && ws.net_saved.m == m {
        // Consume the saved basis; it is revalidated on success below,
        // so a failed solve leaves the next one cold, exactly as before.
        ws.net_saved.live = false;
        if ws
            .net
            .install_saved(&ws.net_saved.basis, &ws.net_saved.at_upper)
        {
            warm = true;
        } else {
            ws.note_warm_reject();
        }
    } else {
        ws.net_saved.live = false;
    }
    if !warm {
        ws.net.install_slack_basis();
    }
    let budget = p.pivot_budget(m, n + m);
    let outcome = ws.net.optimize(budget);
    if warm {
        ws.note_warm();
    } else {
        ws.note_cold();
    }
    let result = match outcome {
        Ok(pivots) => {
            let sol = ws.net.extract(p, pivots, &mut ws.sol_pool);
            ws.net_saved.store_from(&ws.net);
            Ok(sol)
        }
        Err(e) => Err(e),
    };
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
    use crate::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn detects_packing_form() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 2.0, 3.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.5).unwrap();
        assert!(p.is_network_form());
        // A Ge row breaks the form.
        let mut q = p.clone();
        q.add_constraint(&[(x, 1.0)], Relation::Ge, 0.5).unwrap();
        assert!(!q.is_network_form());
        // A negative rhs breaks the form.
        let mut r = p.clone();
        r.add_constraint(&[(x, -1.0)], Relation::Le, -0.5).unwrap();
        assert!(!r.is_network_form());
        // An unbounded or shifted variable breaks the form.
        let mut s = p.clone();
        s.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        assert!(!s.is_network_form());
        let mut t = p.clone();
        t.add_var(1.0, 2.0, 1.0).unwrap();
        assert!(!t.is_network_form());
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
        let sol = p.solve_network_with(&mut ws).unwrap();
        assert_close(sol.objective(), 11.0);
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), 1.0);
        assert_eq!(ws.cold_solves(), 1);
        // The dense path agrees.
        assert_close(p.solve().unwrap().objective(), 11.0);
    }

    #[test]
    fn bound_flips_handle_unconstrained_columns() {
        // No rows at all: profitable variables flip straight to their
        // upper bound, costly ones stay at zero.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 2.0, -1.5).unwrap();
        let y = p.add_var(0.0, 3.0, 2.0).unwrap();
        let sol = p.solve_network_with(&mut LpWorkspace::new()).unwrap();
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
        let first = p.solve_network_with(&mut ws).unwrap();
        assert_close(first.objective(), 11.0);
        // Re-price: the old vertex stays feasible, the warm path resumes
        // from it and pivots to the new optimum (y = 2 now dominates).
        p.set_objective(y, 10.0).unwrap();
        let second = p.solve_network_with(&mut ws).unwrap();
        assert_close(second.objective(), 20.0);
        assert_eq!(ws.cold_solves(), 1);
        assert_eq!(ws.warm_solves(), 1);
        assert!(ws.last_was_warm());
        // Tighten it below the warm vertex: the saved basis goes primal-
        // infeasible and the solver falls back cold, same answer as a
        // fresh workspace.
        p.set_rhs(cap, 1.0).unwrap();
        let third = p.solve_network_with(&mut ws).unwrap();
        let cold = p.solve_network_with(&mut LpWorkspace::new()).unwrap();
        assert_close(third.objective(), cold.objective());
        assert_eq!(ws.warm_rejects(), 1);
        assert_eq!(ws.cold_solves(), 2);
    }

    #[test]
    fn falls_back_to_dense_outside_packing_form() {
        // A Ge row forces the dense path; the answer still comes back.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 10.0, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 4.0).unwrap();
        let mut ws = LpWorkspace::new();
        let sol = p.solve_network_with(&mut ws).unwrap();
        assert_close(sol.value(x), 4.0);
        assert_eq!(ws.cold_solves(), 1);
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
        let sol = p.solve_network_with(&mut LpWorkspace::new()).unwrap();
        assert_close(sol.objective(), p.solve().unwrap().objective());
    }

    #[test]
    fn zero_width_boxes_stay_pinned() {
        let mut p = Problem::maximize();
        let x = p.add_var(0.0, 0.0, 5.0).unwrap();
        let y = p.add_var(0.0, 2.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0)
            .unwrap();
        let sol = p.solve_network_with(&mut LpWorkspace::new()).unwrap();
        assert_close(sol.value(x), 0.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn infeasibility_is_impossible_but_bounds_still_validate() {
        // Packing form is always feasible (x = 0); a malformed box is
        // caught at model build time, not here.
        let mut p = Problem::minimize();
        assert!(p.add_var(2.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn eta_cap_one_forces_a_refactorization_per_pivot() {
        // With the cap at 1, every exchange crosses the trigger: the
        // kernel must refactorize after (almost) every pivot and still
        // land on the dense optimum.
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
        let sol = p.solve_network_with(&mut ws).unwrap();
        assert_close(sol.objective(), p.solve().unwrap().objective());
        let stats = ws.stats();
        assert!(stats.pivots > 0, "the LP needs pivots: {stats:?}");
        assert!(
            stats.refactorizations >= stats.pivots.saturating_sub(1),
            "cap 1 must refactorize on every exchange: {stats:?}"
        );
        // Edits keep re-solving correctly across forced refactorizations.
        p.set_objective(y, 9.0).unwrap();
        let warm = p.solve_network_with(&mut ws).unwrap();
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
        p.solve_network_with(&mut ws).unwrap();
        let sol = p.solve_network_with(&mut ws).unwrap();
        assert_close(sol.value(x), 3.0);
        assert!(ws.last_was_warm());
        // The per-solve figures `solve` drains into `SolverStats`.
        assert_eq!(ws.net.solve_pivots, 0);
        assert_eq!(ws.net.eta_entry_peak, 1);
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
        p.solve_network_with(&mut ws).unwrap();
        p.set_objective(x, 1.0).unwrap();
        p.solve_network_with(&mut ws).unwrap();
        let stats = ws.stats();
        assert_eq!(stats.kernel_solves, 2);
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.warm_solves, 1);
        assert_eq!(stats.cold_solves, 1);
        assert!(stats.pivots >= 1);
        assert!(stats.peak_scratch_bytes > 0);
        assert!(stats.solve_ns > 0);
    }
}

//! Dense two-phase simplex on an explicit tableau.
//!
//! The tableau stores `B⁻¹A` row-major together with `B⁻¹b`; reduced costs
//! are maintained incrementally through pivots. Pricing is Dantzig's rule
//! (most negative reduced cost) with an automatic switch to Bland's rule
//! after a streak of degenerate pivots, which guarantees termination.

// Dense kernel: every index is a row/column below the `rows`/`cols` the
// tableau buffers were allocated with, and `basis` always holds exactly
// `rows` in-range columns (established by `standard::build_tableau`,
// preserved by every pivot). Runtime bound checks here would be pure
// hot-loop overhead.
// audit:allow-file(slice-index): tableau indices are bounded by rows/cols by construction; see module note
#![allow(clippy::indexing_slicing)]

use crate::{LpError, TOLERANCE};

/// How many consecutive degenerate pivots trigger the Bland's-rule
/// fallback. Dantzig pricing can cycle forever on degenerate vertices
/// (Beale's example); Bland's rule provably terminates, so after this
/// many zero-progress pivots the phase switches pricing rules until the
/// objective moves again.
pub(crate) const DEGENERATE_STREAK_LIMIT: usize = 24;

/// Dense tableau: `rows × cols` coefficient matrix, right-hand side, and the
/// index of the basic column for each row.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tableau {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Row-major `rows × cols`.
    pub(crate) a: Vec<f64>,
    /// `B⁻¹b`, kept non-negative by the ratio test.
    pub(crate) b: Vec<f64>,
    /// Basic column per row.
    pub(crate) basis: Vec<usize>,
    /// The last pivot's `(row, column)`.
    pivot_at: (usize, usize),
    /// Nonzero `(column, value)` entries of the last pivot's normalized
    /// row, ascending by column — the only columns that pivot touches.
    pattern: Vec<(usize, f64)>,
}

impl Tableau {
    #[cfg(test)]
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        let mut t = Tableau::default();
        t.reset(rows, cols);
        t
    }

    /// Re-dimensions the tableau to an all-zero `rows × cols` system,
    /// reusing the existing allocations (the workspace hot path).
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.a.clear();
        self.a.resize(rows * cols, 0.0);
        self.b.clear();
        self.b.resize(rows, 0.0);
        self.basis.clear();
        self.basis.resize(rows, usize::MAX);
    }

    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.cols + c] = v;
    }

    /// Gauss-Jordan pivot on `(prow, pcol)`: normalizes the pivot row and
    /// eliminates `pcol` from every other row and from `cost`.
    ///
    /// The normalized row's nonzero columns are recorded in
    /// [`pattern`](Self::pattern), and the row and cost eliminations walk
    /// that pattern instead of all `cols` columns. A skipped column would
    /// only have had `0 · factor` subtracted, so every entry keeps the
    /// bits a full-row sweep gives it, up to the sign of an exact zero —
    /// which no comparison, ratio or extracted value reads.
    pub(crate) fn pivot(&mut self, prow: usize, pcol: usize, cost: &mut CostRow) {
        let cols = self.cols;
        let pivot_val = self.at(prow, pcol);
        debug_assert!(pivot_val.abs() > TOLERANCE, "pivot element too small");

        let inv = 1.0 / pivot_val;
        self.pattern.clear();
        for (j, v) in self.a[prow * cols..(prow + 1) * cols]
            .iter_mut()
            .enumerate()
        {
            if *v != 0.0 {
                // Clean the pivot column entry to exactly 1 to limit drift.
                *v = if j == pcol { 1.0 } else { *v * inv };
                if *v != 0.0 {
                    self.pattern.push((j, *v));
                }
            }
        }
        self.b[prow] *= inv;
        self.pivot_at = (prow, pcol);

        let b_pivot = self.b[prow];
        for r in 0..self.rows {
            if r == prow {
                continue;
            }
            let row = &mut self.a[r * cols..(r + 1) * cols];
            let factor = row[pcol];
            if factor == 0.0 {
                continue;
            }
            for &(j, v) in &self.pattern {
                row[j] -= v * factor;
            }
            row[pcol] = 0.0;
            self.b[r] -= b_pivot * factor;
            if self.b[r].abs() < TOLERANCE {
                self.b[r] = self.b[r].max(0.0);
            }
        }

        self.eliminate_cost(cost);
        self.basis[prow] = pcol;
    }

    /// Eliminates the last pivot's column from a cost row against its
    /// (already normalized) pivot row. Factored out of
    /// [`pivot`](Self::pivot) so warm starts can keep a *second* cost row
    /// (the saved solve's objective, which guides the dual
    /// feasibility-restore phase) in sync with the same pivots.
    pub(crate) fn eliminate_cost(&self, cost: &mut CostRow) {
        let (prow, pcol) = self.pivot_at;
        cost.eliminate(&self.pattern, self.b[prow], pcol);
    }

    /// Extracts the current basic solution as a dense vector over all
    /// columns.
    pub(crate) fn solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.cols];
        for (r, &bc) in self.basis.iter().enumerate() {
            x[bc] = self.b[r];
        }
        x
    }
}

/// Reduced-cost row plus the (negated-offset) objective value at the current
/// basic solution.
#[derive(Debug, Clone)]
pub(crate) struct CostRow {
    pub(crate) reduced: Vec<f64>,
    pub(crate) objective: f64,
}

impl CostRow {
    /// Builds the reduced costs `c_j − c_Bᵀ (B⁻¹A)_j` for an already
    /// basis-reduced tableau.
    pub(crate) fn from_costs(tab: &Tableau, costs: &[f64]) -> Self {
        debug_assert_eq!(costs.len(), tab.cols);
        let mut reduced = costs.to_vec();
        let mut objective = 0.0;
        for (r, &bc) in tab.basis.iter().enumerate() {
            let cb = costs[bc];
            if cb == 0.0 {
                continue;
            }
            for (j, red) in reduced.iter_mut().enumerate() {
                *red -= cb * tab.at(r, j);
            }
            objective += cb * tab.b[r];
        }
        // Basic columns have exactly zero reduced cost by construction.
        for &bc in &tab.basis {
            reduced[bc] = 0.0;
        }
        CostRow { reduced, objective }
    }

    /// Eliminates `pcol` against a normalized pivot row given by its
    /// nonzero `entries` and right-hand side `b_pivot`.
    fn eliminate(&mut self, entries: &[(usize, f64)], b_pivot: f64, pcol: usize) {
        let factor = self.reduced[pcol];
        if factor != 0.0 {
            for &(j, v) in entries {
                self.reduced[j] -= v * factor;
            }
            // Entering variable rises to θ = b_pivot; objective moves by
            // its reduced cost times θ.
            self.objective += b_pivot * factor;
            self.reduced[pcol] = 0.0;
        }
    }
}

/// A replayable record of pivots made on one tableau: for each pivot, its
/// position, the reciprocal of its pivot element, the `(row, factor)`
/// pairs it eliminated and its normalized row's nonzero entries.
///
/// None of that depends on the right-hand side or the costs, so
/// [`replay`](Self::replay) can repeat on a new `b` and new cost rows
/// exactly the operations [`Tableau::pivot`] made, without touching the
/// matrix — which must still hold the state those pivots left behind.
#[derive(Debug, Clone, Default)]
pub(crate) struct PivotLog {
    steps: Vec<LoggedPivot>,
    factors: Vec<(usize, f64)>,
    entries: Vec<(usize, f64)>,
}

/// One logged pivot; its factors and entries end at the given offsets
/// of the log's flat buffers.
#[derive(Debug, Clone, Copy)]
struct LoggedPivot {
    row: usize,
    col: usize,
    inv: f64,
    factors_end: usize,
    entries_end: usize,
}

impl PivotLog {
    pub(crate) fn clear(&mut self) {
        self.steps.clear();
        self.factors.clear();
        self.entries.clear();
    }

    /// Number of logged pivots.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// [`Tableau::pivot`] on `(prow, pcol)`, logged.
    pub(crate) fn pivot(
        &mut self,
        tab: &mut Tableau,
        prow: usize,
        pcol: usize,
        cost: &mut CostRow,
    ) {
        let inv = 1.0 / tab.at(prow, pcol);
        for r in 0..tab.rows {
            let factor = tab.at(r, pcol);
            if r != prow && factor != 0.0 {
                self.factors.push((r, factor));
            }
        }
        tab.pivot(prow, pcol, cost);
        self.entries.extend_from_slice(&tab.pattern);
        self.steps.push(LoggedPivot {
            row: prow,
            col: pcol,
            inv,
            factors_end: self.factors.len(),
            entries_end: self.entries.len(),
        });
    }

    /// Repeats the logged pivots on `b` and on `cost`, each followed by
    /// the [`Tableau::eliminate_cost`] of `extra`, in the order and with
    /// the near-zero clamp of [`Tableau::pivot`].
    pub(crate) fn replay(&self, b: &mut [f64], cost: &mut CostRow, extra: &mut CostRow) {
        let (mut factors_start, mut entries_start) = (0, 0);
        for step in &self.steps {
            b[step.row] *= step.inv;
            let b_pivot = b[step.row];
            for &(r, factor) in &self.factors[factors_start..step.factors_end] {
                b[r] -= b_pivot * factor;
                if b[r].abs() < TOLERANCE {
                    b[r] = b[r].max(0.0);
                }
            }
            let entries = &self.entries[entries_start..step.entries_end];
            cost.eliminate(entries, b_pivot, step.col);
            extra.eliminate(entries, b_pivot, step.col);
            (factors_start, entries_start) = (step.factors_end, step.entries_end);
        }
    }
}

/// Outcome of a single simplex phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseOutcome {
    Optimal,
    Unbounded,
}

/// Runs primal simplex pivots until optimality, unboundedness or pivot
/// exhaustion. `allowed` masks which columns may *enter* the basis (used to
/// keep artificials out during phase 2). `bland_after` is the degenerate
/// streak that triggers the Bland's-rule fallback (`0` forces Bland from
/// the first pivot; production callers pass
/// [`DEGENERATE_STREAK_LIMIT`]).
pub(crate) fn run_phase(
    tab: &mut Tableau,
    cost: &mut CostRow,
    allowed: &[bool],
    budget: &mut usize,
    bland_after: usize,
) -> Result<PhaseOutcome, LpError> {
    let mut degenerate_streak = 0usize;
    let mut pivots_done = 0usize;
    loop {
        let use_bland = degenerate_streak >= bland_after;
        let Some(pcol) = choose_entering(cost, allowed, use_bland) else {
            return Ok(PhaseOutcome::Optimal);
        };
        let Some(prow) = choose_leaving(tab, pcol) else {
            return Ok(PhaseOutcome::Unbounded);
        };
        if *budget == 0 {
            return Err(LpError::IterationLimit {
                pivots: pivots_done,
            });
        }
        *budget -= 1;
        pivots_done += 1;
        let ratio_zero = tab.b[prow] <= TOLERANCE;
        tab.pivot(prow, pcol, cost);
        if ratio_zero {
            degenerate_streak += 1;
        } else {
            degenerate_streak = 0;
        }
    }
}

/// Outcome of the dual simplex feasibility-restore phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DualOutcome {
    /// All right-hand sides are now non-negative (primal feasible).
    Feasible,
    /// A negative row has no negative coefficient: the constraint system
    /// itself is infeasible (costs play no role in that certificate).
    NoPivot,
}

/// Dual simplex pivots until primal feasibility, guided by the
/// dual-feasible cost row `guide` (all reduced costs `≥ 0`, e.g. the
/// objective of the previous solve whose optimal basis we warm-started
/// from). `extra` is a second cost row kept in sync with the pivots (the
/// *current* objective, which the subsequent primal phase optimizes).
///
/// Used exclusively by warm starts: after a right-hand-side change the
/// saved basis stays dual-feasible w.r.t. its own costs, so a handful of
/// dual pivots restores feasibility without re-running phase 1.
pub(crate) fn run_dual_phase(
    tab: &mut Tableau,
    guide: &mut CostRow,
    extra: &mut CostRow,
    budget: &mut usize,
) -> Result<DualOutcome, LpError> {
    let mut pivots_done = 0usize;
    loop {
        // Leaving row: most negative b̄ (ties → smallest row index).
        let mut leaving: Option<(usize, f64)> = None;
        for (r, &b) in tab.b.iter().enumerate() {
            if b < -TOLERANCE && leaving.is_none_or(|(_, best)| b < best) {
                leaving = Some((r, b));
            }
        }
        let Some((prow, _)) = leaving else {
            return Ok(DualOutcome::Feasible);
        };
        // Entering column: dual ratio test over negative row entries
        // (ties → smallest column index, Bland-style, for termination).
        let mut entering: Option<(usize, f64)> = None;
        for j in 0..tab.cols {
            let a = tab.at(prow, j);
            if a < -TOLERANCE {
                let ratio = guide.reduced[j] / -a;
                if entering.is_none_or(|(_, best)| ratio < best - TOLERANCE) {
                    entering = Some((j, ratio));
                }
            }
        }
        let Some((pcol, _)) = entering else {
            return Ok(DualOutcome::NoPivot);
        };
        if *budget == 0 {
            return Err(LpError::IterationLimit {
                pivots: pivots_done,
            });
        }
        *budget -= 1;
        pivots_done += 1;
        tab.pivot(prow, pcol, guide);
        tab.eliminate_cost(extra);
    }
}

#[allow(clippy::needless_range_loop)] // index loops keep the dense hot path branch-free
fn choose_entering(cost: &CostRow, allowed: &[bool], bland: bool) -> Option<usize> {
    if bland {
        // Bland's rule: smallest-index column with negative reduced cost.
        (0..cost.reduced.len()).find(|&j| allowed[j] && cost.reduced[j] < -TOLERANCE)
    } else {
        // Dantzig's rule: most negative reduced cost.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..cost.reduced.len() {
            if !allowed[j] {
                continue;
            }
            let rc = cost.reduced[j];
            if rc < -TOLERANCE && best.is_none_or(|(_, b)| rc < b) {
                best = Some((j, rc));
            }
        }
        best.map(|(j, _)| j)
    }
}

fn choose_leaving(tab: &Tableau, pcol: usize) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for r in 0..tab.rows {
        let a = tab.at(r, pcol);
        if a <= TOLERANCE {
            continue;
        }
        let ratio = tab.b[r] / a;
        let better = match best {
            None => true,
            Some((br, bratio)) => {
                ratio < bratio - TOLERANCE
                    || ((ratio - bratio).abs() <= TOLERANCE && tab.basis[r] < tab.basis[br])
            }
        };
        if better {
            best = Some((r, ratio));
        }
    }
    best.map(|(r, _)| r)
}

/// Drives basic artificial variables out of the basis after phase 1.
///
/// Rows where an artificial remains basic at level ~0 are either pivoted
/// onto a structural column or marked redundant (`true` in `redundant`,
/// which is resized to one flag per row) when the whole structural part
/// of the row has been eliminated.
pub(crate) fn expel_artificials(
    tab: &mut Tableau,
    cost: &mut CostRow,
    n_structural: usize,
    redundant: &mut Vec<bool>,
) {
    redundant.clear();
    redundant.resize(tab.rows, false);
    for (r, dropped) in redundant.iter_mut().enumerate() {
        if tab.basis[r] < n_structural {
            continue;
        }
        // Find any structural column with a usable pivot in this row.
        match (0..n_structural).find(|&j| tab.at(r, j).abs() > 1e-7) {
            Some(j) => tab.pivot(r, j, cost),
            None => *dropped = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-row Gauss-Jordan pivot `Tableau::pivot` replaced: every
    /// column of every row with a nonzero factor, and of the cost row.
    fn pivot_full_row(tab: &mut Tableau, prow: usize, pcol: usize, cost: &mut CostRow) {
        let cols = tab.cols;
        let inv = 1.0 / tab.at(prow, pcol);
        for j in 0..cols {
            tab.a[prow * cols + j] *= inv;
        }
        tab.b[prow] *= inv;
        tab.set(prow, pcol, 1.0);
        for r in 0..tab.rows {
            if r == prow {
                continue;
            }
            let factor = tab.at(r, pcol);
            if factor == 0.0 {
                continue;
            }
            for j in 0..cols {
                let upd = tab.a[prow * cols + j] * factor;
                tab.a[r * cols + j] -= upd;
            }
            tab.b[r] -= tab.b[prow] * factor;
            tab.set(r, pcol, 0.0);
            if tab.b[r].abs() < TOLERANCE {
                tab.b[r] = tab.b[r].max(0.0);
            }
        }
        eliminate_cost_full_row(tab, prow, pcol, cost);
        tab.basis[prow] = pcol;
    }

    fn eliminate_cost_full_row(tab: &Tableau, prow: usize, pcol: usize, cost: &mut CostRow) {
        let factor = cost.reduced[pcol];
        if factor != 0.0 {
            for j in 0..tab.cols {
                cost.reduced[j] -= tab.at(prow, j) * factor;
            }
            cost.objective += tab.b[prow] * factor;
            cost.reduced[pcol] = 0.0;
        }
    }

    /// Equal bits, except that `+0.0` and `-0.0` count as equal.
    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0))
    }

    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// About one entry in `1/density` nonzero; half the nonzeros
        /// dyadic (so eliminations cancel to exact zeros), half not (so
        /// they round).
        fn sparse(&mut self, n: usize, density: usize) -> Vec<f64> {
            const VALUES: [f64; 8] = [-2.0, -1.0, 0.5, 1.0, 0.3, -1.7, 2.9, 1e-3];
            (0..n)
                .map(|_| {
                    if self.below(density) == 0 {
                        VALUES[self.below(VALUES.len())]
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random sparse tableaux and pivot sequences: the pattern pivot
        /// (and the `eliminate_cost` of a second cost row after it) gives
        /// every entry of `a`, `b` and both cost rows the bits of the
        /// full-row reference; a logged sequence replayed onto the
        /// starting `b` and cost rows reproduces them too.
        #[test]
        fn pattern_pivot_and_replay_match_the_full_row_reference(seed in 0u64..u64::MAX) {
            let mut rng = SplitMix(seed);
            let rows = 1 + rng.below(12);
            let cols = rows + rng.below(24);
            let density = 1 + rng.below(4);
            let mut tab = Tableau::new(rows, cols);
            tab.a = rng.sparse(rows * cols, density);
            tab.b = rng.sparse(rows, 1);
            tab.basis = (0..rows).collect();
            let cost = CostRow { reduced: rng.sparse(cols, density), objective: 0.0 };
            let extra = CostRow { reduced: rng.sparse(cols, density), objective: 0.0 };
            let (b0, cost0, extra0) = (tab.b.clone(), cost.clone(), extra.clone());

            let mut reference = (tab.clone(), cost.clone(), extra.clone());
            let mut log = PivotLog::default();
            let (mut cost, mut extra) = (cost, extra);
            for _ in 0..rng.below(3 * rows + 1) {
                let prow = rng.below(rows);
                let usable: Vec<usize> =
                    (0..cols).filter(|&j| tab.at(prow, j).abs() > 1e-7).collect();
                if usable.is_empty() {
                    continue;
                }
                let pcol = usable[rng.below(usable.len())];
                log.pivot(&mut tab, prow, pcol, &mut cost);
                tab.eliminate_cost(&mut extra);
                let (rt, rc, re) = &mut reference;
                pivot_full_row(rt, prow, pcol, rc);
                eliminate_cost_full_row(rt, prow, pcol, re);

                prop_assert!(same_bits(&tab.a, &rt.a));
                prop_assert!(same_bits(&tab.b, &rt.b));
                prop_assert_eq!(&tab.basis, &rt.basis);
                prop_assert!(same_bits(&cost.reduced, &rc.reduced));
                prop_assert!(same_bits(&extra.reduced, &re.reduced));
                prop_assert!(same_bits(&[cost.objective, extra.objective], &[rc.objective, re.objective]));
            }

            let (mut b, mut c, mut e) = (b0, cost0, extra0);
            log.replay(&mut b, &mut c, &mut e);
            prop_assert!(same_bits(&b, &tab.b));
            prop_assert!(same_bits(&c.reduced, &cost.reduced));
            prop_assert!(same_bits(&e.reduced, &extra.reduced));
            prop_assert!(same_bits(&[c.objective, e.objective], &[cost.objective, extra.objective]));
        }
    }

    /// Builds a tableau for `x + y ≤ 4`, `x + 3y ≤ 6` with slack columns 2,3
    /// already basic.
    fn small_tableau() -> Tableau {
        let mut t = Tableau::new(2, 4);
        t.set(0, 0, 1.0);
        t.set(0, 1, 1.0);
        t.set(0, 2, 1.0);
        t.set(1, 0, 1.0);
        t.set(1, 1, 3.0);
        t.set(1, 3, 1.0);
        t.b = vec![4.0, 6.0];
        t.basis = vec![2, 3];
        t
    }

    #[test]
    fn phase_solves_small_maximization() {
        // max 3x + 2y ≡ min −3x − 2y.
        let mut tab = small_tableau();
        let mut cost = CostRow::from_costs(&tab, &[-3.0, -2.0, 0.0, 0.0]);
        let allowed = vec![true; 4];
        let mut budget = 100;
        let out = run_phase(
            &mut tab,
            &mut cost,
            &allowed,
            &mut budget,
            DEGENERATE_STREAK_LIMIT,
        )
        .unwrap();
        assert_eq!(out, PhaseOutcome::Optimal);
        let x = tab.solution();
        assert!((x[0] - 4.0).abs() < 1e-9);
        assert!(x[1].abs() < 1e-9);
        assert!((cost.objective - (-12.0)).abs() < 1e-9);
    }

    #[test]
    fn phase_detects_unbounded() {
        // min −x with x unconstrained above: single row y slack only on x2.
        let mut t = Tableau::new(1, 2);
        t.set(0, 0, -1.0); // row: −x + s = 1 → x can grow without bound
        t.set(0, 1, 1.0);
        t.b = vec![1.0];
        t.basis = vec![1];
        let mut cost = CostRow::from_costs(&t, &[-1.0, 0.0]);
        let allowed = vec![true; 2];
        let mut budget = 50;
        let out = run_phase(
            &mut t,
            &mut cost,
            &allowed,
            &mut budget,
            DEGENERATE_STREAK_LIMIT,
        )
        .unwrap();
        assert_eq!(out, PhaseOutcome::Unbounded);
    }

    #[test]
    fn forced_bland_rule_reaches_the_same_optimum() {
        // `bland_after = 0` runs pure Bland's rule from the first pivot —
        // the anti-cycling fallback must be a correct solver on its own,
        // not just a termination hack.
        let mut tab = small_tableau();
        let mut cost = CostRow::from_costs(&tab, &[-3.0, -2.0, 0.0, 0.0]);
        let allowed = vec![true; 4];
        let mut budget = 100;
        let out = run_phase(&mut tab, &mut cost, &allowed, &mut budget, 0).unwrap();
        assert_eq!(out, PhaseOutcome::Optimal);
        let x = tab.solution();
        assert!((x[0] - 4.0).abs() < 1e-9);
        assert!((cost.objective - (-12.0)).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut tab = small_tableau();
        let mut cost = CostRow::from_costs(&tab, &[-3.0, -2.0, 0.0, 0.0]);
        let allowed = vec![true; 4];
        let mut budget = 0;
        let err = run_phase(
            &mut tab,
            &mut cost,
            &allowed,
            &mut budget,
            DEGENERATE_STREAK_LIMIT,
        )
        .unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { .. }));
    }

    #[test]
    fn cost_row_zeroes_basic_columns() {
        let tab = small_tableau();
        let cost = CostRow::from_costs(&tab, &[1.0, 1.0, 5.0, -5.0]);
        assert_eq!(cost.reduced[2], 0.0);
        assert_eq!(cost.reduced[3], 0.0);
    }

    #[test]
    fn expel_artificials_pivots_or_marks_redundant() {
        // Two rows, one structural column; row 1 duplicates row 0 so one of
        // them becomes redundant once the structural column is basic.
        let mut t = Tableau::new(2, 3); // col0 structural, col1..2 artificial
        t.set(0, 0, 1.0);
        t.set(0, 1, 1.0);
        t.set(1, 0, 1.0);
        t.set(1, 2, 1.0);
        t.b = vec![2.0, 2.0];
        t.basis = vec![1, 2];
        let mut cost = CostRow::from_costs(&t, &[0.0, 1.0, 1.0]);
        let allowed = vec![true; 3];
        let mut budget = 50;
        // Phase 1 drives artificial sum to zero.
        run_phase(
            &mut t,
            &mut cost,
            &allowed,
            &mut budget,
            DEGENERATE_STREAK_LIMIT,
        )
        .unwrap();
        assert!(cost.objective.abs() < 1e-9);
        let mut redundant = Vec::new();
        expel_artificials(&mut t, &mut cost, 1, &mut redundant);
        // Exactly one row ends up redundant, the other has col 0 basic.
        assert_eq!(redundant.iter().filter(|&&r| r).count(), 1);
        assert!(t.basis.contains(&0));
    }
}

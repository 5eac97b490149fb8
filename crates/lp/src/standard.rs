//! Conversion of a [`Problem`] to standard form and the two-phase driver.
//!
//! Standard form: `min cᵀy` s.t. `Ay = b`, `y ≥ 0`, `b ≥ 0`. Variables with
//! general box bounds are shifted/negated/split; `≤`/`≥` rows receive slack
//! or surplus columns; rows that still lack an identity column receive an
//! artificial variable, and phase 1 minimizes the artificial sum.
//!
//! All solves run through a caller-supplied [`LpWorkspace`], which owns the
//! tableau buffers and, when the previous solve had the same standard-form
//! shape, supplies a warm-start basis that skips phase 1 entirely (see the
//! `workspace` module docs). A warm start whose basis is singular for the
//! new rows, or whose dual feasibility restore cannot run, silently falls
//! back to the cold two-phase path below, so callers observe identical
//! objectives and feasibility verdicts either way.

// Dense kernel: the standard-form mapping allocates `phase2_costs`,
// `placed`, `redundant` and the tableau buffers to the exact
// rows/columns it then addresses; every `VarMap` column index is minted
// here during the same construction pass. See the simplex module for the
// same policy on the tableau itself.
// audit:allow-file(slice-index): standard-form columns/rows are minted and addressed in one construction pass; see module note
#![allow(clippy::indexing_slicing)]

use crate::model::{Problem, Relation, Sense};
use crate::simplex::{
    expel_artificials, run_dual_phase, run_phase, CostRow, DualOutcome, PhaseOutcome, PivotLog,
    Tableau, DEGENERATE_STREAK_LIMIT,
};
use crate::solution::Solution;
use crate::workspace::{LpWorkspace, SavedBasis};
use crate::{LpError, TOLERANCE};

/// How each original variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lo + y`, `y ≥ 0` (finite lower bound).
    Shifted { col: usize, lo: f64 },
    /// `x = up − y`, `y ≥ 0` (only the upper bound is finite).
    Negated { col: usize, up: f64 },
    /// `x = y⁺ − y⁻` (free variable).
    Split { pos: usize, neg: usize },
}

/// A standard-form row under construction: structural terms and rhs.
#[derive(Debug, Clone)]
struct Row {
    terms: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

pub(crate) fn solve(p: &Problem, ws: &mut LpWorkspace) -> Result<Solution, LpError> {
    // ---- 1. Map variables onto non-negative columns. -------------------
    let mut maps = Vec::with_capacity(p.vars.len());
    let mut n_struct = 0usize;
    for v in &p.vars {
        let map = if v.lo.is_finite() {
            let m = VarMap::Shifted {
                col: n_struct,
                lo: v.lo,
            };
            n_struct += 1;
            m
        } else if v.up.is_finite() {
            let m = VarMap::Negated {
                col: n_struct,
                up: v.up,
            };
            n_struct += 1;
            m
        } else {
            let m = VarMap::Split {
                pos: n_struct,
                neg: n_struct + 1,
            };
            n_struct += 2;
            m
        };
        maps.push(map);
    }

    // ---- 2. Transform constraint rows into structural-column space. ----
    let mut rows: Vec<Row> = Vec::with_capacity(p.constraints.len() + p.vars.len());
    for c in &p.constraints {
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
        let mut rhs = c.rhs;
        for &(j, a) in &c.terms {
            match maps[j] {
                VarMap::Shifted { col, lo } => {
                    rhs -= a * lo;
                    push_term(&mut terms, col, a);
                }
                VarMap::Negated { col, up } => {
                    rhs -= a * up;
                    push_term(&mut terms, col, -a);
                }
                VarMap::Split { pos, neg } => {
                    push_term(&mut terms, pos, a);
                    push_term(&mut terms, neg, -a);
                }
            }
        }
        rows.push(Row {
            terms,
            relation: c.relation,
            rhs,
        });
    }
    // Upper-bound rows `y ≤ up − lo` for doubly-bounded variables.
    for (v, map) in p.vars.iter().zip(&maps) {
        if let VarMap::Shifted { col, lo } = *map {
            if v.up.is_finite() {
                rows.push(Row {
                    terms: vec![(col, 1.0)],
                    relation: Relation::Le,
                    rhs: v.up - lo,
                });
            }
        }
    }

    // ---- 3. Normalize rhs signs and lay out slack/artificial columns. --
    for row in &mut rows {
        if row.rhs < 0.0 {
            row.rhs = -row.rhs;
            for t in &mut row.terms {
                t.1 = -t.1;
            }
            row.relation = match row.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }
    let m = rows.len();
    let n_slack = rows
        .iter()
        .filter(|r| !matches!(r.relation, Relation::Eq))
        .count();
    let n_artificial = rows
        .iter()
        .filter(|r| !matches!(r.relation, Relation::Le))
        .count();
    let n_nonart = n_struct + n_slack;
    let n_total = n_nonart + n_artificial;

    // Phase-2 objective in structural-column space (shared by both paths).
    let sign = match p.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut phase2_costs = vec![0.0; n_nonart];
    for (v, map) in p.vars.iter().zip(&maps) {
        match *map {
            VarMap::Shifted { col, .. } => phase2_costs[col] += sign * v.obj,
            VarMap::Negated { col, .. } => phase2_costs[col] -= sign * v.obj,
            VarMap::Split { pos, neg } => {
                phase2_costs[pos] += sign * v.obj;
                phase2_costs[neg] -= sign * v.obj;
            }
        }
    }

    // ---- 4. Warm path: re-reduce onto the previous basis, skip phase 1.
    if let Some(saved) = ws.take_matching_basis(m, n_nonart) {
        match try_warm(p, &maps, &rows, n_struct, &phase2_costs, &saved, ws) {
            WarmOutcome::Solved(sol) => return Ok(sol),
            WarmOutcome::Unbounded => return Err(LpError::Unbounded),
            WarmOutcome::Fallback => ws.note_warm_reject(),
        }
    }
    ws.note_cold();

    // ---- 5. Cold path: fill the two-phase tableau. ----------------------
    ws.rebuild.live = false;
    fill_tableau(&mut ws.tab, &rows, m, n_struct, n_total, true);
    let tab = &mut ws.tab;
    let mut budget = p.pivot_budget(m, n_total);

    // Phase 1: drive artificials to zero.
    if n_artificial > 0 {
        ws.costs.clear();
        ws.costs.resize(n_total, 0.0);
        for c in ws.costs.iter_mut().skip(n_nonart) {
            *c = 1.0;
        }
        let mut cost = CostRow::from_costs(tab, &ws.costs);
        ws.allowed.clear();
        ws.allowed.resize(n_total, true);
        match run_phase(
            tab,
            &mut cost,
            &ws.allowed,
            &mut budget,
            DEGENERATE_STREAK_LIMIT,
        )? {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => {
                // Phase-1 objective is bounded below by 0; cannot happen for
                // well-formed input, treat as numerical failure.
                return Err(LpError::IterationLimit { pivots: 0 });
            }
        }
        if cost.objective > 1e-7 {
            return Err(LpError::Infeasible);
        }
        expel_artificials(tab, &mut cost, n_nonart, &mut ws.allowed);
        drop_rows_and_artificials(tab, &ws.allowed, n_nonart);
    }
    let tab = &mut ws.tab;

    // Phase 2: optimize the real objective.
    let mut cost = CostRow::from_costs(tab, &phase2_costs);
    ws.allowed.clear();
    ws.allowed.resize(tab.cols, true);
    match run_phase(
        tab,
        &mut cost,
        &ws.allowed,
        &mut budget,
        DEGENERATE_STREAK_LIMIT,
    )? {
        PhaseOutcome::Optimal => {}
        PhaseOutcome::Unbounded => return Err(LpError::Unbounded),
    }

    // Only a full-rank phase-2 system can seed the next warm start (rows
    // dropped as redundant change the shape key and are simply not saved).
    let pivots_used = p.pivot_budget(m, n_total) - budget;
    if tab.rows == m {
        let (rows_now, cols_now) = (tab.rows, tab.cols);
        let basis = std::mem::take(&mut ws.tab.basis);
        ws.save_basis(rows_now, cols_now, &basis, &phase2_costs);
        ws.tab.basis = basis;
    } else {
        ws.clear_basis();
    }
    Ok(extract_solution(p, &maps, &ws.tab, pivots_used))
}

enum WarmOutcome {
    Solved(Solution),
    Unbounded,
    /// Saved basis unusable (singular / dual restore failed / budget burn):
    /// redo the solve on the cold path.
    Fallback,
}

/// What a warm rebuild did, and what it depended on.
///
/// The rebuild pivots a freshly filled tableau onto the saved basis.
/// Which rows pivot, in what order and with which factors depends only on
/// the standard-form rows (terms and relation after rhs-sign
/// normalization), the shape and the saved basis — never on `b` or the
/// costs. So while the tableau still holds what the last rebuild left
/// (`live`: that solve took no dual or primal pivot, and no cold solve,
/// import or clear ran since), a warm solve with the same key replays
/// the logged pivots onto its right-hand side and cost rows instead of
/// refilling and re-pivoting the matrix.
#[derive(Debug, Clone, Default)]
pub(crate) struct RebuildRecord {
    /// The tableau still holds the state the logged rebuild left.
    pub(crate) live: bool,
    /// The rebuild's rows (their `rhs` is not part of the key).
    rows: Vec<Row>,
    cols: usize,
    basis: Vec<usize>,
    log: PivotLog,
}

impl RebuildRecord {
    /// Equal terms fill equal tableau entries: a zero term fills `+0.0`
    /// whatever its sign, and coefficients are finite.
    fn matches(&self, rows: &[Row], cols: usize, basis: &[usize]) -> bool {
        self.live
            && self.cols == cols
            && self.basis == basis
            && self.rows.len() == rows.len()
            && self
                .rows
                .iter()
                .zip(rows)
                .all(|(a, b)| a.relation == b.relation && a.terms == b.terms)
    }
}

/// Attempts a phase-1-free solve from `saved`: puts the tableau on the
/// saved basis — by replaying the last rebuild when its
/// [`RebuildRecord`] matches, else by refilling the artificial-free
/// tableau and pivoting it onto the basis (rows whose saved basic column
/// is their own untouched `+1` slack need no pivot at all; the rest use
/// partial pivoting over the not-yet-assigned rows) — then:
///
/// * **primal-feasible** basis → phase 2 directly;
/// * **primal-infeasible** basis (the usual case after a right-hand-side
///   change) → a dual simplex feasibility restore guided by the *saved*
///   cost row (which the basis is optimal, hence dual-feasible, for),
///   followed by phase 2 on the current costs;
/// * anything unusable (singular basis, changed matrix breaking dual
///   feasibility, budget burn) → fall back to the cold two-phase path.
fn try_warm(
    p: &Problem,
    maps: &[VarMap],
    rows: &[Row],
    n_struct: usize,
    phase2_costs: &[f64],
    saved: &SavedBasis,
    ws: &mut LpWorkspace,
) -> WarmOutcome {
    let m = rows.len();
    let n_nonart = saved.cols;

    // Raw costs are the correct reduced costs for the empty basis; the
    // rebuild pivots then maintain them incrementally, so after the last
    // pivot they are exactly `c − c_Bᵀ B⁻¹A` for the saved basis. The
    // saved solve's costs ride along as the dual guide row.
    let mut cost = CostRow {
        reduced: phase2_costs.to_vec(),
        objective: 0.0,
    };
    let mut guide = CostRow {
        reduced: saved.costs.clone(),
        objective: 0.0,
    };
    let mut budget = p.pivot_budget(m, n_nonart);
    let replay = ws.rebuild.matches(rows, n_nonart, &saved.basis);
    // The record stays live only if nothing below pivots.
    ws.rebuild.live = false;
    if replay {
        debug_assert_eq!((ws.tab.rows, ws.tab.cols), (m, n_nonart));
        for (b, row) in ws.tab.b.iter_mut().zip(rows) {
            *b = row.rhs;
        }
        ws.rebuild.log.replay(&mut ws.tab.b, &mut cost, &mut guide);
        budget -= ws.rebuild.log.len();
        ws.note_replayed_rebuild();
    } else {
        fill_tableau(&mut ws.tab, rows, m, n_struct, n_nonart, false);
        let tab = &mut ws.tab;
        let log = &mut ws.rebuild.log;
        log.clear();
        ws.allowed.clear();
        ws.allowed.resize(m, false); // reused here as a "row placed" mask
        let placed = &mut ws.allowed;

        // Pass 1 — identity skips: a row whose saved basic column is its
        // own `+1` slack is already reduced in the fresh tableau, and
        // (because such a column has its only nonzero entry in that row,
        // and the row is never used as a pivot row) stays reduced through
        // the remaining rebuild pivots. On the Le-heavy DPSS frame LPs
        // this skips most of the rebuild work.
        for (r, &col) in saved.basis.iter().enumerate() {
            if col >= n_struct && tab.basis[r] == col {
                debug_assert_eq!(tab.at(r, col), 1.0);
                placed[r] = true;
            }
        }
        // Pass 2 — pivot the remaining saved columns onto unplaced rows.
        for (r_old, &col) in saved.basis.iter().enumerate() {
            if placed[r_old] && tab.basis[r_old] == col {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (r, &done) in placed.iter().enumerate().take(m) {
                if done {
                    continue;
                }
                let mag = tab.at(r, col).abs();
                if best.is_none_or(|(_, b)| mag > b) {
                    best = Some((r, mag));
                }
            }
            let Some((r, mag)) = best else {
                return WarmOutcome::Fallback;
            };
            if mag < 1e-7 || budget == 0 {
                // Singular for the new coefficients (or pathological budget).
                return WarmOutcome::Fallback;
            }
            budget -= 1;
            log.pivot(tab, r, col, &mut cost);
            tab.eliminate_cost(&mut guide);
            placed[r] = true;
        }
        let record = &mut ws.rebuild;
        record.rows = rows.to_vec();
        record.cols = n_nonart;
        record.basis.clone_from(&saved.basis);
    }
    let budget_after_rebuild = budget;
    let tab = &mut ws.tab;

    // Feasibility restore: dual simplex when the new right-hand side
    // turned the saved basis primal-infeasible.
    if tab.b.iter().any(|&b| b < -1e-7) {
        // The guide row must be dual-feasible; with an unchanged
        // constraint matrix it is exactly the saved solve's optimal
        // reduced costs (all ≥ 0), but a changed matrix can break this.
        if guide.reduced.iter().any(|&r| r < -1e-7) {
            return WarmOutcome::Fallback;
        }
        for g in &mut guide.reduced {
            if *g < 0.0 {
                *g = 0.0;
            }
        }
        match run_dual_phase(tab, &mut guide, &mut cost, &mut budget) {
            Ok(DualOutcome::Feasible) => {}
            // `NoPivot` certifies the constraint system infeasible, but
            // falling back keeps a single source of truth for error
            // classification (the cold path re-derives it).
            Ok(DualOutcome::NoPivot) | Err(_) => return WarmOutcome::Fallback,
        }
    }
    for b in &mut tab.b {
        if *b < 0.0 {
            *b = 0.0;
        }
    }

    ws.allowed.clear();
    ws.allowed.resize(n_nonart, true);
    match run_phase(
        tab,
        &mut cost,
        &ws.allowed,
        &mut budget,
        DEGENERATE_STREAK_LIMIT,
    ) {
        Ok(PhaseOutcome::Optimal) => {}
        Ok(PhaseOutcome::Unbounded) => return WarmOutcome::Unbounded,
        Err(_) => return WarmOutcome::Fallback,
    }
    ws.rebuild.live = budget == budget_after_rebuild;

    // Rebuild and dual pivots count toward the total: real tableau work.
    let pivots_used = p.pivot_budget(m, n_nonart) - budget;
    ws.note_warm();
    let (rows_now, cols_now) = (ws.tab.rows, ws.tab.cols);
    let basis = std::mem::take(&mut ws.tab.basis);
    ws.save_basis(rows_now, cols_now, &basis, phase2_costs);
    ws.tab.basis = basis;
    WarmOutcome::Solved(extract_solution(p, maps, &ws.tab, pivots_used))
}

/// Fills `tab` with the standard-form system: structural terms, slack /
/// surplus columns at `n_struct..`, and (cold path only) artificial
/// columns after the slacks with the phase-1 starting basis.
fn fill_tableau(
    tab: &mut Tableau,
    rows: &[Row],
    m: usize,
    n_struct: usize,
    n_cols: usize,
    with_artificials: bool,
) {
    tab.reset(m, n_cols);
    let n_slack = rows
        .iter()
        .filter(|r| !matches!(r.relation, Relation::Eq))
        .count();
    let mut next_slack = n_struct;
    let mut next_art = n_struct + n_slack;
    for (r, row) in rows.iter().enumerate() {
        for &(j, a) in &row.terms {
            let old = tab.at(r, j);
            tab.set(r, j, old + a);
        }
        tab.b[r] = row.rhs;
        match row.relation {
            Relation::Le => {
                tab.set(r, next_slack, 1.0);
                tab.basis[r] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                tab.set(r, next_slack, -1.0);
                next_slack += 1;
                if with_artificials {
                    tab.set(r, next_art, 1.0);
                    tab.basis[r] = next_art;
                    next_art += 1;
                }
            }
            Relation::Eq => {
                if with_artificials {
                    tab.set(r, next_art, 1.0);
                    tab.basis[r] = next_art;
                    next_art += 1;
                }
            }
        }
    }
}

/// Maps the optimal tableau solution back to model space (bound shifts
/// undone, tolerance drift snapped to bounds).
fn extract_solution(p: &Problem, maps: &[VarMap], tab: &Tableau, pivots_used: usize) -> Solution {
    let y = tab.solution();
    let mut values = Vec::with_capacity(p.vars.len());
    for map in maps {
        let x = match *map {
            VarMap::Shifted { col, lo } => lo + y[col],
            VarMap::Negated { col, up } => up - y[col],
            VarMap::Split { pos, neg } => y[pos] - y[neg],
        };
        values.push(x);
    }
    // Snap to bounds to remove tolerance-level drift.
    for (x, v) in values.iter_mut().zip(&p.vars) {
        if v.lo.is_finite() && *x < v.lo {
            *x = v.lo;
        }
        if v.up.is_finite() && *x > v.up {
            *x = v.up;
        }
        if x.abs() < TOLERANCE {
            *x = 0.0;
        }
    }
    let objective = p.objective_at(&values);
    Solution::new(values, objective, pivots_used)
}

fn push_term(terms: &mut Vec<(usize, f64)>, col: usize, coeff: f64) {
    match terms.iter_mut().find(|(j, _)| *j == col) {
        Some((_, acc)) => *acc += coeff,
        None => terms.push((col, coeff)),
    }
}

/// Compacts the tableau in place to its non-redundant rows and its first
/// `n_nonart` (non-artificial) columns; the artificials are all nonbasic
/// or belong to dropped rows by now. Kept rows ascend and kept columns
/// are a prefix, so every write lands at or before its read.
fn drop_rows_and_artificials(tab: &mut Tableau, redundant: &[bool], n_nonart: usize) {
    let cols = tab.cols;
    let mut kept = 0;
    for (r, &dropped) in redundant.iter().enumerate() {
        if dropped {
            continue;
        }
        debug_assert!(
            tab.basis[r] < n_nonart,
            "kept row must not have an artificial basic"
        );
        tab.a
            .copy_within(r * cols..r * cols + n_nonart, kept * n_nonart);
        tab.b[kept] = tab.b[r];
        tab.basis[kept] = tab.basis[r];
        kept += 1;
    }
    tab.rows = kept;
    tab.cols = n_nonart;
    tab.a.truncate(kept * n_nonart);
    tab.b.truncate(kept);
    tab.basis.truncate(kept);
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn equality_constraints_via_artificials() {
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
    fn free_variable_can_go_negative() {
        // min x s.t. x ≥ −5 via constraint (variable itself free).
        let mut p = Problem::minimize();
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, -5.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), -5.0);
        assert_close(sol.objective(), -5.0);
    }

    #[test]
    fn negated_variable_upper_bound_only() {
        // max x with x ≤ 3 (no lower bound) → 3.
        let mut p = Problem::maximize();
        let x = p.add_var(f64::NEG_INFINITY, 3.0, 1.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 3.0);
        // And min x with an extra floor constraint.
        let mut p = Problem::minimize();
        let x = p.add_var(f64::NEG_INFINITY, 3.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.5).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 1.5);
    }

    #[test]
    fn shifted_negative_variable_bounds() {
        // min x, x ∈ [−2, 7] → −2; max → 7.
        let mut p = Problem::minimize();
        let x = p.add_var(-2.0, 7.0, 1.0).unwrap();
        assert_close(p.solve().unwrap().value(x), -2.0);
        let mut p = Problem::maximize();
        let x = p.add_var(-2.0, 7.0, 1.0).unwrap();
        assert_close(p.solve().unwrap().value(x), 7.0);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn contradictory_equalities_are_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 2.0).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_is_detected() {
        let mut p = Problem::minimize();
        let _x = p.add_var(0.0, f64::INFINITY, -1.0).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn redundant_equalities_are_dropped() {
        // x + y = 4 stated twice; min x + 2y → x=4, y=0.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 4.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // −x ≤ −3 ⇔ x ≥ 3.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, -1.0)], Relation::Le, -3.0).unwrap();
        assert_close(p.solve().unwrap().value(x), 3.0);
    }

    #[test]
    fn diet_problem() {
        // Classic diet: minimize cost of two foods meeting two nutrients.
        // min 0.6a + b s.t. 10a + 4b ≥ 20, 5a + 10b ≥ 30, a,b ≥ 0.
        let mut p = Problem::minimize();
        let a = p.add_var(0.0, f64::INFINITY, 0.6).unwrap();
        let b = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(a, 10.0), (b, 4.0)], Relation::Ge, 20.0)
            .unwrap();
        p.add_constraint(&[(a, 5.0), (b, 10.0)], Relation::Ge, 30.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(sol.values(), 1e-7));
        // Vertex: 10a+4b=20 & 5a+10b=30 → a=1, b=2.5 → cost 3.1.
        assert_close(sol.objective(), 3.1);
    }

    #[test]
    fn degenerate_beale_like_problem_terminates() {
        // A classic cycling-prone LP (Beale's example). Bland fallback must
        // terminate and find the optimum −0.05.
        let mut p = Problem::minimize();
        let x1 = p.add_var(0.0, f64::INFINITY, -0.75).unwrap();
        let x2 = p.add_var(0.0, f64::INFINITY, 150.0).unwrap();
        let x3 = p.add_var(0.0, f64::INFINITY, -0.02).unwrap();
        let x4 = p.add_var(0.0, f64::INFINITY, 6.0).unwrap();
        p.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.objective(), -0.05);
    }

    #[test]
    fn fixed_variable_lo_equals_up() {
        let mut p = Problem::minimize();
        let x = p.add_var(2.5, 2.5, -10.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 2.5);
        assert_close(sol.objective(), -25.0);
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let p = Problem::minimize();
        let sol = p.solve().unwrap();
        assert_eq!(sol.values().len(), 0);
        assert_close(sol.objective(), 0.0);
    }

    #[test]
    fn mixed_relations_one_model() {
        // min 3x + 2y + z
        //  s.t. x + y + z = 10, x − y ≥ 1, z ≤ 4, x,y,z ≥ 0.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 3.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 2.0).unwrap();
        let z = p.add_var(0.0, 4.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Ge, 1.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(sol.values(), 1e-7));
        // Best: maximize z (cheap) then balance x−y≥1: z=4, x+y=6, x−y=1 →
        // x=3.5, y=2.5 → 3·3.5+2·2.5+4 = 19.5.
        assert_close(sol.objective(), 19.5);
    }
}

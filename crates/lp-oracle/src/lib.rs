//! A cold dense two-phase tableau simplex: the test oracle that
//! `dpss-lp`'s factorized kernel is checked against.
//!
//! It shares nothing with the kernel but the [`Problem`] it reads
//! (through [`Problem::variables`] and [`Problem::constraints`]): its own
//! standard form (`min cᵀy` s.t. `Ay = b`, `y ≥ 0`, `b ≥ 0`, with general
//! bounds shifted, negated or split and finite upper bounds as rows), an
//! explicit row-major tableau with full-row Gauss-Jordan pivots, Dantzig
//! pricing with Bland's-rule fallback, and a phase 1 on artificial
//! variables. It keeps no state between solves, so every answer is a
//! cold one; it is sized for test instances, not for production LPs.
//!
//! # Examples
//!
//! ```
//! use dpss_lp::{Problem, Relation, Sense};
//!
//! let mut p = Problem::new(Sense::Minimize);
//! let x = p.add_var(0.0, 10.0, 2.0).unwrap();
//! p.add_constraint(&[(x, 1.0)], Relation::Ge, 4.0).unwrap();
//! let optimum = dpss_lp_oracle::solve(&p).unwrap();
//! assert!((optimum.objective - 8.0).abs() < 1e-9);
//! dpss_lp_oracle::agree(&p, &p.solve()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
// Dense oracle: every tableau index is a row/column below the `rows`/`cols`
// the tableau was sized with, and standard-form columns are minted in the
// same pass that addresses them.
// audit:allow-file(slice-index): tableau indices are bounded by rows/cols by construction; see module note
#![allow(clippy::indexing_slicing)]

use dpss_lp::{LpError, Problem, Relation, Sense, Solution, TOLERANCE};

/// Consecutive degenerate pivots after which pricing switches from
/// Dantzig's rule to Bland's rule, which provably terminates.
const DEGENERATE_STREAK_LIMIT: usize = 24;

/// The oracle's answer: optimal values in model space and the objective
/// in the problem's own sense.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// Optimal value of each variable, in insertion order.
    pub values: Vec<f64>,
    /// Optimal objective.
    pub objective: f64,
}

/// Checks a solver result against the oracle: the same feasibility
/// verdict (error variant) and, on success, objectives equal to `1e-9`
/// relative and a point feasible to `1e-6`.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn agree(p: &Problem, got: &Result<Solution, LpError>) -> Result<(), String> {
    match (got, &solve(p)) {
        (Ok(sol), Ok(want)) => {
            let tol = 1e-9 * (1.0 + want.objective.abs());
            if (sol.objective() - want.objective).abs() > tol {
                return Err(format!(
                    "objective {} vs oracle {}",
                    sol.objective(),
                    want.objective
                ));
            }
            if !p.is_feasible(sol.values(), 1e-6) {
                return Err(format!("point {:?} is infeasible", sol.values()));
            }
            Ok(())
        }
        (Err(a), Err(b)) if std::mem::discriminant(a) == std::mem::discriminant(b) => Ok(()),
        (got, want) => Err(format!("status {got:?} vs oracle {want:?}")),
    }
}

/// How a model variable maps onto non-negative standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lo + y`.
    Shifted { col: usize, lo: f64 },
    /// `x = up − y` (only the upper bound is finite).
    Negated { col: usize, up: f64 },
    /// `x = y⁺ − y⁻` (free).
    Split { pos: usize, neg: usize },
}

/// A standard-form row: structural terms, relation and rhs.
#[derive(Debug, Clone)]
struct Row {
    terms: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

/// Solves `p` cold by the two-phase dense simplex.
///
/// # Errors
///
/// [`LpError::Infeasible`], [`LpError::Unbounded`] or, past a pivot
/// budget of `200·(rows + columns) + 2000`, [`LpError::IterationLimit`].
pub fn solve(p: &Problem) -> Result<Optimum, LpError> {
    // Variables onto non-negative columns.
    let mut maps = Vec::with_capacity(p.num_vars());
    let mut n_struct = 0;
    for (lo, up, _) in p.variables() {
        let map = if lo.is_finite() {
            VarMap::Shifted { col: n_struct, lo }
        } else if up.is_finite() {
            VarMap::Negated { col: n_struct, up }
        } else {
            n_struct += 1;
            VarMap::Split {
                pos: n_struct - 1,
                neg: n_struct,
            }
        };
        n_struct += 1;
        maps.push(map);
    }

    // Constraint rows in column space, then upper-bound rows.
    let mut rows = Vec::new();
    for (terms, relation, rhs) in p.constraints() {
        let mut row = Row {
            terms: Vec::new(),
            relation,
            rhs,
        };
        for &(j, a) in terms {
            match maps[j] {
                VarMap::Shifted { col, lo } => {
                    row.rhs -= a * lo;
                    row.terms.push((col, a));
                }
                VarMap::Negated { col, up } => {
                    row.rhs -= a * up;
                    row.terms.push((col, -a));
                }
                VarMap::Split { pos, neg } => row.terms.extend([(pos, a), (neg, -a)]),
            }
        }
        rows.push(row);
    }
    for ((_, up, _), map) in p.variables().zip(&maps) {
        if let VarMap::Shifted { col, lo } = *map {
            if up.is_finite() {
                rows.push(Row {
                    terms: vec![(col, 1.0)],
                    relation: Relation::Le,
                    rhs: up - lo,
                });
            }
        }
    }
    // Non-negative right-hand sides.
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

    // Layout: structural, slack/surplus, artificial columns.
    let m = rows.len();
    let n_slack = rows.iter().filter(|r| r.relation != Relation::Eq).count();
    let n_nonart = n_struct + n_slack;
    let n_total = n_nonart + rows.iter().filter(|r| r.relation != Relation::Le).count();
    let mut tab = Tableau {
        cols: n_total,
        a: vec![0.0; m * n_total],
        b: vec![0.0; m],
        basis: vec![0; m],
    };
    let (mut slack, mut art) = (n_struct, n_nonart);
    for (r, row) in rows.iter().enumerate() {
        for &(j, a) in &row.terms {
            tab.a[r * n_total + j] += a;
        }
        tab.b[r] = row.rhs;
        if row.relation != Relation::Eq {
            tab.a[r * n_total + slack] = if row.relation == Relation::Le {
                1.0
            } else {
                -1.0
            };
            if row.relation == Relation::Le {
                tab.basis[r] = slack;
            }
            slack += 1;
        }
        if row.relation != Relation::Le {
            tab.a[r * n_total + art] = 1.0;
            tab.basis[r] = art;
            art += 1;
        }
    }

    let mut budget = 200 * (m + n_total) + 2_000;
    // Phase 1: drive the artificials to zero.
    let mut phase1 = vec![0.0; n_total];
    phase1[n_nonart..].fill(1.0);
    let mut cost = CostRow::new(&tab, &phase1);
    if !tab.run(&mut cost, n_total, &mut budget)? {
        return Err(LpError::IterationLimit { pivots: 0 });
    }
    if cost.objective > 1e-7 {
        return Err(LpError::Infeasible);
    }
    // Pivot basic artificials out; rows with no structural entry left are
    // redundant and keep their artificial at zero, which never re-enters.
    for r in 0..m {
        if tab.basis[r] >= n_nonart {
            if let Some(j) = (0..n_nonart).find(|&j| tab.at(r, j).abs() > 1e-7) {
                tab.pivot(r, j, &mut cost);
            }
        }
    }

    // Phase 2 on the real objective; artificials may not enter.
    let sign = match p.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut costs = vec![0.0; n_total];
    for ((_, _, obj), map) in p.variables().zip(&maps) {
        match *map {
            VarMap::Shifted { col, .. } => costs[col] += sign * obj,
            VarMap::Negated { col, .. } => costs[col] -= sign * obj,
            VarMap::Split { pos, neg } => {
                costs[pos] += sign * obj;
                costs[neg] -= sign * obj;
            }
        }
    }
    let mut cost = CostRow::new(&tab, &costs);
    if !tab.run(&mut cost, n_nonart, &mut budget)? {
        return Err(LpError::Unbounded);
    }

    let mut y = vec![0.0; n_total];
    for (r, &col) in tab.basis.iter().enumerate() {
        y[col] = tab.b[r];
    }
    let values: Vec<f64> = maps
        .iter()
        .zip(p.variables())
        .map(|(map, (lo, up, _))| {
            let x = match *map {
                VarMap::Shifted { col, lo } => lo + y[col],
                VarMap::Negated { col, up } => up - y[col],
                VarMap::Split { pos, neg } => y[pos] - y[neg],
            };
            x.clamp(lo, up)
        })
        .collect();
    let objective = p.objective_at(&values);
    Ok(Optimum { values, objective })
}

/// A dense row-major tableau `B⁻¹A | B⁻¹b` with its basis.
struct Tableau {
    cols: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    basis: Vec<usize>,
}

/// Reduced costs and the objective at the current basic solution.
struct CostRow {
    reduced: Vec<f64>,
    objective: f64,
}

impl CostRow {
    /// `c_j − c_Bᵀ(B⁻¹A)_j` for an already basis-reduced tableau.
    fn new(tab: &Tableau, costs: &[f64]) -> Self {
        let mut reduced = costs.to_vec();
        let mut objective = 0.0;
        for (r, &col) in tab.basis.iter().enumerate() {
            let cb = costs[col];
            for (j, red) in reduced.iter_mut().enumerate() {
                *red -= cb * tab.at(r, j);
            }
            objective += cb * tab.b[r];
        }
        for &col in &tab.basis {
            reduced[col] = 0.0;
        }
        CostRow { reduced, objective }
    }
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    /// Gauss-Jordan pivot on `(prow, pcol)` across every row and `cost`.
    fn pivot(&mut self, prow: usize, pcol: usize, cost: &mut CostRow) {
        let cols = self.cols;
        let inv = 1.0 / self.at(prow, pcol);
        for v in &mut self.a[prow * cols..(prow + 1) * cols] {
            *v *= inv;
        }
        self.a[prow * cols + pcol] = 1.0;
        self.b[prow] *= inv;
        for r in 0..self.b.len() {
            let factor = self.at(r, pcol);
            if r == prow || factor == 0.0 {
                continue;
            }
            for j in 0..cols {
                self.a[r * cols + j] -= factor * self.a[prow * cols + j];
            }
            self.a[r * cols + pcol] = 0.0;
            self.b[r] -= factor * self.b[prow];
            if self.b[r].abs() < TOLERANCE {
                self.b[r] = self.b[r].max(0.0);
            }
        }
        let factor = cost.reduced[pcol];
        if factor != 0.0 {
            for j in 0..cols {
                cost.reduced[j] -= factor * self.a[prow * cols + j];
            }
            cost.objective += factor * self.b[prow];
            cost.reduced[pcol] = 0.0;
        }
        self.basis[prow] = pcol;
    }

    /// Primal simplex over the first `allowed` columns; `Ok(false)` when
    /// the objective is unbounded.
    fn run(
        &mut self,
        cost: &mut CostRow,
        allowed: usize,
        budget: &mut usize,
    ) -> Result<bool, LpError> {
        let mut streak = 0;
        loop {
            let entering = if streak >= DEGENERATE_STREAK_LIMIT {
                (0..allowed).find(|&j| cost.reduced[j] < -TOLERANCE)
            } else {
                (0..allowed)
                    .filter(|&j| cost.reduced[j] < -TOLERANCE)
                    .min_by(|&i, &j| cost.reduced[i].total_cmp(&cost.reduced[j]))
            };
            let Some(pcol) = entering else {
                return Ok(true);
            };
            // Minimum ratio, ties to the lowest basic column.
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..self.b.len() {
                let a = self.at(r, pcol);
                if a <= TOLERANCE {
                    continue;
                }
                let ratio = self.b[r] / a;
                let better = leaving.is_none_or(|(br, best)| {
                    ratio < best - TOLERANCE
                        || ((ratio - best).abs() <= TOLERANCE && self.basis[r] < self.basis[br])
                });
                if better {
                    leaving = Some((r, ratio));
                }
            }
            let Some((prow, _)) = leaving else {
                return Ok(false);
            };
            if *budget == 0 {
                return Err(LpError::IterationLimit { pivots: 0 });
            }
            *budget -= 1;
            streak = if self.b[prow] <= TOLERANCE {
                streak + 1
            } else {
                0
            };
            self.pivot(prow, pcol, cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let o = solve(&p).unwrap();
        assert_close(o.values[0], 6.0);
        assert_close(o.values[1], 4.0);
        assert_close(o.objective, 24.0);
    }

    #[test]
    fn general_bounds_map_back() {
        // Shifted variables below zero: min x − y + z with x ∈ [−20, ∞)
        // and x ≥ −5 by a row, y ∈ [−9, 3], z ∈ [−2, 7].
        let mut p = Problem::minimize();
        let x = p.add_var(-20.0, f64::INFINITY, 1.0).unwrap();
        let y = p.add_var(-9.0, 3.0, -1.0).unwrap();
        p.add_var(-2.0, 7.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, -5.0).unwrap();
        p.add_constraint(&[(y, 1.0)], Relation::Ge, -1.0).unwrap();
        let o = solve(&p).unwrap();
        assert_eq!(o.values, vec![-5.0, 3.0, -2.0]);
        assert_close(o.objective, -10.0);
    }

    #[test]
    fn verdicts() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert!(matches!(solve(&p), Err(LpError::Infeasible)));
        let mut p = Problem::minimize();
        p.add_var(0.0, f64::INFINITY, -1.0).unwrap();
        assert!(matches!(solve(&p), Err(LpError::Unbounded)));
        // A redundant equality keeps its artificial basic at zero.
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        let y = p.add_var(0.0, f64::INFINITY, 2.0).unwrap();
        for _ in 0..2 {
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
                .unwrap();
        }
        assert_close(solve(&p).unwrap().objective, 4.0);
    }

    #[test]
    fn beale_cycling_lp_terminates() {
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
        assert_close(solve(&p).unwrap().objective, -0.05);
    }

    #[test]
    fn agree_reports_disagreements() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 10.0, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 4.0).unwrap();
        assert!(agree(&p, &p.solve()).is_ok());
        assert!(agree(&p, &Err(LpError::Infeasible)).is_err());
    }
}

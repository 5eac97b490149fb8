use std::sync::atomic::{AtomicU64, Ordering};

use crate::{LpError, Solution};

/// The last structure id handed out. Process-wide, so no two problems
/// that differ in structure ever share an id, whichever workspace they
/// meet.
static LAST_STRUCTURE: AtomicU64 = AtomicU64::new(0);

/// A structure id no problem has held before. `Relaxed` suffices: the
/// id publishes no other data, and `fetch_add` alone makes it unique.
fn next_structure() -> u64 {
    LAST_STRUCTURE.fetch_add(1, Ordering::Relaxed) + 1
}

/// Optimization direction of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective (the DPSS cost problems are minimizations).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint's left-hand side to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

/// Opaque handle to a decision variable of a [`Problem`].
///
/// Handles are only valid for the problem that created them; using a handle
/// with another problem yields [`LpError::UnknownVariable`] (or refers to an
/// unrelated variable if the index happens to exist — handles are plain
/// indices, so keep problems separate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variable(pub(crate) usize);

impl Variable {
    /// Index of this variable within its problem, in insertion order.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Opaque handle to a constraint row of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Index of this constraint within its problem, in insertion order.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub(crate) lo: f64,
    pub(crate) up: f64,
    pub(crate) obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    /// `(variable index, coefficient)`, deduplicated by summation.
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A linear program under construction.
///
/// Build a problem by adding box-bounded variables with objective
/// coefficients ([`Problem::add_var`]) and linear constraints
/// ([`Problem::add_constraint`]), then call [`Problem::solve`].
///
/// # Examples
///
/// The paper's `P4` (long-term-ahead purchasing) is a one-variable LP:
/// minimize `g·w` for a signed weight `w` subject to a demand cover and the
/// grid cap:
///
/// ```
/// use dpss_lp::{Problem, Relation, Sense};
///
/// # fn main() -> Result<(), dpss_lp::LpError> {
/// let (w, need, cap) = (-3.0, 1.2, 2.0);
/// let mut p = Problem::new(Sense::Minimize);
/// let g = p.add_var(0.0, cap, w)?;
/// p.add_constraint(&[(g, 1.0)], Relation::Ge, need)?;
/// let sol = p.solve()?;
/// // Negative weight → buy as much as the cap allows.
/// assert!((sol.value(g) - cap).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
    /// Names the variable and constraint structure: redrawn by every
    /// [`add_var`](Self::add_var) and [`add_constraint`](Self::add_constraint),
    /// kept by the value edits and by a clone, so two problems with the
    /// same id have the same rows, terms and relations (`0`: empty). The
    /// kernel reuses its matrix image while the id holds; it never
    /// decides what a solve returns.
    pub(crate) structure: u64,
}

impl Problem {
    /// Creates an empty problem with the given optimization sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            ..Problem::default()
        }
    }

    /// Convenience constructor for a minimization problem.
    #[must_use]
    pub fn minimize() -> Self {
        Problem::new(Sense::Minimize)
    }

    /// Convenience constructor for a maximization problem.
    #[must_use]
    pub fn maximize() -> Self {
        Problem::new(Sense::Maximize)
    }

    /// Adds a decision variable with bounds `[lo, up]` and objective
    /// coefficient `obj`, returning its handle.
    ///
    /// The lower bound must be finite: every DPSS quantity has a floor (a
    /// purchase, flow, waste or backlog at `0`, a battery level at its
    /// minimum). The upper bound may be `f64::INFINITY`. A variable with
    /// no floor can be written as the difference of two that have one.
    ///
    /// # Errors
    ///
    /// * [`LpError::NotFinite`] if `obj` or `lo` is not finite, or `up` is
    ///   NaN;
    /// * [`LpError::EmptyBounds`] if `lo > up`.
    pub fn add_var(&mut self, lo: f64, up: f64, obj: f64) -> Result<Variable, LpError> {
        if !obj.is_finite() {
            return Err(LpError::NotFinite {
                what: "objective coefficient",
            });
        }
        check_bounds(lo, up, self.vars.len())?;
        let idx = self.vars.len();
        self.vars.push(VarData { lo, up, obj });
        self.structure = next_structure();
        Ok(Variable(idx))
    }

    /// Adds the linear constraint `Σ coeff·var REL rhs`.
    ///
    /// Repeated variables in `terms` are summed. Terms with zero coefficient
    /// are kept (harmless) so callers can build rows mechanically.
    ///
    /// # Errors
    ///
    /// * [`LpError::UnknownVariable`] if a handle does not belong here;
    /// * [`LpError::NotFinite`] if a coefficient or `rhs` is not finite.
    pub fn add_constraint(
        &mut self,
        terms: &[(Variable, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<ConstraintId, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NotFinite { what: "rhs" });
        }
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            if v.0 >= self.vars.len() {
                return Err(LpError::UnknownVariable { var: v.0 });
            }
            if !c.is_finite() {
                return Err(LpError::NotFinite {
                    what: "constraint coefficient",
                });
            }
            match dense.iter_mut().find(|(j, _)| *j == v.0) {
                Some((_, acc)) => *acc += c,
                None => dense.push((v.0, c)),
            }
        }
        let idx = self.constraints.len();
        self.constraints.push(ConstraintData {
            terms: dense,
            relation,
            rhs,
        });
        self.structure = next_structure();
        Ok(ConstraintId(idx))
    }

    /// Overrides the objective coefficient of an existing variable.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownVariable`] or [`LpError::NotFinite`].
    #[allow(clippy::indexing_slicing)]
    pub fn set_objective(&mut self, var: Variable, obj: f64) -> Result<(), LpError> {
        if var.0 >= self.vars.len() {
            return Err(LpError::UnknownVariable { var: var.0 });
        }
        if !obj.is_finite() {
            return Err(LpError::NotFinite {
                what: "objective coefficient",
            });
        }
        // audit:allow(slice-index): guarded by the UnknownVariable check above
        self.vars[var.0].obj = obj;
        Ok(())
    }

    /// Replaces the bounds of an existing variable — the re-solve edit
    /// behind rolling-horizon cap updates (e.g. tightening an interconnect
    /// pair cap between frames). The problem's shape is unchanged, so a
    /// held [`LpWorkspace`](crate::LpWorkspace) basis stays eligible for a
    /// warm start on the next [`solve_with`](Self::solve_with). The
    /// bounds follow [`add_var`](Self::add_var)'s rule: a finite lower
    /// bound, an upper bound that may be `f64::INFINITY`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownVariable`], [`LpError::NotFinite`] (a
    /// lower bound that is not finite, or a NaN upper bound) or
    /// [`LpError::EmptyBounds`] if `lo > up`; the problem is then
    /// unchanged.
    #[allow(clippy::indexing_slicing)]
    pub fn set_bounds(&mut self, var: Variable, lo: f64, up: f64) -> Result<(), LpError> {
        if var.0 >= self.vars.len() {
            return Err(LpError::UnknownVariable { var: var.0 });
        }
        check_bounds(lo, up, var.0)?;
        // audit:allow(slice-index): guarded by the UnknownVariable check above
        self.vars[var.0].lo = lo;
        // audit:allow(slice-index): guarded by the UnknownVariable check above
        self.vars[var.0].up = up;
        Ok(())
    }

    /// Replaces the right-hand side of an existing constraint (the other
    /// half of a frame-to-frame re-solve edit: demands and availabilities
    /// move, the constraint structure does not).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownConstraint`] or [`LpError::NotFinite`].
    #[allow(clippy::indexing_slicing)]
    pub fn set_rhs(&mut self, constraint: ConstraintId, rhs: f64) -> Result<(), LpError> {
        if constraint.0 >= self.constraints.len() {
            return Err(LpError::UnknownConstraint {
                constraint: constraint.0,
            });
        }
        if !rhs.is_finite() {
            return Err(LpError::NotFinite { what: "rhs" });
        }
        // audit:allow(slice-index): guarded by the UnknownConstraint check above
        self.constraints[constraint.0].rhs = rhs;
        Ok(())
    }

    /// Number of variables added so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints added so far.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Optimization sense of this problem.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The variables' `(lo, up, obj)` in insertion order — the data a
    /// checker outside this crate needs to solve or verify the problem
    /// independently.
    pub fn variables(&self) -> impl ExactSizeIterator<Item = (f64, f64, f64)> + '_ {
        self.vars.iter().map(|v| (v.lo, v.up, v.obj))
    }

    /// The constraints' `(terms, relation, rhs)` in insertion order, each
    /// term a `(variable index, coefficient)` pair with repeated
    /// variables summed.
    pub fn constraints(
        &self,
    ) -> impl ExactSizeIterator<Item = (&[(usize, f64)], Relation, f64)> + '_ {
        self.constraints
            .iter()
            .map(|c| (c.terms.as_slice(), c.relation, c.rhs))
    }

    /// Solves the problem on the factorized revised simplex (see the
    /// crate docs).
    ///
    /// Allocates a fresh [`LpWorkspace`](crate::LpWorkspace) per call; hot
    /// loops that solve many structurally similar problems should hold one
    /// workspace and call [`solve_with`](Self::solve_with) instead, which
    /// reuses buffers and warm-starts from the previous optimal basis.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] if no point satisfies all constraints and
    ///   bounds;
    /// * [`LpError::Unbounded`] if the objective can be improved without
    ///   limit;
    /// * [`LpError::IterationLimit`] if the pivot budget is exhausted.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&mut crate::LpWorkspace::new())
    }

    /// Solves the problem reusing `ws`'s buffers and warm-start basis.
    ///
    /// Semantically identical to [`solve`](Self::solve): the returned
    /// objective agrees to [`TOLERANCE`](crate::TOLERANCE) and the
    /// feasibility verdict is the same whatever the workspace's history
    /// (a stale basis is restored or rejected, see the kernel docs). The
    /// optimal *vertex* may differ on degenerate problems; only the work
    /// done to get there changes. The workspace caches the final basis,
    /// so re-solves after [`set_objective`](Self::set_objective) /
    /// [`set_bounds`](Self::set_bounds) / [`set_rhs`](Self::set_rhs)
    /// edits resume from the previous optimum.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](Self::solve).
    pub fn solve_with(&self, ws: &mut crate::LpWorkspace) -> Result<Solution, LpError> {
        crate::network::solve(self, ws)
    }

    /// Evaluates the objective at an arbitrary assignment (useful in tests
    /// and for verifying candidate points).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_vars()`.
    #[must_use]
    pub fn objective_at(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.vars.len(), "assignment length mismatch");
        self.vars.iter().zip(values).map(|(v, x)| v.obj * x).sum()
    }

    /// Checks whether an assignment satisfies all bounds and constraints
    /// within tolerance `tol` (useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_vars()`.
    #[must_use]
    #[allow(clippy::indexing_slicing)]
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        assert_eq!(values.len(), self.vars.len(), "assignment length mismatch");
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lo - tol || x > v.up + tol {
                return false;
            }
        }
        for c in &self.constraints {
            // audit:allow(slice-index): term indices were validated by add_constraint; length asserted above
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * values[j]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// The bound rule of [`Problem::add_var`] and [`Problem::set_bounds`]
/// for variable `var`: a finite `lo`, an `up` that is not NaN, `lo ≤ up`.
fn check_bounds(lo: f64, up: f64, var: usize) -> Result<(), LpError> {
    if !lo.is_finite() {
        return Err(LpError::NotFinite {
            what: "lower bound",
        });
    }
    if up.is_nan() {
        return Err(LpError::NotFinite { what: "bound" });
    }
    if lo > up {
        return Err(LpError::EmptyBounds { var });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_validates_input() {
        let mut p = Problem::minimize();
        assert!(matches!(
            p.add_var(0.0, 1.0, f64::NAN),
            Err(LpError::NotFinite { .. })
        ));
        assert!(matches!(
            p.add_var(f64::NAN, 1.0, 0.0),
            Err(LpError::NotFinite { .. })
        ));
        assert!(matches!(
            p.add_var(2.0, 1.0, 0.0),
            Err(LpError::EmptyBounds { var: 0 })
        ));
        assert!(p.add_var(0.0, f64::INFINITY, 1.0).is_ok());
        assert_eq!(p.num_vars(), 1);
    }

    #[test]
    fn a_lower_bound_that_is_not_finite_is_refused_and_changes_nothing() {
        let mut p = Problem::minimize();
        let x = p.add_var(-1.0, 2.0, 1.0).unwrap();
        let (id, bounds) = (p.structure, p.variables().collect::<Vec<_>>());
        for lo in [f64::NEG_INFINITY, f64::INFINITY] {
            for up in [2.0, f64::INFINITY] {
                assert_eq!(
                    p.add_var(lo, up, 0.0),
                    Err(LpError::NotFinite {
                        what: "lower bound"
                    })
                );
                assert_eq!(
                    p.set_bounds(x, lo, up),
                    Err(LpError::NotFinite {
                        what: "lower bound"
                    })
                );
            }
        }
        assert_eq!(p.num_vars(), 1);
        assert_eq!(p.variables().collect::<Vec<_>>(), bounds);
        assert_eq!(p.structure, id);
        // An infinite upper bound stays allowed.
        p.set_bounds(x, -1.0, f64::INFINITY).unwrap();
        assert!(p.add_var(0.0, f64::INFINITY, 0.0).is_ok());
    }

    #[test]
    fn add_constraint_validates_input() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 1.0, 1.0).unwrap();
        assert!(matches!(
            p.add_constraint(&[(Variable(7), 1.0)], Relation::Le, 1.0),
            Err(LpError::UnknownVariable { var: 7 })
        ));
        assert!(matches!(
            p.add_constraint(&[(x, f64::INFINITY)], Relation::Le, 1.0),
            Err(LpError::NotFinite { .. })
        ));
        assert!(matches!(
            p.add_constraint(&[(x, 1.0)], Relation::Le, f64::NAN),
            Err(LpError::NotFinite { .. })
        ));
        let id = p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        assert_eq!(id.index(), 0);
        assert_eq!(p.num_constraints(), 1);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 10.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Ge, 6.0)
            .unwrap();
        // 3x >= 6 → x >= 2.
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn set_objective_replaces_coefficient() {
        let mut p = Problem::minimize();
        let x = p.add_var(1.0, 2.0, 1.0).unwrap();
        p.set_objective(x, -1.0).unwrap();
        let sol = p.solve().unwrap();
        // Minimizing −x drives x to its upper bound.
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!(p.set_objective(Variable(9), 1.0).is_err());
        assert!(p.set_objective(x, f64::NAN).is_err());
    }

    #[test]
    fn set_bounds_replaces_and_validates() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 5.0, 1.0).unwrap();
        p.set_bounds(x, 2.0, 3.0).unwrap();
        let sol = p.solve().unwrap();
        // Minimizing x within the tightened box lands on the new floor.
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!(matches!(
            p.set_bounds(Variable(9), 0.0, 1.0),
            Err(LpError::UnknownVariable { var: 9 })
        ));
        assert!(matches!(
            p.set_bounds(x, f64::NAN, 1.0),
            Err(LpError::NotFinite { .. })
        ));
        assert!(matches!(
            p.set_bounds(x, 2.0, 1.0),
            Err(LpError::EmptyBounds { var: 0 })
        ));
    }

    #[test]
    fn set_rhs_replaces_and_validates() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 10.0, 1.0).unwrap();
        let c = p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0).unwrap();
        p.set_rhs(c, 4.0).unwrap();
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-9);
        assert!(matches!(
            p.set_rhs(ConstraintId(3), 1.0),
            Err(LpError::UnknownConstraint { constraint: 3 })
        ));
        assert!(matches!(
            p.set_rhs(c, f64::INFINITY),
            Err(LpError::NotFinite { .. })
        ));
    }

    #[test]
    fn structure_ids_follow_adds_not_edits() {
        let mut p = Problem::minimize();
        assert_eq!(p.structure, 0);
        let x = p.add_var(0.0, 5.0, 1.0).unwrap();
        let c = p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0).unwrap();
        let id = p.structure;
        assert_ne!(id, 0);
        p.set_objective(x, 2.0).unwrap();
        p.set_bounds(x, -1.0, 3.0).unwrap();
        p.set_rhs(c, -1.0).unwrap();
        assert_eq!(p.structure, id);
        // A clone shares the id until it grows a row of its own.
        let mut q = p.clone();
        assert_eq!(q.structure, id);
        q.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        assert_ne!(q.structure, id);
        assert_eq!(p.structure, id);
    }

    #[test]
    fn introspection_helpers() {
        let mut p = Problem::maximize();
        p.add_var(0.0, 1.0, 2.0).unwrap();
        assert_eq!(p.sense(), Sense::Maximize);
        assert_eq!(p.objective_at(&[3.0]), 6.0);
        assert!(p.is_feasible(&[0.5], 1e-9));
        assert!(!p.is_feasible(&[1.5], 1e-9));
    }

    #[test]
    fn feasibility_checks_all_relations() {
        let mut p = Problem::minimize();
        let x = p.add_var(-10.0, f64::INFINITY, 0.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 2.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, -2.0).unwrap();
        p.add_constraint(&[(x, 2.0)], Relation::Eq, 2.0).unwrap();
        assert!(p.is_feasible(&[1.0], 1e-9));
        assert!(!p.is_feasible(&[0.0], 1e-9)); // violates Eq
        assert!(!p.is_feasible(&[3.0], 1e-9)); // violates Le and Eq
    }
}

use std::fmt;

use crate::model::Variable;

/// An optimal solution returned by [`Problem::solve`](crate::Problem::solve).
///
/// Values are reported in the original model space (bounds applied, shifts
/// undone) and the objective in the original optimization sense.
///
/// # Examples
///
/// ```
/// use dpss_lp::{Problem, Relation, Sense};
///
/// # fn main() -> Result<(), dpss_lp::LpError> {
/// let mut p = Problem::new(Sense::Minimize);
/// let x = p.add_var(1.0, 5.0, 2.0)?;
/// let sol = p.solve()?;
/// assert_eq!(sol.value(x), 1.0);
/// assert_eq!(sol.objective(), 2.0);
/// assert_eq!(sol.values(), &[1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    pivots: usize,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, objective: f64, pivots: usize) -> Self {
        Solution {
            values,
            objective,
            pivots,
        }
    }

    /// Optimal value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem (index out of
    /// range).
    #[must_use]
    #[allow(clippy::indexing_slicing)]
    pub fn value(&self, var: Variable) -> f64 {
        // audit:allow(slice-index): documented # Panics contract for foreign Variable ids
        self.values[var.index()]
    }

    /// Optimal values of all variables, in insertion order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the solution, handing its value buffer back (the
    /// recycling path behind [`LpWorkspace::recycle`]).
    ///
    /// [`LpWorkspace::recycle`]: crate::LpWorkspace::recycle
    pub(crate) fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Optimal objective value in the problem's original sense.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of simplex pivots spent by the dual restore and the primal
    /// simplex together (diagnostic; useful for performance regressions).
    #[must_use]
    pub fn pivots(&self) -> usize {
        self.pivots
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "objective {:.6} at {:?}", self.objective, self.values)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Problem, Relation};

    #[test]
    fn accessors_and_display() {
        let mut p = Problem::minimize();
        let x = p.add_var(0.0, 10.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 4.0).unwrap();
        let sol = p.solve().unwrap();
        assert_eq!(sol.value(x), 4.0);
        assert_eq!(sol.values().len(), 1);
        assert!(sol.pivots() > 0, "a Ge row needs at least one pivot");
        let shown = sol.to_string();
        assert!(shown.contains("objective"), "display: {shown}");
    }

    #[test]
    #[should_panic]
    fn foreign_variable_panics() {
        let mut p = Problem::minimize();
        p.add_var(0.0, 1.0, 1.0).unwrap();
        let sol = p.solve().unwrap();
        let mut other = Problem::minimize();
        other.add_var(0.0, 1.0, 0.0).unwrap();
        let foreign = other.add_var(0.0, 1.0, 0.0).unwrap();
        let _ = sol.value(foreign);
    }
}

//! A small linear-programming substrate (serde is its only dependency,
//! for checkpointable warm-start bases).
//!
//! The SmartDPSS paper solves all of its optimization problems — the offline
//! benchmark `P2` and the online subproblems `P4`/`P5` — with "classical
//! linear programming approaches, e.g., \[the\] simplex method" (§IV-B; the
//! authors used Matlab's `linprog`). The Rust ecosystem has no mature pure
//! LP crate suitable for this workspace's offline build, so this crate
//! implements the substrate from scratch:
//!
//! * [`Problem`] — a model builder with named, box-bounded variables and
//!   `≤ / ≥ / =` linear constraints in either optimization [`Sense`];
//! * a **two-phase dense simplex** solver (Dantzig pricing with an automatic
//!   fallback to Bland's rule to guarantee termination on degenerate
//!   problems) for general-form LPs such as the per-frame `P2` plan
//!   ([`Problem::solve_with`]);
//! * a **factorized sparse revised simplex** for packing-form network LPs
//!   (the fleet settlement, dispatch and routing flows), whose basis lives
//!   in a product-form eta file and whose per-pivot work follows the
//!   nonzeros ([`Problem::solve_network_with`]);
//! * [`Solution`] — optimal variable values and objective, mapped back to
//!   the original model space.
//!
//! Both kernels warm-start from an [`LpWorkspace`]'s saved basis and are
//! exact up to floating-point tolerance and deterministic.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, `x, y ≥ 0`
//! (optimum `x = 4, y = 0`, objective `12`):
//!
//! ```
//! use dpss_lp::{Problem, Relation, Sense};
//!
//! # fn main() -> Result<(), dpss_lp::LpError> {
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY, 3.0)?;
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0)?;
//! p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)?;
//! p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0)?;
//! let sol = p.solve()?;
//! assert!((sol.objective() - 12.0).abs() < 1e-9);
//! assert!((sol.value(x) - 4.0).abs() < 1e-9);
//! assert!(sol.value(y).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod basis;
mod error;
mod factor;
mod model;
mod network;
mod simplex;
mod solution;
mod standard;
mod workspace;

pub use basis::{BasisSnapshot, DenseBasisSnapshot, NetworkBasisSnapshot};
pub use error::LpError;
pub use model::{ConstraintId, Problem, Relation, Sense, Variable};
pub use solution::Solution;
pub use workspace::{LpWorkspace, SolverStats};

/// Absolute feasibility/optimality tolerance used throughout the solver.
pub const TOLERANCE: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke_minimize() {
        // min x + y  s.t.  x + y >= 2, x,y >= 0 → objective 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0).unwrap();
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 2.0).abs() < 1e-9);
    }
}

//! The portable image of a workspace's warm-start basis.
//!
//! Long-running services that checkpoint mid-stream need to carry an
//! [`LpWorkspace`](crate::LpWorkspace)'s saved basis across a process
//! restart, or the first solve after a resume runs cold and, on
//! degenerate problems, may land on a *different optimal vertex* than
//! the uninterrupted run would have — breaking byte-for-byte resume
//! equivalence. [`BasisSnapshot`] is the serializable mirror: export
//! with [`LpWorkspace::export_basis`](crate::LpWorkspace::export_basis),
//! re-install with
//! [`LpWorkspace::import_basis`](crate::LpWorkspace::import_basis).
//!
//! # Examples
//!
//! ```
//! use dpss_lp::{LpWorkspace, Problem, Relation, Sense};
//!
//! # fn main() -> Result<(), dpss_lp::LpError> {
//! let mut ws = LpWorkspace::new();
//! let mut p = Problem::new(Sense::Minimize);
//! let g = p.add_var(0.0, 2.0, 40.0)?;
//! p.add_constraint(&[(g, 1.0)], Relation::Ge, 1.0)?;
//! p.solve_with(&mut ws)?;
//!
//! // Checkpoint, "restart", restore: the next solve starts warm.
//! let snapshot = ws.export_basis();
//! let mut fresh = LpWorkspace::new();
//! fresh.import_basis(snapshot.as_ref())?;
//! p.solve_with(&mut fresh)?;
//! assert_eq!(fresh.warm_solves(), 1);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::error::LpError;
use crate::workspace::LpWorkspace;

/// Serializable image of a workspace's saved basis.
///
/// Only the combinatorial state travels — the basis columns and the
/// nonbasic bound statuses, over the kernel's columns (one per model
/// variable, then one slack per row). The
/// factorization is deliberately absent: the kernel rebuilds it
/// deterministically from the problem columns on the next warm install,
/// so snapshots stay small and a restored workspace continues
/// bit-identically to its donor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasisSnapshot {
    /// Structural column count the basis was built for.
    pub n: usize,
    /// Constraint row count the basis was built for.
    pub m: usize,
    /// Basic column per row, each `< n + m`.
    pub basis: Vec<usize>,
    /// Nonbasic-at-upper-bound flags, one per column (`n + m`).
    pub at_upper: Vec<bool>,
}

impl LpWorkspace {
    /// Exports the saved basis as a serializable snapshot (`None` when
    /// no solve has succeeded since the workspace was created or
    /// cleared). The workspace is unchanged.
    #[must_use]
    pub fn export_basis(&self) -> Option<BasisSnapshot> {
        self.saved.live.then(|| BasisSnapshot {
            n: self.saved.n,
            m: self.saved.m,
            basis: self.saved.basis.clone(),
            at_upper: self.saved.at_upper.clone(),
        })
    }

    /// Replaces the workspace's saved basis with the snapshot's, after
    /// validating its internal consistency; `None` clears it. So
    /// `import_basis(other.export_basis().as_ref())` always leaves this
    /// workspace warm-starting exactly like `other`.
    ///
    /// A snapshot is untrusted input: one that passes these checks but
    /// does not fit the next problem (a singular basis, or a column held
    /// at an upper bound the problem does not have) is rejected by that
    /// solve, which then runs cold.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidBasis`] if the snapshot's lengths disagree with
    /// its declared shape, an index is out of range, or a slack is
    /// flagged at its upper bound. The workspace is left unchanged on
    /// error.
    pub fn import_basis(&mut self, snapshot: Option<&BasisSnapshot>) -> Result<(), LpError> {
        let Some(snapshot) = snapshot else {
            self.clear_basis();
            return Ok(());
        };
        validate(snapshot)?;
        let saved = &mut self.saved;
        saved.live = true;
        saved.n = snapshot.n;
        saved.m = snapshot.m;
        saved.basis.clear();
        saved.basis.extend_from_slice(&snapshot.basis);
        saved.at_upper.clear();
        saved.at_upper.extend_from_slice(&snapshot.at_upper);
        Ok(())
    }
}

fn validate(s: &BasisSnapshot) -> Result<(), LpError> {
    let cols = s.n + s.m;
    if s.basis.len() != s.m {
        return Err(LpError::InvalidBasis {
            what: "basis length must equal the declared row count",
        });
    }
    if s.at_upper.len() != cols {
        return Err(LpError::InvalidBasis {
            what: "at-upper flags must cover every column",
        });
    }
    if s.basis.iter().any(|&b| b >= cols) {
        return Err(LpError::InvalidBasis {
            what: "basis entry out of column range",
        });
    }
    if s.at_upper.iter().skip(s.n).any(|&up| up) {
        return Err(LpError::InvalidBasis {
            what: "slack columns never rest at an upper bound",
        });
    }
    Ok(())
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

    fn packing_lp(cap: f64) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 3.0, -2.0).unwrap();
        let y = p.add_var(0.0, 3.0, -1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, cap)
            .unwrap();
        p
    }

    #[test]
    fn fresh_workspace_exports_no_snapshot() {
        assert_eq!(LpWorkspace::new().export_basis(), None);
    }

    #[test]
    fn roundtrip_restores_the_warm_path() {
        for (first, second) in [
            (cover_lp(1.0, 40.0), cover_lp(2.0, 45.0)),
            (packing_lp(2.0), packing_lp(2.5)),
        ] {
            let mut ws = LpWorkspace::new();
            first.solve_with(&mut ws).unwrap();
            let snap = ws.export_basis();
            assert!(snap.is_some());

            // A fresh workspace with the imported basis solves warm, and
            // the solution matches the donor workspace's continuation
            // exactly.
            let mut fresh = LpWorkspace::new();
            fresh.import_basis(snap.as_ref()).unwrap();
            let a = second.solve_with(&mut ws).unwrap();
            let b = second.solve_with(&mut fresh).unwrap();
            assert_eq!(a.objective().to_bits(), b.objective().to_bits());
            assert_eq!((fresh.warm_solves(), fresh.cold_solves()), (1, 0));
        }
    }

    #[test]
    fn importing_no_snapshot_clears_the_saved_basis() {
        let mut ws = LpWorkspace::new();
        cover_lp(1.0, 40.0).solve_with(&mut ws).unwrap();
        ws.import_basis(None).unwrap();
        cover_lp(1.5, 40.0).solve_with(&mut ws).unwrap();
        assert_eq!(ws.cold_solves(), 2);
        assert_eq!(ws.warm_solves(), 0);
    }

    #[test]
    fn malformed_snapshots_are_rejected_and_leave_the_workspace_alone() {
        let mut ws = LpWorkspace::new();
        packing_lp(2.0).solve_with(&mut ws).unwrap();
        let good = ws.export_basis().unwrap();

        let mut bad = good.clone();
        bad.at_upper.pop();
        assert!(ws.import_basis(Some(&bad)).is_err());

        let mut bad = good.clone();
        bad.basis.push(0);
        assert!(ws.import_basis(Some(&bad)).is_err());

        let mut bad = good;
        bad.basis[0] = bad.n + bad.m;
        assert!(matches!(
            ws.import_basis(Some(&bad)),
            Err(LpError::InvalidBasis { .. })
        ));

        // The failed imports above must not have clobbered the basis.
        packing_lp(2.5).solve_with(&mut ws).unwrap();
        assert_eq!(ws.warm_solves(), 1);
    }

    #[test]
    fn a_slack_flagged_at_upper_is_rejected() {
        // max x + y  s.t.  x + y ≤ 4, x ≤ 5, x, y ∈ [0, 5]. Slacks are
        // unbounded above; installed, a slack "at upper" misleads pricing
        // into x = y = 5 (objective 10), past the first row.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 5.0, 1.0).unwrap();
        let y = p.add_var(0.0, 5.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 5.0).unwrap();
        let mut ws = LpWorkspace::new();
        let cold = p.solve_with(&mut ws).unwrap();
        assert!((cold.objective() - 4.0).abs() < 1e-9);
        let bad = BasisSnapshot {
            n: 2,
            m: 2,
            basis: vec![0, 3],
            at_upper: vec![false, false, true, false],
        };
        assert!(matches!(
            ws.import_basis(Some(&bad)),
            Err(LpError::InvalidBasis { .. })
        ));
        // The workspace kept its own basis and still solves warm to 4.
        let warm = p.solve_with(&mut ws).unwrap();
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
        assert_eq!((ws.cold_solves(), ws.warm_solves()), (1, 1));
    }
}

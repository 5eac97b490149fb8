//! Portable images of a workspace's warm-start bases.
//!
//! A [`LpWorkspace`](crate::LpWorkspace) carries up to two saved bases —
//! one for the dense two-phase path, one for the network (packing-form)
//! path. Long-running services that checkpoint mid-stream need to carry
//! those bases across a process restart, or the first solve after a
//! resume runs cold and, on degenerate problems, may land on a
//! *different optimal vertex* than the uninterrupted run would have —
//! breaking byte-for-byte resume equivalence. [`BasisSnapshot`] is the
//! serializable mirror: export with
//! [`LpWorkspace::export_basis`](crate::LpWorkspace::export_basis),
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
//! fresh.import_basis(&snapshot)?;
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::error::LpError;
use crate::workspace::{LpWorkspace, SavedBasis};

/// Serializable image of the dense-path saved basis (see
/// [`LpWorkspace`]'s module docs for the warm-start story).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseBasisSnapshot {
    /// Constraint rows of the phase-2 system the basis belongs to.
    pub rows: usize,
    /// Non-artificial columns (structural + slack) of that system.
    pub cols: usize,
    /// Basic column per row, all `< cols`.
    pub basis: Vec<usize>,
    /// The phase-2 objective the basis is optimal for.
    pub costs: Vec<f64>,
}

/// Serializable image of the network-path saved basis.
///
/// Only the combinatorial state travels — the basis columns and the
/// nonbasic bound statuses. The factorization is deliberately absent:
/// the kernel rebuilds it deterministically from the problem columns on
/// the next warm install, so snapshots stay small and a restored
/// workspace continues bit-identically to its donor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkBasisSnapshot {
    /// Structural variable count the basis was built for.
    pub n: usize,
    /// Constraint row count the basis was built for.
    pub m: usize,
    /// Basic column per row, each `< n + m`.
    pub basis: Vec<usize>,
    /// Nonbasic-at-upper-bound flags, one per column (`n + m`).
    pub at_upper: Vec<bool>,
}

/// Both saved bases of one workspace, either of which may be absent
/// (a fresh workspace exports an all-`None` snapshot; importing one is
/// a no-op that leaves the next solve cold).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BasisSnapshot {
    /// Dense-path basis, if a dense solve has succeeded.
    pub dense: Option<DenseBasisSnapshot>,
    /// Network-path basis, if a packing-form solve has succeeded.
    pub network: Option<NetworkBasisSnapshot>,
}

impl LpWorkspace {
    /// Exports the saved bases (dense and network paths) as a
    /// serializable snapshot. The workspace is unchanged.
    #[must_use]
    pub fn export_basis(&self) -> BasisSnapshot {
        BasisSnapshot {
            dense: self.saved.as_ref().map(|s| DenseBasisSnapshot {
                rows: s.rows,
                cols: s.cols,
                basis: s.basis.clone(),
                costs: s.costs.clone(),
            }),
            network: self.net_saved.live.then(|| NetworkBasisSnapshot {
                n: self.net_saved.n,
                m: self.net_saved.m,
                basis: self.net_saved.basis.clone(),
                at_upper: self.net_saved.at_upper.clone(),
            }),
        }
    }

    /// Replaces the workspace's saved bases with the snapshot's, after
    /// validating internal consistency. An absent side clears that
    /// side's basis, so `import_basis(&other.export_basis())` always
    /// leaves this workspace warm-starting exactly like `other`. The
    /// workspace's log of its last rebuild is dropped, so its first warm
    /// solve rebuilds the tableau (to the same bits a replay gives).
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidBasis`] if a snapshot's lengths disagree with
    /// its declared shape, an index is out of range, a float is not
    /// finite, or a network slack is flagged at its (nonexistent) upper
    /// bound. The workspace is left unchanged on error.
    pub fn import_basis(&mut self, snapshot: &BasisSnapshot) -> Result<(), LpError> {
        if let Some(d) = &snapshot.dense {
            validate_dense(d)?;
        }
        if let Some(n) = &snapshot.network {
            validate_network(n)?;
        }
        self.rebuild.live = false;
        self.saved = snapshot.dense.as_ref().map(|d| SavedBasis {
            rows: d.rows,
            cols: d.cols,
            basis: d.basis.clone(),
            costs: d.costs.clone(),
        });
        match &snapshot.network {
            Some(n) => {
                let saved = &mut self.net_saved;
                saved.live = true;
                saved.n = n.n;
                saved.m = n.m;
                saved.basis.clear();
                saved.basis.extend_from_slice(&n.basis);
                saved.at_upper.clear();
                saved.at_upper.extend_from_slice(&n.at_upper);
            }
            None => self.net_saved.live = false,
        }
        Ok(())
    }
}

fn validate_dense(d: &DenseBasisSnapshot) -> Result<(), LpError> {
    if d.basis.len() != d.rows {
        return Err(LpError::InvalidBasis {
            what: "dense basis length must equal the declared row count",
        });
    }
    if d.costs.len() != d.cols {
        return Err(LpError::InvalidBasis {
            what: "dense cost length must equal the declared column count",
        });
    }
    if d.basis.iter().any(|&b| b >= d.cols) {
        return Err(LpError::InvalidBasis {
            what: "dense basis entry out of column range",
        });
    }
    if d.costs.iter().any(|c| !c.is_finite()) {
        return Err(LpError::InvalidBasis {
            what: "dense basis costs must be finite",
        });
    }
    Ok(())
}

fn validate_network(n: &NetworkBasisSnapshot) -> Result<(), LpError> {
    let cols = n.n + n.m;
    if n.basis.len() != n.m {
        return Err(LpError::InvalidBasis {
            what: "network basis length must equal the declared row count",
        });
    }
    if n.at_upper.len() != cols {
        return Err(LpError::InvalidBasis {
            what: "network at-upper flags must cover every column",
        });
    }
    if n.basis.iter().any(|&b| b >= cols) {
        return Err(LpError::InvalidBasis {
            what: "network basis entry out of column range",
        });
    }
    if n.at_upper.iter().skip(n.n).any(|&up| up) {
        return Err(LpError::InvalidBasis {
            what: "network slack columns have no upper bound to sit at",
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
    fn fresh_workspace_exports_empty_snapshot() {
        let snap = LpWorkspace::new().export_basis();
        assert_eq!(snap, BasisSnapshot::default());
    }

    #[test]
    fn dense_roundtrip_restores_the_warm_path() {
        let mut ws = LpWorkspace::new();
        cover_lp(1.0, 40.0).solve_with(&mut ws).unwrap();
        let snap = ws.export_basis();
        assert!(snap.dense.is_some());
        assert!(snap.network.is_none());

        // A fresh workspace with the imported basis solves warm, and the
        // solution matches the donor workspace's continuation exactly.
        let mut fresh = LpWorkspace::new();
        fresh.import_basis(&snap).unwrap();
        let a = cover_lp(2.0, 45.0).solve_with(&mut ws).unwrap();
        let b = cover_lp(2.0, 45.0).solve_with(&mut fresh).unwrap();
        assert_eq!(a.objective().to_bits(), b.objective().to_bits());
        assert_eq!(fresh.warm_solves(), 1);
        assert_eq!(fresh.cold_solves(), 0);
    }

    #[test]
    fn network_roundtrip_restores_the_warm_path() {
        let mut ws = LpWorkspace::new();
        packing_lp(2.0).solve_network_with(&mut ws).unwrap();
        let snap = ws.export_basis();
        assert!(snap.network.is_some());

        let mut fresh = LpWorkspace::new();
        fresh.import_basis(&snap).unwrap();
        let a = packing_lp(2.5).solve_network_with(&mut ws).unwrap();
        let b = packing_lp(2.5).solve_network_with(&mut fresh).unwrap();
        assert_eq!(a.objective().to_bits(), b.objective().to_bits());
        assert_eq!(fresh.warm_solves(), 1);
    }

    #[test]
    fn importing_an_empty_snapshot_clears_saved_bases() {
        let mut ws = LpWorkspace::new();
        cover_lp(1.0, 40.0).solve_with(&mut ws).unwrap();
        ws.import_basis(&BasisSnapshot::default()).unwrap();
        cover_lp(1.5, 40.0).solve_with(&mut ws).unwrap();
        assert_eq!(ws.cold_solves(), 2);
        assert_eq!(ws.warm_solves(), 0);
    }

    #[test]
    fn malformed_snapshots_are_rejected_and_leave_the_workspace_alone() {
        let mut ws = LpWorkspace::new();
        cover_lp(1.0, 40.0).solve_with(&mut ws).unwrap();
        let good = ws.export_basis();

        let mut bad = good.clone();
        if let Some(d) = bad.dense.as_mut() {
            d.basis.push(0);
        }
        assert!(matches!(
            ws.import_basis(&bad),
            Err(LpError::InvalidBasis { .. })
        ));

        let mut bad = good.clone();
        if let Some(d) = bad.dense.as_mut() {
            d.basis[0] = d.cols;
        }
        assert!(matches!(
            ws.import_basis(&bad),
            Err(LpError::InvalidBasis { .. })
        ));

        let mut bad = good.clone();
        if let Some(d) = bad.dense.as_mut() {
            d.costs[0] = f64::NAN;
        }
        assert!(matches!(
            ws.import_basis(&bad),
            Err(LpError::InvalidBasis { .. })
        ));

        // The failed imports above must not have clobbered the basis.
        cover_lp(2.0, 41.0).solve_with(&mut ws).unwrap();
        assert_eq!(ws.warm_solves(), 1);
    }

    #[test]
    fn malformed_network_snapshots_are_rejected() {
        let mut ws = LpWorkspace::new();
        packing_lp(2.0).solve_network_with(&mut ws).unwrap();
        let good = ws.export_basis();

        let mut bad = good.clone();
        if let Some(n) = bad.network.as_mut() {
            n.at_upper.pop();
        }
        assert!(ws.import_basis(&bad).is_err());

        let mut bad = good.clone();
        if let Some(n) = bad.network.as_mut() {
            n.basis.push(0);
        }
        assert!(ws.import_basis(&bad).is_err());

        let mut bad = good;
        if let Some(n) = bad.network.as_mut() {
            n.basis[0] = n.n + n.m;
        }
        assert!(ws.import_basis(&bad).is_err());
    }

    #[test]
    fn a_network_slack_flagged_at_upper_is_rejected() {
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
        let cold = p.solve_network_with(&mut ws).unwrap();
        assert!((cold.objective() - 4.0).abs() < 1e-9);
        let bad = BasisSnapshot {
            dense: None,
            network: Some(NetworkBasisSnapshot {
                n: 2,
                m: 2,
                basis: vec![0, 3],
                at_upper: vec![false, false, true, false],
            }),
        };
        assert!(matches!(
            ws.import_basis(&bad),
            Err(LpError::InvalidBasis { .. })
        ));
        // The workspace kept its own basis and still solves warm to 4.
        let warm = p.solve_network_with(&mut ws).unwrap();
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
        assert_eq!((ws.cold_solves(), ws.warm_solves()), (1, 1));
    }
}

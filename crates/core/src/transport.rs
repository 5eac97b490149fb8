//! The one transportation template behind the fleet's three LPs: the
//! settlement and prospective LPs of [`FleetPlanner`](crate::FleetPlanner)
//! and the migration LP of [`RoutingPlanner`](crate::RoutingPlanner).
//!
//! A [`TransportLp`] is built once from an ordered list of flow columns
//! `from → to`, each delivering `gain` per unit sent: `1 − loss` on a
//! lossy link, `1` for migrated work, and a *self* column `(i, i)` that
//! absorbs a site's work in place. One `O(columns)` pass gathers every
//! site's adjacency, then the rows are minted site by site:
//!
//! * with procurement, a free-budget row `Σ out − z_s ≤ free_s`, where
//!   the donor's procurement column `z_s` covers whatever its free
//!   budget does not;
//! * a donor row `Σ out ≤ budget_s`;
//! * a recipient row `Σ gain·in ≤ need_s`;
//!
//! and last the pool row `Σ links ≤ pool` when the topology pools its
//! transfers. A site's rows exist exactly where its adjacency is
//! non-empty, and each row lists its columns in column order. Every row
//! is `≤` with a non-negative right-hand side and every column lies in
//! `[0, u]`, so each LP is in packing form: a cold start is the feasible
//! all-slack basis. Between frames only costs, bounds and right-hand
//! sides change, and one [`LpWorkspace`] warm-starts each re-solve from
//! the previous optimum.

// audit:allow-file(panic-unwrap): expects assert invariants of the template this module builds (finite caps, well-formed rows, a feasible and box-bounded packing LP)
// audit:allow-file(slice-index): site indices come from the column list the template was built from, and per-site vectors are sized by its site count

use dpss_lp::{
    BasisSnapshot, ConstraintId, LpError, LpWorkspace, Problem, Relation, Sense, SolverStats,
    Variable,
};

/// A transportation LP template over a fleet's sites (see the module
/// docs for its rows).
#[derive(Debug, Clone)]
pub(crate) struct TransportLp {
    problem: Problem,
    /// `(from, to, gain, variable)` per flow column, in column order.
    columns: Vec<(usize, usize, f64, Variable)>,
    /// Donor row per site (`None` without outgoing columns).
    donor_rows: Vec<Option<ConstraintId>>,
    /// Recipient row per site (`None` without incoming columns).
    recipient_rows: Vec<Option<ConstraintId>>,
    /// Procurement column and free-budget row per donor site, when the
    /// template procures.
    procure: Vec<Option<(Variable, ConstraintId)>>,
    workspace: LpWorkspace,
}

impl TransportLp {
    /// Builds the template over `sites` from `(from, to, gain, cap)`
    /// columns, in order; `cap` bounds a column until
    /// [`set_columns`](Self::set_columns) moves it. With `procure` every
    /// donor also gets a procurement column and a free-budget row;
    /// `pool` caps the total over the link (non-self) columns.
    pub(crate) fn new(
        sites: usize,
        columns: impl IntoIterator<Item = (usize, usize, f64, f64)>,
        procure: bool,
        pool: Option<f64>,
    ) -> Self {
        let mut problem = Problem::new(Sense::Minimize);
        let mut outgoing = vec![Vec::new(); sites];
        let mut incoming = vec![Vec::new(); sites];
        let columns: Vec<(usize, usize, f64, Variable)> = columns
            .into_iter()
            .map(|(from, to, gain, cap)| {
                let var = problem
                    .add_var(0.0, cap, 0.0)
                    .expect("column caps are finite and non-negative");
                outgoing[from].push((var, 1.0));
                incoming[to].push((var, gain));
                (from, to, gain, var)
            })
            .collect();
        let (mut donor_rows, mut recipient_rows) = (Vec::new(), Vec::new());
        let mut procured = Vec::new();
        for (out, inc) in outgoing.iter().zip(&incoming) {
            procured.push((procure && !out.is_empty()).then(|| {
                let z = problem
                    .add_var(0.0, 0.0, 0.0)
                    .expect("placeholder bounds are valid");
                let mut free = out.clone();
                free.push((z, -1.0));
                (z, add_row(&mut problem, &free, 0.0))
            }));
            donor_rows.push((!out.is_empty()).then(|| add_row(&mut problem, out, 0.0)));
            recipient_rows.push((!inc.is_empty()).then(|| add_row(&mut problem, inc, 0.0)));
        }
        let links: Vec<(Variable, f64)> = columns
            .iter()
            .filter(|&&(from, to, _, _)| from != to)
            .map(|&(_, _, _, var)| (var, 1.0))
            .collect();
        if let Some(pool) = pool.filter(|_| !links.is_empty()) {
            add_row(&mut problem, &links, pool);
        }
        TransportLp {
            problem,
            columns,
            donor_rows,
            recipient_rows,
            procure: procured,
            workspace: LpWorkspace::new(),
        }
    }

    /// Whether the template has no flow column at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Sets every column's `(cost, cap)` to `edit(from, to, gain)`.
    pub(crate) fn set_columns(&mut self, mut edit: impl FnMut(usize, usize, f64) -> (f64, f64)) {
        for &(from, to, gain, var) in &self.columns {
            let (cost, cap) = edit(from, to, gain);
            self.problem
                .set_objective(var, cost)
                .expect("column costs are finite");
            self.problem
                .set_bounds(var, 0.0, cap)
                .expect("column caps are non-negative");
        }
    }

    /// Sets every column's cost to `cost(from, to, gain)`, keeping its
    /// cap.
    pub(crate) fn set_costs(&mut self, mut cost: impl FnMut(usize, usize, f64) -> f64) {
        for &(from, to, gain, var) in &self.columns {
            self.problem
                .set_objective(var, cost(from, to, gain))
                .expect("column costs are finite");
        }
    }

    /// Sets site `s`'s donor budget; a site without outgoing columns has
    /// none.
    pub(crate) fn set_donor(&mut self, s: usize, budget: f64) {
        self.set_rhs(self.donor_rows[s], budget);
    }

    /// Sets site `s`'s recipient need; a site without incoming columns
    /// has none.
    pub(crate) fn set_recipient(&mut self, s: usize, need: f64) {
        self.set_rhs(self.recipient_rows[s], need);
    }

    /// Prices donor `s`'s procurement column at `cost` per unit, up to
    /// `cap`, and sets its free budget; a site without one is left as it
    /// is.
    pub(crate) fn set_procure(&mut self, s: usize, cost: f64, cap: f64, free: f64) {
        if let Some((z, row)) = self.procure[s] {
            self.problem
                .set_bounds(z, 0.0, cap)
                .expect("procurement caps are non-negative");
            self.problem
                .set_objective(z, cost)
                .expect("procurement costs are finite");
            self.set_rhs(Some(row), free);
        }
    }

    fn set_rhs(&mut self, row: Option<ConstraintId>, rhs: f64) {
        if let Some(row) = row {
            self.problem
                .set_rhs(row, rhs)
                .expect("template rows stay valid");
        }
    }

    /// Solves from the held basis and hands `read` every column's
    /// `(from, to, gain)` and flow, in column order.
    pub(crate) fn solve(&mut self, mut read: impl FnMut(usize, usize, f64, f64)) {
        let sol = self
            .problem
            .solve_with(&mut self.workspace)
            .expect("a transportation LP is feasible (zero flow) and box-bounded");
        for &(from, to, gain, var) in &self.columns {
            read(from, to, gain, sol.value(var));
        }
        // Hand the value buffer back: the next solve reuses it, keeping a
        // steady-state frame loop allocation-free.
        self.workspace.recycle(sol);
    }

    /// The workspace's cumulative solver telemetry.
    pub(crate) fn stats(&self) -> SolverStats {
        self.workspace.stats()
    }

    /// The warm-start basis, once a solve has succeeded.
    pub(crate) fn export_basis(&self) -> Option<BasisSnapshot> {
        self.workspace.export_basis()
    }

    /// Reinstates a checkpointed basis (`None` clears it).
    pub(crate) fn import_basis(&mut self, basis: Option<&BasisSnapshot>) -> Result<(), LpError> {
        self.workspace.import_basis(basis)
    }
}

fn add_row(problem: &mut Problem, terms: &[(Variable, f64)], rhs: f64) -> ConstraintId {
    problem
        .add_constraint(terms, Relation::Le, rhs)
        .expect("template rows are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five sites joined by one-way links: site 3 only sends, site 4
    /// only receives, and sites 0–2 both send and receive.
    const LINKS: [(usize, usize, f64, f64); 6] = [
        (0, 1, 0.9, 2.0),
        (0, 2, 0.8, 1.5),
        (1, 2, 1.0, 3.0),
        (1, 4, 0.75, 1.0),
        (2, 0, 0.95, 2.5),
        (3, 1, 0.7, 2.0),
    ];
    const SITES: usize = 5;

    /// The migration shape over [`LINKS`]: a self column per site, then
    /// every link at gain 1.
    fn migration_columns() -> Vec<(usize, usize, f64, f64)> {
        (0..SITES)
            .map(|i| (i, i, 1.0, 0.0))
            .chain(LINKS.iter().map(|&(i, j, _, _)| (i, j, 1.0, 1.0)))
            .collect()
    }

    /// The rows the template must mint for `columns`, built by brute
    /// force: per site `[free]`, donor, recipient where non-empty, then
    /// the pool row over the links.
    fn expected_rows(
        columns: &[(usize, usize, f64, f64)],
        procure: bool,
        pool: Option<f64>,
    ) -> Vec<(Vec<(usize, f64)>, f64)> {
        let mut rows = Vec::new();
        let mut z = columns.len();
        for s in 0..SITES {
            let out: Vec<(usize, f64)> = (0..columns.len())
                .filter(|&k| columns[k].0 == s)
                .map(|k| (k, 1.0))
                .collect();
            let inc: Vec<(usize, f64)> = (0..columns.len())
                .filter(|&k| columns[k].1 == s)
                .map(|k| (k, columns[k].2))
                .collect();
            if !out.is_empty() {
                if procure {
                    let mut free = out.clone();
                    free.push((z, -1.0));
                    z += 1;
                    rows.push((free, 0.0));
                }
                rows.push((out, 0.0));
            }
            if !inc.is_empty() {
                rows.push((inc, 0.0));
            }
        }
        if let Some(pool) = pool {
            let links = (0..columns.len())
                .filter(|&k| columns[k].0 != columns[k].1)
                .map(|k| (k, 1.0))
                .collect();
            rows.push((links, pool));
        }
        rows
    }

    fn rows_of(lp: &TransportLp) -> Vec<(Vec<(usize, f64)>, f64)> {
        lp.problem
            .constraints()
            .map(|(terms, relation, rhs)| {
                assert_eq!(relation, Relation::Le);
                (terms.to_vec(), rhs)
            })
            .collect()
    }

    #[test]
    fn rows_follow_the_adjacency_in_column_order() {
        let cases = [
            (LINKS.to_vec(), false, Some(2.5)),
            (LINKS.to_vec(), true, Some(2.5)),
            (migration_columns(), false, None),
            (migration_columns(), false, Some(4.0)),
        ];
        for (columns, procure, pool) in cases {
            let lp = TransportLp::new(SITES, columns.iter().copied(), procure, pool);
            assert_eq!(rows_of(&lp), expected_rows(&columns, procure, pool));
            // Site rows exist exactly where the adjacency is non-empty.
            for s in 0..SITES {
                let sends = columns.iter().any(|c| c.0 == s);
                let receives = columns.iter().any(|c| c.1 == s);
                assert_eq!(lp.donor_rows[s].is_some(), sends, "donor row of {s}");
                assert_eq!(lp.recipient_rows[s].is_some(), receives, "row of {s}");
                assert_eq!(lp.procure[s].is_some(), procure && sends, "z of {s}");
            }
            let donors = (0..SITES).filter(|&s| columns.iter().any(|c| c.0 == s));
            let procured = if procure { donors.count() } else { 0 };
            assert_eq!(lp.problem.num_vars(), columns.len() + procured);
        }
        // The irregular sites: 3 has no recipient row, 4 no donor row.
        let lp = TransportLp::new(SITES, LINKS, false, Some(2.5));
        assert!(lp.recipient_rows[3].is_none() && lp.donor_rows[4].is_none());
        // The pool row is last and lists every link column.
        let (pool_terms, _, pool) = lp.problem.constraints().last().unwrap();
        assert_eq!(pool, 2.5);
        assert_eq!(
            pool_terms.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            (0..LINKS.len()).collect::<Vec<_>>()
        );
    }

    /// Solves `lp` and checks its flows against the dense oracle: the
    /// same optimum to 1e-9 and a feasible point.
    fn assert_agrees_with_the_oracle(lp: &mut TransportLp) -> f64 {
        let mut flows = Vec::new();
        lp.solve(|_, _, _, flow| flows.push(flow));
        let want = dpss_lp_oracle::solve(&lp.problem).unwrap();
        let got = lp.problem.objective_at(&flows);
        assert!(
            (got - want.objective).abs() <= 1e-9 * (1.0 + want.objective.abs()),
            "objective {got} vs oracle {}",
            want.objective
        );
        assert!(lp.problem.is_feasible(&flows, 1e-9), "{flows:?}");
        got
    }

    #[test]
    fn settlement_and_migration_solves_agree_with_the_oracle() {
        let mut settlement = TransportLp::new(SITES, LINKS, false, Some(2.5));
        let mut migration = TransportLp::new(SITES, migration_columns(), false, None);
        for frame in 0..4 {
            let bump = 0.25 * f64::from(frame);
            let price = [40.0 + bump, 80.0, 65.0 - bump, 30.0, 90.0 + bump];
            let surplus = [2.0 + bump, 1.0, 0.5, 3.0, 0.0];
            let need = [0.5, 2.0 - bump, 1.5, 0.0, 1.2];
            settlement.set_columns(|i, j, gain| (-(price[j] * gain - 1.0), surplus[i].min(2.0)));
            migration.set_columns(|i, j, _| {
                let tie = if i == j { 0.0 } else { 1e-6 };
                (
                    -(price[i] - tie),
                    if i == j { need[i] } else { need[i].min(1.0) },
                )
            });
            for s in 0..SITES {
                settlement.set_donor(s, surplus[s]);
                settlement.set_recipient(s, need[s]);
                migration.set_donor(s, need[s]);
                migration.set_recipient(s, surplus[s]);
            }
            assert!(assert_agrees_with_the_oracle(&mut settlement) < 0.0);
            assert!(assert_agrees_with_the_oracle(&mut migration) < 0.0);
        }
        // The second frame onwards re-solves warm.
        assert!(settlement.stats().warm_solves >= 1);
        assert!(migration.stats().warm_solves >= 1);
    }
}

//! Network-path ↔ dense-simplex equivalence properties.
//!
//! The contract of [`Problem::solve_network_with`] is that the sparse
//! revised-simplex path only changes *how* a packing-form LP is solved,
//! never *what* it returns: the objective must match the dense two-phase
//! solver to 1e-9 and the returned point must be feasible. The property
//! tests below randomize the two fleet flow shapes `dpss-core` solves
//! every coarse frame — per-link settlement flows and the aggregated
//! prospective (total + bought per donor) form — plus warm re-solve
//! chains through one workspace with the full edit surface
//! (`set_objective` / `set_bounds` / `set_rhs`).

use dpss_lp::{LpWorkspace, Problem, Relation, Sense, Variable};
use proptest::prelude::*;

/// A fleet-flow settlement LP: one variable per directed site pair
/// (bounded by the pair cap), donor-budget and recipient-need rows, a
/// delivered-value objective — the exact shape of `FleetPlanner::plan`.
#[derive(Debug, Clone)]
struct FlowInstance {
    sites: usize,
    /// Pair cap per ordered pair, row-major with unused diagonal.
    caps: Vec<f64>,
    donors: Vec<f64>,
    needs: Vec<f64>,
    prices: Vec<f64>,
    /// Per-link loss factor applied on the need rows.
    losses: Vec<f64>,
}

impl FlowInstance {
    fn build(&self) -> (Problem, Vec<Variable>) {
        let (p, flows, _, _) = self.build_full();
        (p, flows)
    }

    fn build_full(
        &self,
    ) -> (
        Problem,
        Vec<Variable>,
        Vec<dpss_lp::ConstraintId>,
        Vec<dpss_lp::ConstraintId>,
    ) {
        let n = self.sites;
        let mut p = Problem::new(Sense::Minimize);
        let mut flows = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let f = p
                    .add_var(
                        0.0,
                        self.caps[i * n + j],
                        -self.prices[j] * (1.0 - self.losses[i * n + j]),
                    )
                    .unwrap();
                flows.push(f);
            }
        }
        let var = |i: usize, j: usize| {
            let k = i * (n - 1) + if j > i { j - 1 } else { j };
            flows[k]
        };
        let mut donor_rows = Vec::new();
        let mut need_rows = Vec::new();
        for i in 0..n {
            let terms: Vec<(Variable, f64)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (var(i, j), 1.0))
                .collect();
            donor_rows.push(
                p.add_constraint(&terms, Relation::Le, self.donors[i])
                    .unwrap(),
            );
        }
        for j in 0..n {
            let terms: Vec<(Variable, f64)> = (0..n)
                .filter(|&i| i != j)
                .map(|i| (var(i, j), 1.0 - self.losses[i * n + j]))
                .collect();
            need_rows.push(
                p.add_constraint(&terms, Relation::Le, self.needs[j])
                    .unwrap(),
            );
        }
        (p, flows, donor_rows, need_rows)
    }
}

fn flow_instance(sites: usize) -> impl Strategy<Value = FlowInstance> {
    let pairs = sites * sites;
    (
        proptest::collection::vec(0.0..3.0f64, pairs),
        proptest::collection::vec(0.0..4.0f64, sites),
        proptest::collection::vec(0.0..4.0f64, sites),
        proptest::collection::vec(1.0..90.0f64, sites),
        proptest::collection::vec(0.0..0.3f64, pairs),
    )
        .prop_map(move |(caps, donors, needs, prices, losses)| FlowInstance {
            sites,
            caps,
            donors,
            needs,
            prices,
            losses,
        })
}

/// The aggregated prospective form: per-link totals `t_l ∈ [0, cap]`
/// plus per-donor bought amounts `z_i`, with free-budget rows
/// `Σ_l t_l − z_i ≤ surplus_i`, total-budget rows
/// `Σ_l t_l ≤ surplus_i + procurable_i` and need rows — the shape of
/// `FleetPlanner::plan_prospective`'s network template.
#[derive(Debug, Clone)]
struct ProspectiveInstance {
    sites: usize,
    caps: Vec<f64>,
    surplus: Vec<f64>,
    procurable: Vec<f64>,
    needs: Vec<f64>,
    values: Vec<f64>,
    buy_costs: Vec<f64>,
}

impl ProspectiveInstance {
    fn build(&self) -> Problem {
        let n = self.sites;
        let mut p = Problem::new(Sense::Minimize);
        let mut links: Vec<Vec<(usize, Variable)>> = vec![Vec::new(); n];
        for (i, out) in links.iter_mut().enumerate() {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let t = p
                    .add_var(0.0, self.caps[i * n + j], -self.values[i * n + j])
                    .unwrap();
                out.push((j, t));
            }
        }
        for (i, out) in links.iter().enumerate() {
            let z = p
                .add_var(0.0, self.procurable[i], self.buy_costs[i])
                .unwrap();
            let mut free: Vec<(Variable, f64)> = out.iter().map(|&(_, t)| (t, 1.0)).collect();
            free.push((z, -1.0));
            p.add_constraint(&free, Relation::Le, self.surplus[i])
                .unwrap();
            let total: Vec<(Variable, f64)> = out.iter().map(|&(_, t)| (t, 1.0)).collect();
            p.add_constraint(&total, Relation::Le, self.surplus[i] + self.procurable[i])
                .unwrap();
        }
        for j in 0..n {
            let terms: Vec<(Variable, f64)> = (0..n)
                .flat_map(|i| links[i].iter().filter(|&&(to, _)| to == j))
                .map(|&(_, t)| (t, 0.95))
                .collect();
            p.add_constraint(&terms, Relation::Le, self.needs[j])
                .unwrap();
        }
        p
    }
}

fn prospective_instance(sites: usize) -> impl Strategy<Value = ProspectiveInstance> {
    let pairs = sites * sites;
    (
        proptest::collection::vec(0.0..3.0f64, pairs),
        proptest::collection::vec(0.0..4.0f64, sites),
        proptest::collection::vec(0.0..2.0f64, sites),
        proptest::collection::vec(0.0..4.0f64, sites),
        proptest::collection::vec(0.0..90.0f64, pairs),
        proptest::collection::vec(0.0..120.0f64, sites),
    )
        .prop_map(
            move |(caps, surplus, procurable, needs, values, buy_costs)| ProspectiveInstance {
                sites,
                caps,
                surplus,
                procurable,
                needs,
                values,
                buy_costs,
            },
        )
}

fn assert_objectives_agree(p: &Problem, ws: &mut LpWorkspace) {
    let dense = p.solve().expect("packing LPs are always feasible");
    let net = p
        .solve_network_with(ws)
        .expect("packing LPs are always feasible");
    let tol = 1e-9 * (1.0 + dense.objective().abs());
    assert!(
        (dense.objective() - net.objective()).abs() <= tol,
        "dense {} vs network {} (warm: {})",
        dense.objective(),
        net.objective(),
        ws.last_was_warm()
    );
    assert!(
        p.is_feasible(net.values(), 1e-6),
        "network solution infeasible: {:?}",
        net.values()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On randomized settlement-shaped flow LPs, the network path and
    /// dense simplex agree on the objective to 1e-9.
    #[test]
    fn network_matches_dense_on_flow_instances(inst in flow_instance(4)) {
        let (p, _) = inst.build();
        prop_assert!(p.is_network_form());
        assert_objectives_agree(&p, &mut LpWorkspace::new());
    }

    /// Same on the aggregated prospective shape (negative row
    /// coefficients on the bought column exercise the general pricing).
    #[test]
    fn network_matches_dense_on_prospective_instances(
        inst in prospective_instance(4),
    ) {
        let p = inst.build();
        prop_assert!(p.is_network_form());
        assert_objectives_agree(&p, &mut LpWorkspace::new());
    }

    /// A frame-to-frame re-solve chain through one workspace — the
    /// FleetPlanner loop: edit every bound, rhs and objective, re-solve
    /// warm, and never drift from a cold dense solve.
    #[test]
    fn warm_network_chain_never_drifts(
        inst in flow_instance(3),
        edits in proptest::collection::vec(
            (
                proptest::collection::vec(0.0..3.0f64, 6),
                proptest::collection::vec(0.0..4.0f64, 3),
                proptest::collection::vec(0.0..4.0f64, 3),
                proptest::collection::vec(1.0..90.0f64, 6),
            ),
            1..5,
        ),
    ) {
        let (mut p, flows, donor_rows, need_rows) = inst.build_full();
        let mut ws = LpWorkspace::new();
        assert_objectives_agree(&p, &mut ws);
        for (caps, donors, needs, prices) in &edits {
            for (k, f) in flows.iter().enumerate() {
                p.set_bounds(*f, 0.0, caps[k]).unwrap();
                p.set_objective(*f, -prices[k]).unwrap();
            }
            for (row, &d) in donor_rows.iter().zip(donors) {
                p.set_rhs(*row, d).unwrap();
            }
            for (row, &nd) in need_rows.iter().zip(needs) {
                p.set_rhs(*row, nd).unwrap();
            }
            assert_objectives_agree(&p, &mut ws);
        }
    }
}

#[test]
fn warm_path_engages_on_resolve_chains() {
    // Deterministic check that the chain property actually exercises the
    // warm path rather than silently falling back cold every solve.
    let inst = FlowInstance {
        sites: 3,
        caps: vec![0.0, 2.0, 1.5, 1.0, 0.0, 2.0, 0.5, 1.0, 0.0],
        donors: vec![2.0, 1.0, 3.0],
        needs: vec![1.5, 2.5, 0.5],
        prices: vec![45.0, 60.0, 30.0],
        losses: vec![0.0; 9],
    };
    let (mut p, flows) = inst.build();
    let mut ws = LpWorkspace::new();
    p.solve_network_with(&mut ws).unwrap();
    for (k, cap) in [(0usize, 0.5), (3, 2.0), (5, 0.0), (0, 2.0)] {
        p.set_bounds(flows[k], 0.0, cap).unwrap();
        let net = p.solve_network_with(&mut ws).unwrap();
        let dense = p.solve().unwrap();
        assert!(
            (net.objective() - dense.objective()).abs() <= 1e-9 * (1.0 + dense.objective().abs()),
            "cap edit {k}->{cap}: network {} vs dense {}",
            net.objective(),
            dense.objective()
        );
    }
    assert!(
        ws.warm_solves() >= 2,
        "bound edits must keep the network warm path eligible: {} warm / {} cold / {} rejects",
        ws.warm_solves(),
        ws.cold_solves(),
        ws.warm_rejects()
    );
}

#[test]
fn network_entry_point_accepts_non_packing_problems() {
    // The fallback keeps `solve_network_with` a drop-in `solve_with`:
    // an equality-constrained LP routes to the dense path and solves.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var(0.0, 5.0, 2.0).unwrap();
    let y = p.add_var(0.0, 5.0, 3.0).unwrap();
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
        .unwrap();
    assert!(!p.is_network_form());
    let sol = p.solve_network_with(&mut LpWorkspace::new()).unwrap();
    assert!((sol.objective() - 8.0).abs() < 1e-9, "{}", sol.objective());
    assert!((sol.value(x) - 4.0).abs() < 1e-9);
}

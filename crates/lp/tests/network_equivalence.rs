//! Factorized kernel ↔ dense oracle equivalence properties.
//!
//! The contract of [`Problem::solve_with`] is that the factorized
//! revised simplex returns what a cold dense two-phase tableau solver
//! (`dpss-lp-oracle`) returns: the same feasibility verdict and, on
//! success, the objective to 1e-9 with a feasible point. The property
//! tests below randomize the two fleet flow shapes `dpss-core` solves
//! every coarse frame — per-link settlement flows and the aggregated
//! prospective (total + bought per donor) form — general-form LPs with
//! every row relation and every kind of finite lower bound, feasible
//! or not, bounded or not, and warm re-solve chains through one
//! workspace with the full edit surface (`set_objective` /
//! `set_bounds` / `set_rhs`).

use dpss_lp::{LpError, LpWorkspace, Problem, Relation, Sense, Variable};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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
    let net = p.solve_with(ws);
    if let Err(e) = dpss_lp_oracle::agree(p, &net) {
        panic!("{e} (warm: {})", ws.last_was_warm());
    }
}

/// A general-form LP: variables with every kind of bound the model takes
/// (shifted boxes, negative floors, half-lines, fixed) and rows of every
/// relation, with
/// dense integer-ish coefficients so that infeasible and unbounded
/// instances come up as often as optimal ones.
#[derive(Debug, Clone)]
struct GeneralInstance {
    /// `(lo, up, obj)` per variable.
    vars: Vec<(f64, f64, f64)>,
    /// `(coefficients, relation, rhs)` per row.
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

impl GeneralInstance {
    fn build(&self, sense: Sense) -> (Problem, Vec<Variable>, Vec<dpss_lp::ConstraintId>) {
        let mut p = Problem::new(sense);
        let vars: Vec<Variable> = self
            .vars
            .iter()
            .map(|&(lo, up, obj)| p.add_var(lo, up, obj).unwrap())
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|(coeffs, rel, rhs)| {
                let terms: Vec<(Variable, f64)> =
                    vars.iter().copied().zip(coeffs.iter().copied()).collect();
                p.add_constraint(&terms, *rel, *rhs).unwrap()
            })
            .collect();
        (p, vars, rows)
    }
}

fn bounds(kind: u8, a: f64, w: f64) -> (f64, f64) {
    match kind % 6 {
        0 => (a, a + w),
        1 => (a, f64::INFINITY),
        2 => (a - 4.0, a),
        3 => (-4.0 - w, f64::INFINITY),
        4 => (a, a),
        _ => (0.0, w),
    }
}

fn general_instance(max_vars: usize, max_rows: usize) -> impl Strategy<Value = GeneralInstance> {
    (1..=max_vars, 0..=max_rows).prop_flat_map(|(n, m)| {
        let vars = proptest::collection::vec((0u8..6, -3.0..3.0f64, 0.0..4.0f64, -5i32..6), n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(-2i32..3, n), 0u8..3, -4.0..6.0f64),
            m,
        );
        (vars, rows).prop_map(|(vars, rows)| GeneralInstance {
            vars: vars
                .into_iter()
                .map(|(kind, a, w, c)| {
                    let (lo, up) = bounds(kind, a, w);
                    (lo, up, f64::from(c))
                })
                .collect(),
            rows: rows
                .into_iter()
                .map(|(coeffs, rel, rhs)| {
                    let rel = [Relation::Le, Relation::Ge, Relation::Eq][usize::from(rel)];
                    (coeffs.into_iter().map(f64::from).collect(), rel, rhs)
                })
                .collect(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On randomized settlement-shaped flow LPs, the kernel and the
    /// dense oracle agree on the objective to 1e-9.
    #[test]
    fn network_matches_dense_on_flow_instances(inst in flow_instance(4)) {
        let (p, _) = inst.build();
        assert_objectives_agree(&p, &mut LpWorkspace::new());
    }

    /// Same on the aggregated prospective shape (negative row
    /// coefficients on the bought column exercise the general pricing).
    #[test]
    fn network_matches_dense_on_prospective_instances(
        inst in prospective_instance(4),
    ) {
        let p = inst.build();
        assert_objectives_agree(&p, &mut LpWorkspace::new());
    }

    /// A frame-to-frame re-solve chain through one workspace — the
    /// FleetPlanner loop: edit every bound, rhs and objective, re-solve
    /// warm, and never drift from the cold oracle.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A warm chain over one general-form template: each step rewrites
    /// every right-hand side (which often leaves the saved basis
    /// primal-infeasible, for the dual restore to repair), one bound and
    /// one cost, and every solve matches the cold oracle.
    #[test]
    fn general_warm_chains_match_the_oracle(
        inst in general_instance(5, 5),
        edits in proptest::collection::vec(
            (proptest::collection::vec(-4.0..6.0f64, 5), 0usize..5, 0u8..6, -3.0..3.0f64, -5i32..6),
            1..6,
        ),
    ) {
        let (mut p, vars, rows) = inst.build(Sense::Minimize);
        let mut ws = LpWorkspace::new();
        assert_objectives_agree(&p, &mut ws);
        for (rhs, k, kind, a, c) in &edits {
            for (row, &b) in rows.iter().zip(rhs) {
                p.set_rhs(*row, b).unwrap();
            }
            let var = vars[k % vars.len()];
            let (lo, up) = bounds(*kind, *a, 1.5);
            p.set_bounds(var, lo, up).unwrap();
            p.set_objective(var, f64::from(*c)).unwrap();
            assert_objectives_agree(&p, &mut ws);
        }
    }
}

impl GeneralInstance {
    /// Makes the instance unbounded by construction: every row is moved to
    /// hold at the variables' floors, so the instance is feasible, and an
    /// improving `[0.5, ∞)` column that no row bounds is added.
    fn make_unbounded(&mut self, sense: Sense) {
        for (coeffs, rel, rhs) in &mut self.rows {
            let at_floor: f64 = coeffs.iter().zip(&self.vars).map(|(c, v)| c * v.0).sum();
            *rhs = match rel {
                Relation::Le => rhs.max(at_floor),
                Relation::Ge => rhs.min(at_floor),
                Relation::Eq => at_floor,
            };
        }
        let improving = match sense {
            Sense::Minimize => -1.0,
            Sense::Maximize => 1.0,
        };
        // The rows' coefficient lists stop short of the new column.
        self.vars.push((0.5, f64::INFINITY, improving));
    }
}

/// General-form LPs, both senses: the cold kernel (the dual restore from
/// the all-slack basis, then the primal simplex) gives the oracle's
/// verdict and objective, and the instances cover every verdict. Every
/// eighth case is made unbounded by construction, so the unbounded share
/// does not hang on the draw.
#[test]
fn kernel_matches_the_oracle_on_general_instances() {
    const CASES: usize = 512;
    let mut rng = TestRng::deterministic("kernel_matches_the_oracle_on_general_instances");
    let mut verdicts = [0usize; 3];
    for k in 0..CASES {
        let sense = [Sense::Minimize, Sense::Maximize][k % 2];
        let mut inst = general_instance(5, 5).generate(&mut rng);
        let forced = k % 8 == 7;
        if forced {
            inst.make_unbounded(sense);
        }
        let (p, _, _) = inst.build(sense);
        let got = p.solve();
        if let Err(e) = dpss_lp_oracle::agree(&p, &got) {
            panic!("case {k}: {e}\n{p:?}");
        }
        assert!(
            !forced || matches!(got, Err(LpError::Unbounded)),
            "case {k} is unbounded by construction: {got:?}"
        );
        verdicts[match got {
            Ok(_) => 0,
            Err(LpError::Infeasible) => 1,
            Err(_) => 2,
        }] += 1;
    }
    let [optimal, infeasible, unbounded] = verdicts;
    assert!(
        optimal >= CASES / 8 && infeasible >= CASES / 8 && unbounded >= CASES / 8,
        "{optimal} optimal, {infeasible} infeasible, {unbounded} unbounded"
    );
}

/// Redundant and contradictory equalities over variables with negative
/// floors: the kernel's verdict and objective are the oracle's.
#[test]
fn redundant_equalities_match_the_oracle() {
    for rhs2 in [4.0, 5.0] {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(-10.0, f64::INFINITY, 1.0).unwrap();
        let y = p.add_var(-6.0, 3.0, 2.0).unwrap();
        let z = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 2.0 * rhs2)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (z, -1.0)], Relation::Ge, -1.0)
            .unwrap();
        p.add_constraint(&[(y, 1.0), (z, 1.0)], Relation::Ge, 0.5)
            .unwrap();
        let got = p.solve();
        assert_eq!(got.is_ok(), rhs2 == 4.0, "{got:?}");
        dpss_lp_oracle::agree(&p, &got).unwrap();
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
    p.solve_with(&mut ws).unwrap();
    for (k, cap) in [(0usize, 0.5), (3, 2.0), (5, 0.0), (0, 2.0)] {
        p.set_bounds(flows[k], 0.0, cap).unwrap();
        assert_objectives_agree(&p, &mut ws);
    }
    assert!(
        ws.warm_solves() >= 2,
        "bound edits must keep the warm path eligible: {} warm / {} cold / {} rejects",
        ws.warm_solves(),
        ws.cold_solves(),
        ws.warm_rejects()
    );
}

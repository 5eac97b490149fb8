//! Property-based tests for the simplex solver.
//!
//! Strategy: generate LPs with a *known feasible point* by construction, so
//! the solver must return `Ok`, and then check the two defining properties
//! of an optimum — feasibility of the returned point and dominance over
//! every feasible point we can sample — and agreement with the dense
//! two-phase oracle (`dpss-lp-oracle`).

use dpss_lp::{LpError, Problem, Relation, Sense};
use proptest::prelude::*;

/// A randomly generated bounded-feasible LP together with one feasible
/// point used as a witness.
#[derive(Debug, Clone)]
struct FeasibleLp {
    objective: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    /// `(coefficients, rhs)` rows, all `≤`.
    rows: Vec<(Vec<f64>, f64)>,
    witness: Vec<f64>,
}

impl FeasibleLp {
    fn build(&self, sense: Sense) -> (Problem, Vec<dpss_lp::Variable>) {
        let mut p = Problem::new(sense);
        let vars: Vec<_> = self
            .objective
            .iter()
            .zip(&self.bounds)
            .map(|(&c, &(lo, up))| p.add_var(lo, up, c).unwrap())
            .collect();
        for (coeffs, rhs) in &self.rows {
            let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
            p.add_constraint(&terms, Relation::Le, *rhs).unwrap();
        }
        (p, vars)
    }
}

fn feasible_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = FeasibleLp> {
    (1..=max_vars).prop_flat_map(move |n| {
        let objective = proptest::collection::vec(-10.0..10.0f64, n);
        let widths = proptest::collection::vec((0.0..5.0f64, 0.1..8.0f64), n);
        let fractions = proptest::collection::vec(0.0..1.0f64, n);
        let rows = proptest::collection::vec(
            (
                proptest::collection::vec(-4.0..4.0f64, n),
                0.0..6.0f64, // extra slack beyond the witness activity
            ),
            0..=max_rows,
        );
        (objective, widths, fractions, rows).prop_map(|(objective, widths, fractions, raw_rows)| {
            let bounds: Vec<(f64, f64)> = widths
                .iter()
                .map(|&(lo, w)| (lo - 2.0, lo - 2.0 + w))
                .collect();
            let witness: Vec<f64> = bounds
                .iter()
                .zip(&fractions)
                .map(|(&(lo, up), &f)| lo + f * (up - lo))
                .collect();
            let rows = raw_rows
                .into_iter()
                .map(|(coeffs, slack)| {
                    let activity: f64 = coeffs.iter().zip(&witness).map(|(a, x)| a * x).sum();
                    (coeffs, activity + slack)
                })
                .collect();
            FeasibleLp {
                objective,
                bounds,
                rows,
                witness,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated LP has a feasible witness and box bounds, so the
    /// solver must return an optimal solution that (a) is feasible and
    /// (b) weakly dominates the witness.
    #[test]
    fn solver_finds_feasible_dominating_point(lp in feasible_lp(5, 5)) {
        let (p, _) = lp.build(Sense::Minimize);
        let sol = p.solve().expect("bounded feasible LP must solve");
        prop_assert!(dpss_lp_oracle::agree(&p, &Ok(sol.clone())).is_ok());
        prop_assert!(p.is_feasible(sol.values(), 1e-6),
            "solution {:?} infeasible", sol.values());
        let witness_obj = p.objective_at(&lp.witness);
        prop_assert!(sol.objective() <= witness_obj + 1e-6,
            "objective {} worse than witness {}", sol.objective(), witness_obj);
    }

    /// Maximization must mirror minimization of the negated objective.
    #[test]
    fn max_equals_negated_min(lp in feasible_lp(4, 4)) {
        let (pmax, _) = lp.build(Sense::Maximize);
        let mut neg = lp.clone();
        for c in &mut neg.objective { *c = -*c; }
        let (pmin, _) = neg.build(Sense::Minimize);
        let smax = pmax.solve().expect("max LP must solve");
        let smin = pmin.solve().expect("min LP must solve");
        prop_assert!(dpss_lp_oracle::agree(&pmax, &Ok(smax.clone())).is_ok());
        prop_assert!((smax.objective() + smin.objective()).abs() < 1e-6,
            "max {} vs min {}", smax.objective(), smin.objective());
    }

    /// The optimum weakly dominates *any* sampled feasible point, not just
    /// the construction witness.
    #[test]
    fn optimum_dominates_random_feasible_points(
        lp in feasible_lp(4, 3),
        samples in proptest::collection::vec(proptest::collection::vec(0.0..1.0f64, 4), 8),
    ) {
        let (p, _) = lp.build(Sense::Minimize);
        let sol = p.solve().expect("bounded feasible LP must solve");
        for frac in samples {
            let candidate: Vec<f64> = lp.bounds.iter().zip(&frac)
                .map(|(&(lo, up), &f)| lo + f * (up - lo))
                .collect();
            if p.is_feasible(&candidate, 0.0) {
                let cand_obj = p.objective_at(&candidate);
                prop_assert!(sol.objective() <= cand_obj + 1e-6,
                    "optimum {} beaten by sampled point {}", sol.objective(), cand_obj);
            }
        }
    }

    /// Tightening the feasible region can never improve the optimum.
    #[test]
    fn extra_constraint_never_improves_objective(lp in feasible_lp(4, 3)) {
        let (p, _) = lp.build(Sense::Minimize);
        let base = p.solve().expect("base LP must solve");

        // Add a redundant-at-witness constraint: sum of vars ≤ activity+1.
        let mut tightened = lp.clone();
        let coeffs = vec![1.0; lp.objective.len()];
        let activity: f64 = lp.witness.iter().sum();
        tightened.rows.push((coeffs, activity + 1.0));
        let (p2, _) = tightened.build(Sense::Minimize);
        let tight = p2.solve().expect("tightened LP keeps the witness feasible");
        prop_assert!(tight.objective() >= base.objective() - 1e-6,
            "tightening improved objective: {} < {}", tight.objective(), base.objective());
    }
}

#[test]
fn infeasible_box_and_constraint_combination() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var(0.0, 1.0, 1.0).unwrap();
    let y = p.add_var(0.0, 1.0, 1.0).unwrap();
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 3.0)
        .unwrap();
    assert!(matches!(p.solve(), Err(LpError::Infeasible)));
    dpss_lp_oracle::agree(&p, &p.solve()).unwrap();
}

#[test]
fn large_chain_lp_solves_quickly() {
    // A frame-sized LP: 200 variables chained by 199 coupling rows, the
    // shape of the offline per-frame benchmark problem.
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<_> = (0..200)
        .map(|i| p.add_var(0.0, 10.0, 1.0 + (i % 7) as f64).unwrap())
        .collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Relation::Ge, 1.0)
            .unwrap();
    }
    let sol = p.solve().unwrap();
    assert!(p.is_feasible(sol.values(), 1e-6));
    dpss_lp_oracle::agree(&p, &Ok(sol.clone())).unwrap();
    // Optimal: alternate 1/0 patterns; objective must be at most naive
    // all-halves assignment.
    let naive = vec![0.5; 200];
    assert!(sol.objective() <= p.objective_at(&naive) + 1e-6);
}

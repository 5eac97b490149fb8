//! Warm-start equivalence and degenerate-pivoting regression tests.
//!
//! The contract of [`Problem::solve_with`] is that the workspace only
//! changes *how fast* a solve runs, never *what* it returns: the objective
//! and the feasibility verdict must match a cold solve exactly (up to
//! floating-point tolerance). The property tests below randomize frame-LP
//! shaped instances — the structure the DPSS controllers re-solve every
//! coarse frame — and compare a warm solve primed on a different instance
//! of the same shape against a cold kernel solve and the dense oracle
//! (`dpss-lp-oracle`).

use dpss_lp::{ConstraintId, LpError, LpWorkspace, Problem, Relation, Sense, Variable};
use proptest::prelude::*;

/// A parameterized frame LP: per-slot balance + battery & queue
/// recursions + an end-of-frame service deadline, the exact shape of
/// `dpss-core`'s per-frame planning problem.
#[derive(Debug, Clone)]
struct FrameInstance {
    demands: Vec<f64>,
    arrivals: Vec<f64>,
    prices: Vec<f64>,
    p_lt: f64,
    b0: f64,
    q0: f64,
}

/// The handles an in-place edit of a built [`FrameInstance`] needs.
#[derive(Debug, Clone)]
struct FrameHandles {
    g: Variable,
    grt: Vec<Variable>,
    /// Battery levels, one per slot.
    levels: Vec<Variable>,
    /// Balance rows (right-hand side: the slot's demand).
    balances: Vec<ConstraintId>,
    /// Queue recursion rows (right-hand side: arrivals, plus `q0` first).
    queues: Vec<ConstraintId>,
    /// The first battery recursion row (right-hand side: `b0`).
    battery0: ConstraintId,
    /// The end-of-frame backlog row.
    deadline: ConstraintId,
}

impl FrameInstance {
    fn build(&self) -> Problem {
        self.build_with(0.8, 1.25).0
    }

    /// Builds the frame LP with battery coefficients `charge` (per MWh
    /// charged) and `discharge` (per MWh discharged).
    fn build_with(&self, charge: f64, discharge: f64) -> (Problem, FrameHandles) {
        let t = self.demands.len();
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var(0.0, 2.0, self.p_lt * t as f64).unwrap();
        let (mut grt, mut levels, mut balances, mut queues) = (vec![], vec![], vec![], vec![]);
        let mut battery0 = None;
        let mut prev_b: Option<Variable> = None;
        let mut prev_q: Option<Variable> = None;
        for i in 0..t {
            let grt_i = p.add_var(0.0, 2.0, self.prices[i]).unwrap();
            let sdt = p.add_var(0.0, f64::INFINITY, 0.0).unwrap();
            let brc = p.add_var(0.0, 0.5, 0.2).unwrap();
            let bdc = p.add_var(0.0, 0.5, 0.2).unwrap();
            let w = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
            let b = p.add_var(0.0, 0.5, 0.0).unwrap();
            let q = p.add_var(0.0, f64::INFINITY, 0.0).unwrap();
            balances.push(
                p.add_constraint(
                    &[
                        (g, 1.0),
                        (grt_i, 1.0),
                        (bdc, 1.0),
                        (brc, -1.0),
                        (sdt, -1.0),
                        (w, -1.0),
                    ],
                    Relation::Eq,
                    self.demands[i],
                )
                .unwrap(),
            );
            let battery = [(b, 1.0), (brc, -charge), (bdc, discharge)];
            match prev_b {
                None => {
                    battery0 = Some(p.add_constraint(&battery, Relation::Eq, self.b0).unwrap());
                }
                Some(pb) => {
                    let mut terms = battery.to_vec();
                    terms.insert(1, (pb, -1.0));
                    p.add_constraint(&terms, Relation::Eq, 0.0).unwrap();
                }
            }
            queues.push(match prev_q {
                None => p
                    .add_constraint(
                        &[(q, 1.0), (sdt, 1.0)],
                        Relation::Eq,
                        self.q0 + self.arrivals[i],
                    )
                    .unwrap(),
                Some(pq) => p
                    .add_constraint(
                        &[(q, 1.0), (pq, -1.0), (sdt, 1.0)],
                        Relation::Eq,
                        self.arrivals[i],
                    )
                    .unwrap(),
            });
            grt.push(grt_i);
            levels.push(b);
            prev_b = Some(b);
            prev_q = Some(q);
        }
        // Serve at least the initial backlog by the frame end.
        let q = prev_q.expect("a frame has at least one slot");
        let deadline = p
            .add_constraint(&[(q, 1.0)], Relation::Le, self.deadline_slack())
            .unwrap();
        let handles = FrameHandles {
            g,
            grt,
            levels,
            balances,
            queues,
            battery0: battery0.expect("a frame has at least one slot"),
            deadline,
        };
        (p, handles)
    }

    fn deadline_slack(&self) -> f64 {
        self.arrivals.iter().sum::<f64>().max(0.1)
    }

    /// Writes this instance's data into a problem built by
    /// [`build_with`](Self::build_with) of the same length, by value
    /// edits only.
    fn write(&self, p: &mut Problem, h: &FrameHandles) {
        p.set_objective(h.g, self.p_lt * self.demands.len() as f64)
            .unwrap();
        for (i, (&grt, &row)) in h.grt.iter().zip(&h.balances).enumerate() {
            p.set_objective(grt, self.prices[i]).unwrap();
            p.set_rhs(row, self.demands[i]).unwrap();
        }
        for (i, &row) in h.queues.iter().enumerate() {
            let q0 = if i == 0 { self.q0 } else { 0.0 };
            p.set_rhs(row, q0 + self.arrivals[i]).unwrap();
        }
        p.set_rhs(h.battery0, self.b0).unwrap();
        p.set_rhs(h.deadline, self.deadline_slack()).unwrap();
    }
}

fn frame_instance(t: usize) -> impl Strategy<Value = FrameInstance> {
    (
        proptest::collection::vec(0.0..1.8f64, t),
        proptest::collection::vec(0.0..0.5f64, t),
        proptest::collection::vec(1.0..90.0f64, t),
        20.0..60.0f64,
        0.0..0.5f64,
        0.0..0.4f64,
    )
        .prop_map(|(demands, arrivals, prices, p_lt, b0, q0)| FrameInstance {
            demands,
            arrivals,
            prices,
            p_lt,
            b0,
            q0,
        })
}

/// Compares a cold solve against a warm solve of the same problem where
/// the workspace was primed on `primer`. Status must match; on success
/// the objectives must agree to 1e-9 (relative).
fn assert_warm_matches_cold(primer: &FrameInstance, target: &FrameInstance) {
    let mut warm_ws = LpWorkspace::new();
    primer
        .build()
        .solve_with(&mut warm_ws)
        .expect("primer instance is feasible by construction");

    let p = target.build();
    let cold = p.solve();
    let warm = p.solve_with(&mut warm_ws);
    dpss_lp_oracle::agree(&p, &cold).unwrap();
    dpss_lp_oracle::agree(&p, &warm).unwrap();
    match (&cold, &warm) {
        (Ok(c), Ok(w)) => {
            let tol = 1e-9 * (1.0 + c.objective().abs());
            assert!(
                (c.objective() - w.objective()).abs() <= tol,
                "cold {} vs warm {} (warm path: {})",
                c.objective(),
                w.objective(),
                warm_ws.last_was_warm()
            );
            assert!(
                p.is_feasible(w.values(), 1e-6),
                "warm solution infeasible: {:?}",
                w.values()
            );
        }
        (Err(ce), Err(we)) => {
            assert_eq!(
                std::mem::discriminant(ce),
                std::mem::discriminant(we),
                "cold {ce:?} vs warm {we:?}"
            );
        }
        _ => panic!("status mismatch: cold {cold:?} vs warm {warm:?}"),
    }
}

/// A fleet-flow LP: one variable per directed site pair (energy sent,
/// bounded by the pair cap), per-site donor-budget and recipient-need
/// rows, and a delivered-value objective — the exact shape of
/// `dpss-core`'s per-frame `FleetPlanner` problem.
#[derive(Debug, Clone)]
struct FlowInstance {
    sites: usize,
    /// Pair cap per ordered pair, row-major with unused diagonal.
    caps: Vec<f64>,
    donors: Vec<f64>,
    needs: Vec<f64>,
    prices: Vec<f64>,
}

impl FlowInstance {
    /// The problem, its flow variables and its rows (donor budgets, then
    /// recipient needs).
    fn build(&self) -> (Problem, Vec<Variable>, Vec<ConstraintId>) {
        let n = self.sites;
        let mut p = Problem::new(Sense::Minimize);
        let mut flows = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let f = p
                    .add_var(0.0, self.caps[i * n + j], -self.prices[j])
                    .unwrap();
                flows.push(f);
            }
        }
        let var = |i: usize, j: usize| {
            let k = i * (n - 1) + if j > i { j - 1 } else { j };
            flows[k]
        };
        let mut rows = Vec::new();
        for i in 0..n {
            let terms: Vec<(Variable, f64)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (var(i, j), 1.0))
                .collect();
            rows.push(
                p.add_constraint(&terms, Relation::Le, self.donors[i])
                    .unwrap(),
            );
        }
        for j in 0..n {
            let terms: Vec<(Variable, f64)> = (0..n)
                .filter(|&i| i != j)
                .map(|i| (var(i, j), 1.0))
                .collect();
            rows.push(
                p.add_constraint(&terms, Relation::Le, self.needs[j])
                    .unwrap(),
            );
        }
        (p, flows, rows)
    }
}

fn flow_instance(sites: usize) -> impl Strategy<Value = FlowInstance> {
    let pairs = sites * sites;
    (
        proptest::collection::vec(0.0..3.0f64, pairs),
        proptest::collection::vec(0.0..4.0f64, sites),
        proptest::collection::vec(0.0..4.0f64, sites),
        proptest::collection::vec(1.0..90.0f64, sites),
    )
        .prop_map(move |(caps, donors, needs, prices)| FlowInstance {
            sites,
            caps,
            donors,
            needs,
            prices,
        })
}

/// How the next instance of an edit chain differs from the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainStep {
    /// Nudge the right-hand sides (demands, arrivals, `b0`, `q0`).
    Rhs,
    /// Nudge the prices.
    Costs,
    /// Make the first slot's demand negative: its balance row's
    /// right-hand side flips sign.
    FlipSign,
    /// Redraw every demand: the saved basis goes primal-infeasible and
    /// the dual restore repairs it.
    Shock,
    /// Import the basis of a workspace primed on another instance.
    ImportOther,
    /// `clear_basis`: the next solve runs cold.
    Clear,
}

const CHAIN: [ChainStep; 22] = {
    use ChainStep::*;
    [
        Rhs,
        Rhs,
        Rhs,
        Costs,
        Rhs,
        Costs,
        FlipSign,
        Rhs,
        Rhs,
        Rhs,
        Shock,
        Rhs,
        Rhs,
        Rhs,
        ImportOther,
        Rhs,
        Rhs,
        Rhs,
        Clear,
        Rhs,
        Rhs,
        Rhs,
    ]
};

/// `x · (1 + δ)` with `δ ∈ [−1e-3, 1e-3)` drawn from `state`.
fn nudge(x: &mut f64, state: &mut u64) {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let unit = (*state >> 11) as f64 / (1u64 << 53) as f64;
    *x *= 1.0 + 2e-3 * (unit - 0.5);
}

/// Solves `p` through `ws` and through a fresh workspace that imported
/// `ws`'s exported basis — a checkpoint restore — and asserts the two
/// solves agree bit for bit (status, values, objective, pivot count and
/// the saved basis) and with the oracle. Returns the donor's pivots, if
/// it solved.
fn assert_restore_matches_donor(p: &Problem, ws: &mut LpWorkspace) -> Option<usize> {
    let mut restored = LpWorkspace::new();
    restored.import_basis(ws.export_basis().as_ref()).unwrap();
    let donor = p.solve_with(ws);
    let via_restore = p.solve_with(&mut restored);
    match (&donor, &via_restore) {
        (Ok(a), Ok(b)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.values()), bits(b.values()));
            assert_eq!(a.objective().to_bits(), b.objective().to_bits());
            assert_eq!(a.pivots(), b.pivots());
        }
        (Err(a), Err(b)) => assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b)),
        _ => panic!("status mismatch: {donor:?} vs {via_restore:?}"),
    }
    assert_eq!(ws.export_basis(), restored.export_basis());
    assert_eq!(ws.last_was_warm(), restored.last_was_warm());
    dpss_lp_oracle::agree(p, &donor).unwrap();
    donor.ok().map(|s| s.pivots())
}

/// Along chains of right-hand-side and cost edits, a sign flip, a shock
/// that leaves the saved basis primal-infeasible, an import of another
/// basis and a `clear_basis`, every solve equals, bit for bit, the same
/// solve from a checkpoint of the workspace, and matches the oracle. The
/// chains must exercise the dual restore: most shocks stay warm.
#[test]
fn restored_workspaces_match_their_donors_along_a_chain() {
    const CASES: usize = 48;
    let mut rng = TestRng::deterministic("restored_workspaces_match_their_donors_along_a_chain");
    let (mut warm_shocks, mut cold_after_clear) = (0, 0);
    for _ in 0..CASES {
        let mut inst = frame_instance(6).generate(&mut rng);
        let other = frame_instance(6).generate(&mut rng);
        let shock = proptest::collection::vec(0.0..1.8f64, 6).generate(&mut rng);
        let mut state = rng.next_u64();
        let mut ws = LpWorkspace::new();
        inst.build()
            .solve_with(&mut ws)
            .expect("frame LPs are feasible by construction");
        let mut other_ws = LpWorkspace::new();
        other
            .build()
            .solve_with(&mut other_ws)
            .expect("frame LPs are feasible by construction");

        for step in CHAIN {
            match step {
                ChainStep::Rhs => {
                    for x in inst.demands.iter_mut().chain(&mut inst.arrivals) {
                        nudge(x, &mut state);
                    }
                    nudge(&mut inst.b0, &mut state);
                    nudge(&mut inst.q0, &mut state);
                }
                ChainStep::Costs => {
                    for x in &mut inst.prices {
                        nudge(x, &mut state);
                    }
                    nudge(&mut inst.p_lt, &mut state);
                }
                ChainStep::FlipSign => inst.demands[0] = -0.25 - inst.demands[0],
                ChainStep::Shock => inst.demands.clone_from(&shock),
                ChainStep::ImportOther => {
                    ws.import_basis(other_ws.export_basis().as_ref()).unwrap();
                }
                ChainStep::Clear => ws.clear_basis(),
            }
            assert_restore_matches_donor(&inst.build(), &mut ws);
            match step {
                ChainStep::Shock => warm_shocks += usize::from(ws.last_was_warm()),
                ChainStep::Clear => cold_after_clear += usize::from(!ws.last_was_warm()),
                _ => {}
            }
        }
    }
    assert_eq!(cold_after_clear, CASES);
    assert!(
        warm_shocks >= CASES / 2,
        "only {warm_shocks} of {CASES} shocks stayed warm"
    );
}

/// How an in-place edit chain changes its long-lived problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EditStep {
    /// Nudge the right-hand sides; most such solves pivot nowhere.
    Rhs,
    /// Nudge the prices.
    Costs,
    /// Frame: a battery level's and a purchase's lower bounds drop below
    /// zero, which moves only right-hand sides. Flow: the pair caps are
    /// redrawn.
    Loosen,
    /// Frame: both are boxed again. Flow: the caps are restored.
    Tighten,
    /// Import the basis a workspace saved on another instance of the
    /// same shape: the image stays, the basis it must factorize changes.
    Import,
    /// Frame: demands no supply can meet. Flow: a donor budget below
    /// zero, which also leaves packing form. Either is infeasible.
    Overload,
}

const EDITS: [EditStep; 27] = {
    use EditStep::*;
    [
        Rhs, Rhs, Rhs, Costs, Costs, Rhs, Rhs, Loosen, Rhs, Rhs, Costs, Tighten, Rhs, Rhs, Import,
        Rhs, Rhs, Overload, Rhs, Rhs, Rhs, Costs, Rhs, Overload, Costs, Costs, Rhs,
    ]
};

/// [`assert_restore_matches_donor`], returning whether the solve was
/// warm and pivoted nowhere.
fn solve_and_compare(p: &Problem, ws: &mut LpWorkspace) -> bool {
    let pivots = assert_restore_matches_donor(p, ws);
    ws.last_was_warm() && pivots == Some(0)
}

/// Long-lived problems edited in place through one workspace: every
/// solve equals, bit for bit, the same solve through a fresh workspace
/// primed with the previous basis (which always builds the matrix image
/// and refactorizes) — values, objective, pivots, the saved basis and
/// the warm flag. The chains hold zero-pivot stretches, whose solves keep
/// the factorization, lower bounds that drop below zero, an imported basis,
/// an rhs that crosses zero (a packing-form flip) and re-solves after
/// infeasible edits.
#[test]
fn kept_factorizations_match_fresh_workspaces_along_edit_chains() {
    const CASES: usize = 32;
    let mut rng = TestRng::deterministic("kept_factorizations_match_fresh_workspaces");
    let (mut zero_pivot_runs, mut infeasible) = (0, 0);
    for _ in 0..CASES {
        let mut inst = frame_instance(6).generate(&mut rng);
        let (mut p, h) = inst.build_with(0.8, 1.25);
        let mut state = rng.next_u64();
        let mut other = LpWorkspace::new();
        let _ = frame_instance(6)
            .generate(&mut rng)
            .build()
            .solve_with(&mut other);
        let mut ws = LpWorkspace::new();
        let mut prev_zero = solve_and_compare(&p, &mut ws);
        for step in EDITS {
            match step {
                EditStep::Rhs => {
                    for x in inst.demands.iter_mut().chain(&mut inst.arrivals) {
                        nudge(x, &mut state);
                    }
                    nudge(&mut inst.b0, &mut state);
                    inst.write(&mut p, &h);
                }
                EditStep::Costs => {
                    for x in &mut inst.prices {
                        nudge(x, &mut state);
                    }
                    inst.write(&mut p, &h);
                }
                EditStep::Loosen => {
                    p.set_bounds(h.levels[2], -0.5, 0.5).unwrap();
                    p.set_bounds(h.grt[2], -1.0, 2.0).unwrap();
                }
                EditStep::Tighten => {
                    p.set_bounds(h.levels[2], 0.0, 0.5).unwrap();
                    p.set_bounds(h.grt[2], 0.0, 2.0).unwrap();
                }
                EditStep::Import => ws.import_basis(other.export_basis().as_ref()).unwrap(),
                EditStep::Overload => {
                    let mut over = inst.clone();
                    over.demands.fill(9.0);
                    over.write(&mut p, &h);
                }
            }
            let zero = solve_and_compare(&p, &mut ws);
            zero_pivot_runs += usize::from(prev_zero && zero);
            infeasible += usize::from(step == EditStep::Overload && ws.export_basis().is_none());
            prev_zero = zero;
        }

        let flow = flow_instance(3).generate(&mut rng);
        let (mut p, flows, rows) = flow.build();
        let mut other = LpWorkspace::new();
        let _ = flow_instance(3)
            .generate(&mut rng)
            .build()
            .0
            .solve_with(&mut other);
        let mut ws = LpWorkspace::new();
        let mut prices = flow.prices.clone();
        let mut prev_zero = solve_and_compare(&p, &mut ws);
        for step in EDITS {
            match step {
                EditStep::Rhs => {
                    for (&row, &b) in rows.iter().zip(flow.donors.iter().chain(&flow.needs)) {
                        let mut b = b;
                        nudge(&mut b, &mut state);
                        p.set_rhs(row, b).unwrap();
                    }
                }
                EditStep::Costs => {
                    for x in &mut prices {
                        nudge(x, &mut state);
                    }
                    for (k, &f) in flows.iter().enumerate() {
                        // Flow k goes to site j = the k-th off-diagonal column.
                        let (i, r) = (k / 2, k % 2);
                        let j = if r < i { r } else { r + 1 };
                        p.set_objective(f, -prices[j]).unwrap();
                    }
                }
                EditStep::Loosen => {
                    for &f in &flows {
                        p.set_bounds(f, 0.0, 3.0).unwrap();
                    }
                }
                EditStep::Tighten => {
                    let caps = flow.caps.iter().enumerate().filter(|(k, _)| k % 4 != 0);
                    for (&f, (_, &cap)) in flows.iter().zip(caps) {
                        p.set_bounds(f, 0.0, cap).unwrap();
                    }
                }
                EditStep::Import => ws.import_basis(other.export_basis().as_ref()).unwrap(),
                EditStep::Overload => p.set_rhs(rows[0], -0.5).unwrap(),
            }
            let zero = solve_and_compare(&p, &mut ws);
            zero_pivot_runs += usize::from(prev_zero && zero);
            infeasible += usize::from(step == EditStep::Overload && ws.export_basis().is_none());
            prev_zero = zero;
        }
    }
    assert!(
        zero_pivot_runs >= 16 * CASES,
        "only {zero_pivot_runs} zero-pivot warm solves followed another"
    );
    assert_eq!(infeasible, 4 * CASES, "every overload is infeasible");
}

/// One workspace alternating between two independently built problems
/// of the same shape but different coefficients, a clone that shares one
/// problem's structure and a clone that gains a row: every solve equals
/// its fresh-workspace reference bit for bit, whatever image the
/// workspace last held.
#[test]
fn a_workspace_shared_between_problems_matches_fresh_workspaces() {
    let mut rng = TestRng::deterministic("a_workspace_shared_between_problems");
    for _ in 0..16 {
        let inst = frame_instance(5).generate(&mut rng);
        let (a, h) = inst.build_with(0.8, 1.25);
        let (b, _) = inst.build_with(0.9, 1.1);
        let mut twin = a.clone();
        twin.set_rhs(h.balances[1], inst.demands[1] + 0.05).unwrap();
        let mut grown = a.clone();
        grown
            .add_constraint(&[(h.g, 1.0)], Relation::Le, 1.5)
            .unwrap();
        let mut ws = LpWorkspace::new();
        for p in [&a, &a, &b, &b, &a, &b, &twin, &a, &a, &grown, &grown, &a] {
            assert_restore_matches_donor(p, &mut ws);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The planner's frame-to-frame cap update: after a *single pair-cap
    /// bound edit* on an already-solved flow LP, a warm `solve_with` from
    /// the previous optimal basis must match a cold solve exactly
    /// (objective to 1e-9, status by discriminant) and the oracle. The
    /// flow LP is in packing form, so a basis the edit made infeasible is
    /// rejected for the feasible all-slack start.
    #[test]
    fn warm_resolve_after_single_cap_edit_matches_cold(
        inst in flow_instance(3),
        pair in 0usize..6,
        new_cap in 0.0..3.0f64,
    ) {
        let (mut p, flows, _) = inst.build();
        let mut ws = LpWorkspace::new();
        p.solve_with(&mut ws).expect("flow LPs are always feasible");

        p.set_bounds(flows[pair], 0.0, new_cap).unwrap();
        let warm = p.solve_with(&mut ws);
        let cold = p.solve();
        prop_assert!(dpss_lp_oracle::agree(&p, &warm).is_ok());
        match (&cold, &warm) {
            (Ok(c), Ok(w)) => {
                let tol = 1e-9 * (1.0 + c.objective().abs());
                prop_assert!(
                    (c.objective() - w.objective()).abs() <= tol,
                    "cold {} vs warm {} after cap edit (warm path: {})",
                    c.objective(),
                    w.objective(),
                    ws.last_was_warm()
                );
                prop_assert!(p.is_feasible(w.values(), 1e-6));
            }
            (Err(ce), Err(we)) => prop_assert_eq!(
                std::mem::discriminant(ce), std::mem::discriminant(we)),
            _ => prop_assert!(false, "status mismatch: {:?} vs {:?}", cold, warm),
        }
    }

    /// Warm-started solves of randomized frame LPs return the same
    /// objective (within 1e-9) and feasibility status as cold solves.
    #[test]
    fn warm_equals_cold_on_random_frame_lps(
        primer in frame_instance(4),
        target in frame_instance(4),
    ) {
        assert_warm_matches_cold(&primer, &target);
    }

    /// Same property on a longer frame (more rows, more degeneracy).
    #[test]
    fn warm_equals_cold_on_longer_frames(
        primer in frame_instance(8),
        target in frame_instance(8),
    ) {
        assert_warm_matches_cold(&primer, &target);
    }

    /// A whole sweep through one workspace: every solve in a chain of
    /// instances must match its own cold solve.
    #[test]
    fn workspace_chain_never_drifts(
        chain in proptest::collection::vec(frame_instance(3), 2..5),
    ) {
        let mut ws = LpWorkspace::new();
        for inst in &chain {
            let p = inst.build();
            let via_chain = p.solve_with(&mut ws);
            let cold = p.solve();
            prop_assert!(dpss_lp_oracle::agree(&p, &via_chain).is_ok());
            match (&cold, &via_chain) {
                (Ok(c), Ok(w)) => {
                    let tol = 1e-9 * (1.0 + c.objective().abs());
                    prop_assert!((c.objective() - w.objective()).abs() <= tol);
                }
                (Err(ce), Err(we)) => prop_assert_eq!(
                    std::mem::discriminant(ce), std::mem::discriminant(we)),
                _ => prop_assert!(false, "status mismatch: {:?} vs {:?}", cold, via_chain),
            }
        }
    }
}

#[test]
fn warm_path_engages_on_consecutive_frames() {
    // Deterministic sanity check that the property tests above actually
    // exercise the warm path: same-shaped consecutive frames must reuse
    // the saved basis, not silently fall back cold every time.
    let mut ws = LpWorkspace::new();
    for k in 0..6 {
        let inst = FrameInstance {
            demands: vec![0.9 + 0.1 * k as f64, 1.1, 0.7, 1.3],
            arrivals: vec![0.2, 0.3, 0.1, 0.25],
            prices: vec![40.0 + k as f64, 55.0, 35.0, 60.0],
            p_lt: 36.0,
            b0: 0.2,
            q0: 0.3,
        };
        inst.build().solve_with(&mut ws).unwrap();
    }
    assert_eq!(ws.cold_solves() + ws.warm_solves(), 6);
    // A changed right-hand side can make the saved basis primal-infeasible
    // (a genuine cold fallback), so not every solve is warm — but the warm
    // path must engage repeatedly on this mild perturbation sequence.
    assert!(
        ws.warm_solves() >= 2,
        "warm path must engage on repeated frame shapes: {} warm / {} cold",
        ws.warm_solves(),
        ws.cold_solves()
    );
}

#[test]
fn warm_path_engages_after_bound_edits() {
    // The re-solve edits keep the standard-form shape, so the saved basis
    // must actually be reused — not silently rejected — on a chain of
    // tightening/relaxing cap updates.
    let inst = FlowInstance {
        sites: 3,
        caps: vec![0.0, 2.0, 1.5, 1.0, 0.0, 2.0, 0.5, 1.0, 0.0],
        donors: vec![2.0, 1.0, 3.0],
        needs: vec![1.5, 2.5, 0.5],
        prices: vec![45.0, 60.0, 30.0],
    };
    let (mut p, flows, _) = inst.build();
    let mut ws = LpWorkspace::new();
    p.solve_with(&mut ws).unwrap();
    for (k, cap) in [(0usize, 0.5), (3, 2.0), (5, 0.0), (0, 2.0)] {
        p.set_bounds(flows[k], 0.0, cap).unwrap();
        let warm = p.solve_with(&mut ws).unwrap();
        let cold = p.solve().unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() <= 1e-9 * (1.0 + cold.objective().abs()),
            "cap edit {k}->{cap}: warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
    }
    assert!(
        ws.warm_solves() >= 2,
        "bound edits must keep the warm path eligible: {} warm / {} cold / {} rejects",
        ws.warm_solves(),
        ws.cold_solves(),
        ws.warm_rejects()
    );
}

#[test]
fn infeasible_instances_report_infeasible_on_both_paths() {
    // Demand far beyond every supply bound → infeasible regardless of
    // workspace history.
    let feasible = FrameInstance {
        demands: vec![1.0, 1.2, 0.8],
        arrivals: vec![0.2, 0.1, 0.3],
        prices: vec![45.0, 50.0, 40.0],
        p_lt: 36.0,
        b0: 0.25,
        q0: 0.2,
    };
    let mut infeasible = feasible.clone();
    infeasible.demands = vec![9.0, 9.0, 9.0]; // caps allow at most 4 + battery

    let mut ws = LpWorkspace::new();
    feasible.build().solve_with(&mut ws).unwrap();
    let warm = infeasible.build().solve_with(&mut ws);
    let cold = infeasible.build().solve();
    assert!(matches!(
        dpss_lp_oracle::solve(&infeasible.build()),
        Err(LpError::Infeasible)
    ));
    assert!(matches!(warm, Err(LpError::Infeasible)), "warm: {warm:?}");
    assert!(matches!(cold, Err(LpError::Infeasible)), "cold: {cold:?}");
}

// ---- Degenerate-pivoting regressions (Bland's-rule fallback) -----------

/// Kuhn's classic cycling LP, `min −2x₁ − 3x₂ + x₃ + 12x₄` over two
/// degenerate rows through the origin and the cap `Σx ≤ cap`.
fn kuhn(cap: f64) -> (Problem, Vec<Variable>) {
    let mut p = Problem::new(Sense::Minimize);
    let x: Vec<_> = [-2.0, -3.0, 1.0, 12.0]
        .iter()
        .map(|&c| p.add_var(0.0, f64::INFINITY, c).unwrap())
        .collect();
    for (row, rhs) in [
        ([-2.0, -9.0, 1.0, 9.0], 0.0),
        ([1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0], 0.0),
        ([1.0; 4], cap),
    ] {
        let terms: Vec<_> = x.iter().copied().zip(row).collect();
        p.add_constraint(&terms, Relation::Le, rhs).unwrap();
    }
    (p, x)
}

/// Beale's cycling LP, `min −0.75x₁ + 150x₂ − 0.02x₃ + 6x₄` over two
/// degenerate rows through the origin and `x₃ ≤ 1`.
fn beale() -> (Problem, Vec<Variable>) {
    let mut p = Problem::new(Sense::Minimize);
    let x: Vec<_> = [-0.75, 150.0, -0.02, 6.0]
        .iter()
        .map(|&c| p.add_var(0.0, f64::INFINITY, c).unwrap())
        .collect();
    for row in [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0]] {
        let terms: Vec<_> = x.iter().copied().zip(row).collect();
        p.add_constraint(&terms, Relation::Le, 0.0).unwrap();
    }
    p.add_constraint(&[(x[2], 1.0)], Relation::Le, 1.0).unwrap();
    (p, x)
}

/// Under naive Dantzig pricing with first-index tie-breaking the simplex
/// method cycles forever at the origin of Kuhn's LP. The solver's
/// degenerate-streak fallback to Bland's rule must terminate and certify
/// unboundedness-free optimality.
#[test]
fn kuhn_cycling_lp_terminates_at_optimum() {
    let (p, _) = kuhn(1.0);
    let sol = p.solve().expect("degenerate LP must terminate");
    assert!(p.is_feasible(sol.values(), 1e-7));
    dpss_lp_oracle::agree(&p, &Ok(sol.clone())).unwrap();
    // Optimum: x1 = x3 = 1/2 binding both degenerate rows, objective −1/2.
    assert!(
        (sol.objective() - (-0.5)).abs() < 1e-7,
        "objective {}",
        sol.objective()
    );
}

/// Dantzig pricing with lowest-index ties cycles at the origin of
/// Beale's LP; the Bland fallback must reach the optimum −0.05, and so
/// must the oracle.
#[test]
fn beale_cycling_lp_terminates_at_optimum() {
    let (p, _) = beale();
    let sol = p.solve().expect("degenerate LP must terminate");
    dpss_lp_oracle::agree(&p, &Ok(sol.clone())).unwrap();
    assert!(
        (sol.objective() - (-0.05)).abs() < 1e-7,
        "{}",
        sol.objective()
    );
}

/// The dual restore's Farkas verdict on dual-degenerate LPs: from the
/// all-slack basis the cost-shifted guide prices most of Kuhn's and
/// Beale's columns at zero, and a contradictory `≥` row must still come
/// back `Infeasible` cold, as the oracle says.
#[test]
fn contradictory_rows_on_degenerate_lps_are_infeasible() {
    let (mut kuhn, x) = kuhn(1.0);
    let sum: Vec<_> = x.iter().map(|&v| (v, 1.0)).collect();
    kuhn.add_constraint(&sum, Relation::Ge, 2.0).unwrap();
    let (mut beale, x) = beale();
    beale
        .add_constraint(&[(x[2], 1.0)], Relation::Ge, 2.0)
        .unwrap();
    for p in [kuhn, beale] {
        let got = p.solve();
        assert!(matches!(got, Err(LpError::Infeasible)), "{got:?}");
        dpss_lp_oracle::agree(&p, &got).unwrap();
    }
}

/// A warm Kuhn chain through an infeasible edit: the floor `Σx ≥ f`
/// rises past the cap `Σx ≤ 1` and comes back. The warm restore rejects
/// the saved basis, the cold retry proves infeasibility, and the next
/// solves return the oracle's optimum, cold and then warm again.
#[test]
fn a_warm_kuhn_chain_survives_an_infeasible_edit() {
    let (mut p, x) = kuhn(1.0);
    let sum: Vec<_> = x.iter().map(|&v| (v, 1.0)).collect();
    let floor = p.add_constraint(&sum, Relation::Ge, 0.5).unwrap();
    let mut ws = LpWorkspace::new();
    let counters = |ws: &LpWorkspace| (ws.warm_solves(), ws.cold_solves(), ws.warm_rejects());
    for (f, want) in [
        (0.5, (0, 1, 0)),
        (0.8, (1, 1, 0)),
        (2.0, (1, 2, 1)),
        (0.5, (1, 3, 1)),
        (0.8, (2, 3, 1)),
    ] {
        p.set_rhs(floor, f).unwrap();
        let got = p.solve_with(&mut ws);
        dpss_lp_oracle::agree(&p, &got).unwrap();
        match got {
            Ok(sol) => assert!((sol.objective() + 0.5).abs() < 1e-7, "f = {f}: {sol}"),
            Err(e) => assert!(f > 1.0 && e == LpError::Infeasible, "f = {f}: {e:?}"),
        }
        assert_eq!(counters(&ws), want, "f = {f}");
    }
}

/// A maximally degenerate vertex: many redundant active constraints at
/// the optimum. Every pivot is degenerate until the objective can move;
/// the fallback must still find the optimum within the pivot budget.
#[test]
fn massively_degenerate_vertex_terminates() {
    let mut p = Problem::new(Sense::Minimize);
    let n = 6;
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_var(0.0, 10.0, 1.0 + i as f64 * 0.1).unwrap())
        .collect();
    // The same covering row stated many times (all active at the optimum)…
    for _ in 0..8 {
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Ge, 1.0).unwrap();
    }
    // …plus ordering rows that are all tight at the symmetric corner.
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Relation::Ge, 0.0)
            .unwrap();
    }
    let sol = p.solve().expect("must terminate despite degeneracy");
    assert!(p.is_feasible(sol.values(), 1e-7));
    dpss_lp_oracle::agree(&p, &Ok(sol.clone())).unwrap();
    // Cheapest cover puts everything on x0 (lowest cost): objective 1.0.
    assert!(
        (sol.objective() - 1.0).abs() < 1e-7,
        "objective {}",
        sol.objective()
    );
}

/// Warm-starting *from* a degenerate optimal basis must not confuse the
/// rebuild: resolve Kuhn's LP repeatedly through one workspace.
#[test]
fn warm_restart_from_degenerate_basis_is_stable() {
    let mut ws = LpWorkspace::new();
    for cap in [1.0, 2.0, 0.5, 1.0, 3.0] {
        let (p, _) = kuhn(cap);
        let warm = p.solve_with(&mut ws).unwrap();
        let cold = p.solve().unwrap();
        dpss_lp_oracle::agree(&p, &Ok(warm.clone())).unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-9,
            "cap {cap}: warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
    }
}

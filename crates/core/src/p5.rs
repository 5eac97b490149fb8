//! The real-time balancing subproblem **P5** (Algorithm 1, step 2).
//!
//! Decision variables per fine slot: the real-time purchase
//! `g_rt ∈ [0, g_cap]` and the backlog service `s_dt = γ·Q ∈ [0, y_cap]`.
//! The battery flows follow from the balance (Eq. (4)): with
//! `net = base + g_rt − s_dt` (where `base = g_bef/T + r − d_ds`),
//!
//! * `net ≥ 0` → `brc = min(net, headroom)`, waste `W = net − brc`;
//! * `net < 0` → `bdc = −net`, feasible only while `bdc ≤ available`.
//!
//! Both supported objectives (see [`P5Objective`](crate::P5Objective)) are
//! *piecewise linear* in `(g_rt, s_dt)` over the feasible box, with all
//! kink lines of the form `g_rt − s_dt = const` (the `net = 0`,
//! charge-saturation and discharge-limit lines) plus an upward fixed-cost
//! jump `V·Cb` whenever the battery operates. A linear function on each
//! closed region attains its minimum at a region vertex, and the fixed
//! cost only jumps *up* away from the `net = 0` boundary, so enumerating
//! box corners and kink-line/edge intersections — evaluated exactly — is
//! an exact solver, and the one the controller uses. A `dpss-lp` route
//! (one LP per battery mode) is kept as its test oracle.

#[cfg(test)]
use dpss_lp::{Problem, Relation, Sense};

#[cfg(test)]
use crate::CoreError;
use crate::P5Objective;

const TOL: f64 = 1e-9;

/// Inputs to P5 (raw MWh / scalar values).
#[derive(Debug, Clone, Copy)]
pub(crate) struct P5Inputs {
    /// `g_bef(t)/T + r(τ) − d_ds(τ)`.
    pub base: f64,
    /// Real-time purchase cap (interconnect and `Smax` already applied).
    pub g_cap: f64,
    /// Service cap `min(Q, Sdtmax)`.
    pub y_cap: f64,
    /// Battery charge headroom this slot.
    pub headroom: f64,
    /// Battery discharge availability this slot.
    pub available: f64,
    /// Queue backlogs and availability queue: `Q(t)`, `Y(t)`, `X(t)`.
    pub q: f64,
    /// Delay-aware virtual queue `Y(t)`.
    pub y_queue: f64,
    /// Availability queue `X(t) = b − Umax − Bmin − Bdmax·ηd`.
    pub x: f64,
    /// Cost–delay parameter `V`.
    pub v: f64,
    /// Real-time price `p_rt(τ)`.
    pub p_rt: f64,
    /// Battery wear cost `Cb` (dollars per operating slot).
    pub cb: f64,
    /// Waste penalty price (dollars/MWh).
    pub w_pen: f64,
    /// Charge efficiency `ηc`.
    pub eta_c: f64,
    /// Discharge drain `ηd`.
    pub eta_d: f64,
    /// Objective interpretation.
    pub objective: P5Objective,
}

/// An exact minimizer of P5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct P5Solution {
    pub g_rt: f64,
    pub s_dt: f64,
    pub objective: f64,
}

/// Battery flows implied by a candidate `(g_rt, s_dt)`.
fn flows(inp: &P5Inputs, g: f64, y: f64) -> Option<(f64, f64, f64)> {
    let net = inp.base + g - y;
    if net >= 0.0 {
        let brc = net.min(inp.headroom);
        Some((brc, 0.0, net - brc))
    } else {
        let bdc = -net;
        if bdc > inp.available + 1e-7 {
            None // would violate the discharge limit → infeasible
        } else {
            Some((0.0, bdc.min(inp.available), 0.0))
        }
    }
}

/// Evaluates the configured objective at a candidate point.
fn evaluate(inp: &P5Inputs, g: f64, y: f64) -> Option<f64> {
    let (brc, bdc, waste) = flows(inp, g, y)?;
    let n = if brc > TOL || bdc > TOL { 1.0 } else { 0.0 };
    let obj = match inp.objective {
        P5Objective::Derived => {
            inp.v * (inp.p_rt * g + inp.cb * n + inp.w_pen * waste) - (inp.q + inp.y_queue) * y
                + inp.x * (inp.eta_c * brc - inp.eta_d * bdc)
        }
        P5Objective::PaperLiteral => {
            let gamma_term = if inp.q > TOL {
                (y / inp.q) * (inp.q * inp.q - inp.q * inp.y_queue)
            } else {
                0.0
            };
            g * (inp.v * inp.p_rt - inp.q - inp.y_queue)
                + gamma_term
                + inp.v * inp.cb * n
                + inp.v * waste
                + (inp.q + inp.x + inp.y_queue) * (brc - bdc)
        }
    };
    Some(obj)
}

/// Exact candidate-vertex solver (see module docs for the argument).
pub(crate) fn solve_closed_form(inp: &P5Inputs) -> P5Solution {
    let g_cap = inp.g_cap.max(0.0);
    let y_cap = inp.y_cap.max(0.0);

    let mut candidates: Vec<(f64, f64)> =
        vec![(0.0, 0.0), (g_cap, 0.0), (0.0, y_cap), (g_cap, y_cap)];
    // Kink lines g − y = c: net = 0, charge saturation, discharge limit.
    let cs = [
        -inp.base,
        inp.headroom - inp.base,
        -inp.available - inp.base,
    ];
    for c in cs {
        // Intersections with the four box edges.
        let pts = [(c, 0.0), (c + y_cap, y_cap), (0.0, -c), (g_cap, g_cap - c)];
        for (g, y) in pts {
            if (-TOL..=g_cap + TOL).contains(&g) && (-TOL..=y_cap + TOL).contains(&y) {
                candidates.push((g.clamp(0.0, g_cap), y.clamp(0.0, y_cap)));
            }
        }
    }

    let mut best: Option<P5Solution> = None;
    for (g, y) in candidates {
        let Some(obj) = evaluate(inp, g, y) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some(b) => {
                obj < b.objective - TOL
                    || ((obj - b.objective).abs() <= TOL
                        && (g < b.g_rt - TOL || ((g - b.g_rt).abs() <= TOL && y > b.s_dt + TOL)))
            }
        };
        if better {
            best = Some(P5Solution {
                g_rt: g,
                s_dt: y,
                objective: obj,
            });
        }
    }
    // All candidates infeasible: the slot cannot cover d_ds even with the
    // battery — buy everything the market allows and let the plant's guard
    // handle the remainder.
    best.unwrap_or(P5Solution {
        g_rt: g_cap,
        s_dt: 0.0,
        objective: f64::INFINITY,
    })
}

/// LP-backed minimizer: solves one LP per battery mode (charge with wear,
/// discharge with wear, idle) and takes the best. Only supports the
/// [`P5Objective::Derived`] objective (the paper-literal γ-term is handled
/// identically since it is also linear in `s_dt`). The test oracle for
/// [`solve_closed_form`].
#[cfg(test)]
pub(crate) fn solve_lp(inp: &P5Inputs) -> Result<P5Solution, CoreError> {
    let g_cap = inp.g_cap.max(0.0);
    let y_cap = inp.y_cap.max(0.0);

    // Linear coefficients of g and y for the configured objective.
    let (cg, cy) = match inp.objective {
        P5Objective::Derived => (inp.v * inp.p_rt, -(inp.q + inp.y_queue)),
        P5Objective::PaperLiteral => (
            inp.v * inp.p_rt - inp.q - inp.y_queue,
            if inp.q > TOL {
                inp.q - inp.y_queue
            } else {
                0.0
            },
        ),
    };
    // Coefficients of brc/bdc/waste per objective.
    let (c_brc, c_bdc, c_w, fixed_chg, fixed_dis) = match inp.objective {
        P5Objective::Derived => (
            inp.x * inp.eta_c,
            -inp.x * inp.eta_d,
            inp.v * inp.w_pen,
            inp.v * inp.cb,
            inp.v * inp.cb,
        ),
        P5Objective::PaperLiteral => (
            inp.q + inp.x + inp.y_queue,
            -(inp.q + inp.x + inp.y_queue),
            inp.v,
            inp.v * inp.cb,
            inp.v * inp.cb,
        ),
    };

    let mut best: Option<P5Solution> = None;
    let mut consider = |sol: Option<(f64, f64, f64)>| {
        if let Some((obj, g, y)) = sol {
            if best.as_ref().is_none_or(|b| obj < b.objective - 1e-12) {
                best = Some(P5Solution {
                    g_rt: g,
                    s_dt: y,
                    objective: obj,
                });
            }
        }
    };

    // The plant *always* charges surplus up to headroom before wasting, so
    // the LP modes must pin the battery flows the same way the closed form
    // does, not let them float: a floating flow would score a decision the
    // plant never executes.
    //
    // Mode: idle (no battery op). Only reachable with net = 0 when the
    // battery has headroom; with zero headroom all surplus becomes waste.
    {
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var("g", 0.0, g_cap, cg)?;
        let y = p.add_var("y", 0.0, y_cap, cy)?;
        if inp.headroom > TOL {
            p.add_constraint(&[(g, 1.0), (y, -1.0)], Relation::Eq, -inp.base)?;
            if let Ok(sol) = p.solve() {
                consider(Some((sol.objective(), sol.value(g), sol.value(y))));
            }
        } else {
            let w = p.add_var("w", 0.0, f64::INFINITY, c_w)?;
            p.add_constraint(&[(g, 1.0), (y, -1.0), (w, -1.0)], Relation::Eq, -inp.base)?;
            if let Ok(sol) = p.solve() {
                consider(Some((sol.objective(), sol.value(g), sol.value(y))));
            }
        }
    }
    // Mode: charging below saturation — brc = net ∈ [0, headroom], w = 0.
    if inp.headroom > TOL {
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var("g", 0.0, g_cap, cg)?;
        let y = p.add_var("y", 0.0, y_cap, cy)?;
        let brc = p.add_var("brc", 0.0, inp.headroom, c_brc)?;
        p.add_constraint(&[(g, 1.0), (y, -1.0), (brc, -1.0)], Relation::Eq, -inp.base)?;
        if let Ok(sol) = p.solve() {
            let op = if sol.value(brc) > TOL { fixed_chg } else { 0.0 };
            consider(Some((sol.objective() + op, sol.value(g), sol.value(y))));
        }
    }
    // Mode: charging saturated — brc = headroom pinned, w = net − headroom.
    if inp.headroom > TOL {
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var("g", 0.0, g_cap, cg)?;
        let y = p.add_var("y", 0.0, y_cap, cy)?;
        let w = p.add_var("w", 0.0, f64::INFINITY, c_w)?;
        p.add_constraint(
            &[(g, 1.0), (y, -1.0), (w, -1.0)],
            Relation::Eq,
            inp.headroom - inp.base,
        )?;
        if let Ok(sol) = p.solve() {
            let op = fixed_chg + c_brc * inp.headroom;
            consider(Some((sol.objective() + op, sol.value(g), sol.value(y))));
        }
    }
    // Mode: discharge. y − g − base = bdc ∈ (0, available].
    if inp.available > TOL {
        let mut p = Problem::new(Sense::Minimize);
        let g = p.add_var("g", 0.0, g_cap, cg)?;
        let y = p.add_var("y", 0.0, y_cap, cy)?;
        let bdc = p.add_var("bdc", 0.0, inp.available, c_bdc)?;
        p.add_constraint(&[(y, 1.0), (g, -1.0), (bdc, -1.0)], Relation::Eq, inp.base)?;
        if let Ok(sol) = p.solve() {
            let op = if sol.value(bdc) > TOL { fixed_dis } else { 0.0 };
            consider(Some((sol.objective() + op, sol.value(g), sol.value(y))));
        }
    }

    Ok(best.unwrap_or(P5Solution {
        g_rt: g_cap,
        s_dt: 0.0,
        objective: f64::INFINITY,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> P5Inputs {
        P5Inputs {
            base: 0.0,
            g_cap: 2.0,
            y_cap: 1.0,
            headroom: 0.5,
            available: 0.3,
            q: 1.0,
            y_queue: 1.0,
            x: -5.0,
            v: 1.0,
            p_rt: 50.0,
            cb: 0.1,
            w_pen: 1.0,
            eta_c: 0.8,
            eta_d: 1.25,
            objective: P5Objective::Derived,
        }
    }

    #[test]
    fn flows_match_plant_semantics() {
        let inp = inputs();
        // Surplus charges then wastes.
        let (brc, bdc, w) = flows(&inp, 1.0, 0.2).unwrap(); // net 0.8
        assert!((brc - 0.5).abs() < 1e-12);
        assert_eq!(bdc, 0.0);
        assert!((w - 0.3).abs() < 1e-12);
        // Deficit within the battery's reach discharges.
        let (brc, bdc, w) = flows(&inp, 0.0, 0.25).unwrap(); // net −0.25
        assert_eq!(brc, 0.0);
        assert!((bdc - 0.25).abs() < 1e-12);
        assert_eq!(w, 0.0);
        // Deficit beyond the battery is infeasible.
        assert!(flows(&inp, 0.0, 0.9).is_none());
    }

    #[test]
    fn expensive_rt_price_means_no_speculative_buying() {
        // Queue weights are small relative to V·p_rt: don't buy for the
        // queue; serve only what surplus/battery justify.
        let sol = solve_closed_form(&inputs());
        assert!(sol.g_rt < 1e-9, "bought {}", sol.g_rt);
    }

    #[test]
    fn huge_queue_weight_triggers_buying() {
        let mut inp = inputs();
        inp.q = 40.0;
        inp.y_queue = 30.0; // Q + Y = 70 > V·p_rt = 50
        let sol = solve_closed_form(&inp);
        assert!(sol.g_rt > 0.0, "should buy for the backlog");
        assert!(sol.s_dt > 0.0, "and serve it");
    }

    #[test]
    fn negative_x_rewards_charging_surplus() {
        let mut inp = inputs();
        inp.base = 0.6; // renewable surplus
        inp.q = 0.0;
        inp.y_queue = 0.0;
        inp.y_cap = 0.0;
        let sol = solve_closed_form(&inp);
        // With X very negative, charging beats wasting: candidate net =
        // headroom line or corner; surplus (0.6) exceeds headroom (0.5) →
        // charge 0.5, waste 0.1, buy nothing.
        assert!(sol.g_rt < 1e-9);
        let (brc, _, w) = flows(&inp, sol.g_rt, sol.s_dt).unwrap();
        assert!((brc - 0.5).abs() < 1e-9);
        assert!((w - 0.1).abs() < 1e-9);
    }

    #[test]
    fn positive_x_prefers_discharging_to_serve_backlog() {
        let mut inp = inputs();
        inp.x = 3.0; // battery above the safety shift: discharging rewarded
        inp.q = 2.0;
        inp.y_queue = 1.0;
        inp.y_cap = 0.3;
        inp.available = 0.3;
        let sol = solve_closed_form(&inp);
        assert!(sol.s_dt > 0.0, "serves from the battery: {sol:?}");
        assert!(sol.g_rt < 1e-9);
    }

    #[test]
    fn feasibility_minimum_purchase_enforced() {
        let mut inp = inputs();
        inp.base = -1.0; // d_ds exceeds allocation+renewables by 1
        inp.available = 0.3;
        inp.y_cap = 0.0;
        inp.q = 0.0;
        inp.y_queue = 0.0;
        let sol = solve_closed_form(&inp);
        // Must buy at least 0.7 to stay feasible with max discharge.
        assert!(sol.g_rt >= 0.7 - 1e-9, "bought {}", sol.g_rt);
    }

    #[test]
    fn infeasible_slot_falls_back_to_max_purchase() {
        let mut inp = inputs();
        inp.base = -5.0;
        inp.g_cap = 2.0;
        inp.available = 0.3; // even max purchase + battery cannot cover
        let sol = solve_closed_form(&inp);
        assert_eq!(sol.g_rt, 2.0);
        assert_eq!(sol.s_dt, 0.0);
        assert!(sol.objective.is_infinite());
    }

    #[test]
    fn lp_agrees_with_closed_form_on_grid() {
        // Sweep a grid of parameter combinations; the LP mode decomposition
        // and the vertex enumeration must agree on the objective value.
        let mut count = 0;
        for &base in &[-0.8, -0.2, 0.0, 0.4, 1.2] {
            for &qv in &[0.0, 1.0, 6.0, 60.0] {
                for &x in &[-6.0, -1.0, 0.5, 4.0] {
                    for &obj in &[P5Objective::Derived, P5Objective::PaperLiteral] {
                        let mut inp = inputs();
                        inp.base = base;
                        inp.q = qv;
                        inp.y_queue = qv * 0.8;
                        inp.y_cap = qv.min(1.5);
                        inp.x = x;
                        inp.objective = obj;
                        let cf = solve_closed_form(&inp);
                        let lp = solve_lp(&inp).unwrap();
                        if cf.objective.is_infinite() {
                            assert!(lp.objective.is_infinite(), "{inp:?}");
                            continue;
                        }
                        assert!(
                            (cf.objective - lp.objective).abs() < 1e-6,
                            "{inp:?}\ncf {cf:?}\nlp {lp:?}"
                        );
                        count += 1;
                    }
                }
            }
        }
        assert!(count > 100, "swept {count} feasible cases");
    }

    #[test]
    fn closed_form_beats_dense_grid_scan() {
        // Brute-force check on a dense grid: no grid point may beat the
        // vertex solution.
        for &base in &[-0.5, 0.0, 0.7] {
            for &x in &[-4.0, 2.0] {
                let mut inp = inputs();
                inp.base = base;
                inp.x = x;
                inp.q = 3.0;
                inp.y_queue = 2.0;
                inp.y_cap = 1.0;
                let best = solve_closed_form(&inp);
                for i in 0..=60 {
                    for j in 0..=60 {
                        let g = inp.g_cap * i as f64 / 60.0;
                        let y = inp.y_cap * j as f64 / 60.0;
                        if let Some(obj) = evaluate(&inp, g, y) {
                            assert!(
                                best.objective <= obj + 1e-7,
                                "grid point ({g},{y}) = {obj} beats {best:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_caps_degenerate_cleanly() {
        let mut inp = inputs();
        inp.g_cap = 0.0;
        inp.y_cap = 0.0;
        let sol = solve_closed_form(&inp);
        assert_eq!(sol.g_rt, 0.0);
        assert_eq!(sol.s_dt, 0.0);
        assert!(sol.objective.is_finite());
    }
}

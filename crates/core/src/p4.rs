//! The long-term-ahead purchasing subproblem **P4** (Algorithm 1, step 1):
//!
//! ```text
//! min  g_bef(t) · [ V·p_lt(t) − Q(t) − Y(t) ]
//! s.t. g_bef(t)/T + r(t) + avail(b(t)) ≥ d_ds(t)
//!      0 ≤ g_bef(t)/T ≤ Pgrid·Δh
//! ```
//!
//! A one-variable LP with a trivial closed form: buy the feasibility
//! minimum when the weight is positive, buy up to the cap when it is
//! negative. The controller uses the exact closed form; a `dpss-lp`
//! simplex route is kept as a test oracle, and tests assert they agree.

#[cfg(test)]
use dpss_lp::{Problem, Relation, Sense};

#[cfg(test)]
use crate::CoreError;

/// Inputs to P4, all in MWh / raw scalars (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct P4Inputs {
    /// Objective weight `V·p_lt − (Q + Y)`.
    pub weight: f64,
    /// Per-slot feasibility requirement `(d_ds − r − avail(b))⁺`.
    pub need_per_slot: f64,
    /// Fine slots per frame `T`.
    pub slots: f64,
    /// Per-slot grid cap `Pgrid·Δh`.
    pub slot_cap: f64,
    /// Optional additional cap on the *total* frame purchase (the
    /// waste-aware P4 variant); `f64::INFINITY` disables it.
    pub total_cap: f64,
}

impl P4Inputs {
    fn g_min(&self) -> f64 {
        (self.need_per_slot.max(0.0) * self.slots).min(self.g_max())
    }

    fn g_max(&self) -> f64 {
        (self.slot_cap * self.slots).min(self.total_cap).max(0.0)
    }
}

/// Exact closed-form minimizer of P4. Returns the total frame purchase
/// `g_bef(t)`.
pub(crate) fn solve_closed_form(inp: &P4Inputs) -> f64 {
    if inp.weight < 0.0 {
        inp.g_max()
    } else {
        // Positive (or zero) weight: buy only what feasibility demands.
        inp.g_min()
    }
}

/// LP-backed minimizer of P4 via the `dpss-lp` simplex (the test oracle
/// for [`solve_closed_form`]).
#[cfg(test)]
pub(crate) fn solve_lp(inp: &P4Inputs) -> Result<f64, CoreError> {
    let mut p = Problem::new(Sense::Minimize);
    let g = p.add_var(0.0, inp.g_max(), inp.weight)?;
    // Demand-cover constraint, expressed on the total purchase.
    p.add_constraint(&[(g, 1.0)], Relation::Ge, inp.g_min())?;
    let sol = p.solve()?;
    Ok(sol.value(g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(weight: f64, need: f64) -> P4Inputs {
        P4Inputs {
            weight,
            need_per_slot: need,
            slots: 24.0,
            slot_cap: 2.0,
            total_cap: f64::INFINITY,
        }
    }

    #[test]
    fn positive_weight_buys_feasibility_minimum() {
        let inp = inputs(10.0, 0.3);
        assert!((solve_closed_form(&inp) - 7.2).abs() < 1e-12);
        let inp = inputs(10.0, 0.0);
        assert_eq!(solve_closed_form(&inp), 0.0);
        let inp = inputs(10.0, -5.0); // abundant renewables: no need
        assert_eq!(solve_closed_form(&inp), 0.0);
    }

    #[test]
    fn negative_weight_buys_to_the_cap() {
        let inp = inputs(-1.0, 0.3);
        assert!((solve_closed_form(&inp) - 48.0).abs() < 1e-12);
    }

    #[test]
    fn need_clamped_to_interconnect() {
        let inp = inputs(10.0, 5.0); // need above Pgrid
        assert!((solve_closed_form(&inp) - 48.0).abs() < 1e-12);
    }

    #[test]
    fn waste_aware_total_cap_binds() {
        let mut inp = inputs(-1.0, 0.1);
        inp.total_cap = 10.0;
        assert!((solve_closed_form(&inp) - 10.0).abs() < 1e-12);
        // The cap never cuts below the feasibility minimum … g_min is also
        // limited by g_max by construction.
        inp.total_cap = 1.0;
        inp.weight = 10.0;
        assert!((solve_closed_form(&inp) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lp_agrees_with_closed_form() {
        for weight in [-25.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 40.0] {
            for need in [-1.0, 0.0, 0.17, 1.5, 5.0] {
                for total_cap in [f64::INFINITY, 20.0, 3.0] {
                    let mut inp = inputs(weight, need);
                    inp.total_cap = total_cap;
                    let cf = solve_closed_form(&inp);
                    let lp = solve_lp(&inp).unwrap();
                    // Zero weight admits any feasible g; compare objectives,
                    // not argmins.
                    if weight == 0.0 {
                        assert!((cf * weight - lp * weight).abs() < 1e-9);
                    } else {
                        assert!(
                            (cf - lp).abs() < 1e-7,
                            "weight {weight} need {need} cap {total_cap}: {cf} vs {lp}"
                        );
                    }
                }
            }
        }
    }
}

//! Workload routing: the co-optimizing dispatcher that plans request
//! migration alongside the energy flows.
//!
//! [`RoutingPlanner`] wraps a [`FleetPlanner`] and settles each coarse
//! frame *lexicographically*: the energy settlement is the wrapped
//! planner's LP, byte-identical to a routing-off run (one solve, shared
//! via [`FleetPlanner::plan_with_exports`]); the workload plan then
//! consumes the **residual** curtailment — what each site curtailed
//! minus what the energy settlement already exported — through a second,
//! workload-only transportation LP:
//!
//! * one *self* variable per site (absorb the site's own queued work
//!   locally) and one variable per open directed link (migrate queued
//!   work to the host and absorb it there, bounded by the per-link
//!   migration cap);
//! * donor rows `Σ_j a(i,j) ≤ availableᵢ` (a site cannot route more work
//!   than it has queued) and host rows `Σ_i a(i,j) ≤ residualⱼ` (a host
//!   cannot absorb more work than its leftover curtailment);
//! * objective: maximize the spot bill avoided, `max Σ π_i·a(i,j)` —
//!   every absorbed unit would otherwise be billed at its *donor*'s
//!   frame-mean real-time price. Cross-site flows carry an infinitesimal
//!   penalty so ties break toward local absorption (no pointless
//!   migration when the value is equal).
//!
//! Because the energy LP never sees the workload and the workload LP
//! only eats curtailment the energy LP declined to export, co-optimized
//! routing can only *remove* spot-billed work relative to the
//! serve-on-arrival baseline — the cost-dominance half of the load
//! conservation property suite.
//!
//! Like the fleet planner, the migration LP is a template (built once
//! per topology) re-solved through one warm-started [`LpWorkspace`] with
//! per-frame objective/bound/rhs edits; like every fleet LP it is in
//! packing form, so its cold start needs no dual restore.

// The routing planner mints every LP variable/row it later edits in its
// own template build pass, and all per-site vectors are sized from the
// wrapped topology's roster.
// audit:allow-file(panic-unwrap): expects assert invariants of the LP template this module itself builds
// audit:allow-file(slice-index): variable/row ids are minted by the same template build pass; rosters sized from the topology

use dpss_lp::{ConstraintId, LpWorkspace, Problem, Relation, Sense, SolverStats, Variable};
use dpss_sim::{
    FrameDirective, FrameExchange, FrameOutlook, FrameSettlement, Interconnect, LoadFlow,
    LoadFrame, LoadPlan, RoutedDispatcher, RoutingConfig, SimError,
};
use dpss_units::Energy;

use crate::FleetPlanner;

/// Cross-site flows are worth this much less than local absorption per
/// MWh, purely as a tie-break: when a donor's work is equally valuable
/// absorbed anywhere, the plan keeps it home rather than burning
/// migration cap.
const MIGRATION_TIE_BREAK: f64 = 1e-6;

/// Below this much total work or residual curtailment (MWh) a frame has
/// nothing to plan and the LP solve is skipped outright.
const NEGLIGIBLE_MWH: f64 = 1e-12;

/// The co-optimizing routed dispatcher: a [`FleetPlanner`] for the
/// energy flows plus a workload-absorption transportation LP over the
/// residual curtailment (see the module docs for the formulation).
///
/// # Examples
///
/// ```
/// use dpss_core::{FleetPlanner, RoutingPlanner};
/// use dpss_sim::{Interconnect, RoutingConfig};
/// use dpss_units::Energy;
///
/// # fn main() -> Result<(), dpss_sim::SimError> {
/// let ic = Interconnect::uniform(3, Energy::from_mwh(2.0))?;
/// let planner = RoutingPlanner::new(FleetPlanner::new(ic), RoutingConfig::icdcs13())?;
/// assert_eq!(planner.config().max_queue_age, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoutingPlanner {
    inner: FleetPlanner,
    config: RoutingConfig,
    /// The migration LP template; objective, bounds and right-hand sides
    /// are edited per frame.
    problem: Problem,
    /// `(donor, host, variable)`: one self entry `(i, i, _)` per site —
    /// emitted first, in site order — then one entry per open link,
    /// donor-major.
    vars: Vec<(usize, usize, Variable)>,
    /// Donor availability row per site.
    supply_rows: Vec<ConstraintId>,
    /// Host residual-curtailment row per site.
    host_rows: Vec<ConstraintId>,
    workspace: LpWorkspace,
}

impl RoutingPlanner {
    /// Builds the routed dispatcher around an energy planner, minting
    /// the migration LP template for the planner's topology.
    ///
    /// # Errors
    ///
    /// Propagates [`RoutingConfig::validate`] errors.
    pub fn new(inner: FleetPlanner, config: RoutingConfig) -> Result<Self, SimError> {
        config.validate()?;
        let ic = inner.interconnect();
        let n = ic.sites();
        let mut problem = Problem::new(Sense::Minimize);
        let mut vars: Vec<(usize, usize, Variable)> = (0..n)
            .map(|i| {
                let var = problem
                    .add_var(0.0, 0.0, 0.0)
                    .expect("template variables are well-formed");
                (i, i, var)
            })
            .collect();
        let cap = RoutingConfig::MIGRATION_CAP.mwh();
        for (i, j) in ic.open_links() {
            let var = problem
                .add_var(0.0, cap, 0.0)
                .expect("the migration cap is finite");
            vars.push((i, j, var));
        }
        let mut supply_rows = Vec::with_capacity(n);
        let mut host_rows = Vec::with_capacity(n);
        for s in 0..n {
            let outgoing: Vec<(Variable, f64)> = vars
                .iter()
                .filter(|&&(i, _, _)| i == s)
                .map(|&(_, _, v)| (v, 1.0))
                .collect();
            supply_rows.push(
                problem
                    .add_constraint(&outgoing, Relation::Le, 0.0)
                    .expect("template rows are well-formed"),
            );
            let incoming: Vec<(Variable, f64)> = vars
                .iter()
                .filter(|&&(_, j, _)| j == s)
                .map(|&(_, _, v)| (v, 1.0))
                .collect();
            host_rows.push(
                problem
                    .add_constraint(&incoming, Relation::Le, 0.0)
                    .expect("template rows are well-formed"),
            );
        }
        Ok(RoutingPlanner {
            inner,
            config,
            problem,
            vars,
            supply_rows,
            host_rows,
            workspace: LpWorkspace::new(),
        })
    }

    /// The admission/queue configuration this dispatcher plans for.
    /// Callers pass the same value to
    /// [`MultiSiteEngine::run_routed`](dpss_sim::MultiSiteEngine::run_routed).
    #[must_use]
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// The wrapped energy planner.
    #[must_use]
    pub fn inner(&self) -> &FleetPlanner {
        &self.inner
    }

    /// Plans this frame's absorption/migration flows over the residual
    /// curtailment. Pure given the planner's warm-start history.
    fn plan_load(&mut self, residual: &[Energy], load: &LoadFrame) -> LoadPlan {
        let work: f64 = load.available.iter().map(|e| e.mwh()).sum();
        let slack: f64 = residual.iter().map(|e| e.mwh()).sum();
        if work <= NEGLIGIBLE_MWH || slack <= NEGLIGIBLE_MWH {
            return LoadPlan::default();
        }
        let cap = RoutingConfig::MIGRATION_CAP.mwh();
        for &(i, j, var) in &self.vars {
            // Absorbing one MWh of donor i's queued work avoids billing
            // it at i's frame-mean spot price.
            let value = if i == j {
                load.spot[i]
            } else {
                load.spot[i] - MIGRATION_TIE_BREAK
            };
            self.problem
                .set_objective(var, -value)
                .expect("template variables stay valid");
            let avail = load.available[i].mwh().max(0.0);
            let ub = if i == j { avail } else { cap.min(avail) };
            self.problem
                .set_bounds(var, 0.0, ub)
                .expect("availability and caps are non-negative");
        }
        for ((&supply, &host), (avail, res)) in self
            .supply_rows
            .iter()
            .zip(&self.host_rows)
            .zip(load.available.iter().zip(residual))
        {
            self.problem
                .set_rhs(supply, avail.mwh().max(0.0))
                .expect("template rows stay valid");
            self.problem
                .set_rhs(host, res.mwh().max(0.0))
                .expect("template rows stay valid");
        }
        let sol = self
            .problem
            .solve_with(&mut self.workspace)
            .expect("the migration LP is feasible (zero flow) and box-bounded");
        let absorb: Vec<LoadFlow> = self
            .vars
            .iter()
            .filter_map(|&(i, j, var)| {
                let amount = sol.value(var);
                (amount > NEGLIGIBLE_MWH).then(|| LoadFlow {
                    from: i,
                    to: j,
                    amount: Energy::from_mwh(amount),
                })
            })
            .collect();
        self.workspace.recycle(sol);
        LoadPlan { absorb }
    }

    /// Cumulative solver telemetry across the wrapped energy planner's
    /// workspaces and the migration LP's own. See [`SolverStats`].
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        let mut stats = self.inner.solver_stats();
        stats.merge(&self.workspace.stats());
        stats
    }
}

impl RoutedDispatcher for RoutingPlanner {
    fn topology(&self) -> Option<&Interconnect> {
        Some(self.inner.interconnect())
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        // Delegates to the energy planner, which ignores the outlook's
        // workload annotation — directives are byte-identical to a
        // routing-off run with the same inner planner.
        dpss_sim::FleetDispatcher::direct(&mut self.inner, outlook)
    }

    fn settle_routed(
        &mut self,
        ex: &FrameExchange,
        load: &LoadFrame,
    ) -> (FrameSettlement, LoadPlan) {
        // One energy solve serves both layers: the settlement is exactly
        // what FleetPlanner::plan would return, and the per-donor sent
        // totals price the residual the workload LP may consume.
        let (settlement, sent) = self.inner.plan_with_exports(ex);
        let residual: Vec<Energy> = ex
            .curtailed
            .iter()
            .zip(&sent)
            .map(|(c, s)| (*c - *s).positive_part())
            .collect();
        let plan = self.plan_load(&residual, load);
        (settlement, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(frame: usize, available: &[f64], spot: &[f64]) -> LoadFrame {
        LoadFrame {
            frame,
            available: available.iter().copied().map(Energy::from_mwh).collect(),
            due: vec![Energy::ZERO; available.len()],
            spot: spot.to_vec(),
        }
    }

    fn exchange(frame: usize, curtailed: &[f64]) -> FrameExchange {
        FrameExchange {
            frame,
            curtailed: curtailed.iter().copied().map(Energy::from_mwh).collect(),
            rt_energy: vec![Energy::ZERO; curtailed.len()],
            rt_price: vec![0.0; curtailed.len()],
        }
    }

    fn planner(ic: Interconnect) -> RoutingPlanner {
        RoutingPlanner::new(FleetPlanner::new(ic), RoutingConfig::icdcs13()).unwrap()
    }

    #[test]
    fn rejects_invalid_configs() {
        let ic = Interconnect::decoupled(2).unwrap();
        let bad = RoutingConfig::icdcs13().with_interactive_fraction(2.0);
        assert!(RoutingPlanner::new(FleetPlanner::new(ic), bad).is_err());
    }

    #[test]
    fn local_absorption_is_clamped_to_residual_and_availability() {
        let mut p = planner(Interconnect::decoupled(2).unwrap());
        // Site 0: 3 MWh queued, 1 MWh residual. Site 1: 0.5 queued, 9 residual.
        let plan = p.plan_load(
            &[Energy::from_mwh(1.0), Energy::from_mwh(9.0)],
            &load(0, &[3.0, 0.5], &[40.0, 40.0]),
        );
        let absorbed_at = |site: usize| -> f64 {
            plan.absorb
                .iter()
                .filter(|f| f.from == site && f.to == site)
                .map(|f| f.amount.mwh())
                .sum()
        };
        assert!((absorbed_at(0) - 1.0).abs() < 1e-9, "clamped to residual");
        assert!((absorbed_at(1) - 0.5).abs() < 1e-9, "clamped to queue");
        // Decoupled topology mints no migration variables at all.
        assert!(plan.absorb.iter().all(|f| f.from == f.to));
    }

    #[test]
    fn migration_moves_work_toward_leftover_curtailment() {
        // Site 0 queues expensive work with no slack; site 1 has slack
        // and nothing queued. The plan migrates up to the link cap.
        let mut p = planner(Interconnect::uniform(2, Energy::from_mwh(5.0)).unwrap());
        let plan = p.plan_load(
            &[Energy::ZERO, Energy::from_mwh(4.0)],
            &load(0, &[3.0, 0.0], &[80.0, 20.0]),
        );
        let migrated: f64 = plan
            .absorb
            .iter()
            .filter(|f| f.from == 0 && f.to == 1)
            .map(|f| f.amount.mwh())
            .sum();
        let cap = RoutingConfig::MIGRATION_CAP.mwh();
        assert!((migrated - cap).abs() < 1e-9, "migrates exactly the cap");
    }

    #[test]
    fn ties_break_toward_local_absorption() {
        // Both sites have slack for site 0's work at equal value: the
        // tie-break keeps it home instead of burning migration cap.
        let mut p = planner(Interconnect::uniform(2, Energy::from_mwh(5.0)).unwrap());
        let plan = p.plan_load(
            &[Energy::from_mwh(5.0), Energy::from_mwh(5.0)],
            &load(0, &[2.0, 0.0], &[50.0, 50.0]),
        );
        let local: f64 = plan
            .absorb
            .iter()
            .filter(|f| f.from == 0 && f.to == 0)
            .map(|f| f.amount.mwh())
            .sum();
        assert!((local - 2.0).abs() < 1e-9, "all of it absorbed locally");
    }

    #[test]
    fn skips_the_solve_when_nothing_to_plan() {
        let mut p = planner(Interconnect::uniform(2, Energy::from_mwh(5.0)).unwrap());
        // No queued work.
        assert!(p
            .plan_load(
                &[Energy::from_mwh(3.0); 2],
                &load(0, &[0.0, 0.0], &[50.0; 2])
            )
            .absorb
            .is_empty());
        // No residual curtailment.
        assert!(p
            .plan_load(&[Energy::ZERO; 2], &load(1, &[3.0, 0.0], &[50.0; 2]))
            .absorb
            .is_empty());
    }

    #[test]
    fn energy_settlement_matches_the_wrapped_planner_exactly() {
        // The routed settle must reproduce FleetPlanner::plan byte for
        // byte over the same exchange sequence — including warm-start
        // history — so co-optimized energy flows equal routing-off ones.
        let ic = Interconnect::uniform(3, Energy::from_mwh(2.0))
            .unwrap()
            .with_uniform_loss(0.05)
            .unwrap();
        let mut routed = planner(ic.clone());
        let mut plain = FleetPlanner::new(ic);
        for frame in 0..4 {
            let mut ex = exchange(frame, &[2.0, 0.0, 0.5]);
            ex.rt_energy = vec![
                Energy::ZERO,
                Energy::from_mwh(1.0 + frame as f64 * 0.2),
                Energy::ZERO,
            ];
            ex.rt_price = vec![0.0, 70.0, 10.0];
            let lf = load(frame, &[1.0, 0.0, 0.0], &[45.0, 45.0, 45.0]);
            let (s, _) = routed.settle_routed(&ex, &lf);
            assert_eq!(s, plain.plan(&ex), "frame {frame}");
        }
    }

    #[test]
    fn planned_flows_never_exceed_what_settlement_left_over() {
        // Absorption honesty: per host, planned inflow ≤ residual after
        // the energy settlement's exports.
        let ic = Interconnect::uniform(2, Energy::from_mwh(2.0)).unwrap();
        let mut routed = planner(ic);
        let mut ex = exchange(0, &[3.0, 0.0]);
        ex.rt_energy = vec![Energy::ZERO, Energy::from_mwh(1.5)];
        ex.rt_price = vec![0.0, 90.0];
        let lf = load(0, &[5.0, 0.0], &[60.0, 60.0]);
        let (s, plan) = routed.settle_routed(&ex, &lf);
        assert!(s.sent > Energy::ZERO, "test premise: settlement exports");
        let absorbed_at_0: f64 = plan
            .absorb
            .iter()
            .filter(|f| f.to == 0)
            .map(|f| f.amount.mwh())
            .sum();
        let residual_0 = (Energy::from_mwh(3.0) - s.sent).positive_part().mwh();
        assert!(
            absorbed_at_0 <= residual_0 + 1e-9,
            "absorbed {absorbed_at_0} must fit residual {residual_0}"
        );
    }
}

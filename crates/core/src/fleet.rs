//! The fleet export planner: per-coarse-frame linear programs over the
//! interconnect topology.
//!
//! The post-hoc settlement in `dpss-sim`
//! ([`Interconnect::settle_greedy`]) matches curtailment to expensive
//! real-time purchases link by link — a myopic fold that is optimal for
//! the legacy pooled lossless topology but not in general: with per-pair
//! caps, line losses or wheeling prices, serving the most expensive
//! recipient first can strand cheap capacity that a joint plan would
//! route differently. [`FleetPlanner`] closes that gap by *planning* each
//! frame's exports as a linear program:
//!
//! * one flow variable per open directed link `i → j`, bounded by the
//!   pair cap (tightened each frame to the donor's curtailment — the
//!   frame-to-frame bound edits the warm-start layer's dual phase was
//!   built for);
//! * per-site donor rows (`Σⱼ f(i,j) ≤` curtailed `i`) and recipient
//!   rows (`Σᵢ (1−loss)·f(i,j) ≤` real-time need `j`), plus the pooled
//!   cap row when the topology has one;
//! * objective: maximize delivered value minus wheeling
//!   (`min Σ f·(wheel − p_rt·(1−loss))`).
//!
//! Consecutive frames share the constraint structure, so the planner
//! edits objective, bounds and right-hand sides in place
//! ([`Problem::set_objective`] / [`set_bounds`](Problem::set_bounds) /
//! [`set_rhs`](Problem::set_rhs)) and re-solves through one
//! [`LpWorkspace`], warm-starting from the previous frame's basis.
//!
//! The greedy settlement is always a feasible point of this LP, so the
//! planned fleet cost is never worse than the post-hoc one — the
//! acceptance property `interconnect_physics.rs` pins across every
//! built-in scenario pack.
//!
//! [`DispatchMode`] is the roster of the three ways a fleet dispatches:
//! the greedy fold after each frame (post-hoc), this planner settling
//! (planned), and this planner also directing the sites between frames
//! (coordinated). [`DispatchMode::dispatcher`] builds each mode's
//! [`ModeDispatcher`] over a topology — by default
//! [`default_interconnect`].
//!
//! # Solver path
//!
//! Both planner LPs are *packing form* (every row `≤` with non-negative
//! rhs, every variable in `[0, u]`), so every fleet LP — settlement,
//! prospective and the routing planner's migration LP — starts from a
//! feasible all-slack basis on `dpss-lp`'s factorized revised simplex
//! ([`Problem::solve_with`]), with no dual restore. The prospective
//! template is **aggregated**: the buy penalty depends only on the donor,
//! so instead of splitting every link into free and bought flow it
//! carries one total-flow variable per link and one bought-energy
//! variable per donor — `O(sites)` rows instead of `O(links)`, which on
//! an `n`-site mesh is
//! the difference between a `3n+1`-row and an `n² + 3n`-row system, with
//! the same optimum as the split form (`dpss-lp`'s
//! `tests/network_equivalence.rs` pins both shapes against its dense
//! test oracle).

// The fleet planner mints every LP variable/constraint id it later edits
// or reads, in the same template build pass; site/pair vectors are sized
// from the engine roster it plans for. Solver errors are propagated as
// `CoreError` — expects here assert template invariants (finite caps,
// well-formed rows), not runtime conditions.
// audit:allow-file(panic-unwrap): expects assert invariants of the LP template this module itself builds; solver errors propagate as CoreError
// audit:allow-file(slice-index): variable/constraint ids are minted by the same template build pass; rosters are sized from the engine fleet

use std::fmt;

use dpss_lp::{
    BasisSnapshot, ConstraintId, LpWorkspace, Problem, Relation, Sense, SolverStats, Variable,
};
use dpss_sim::{
    FleetDispatcher, FrameDirective, FrameExchange, FrameOutlook, FrameSettlement, Interconnect,
    MultiSiteEngine, SimError,
};
use dpss_units::{Energy, Money};
use serde::{Deserialize, Serialize};

/// The checkpointable state of a [`FleetPlanner`]: the warm-start bases
/// of its settlement and prospective workspaces. The LP *templates* are
/// pure functions of the topology and are rebuilt deterministically on
/// [`import_state`](FleetPlanner::import_state); only the bases — which
/// steer a warm solve to the same optimal vertex the uninterrupted run
/// would have reached — must survive a restart.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetPlannerState {
    /// Settlement-LP workspace basis, once a settlement has solved.
    pub settlement: Option<BasisSnapshot>,
    /// Prospective workspace basis, once a prospective plan has solved.
    pub prospective_net: Option<BasisSnapshot>,
}

/// Plans each coarse frame's inter-site export flows as an LP over an
/// [`Interconnect`] topology (see the module docs for the formulation).
///
/// # Examples
///
/// ```
/// use dpss_core::FleetPlanner;
/// use dpss_sim::{FrameExchange, Interconnect};
/// use dpss_units::Energy;
///
/// # fn main() -> Result<(), dpss_sim::SimError> {
/// let ic = Interconnect::uniform(2, Energy::from_mwh(5.0))?;
/// let mut planner = FleetPlanner::new(ic);
/// let s = planner.plan(&FrameExchange {
///     frame: 0,
///     curtailed: vec![Energy::from_mwh(3.0), Energy::ZERO],
///     rt_energy: vec![Energy::ZERO, Energy::from_mwh(2.0)],
///     rt_price: vec![0.0, 60.0],
/// });
/// assert!((s.delivered.mwh() - 2.0).abs() < 1e-9);
/// assert!((s.savings.dollars() - 120.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FleetPlanner {
    ic: Interconnect,
    /// The flow LP template; only objective, bounds and right-hand sides
    /// change between frames.
    problem: Problem,
    /// `(from, to, flow variable)` per open link, donor-major.
    flows: Vec<(usize, usize, Variable)>,
    /// Donor budget row per site (`None` when the site has no open
    /// outgoing link).
    donor_rows: Vec<Option<ConstraintId>>,
    /// Recipient need row per site (`None` without open incoming links).
    need_rows: Vec<Option<ConstraintId>>,
    workspace: LpWorkspace,
    /// Whether [`FleetDispatcher::direct`] plans prospective directives
    /// (coordinated mode) or stays silent (planned mode).
    coordinate: bool,
    /// The aggregated prospective LP, built on first use (coordinated
    /// runs only).
    prospective_net: Option<ProspectiveNetLp>,
}

/// The prospective template of coordinated dispatch: the buy penalty depends only
/// on the *donor*, so the per-link free/buy split is immaterial given
/// each donor's totals. One total-flow variable per open link plus one
/// bought-energy variable per donor reproduce the optimum of the form
/// with free and bought flow per link exactly, with `O(sites)` rows
/// instead of `O(links)`:
///
/// * free-budget rows `Σ_l t_l − z_s ≤ surplus_s` (whatever exceeds the
///   forecast surplus must be procured);
/// * total-budget rows `Σ_l t_l ≤ surplus_s + procurable_s`;
/// * recipient need rows `Σ (1−loss)·t_l ≤ need_j` and the pool row;
/// * objective `min Σ −value_l·t_l + Σ procure_cost_s·(1+margin)·z_s`.
///
/// Per-frame link caps bind through the `t_l` bounds (no per-link rows
/// at all). Solved via [`Problem::solve_with`].
#[derive(Debug, Clone)]
struct ProspectiveNetLp {
    problem: Problem,
    /// `(from, to, total-flow variable)` per open link, donor-major.
    flows: Vec<(usize, usize, Variable)>,
    /// Bought-energy variable per site (`None` without outgoing links).
    bought: Vec<Option<Variable>>,
    /// Donor free-budget row per site.
    free_rows: Vec<Option<ConstraintId>>,
    /// Donor total-budget row per site.
    total_rows: Vec<Option<ConstraintId>>,
    /// Recipient forecast-need row per site.
    need_rows: Vec<Option<ConstraintId>>,
    workspace: LpWorkspace,
}

/// Safety margin on the buy-to-export economics, measured as the robust
/// point on the built-in packs: a prospective procured flow must clear
/// `procure_cost × (1 + margin)` in forecast delivered value before the
/// planner directs it, so the one-frame-back forecast has to be off by
/// more than the margin before a directed purchase can lose money.
const PROCURE_MARGIN: f64 = 0.6;

impl FleetPlanner {
    /// Builds the planner (and its LP template) for a topology.
    #[must_use]
    pub fn new(ic: Interconnect) -> Self {
        let n = ic.sites();
        let mut problem = Problem::new(Sense::Minimize);
        let flows: Vec<(usize, usize, Variable)> = ic
            .open_links()
            .map(|(i, j)| {
                let var = problem
                    .add_var(0.0, ic.cap(i, j).mwh(), 0.0)
                    .expect("caps are validated finite");
                (i, j, var)
            })
            .collect();
        let mut donor_rows = vec![None; n];
        let mut need_rows = vec![None; n];
        if !flows.is_empty() {
            for s in 0..n {
                let outgoing: Vec<(Variable, f64)> = flows
                    .iter()
                    .filter(|&&(i, _, _)| i == s)
                    .map(|&(_, _, v)| (v, 1.0))
                    .collect();
                if !outgoing.is_empty() {
                    donor_rows[s] = Some(
                        problem
                            .add_constraint(&outgoing, Relation::Le, 0.0)
                            .expect("template rows are well-formed"),
                    );
                }
                let incoming: Vec<(Variable, f64)> = flows
                    .iter()
                    .filter(|&&(_, j, _)| j == s)
                    .map(|&(i, _, v)| (v, 1.0 - ic.loss(i, s)))
                    .collect();
                if !incoming.is_empty() {
                    need_rows[s] = Some(
                        problem
                            .add_constraint(&incoming, Relation::Le, 0.0)
                            .expect("template rows are well-formed"),
                    );
                }
            }
            if let Some(pool) = ic.pool_cap() {
                let all: Vec<(Variable, f64)> = flows.iter().map(|&(_, _, v)| (v, 1.0)).collect();
                problem
                    .add_constraint(&all, Relation::Le, pool.mwh())
                    .expect("template rows are well-formed");
            }
        }
        FleetPlanner {
            ic,
            problem,
            flows,
            donor_rows,
            need_rows,
            workspace: LpWorkspace::new(),
            coordinate: false,
            prospective_net: None,
        }
    }

    /// Captures the planner's warm-start bases for checkpointing.
    #[must_use]
    pub fn export_state(&self) -> FleetPlannerState {
        FleetPlannerState {
            settlement: self.workspace.export_basis(),
            prospective_net: self
                .prospective_net
                .as_ref()
                .and_then(|lp| lp.workspace.export_basis()),
        }
    }

    /// Reinstates checkpointed warm-start bases on a freshly built
    /// planner for the *same* topology. Prospective templates recorded
    /// in the state are built eagerly (they are pure functions of the
    /// topology), so the first planned frame after a restart warm-starts
    /// exactly like the uninterrupted run. Warm/cold counters restart at
    /// zero — they are diagnostics, not state.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if a basis snapshot fails validation.
    pub fn import_state(&mut self, state: &FleetPlannerState) -> Result<(), SimError> {
        let invalid = |_| SimError::InvalidState {
            what: "fleet planner basis snapshot failed validation",
        };
        self.workspace
            .import_basis(state.settlement.as_ref())
            .map_err(invalid)?;
        if let Some(basis) = &state.prospective_net {
            self.prospective_net
                .get_or_insert_with(|| ProspectiveNetLp::for_topology(&self.ic))
                .workspace
                .import_basis(Some(basis))
                .map_err(invalid)?;
        }
        Ok(())
    }

    /// Enables (or disables) coordinated dispatch: when on, the planner's
    /// [`FleetDispatcher::direct`] plans prospective export flows between
    /// frames and hands every site a [`FrameDirective`]; when off (the
    /// default) it stays silent and the planner is the *planned*
    /// settlement mode.
    #[must_use]
    pub fn with_coordination(mut self, coordinate: bool) -> Self {
        self.coordinate = coordinate;
        self
    }

    /// The planner built for a fleet's configured topology.
    #[must_use]
    pub fn for_engine(engine: &MultiSiteEngine) -> Self {
        FleetPlanner::new(engine.interconnect().clone())
    }

    /// The topology the planner routes over.
    #[must_use]
    pub fn interconnect(&self) -> &Interconnect {
        &self.ic
    }

    /// Plans one frame's export flows and returns the settlement they
    /// realize. Deterministic in the planner's *history*: the same
    /// sequence of exchanges through the same planner always yields the
    /// same settlements. The net value (`savings − wheeling`) is the LP
    /// optimum regardless of history, but on degenerate frames (two
    /// links of equal net value) a warm solve can land on a different
    /// optimal vertex than a cold one, splitting `sent`/`savings`
    /// differently — so callers that publish tables settle each variant
    /// through a *fresh* planner (as `pack_sweep_with` does) rather than
    /// sharing one across unrelated frame sequences.
    ///
    /// # Panics
    ///
    /// Panics if the exchange's site rosters do not match the topology
    /// (a programming error — a fleet run builds one entry per site).
    #[must_use]
    pub fn plan(&mut self, ex: &FrameExchange) -> FrameSettlement {
        self.plan_with_exports(ex).0
    }

    /// [`plan`](Self::plan), additionally reporting how much of each
    /// donor's curtailment the settlement consumed (energy *sent* per
    /// site, in site-index order, before line losses). One LP solve
    /// serves both answers, so a routed caller — `RoutingPlanner` feeds
    /// residual curtailment (`curtailed − sent`) to the workload
    /// absorption step — observes exactly the settlement sequence (and
    /// warm-start history) a [`plan`](Self::plan) caller would.
    ///
    /// # Panics
    ///
    /// Panics if the exchange's site rosters do not match the topology.
    #[must_use]
    pub fn plan_with_exports(&mut self, ex: &FrameExchange) -> (FrameSettlement, Vec<Energy>) {
        let n = self.ic.sites();
        assert!(
            ex.curtailed.len() == n && ex.rt_energy.len() == n && ex.rt_price.len() == n,
            "exchange covers a different site roster than the topology"
        );
        let mut out = FrameSettlement::default();
        let mut exports = vec![Energy::ZERO; n];
        if self.flows.is_empty() || self.ic.is_silent() {
            return (out, exports);
        }
        for &(i, j, var) in &self.flows {
            let loss = self.ic.loss(i, j);
            let value = ex.rt_price[j] * (1.0 - loss) - self.ic.wheeling(i, j).dollars_per_mwh();
            self.problem
                .set_objective(var, -value)
                .expect("template variables stay valid");
            // The frame-to-frame cap update: a pair can never carry more
            // than its donor curtailed this frame, nor more than the
            // link's cap.
            let ub = self.ic.cap(i, j).min(ex.curtailed[i]).mwh();
            self.problem
                .set_bounds(var, 0.0, ub.max(0.0))
                .expect("caps and curtailment are non-negative");
        }
        for s in 0..n {
            if let Some(row) = self.donor_rows[s] {
                self.problem
                    .set_rhs(row, ex.curtailed[s].mwh().max(0.0))
                    .expect("template rows stay valid");
            }
            if let Some(row) = self.need_rows[s] {
                self.problem
                    .set_rhs(row, ex.rt_energy[s].mwh().max(0.0))
                    .expect("template rows stay valid");
            }
        }
        let sol = self
            .problem
            .solve_with(&mut self.workspace)
            .expect("the flow LP is feasible (zero flow) and box-bounded");
        for &(i, j, var) in &self.flows {
            let sent = sol.value(var).max(0.0);
            if sent <= 0.0 {
                continue;
            }
            let loss = self.ic.loss(i, j);
            let delivered = sent * (1.0 - loss);
            out.sent += Energy::from_mwh(sent);
            out.delivered += Energy::from_mwh(delivered);
            out.savings += Money::from_dollars(delivered * ex.rt_price[j]);
            out.wheeling += Money::from_dollars(sent * self.ic.wheeling(i, j).dollars_per_mwh());
            exports[i] += Energy::from_mwh(sent);
        }
        // Hand the value buffer back: the next frame's solve reuses it,
        // keeping the steady-state settlement loop allocation-free.
        self.workspace.recycle(sol);
        (out, exports)
    }

    /// Plans the coming frame's *prospective* export flows from the
    /// fleet's causal outlook and returns one [`FrameDirective`] per
    /// site — the coordinated-dispatch step that runs *before* the sites
    /// commit their long-term purchases.
    ///
    /// The LP routes two kinds of export: the donor's forecast
    /// curtailment (free — it would be wasted anyway) and *procured*
    /// energy (buy-to-export: costed at the donor's observed long-term
    /// price plus waste penalty, padded by the safety margin, and bounded
    /// by the donor's remaining grid budget after the battery top-off).
    /// Flows are bounded by the link cap, the recipient's forecast
    /// real-time need and the pool cap. Like the
    /// settlement LP, the template is built once and re-solved through
    /// one warm-started workspace via `set_objective`/`set_bounds`/
    /// `set_rhs` edits. Directives fold from the link totals and the
    /// minimal procurement consistent with them (`(T_s − surplus_s)₊` —
    /// the free-budget row guarantees the bought variable covers it, and
    /// extracting the minimum keeps directives independent of how a
    /// degenerate optimum splits its tie).
    ///
    /// Frame 0 (no history) and silent topologies yield inert
    /// directives.
    ///
    /// # Panics
    ///
    /// Panics if the outlook's site roster does not match the topology.
    #[must_use]
    pub fn plan_prospective(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        let n = self.ic.sites();
        assert!(
            outlook.sites.len() == n,
            "outlook covers a different site roster than the topology"
        );
        let mut directives = vec![FrameDirective::inert(outlook.frame); n];
        if self.flows.is_empty() || self.ic.is_silent() {
            return directives;
        }
        let margin = 1.0 + PROCURE_MARGIN;
        let lp = self
            .prospective_net
            .get_or_insert_with(|| ProspectiveNetLp::for_topology(&self.ic));
        for &(i, j, total) in &lp.flows {
            let loss = self.ic.loss(i, j);
            let wheel = self.ic.wheeling(i, j).dollars_per_mwh();
            let value = outlook.sites[j].expected_price * (1.0 - loss) - wheel;
            let cap = self.ic.cap(i, j).mwh();
            lp.problem
                .set_objective(total, -value)
                .expect("template variables stay valid");
            lp.problem
                .set_bounds(total, 0.0, cap)
                .expect("caps are non-negative");
        }
        for (s, site) in outlook.sites.iter().enumerate() {
            let surplus = site.expected_surplus.mwh().max(0.0);
            let procurable = (site.export_headroom - site.battery_headroom)
                .positive_part()
                .mwh();
            if let Some(z) = lp.bought[s] {
                lp.problem
                    .set_bounds(z, 0.0, procurable)
                    .expect("budgets are non-negative");
                lp.problem
                    .set_objective(z, site.procure_cost * margin)
                    .expect("template variables stay valid");
            }
            if let Some(row) = lp.free_rows[s] {
                lp.problem
                    .set_rhs(row, surplus)
                    .expect("template rows stay valid");
            }
            if let Some(row) = lp.total_rows[s] {
                lp.problem
                    .set_rhs(row, surplus + procurable)
                    .expect("template rows stay valid");
            }
            if let Some(row) = lp.need_rows[s] {
                lp.problem
                    .set_rhs(row, site.expected_need.mwh().max(0.0))
                    .expect("template rows stay valid");
            }
        }
        let sol = lp
            .problem
            .solve_with(&mut lp.workspace)
            .expect("the prospective flow LP is feasible (zero flow) and box-bounded");
        const TOL: f64 = 1e-9;
        let mut sent_totals = vec![0.0f64; directives.len()];
        for &(i, j, total) in &lp.flows {
            let sent = sol.value(total).max(0.0);
            if sent <= TOL {
                continue;
            }
            let loss = self.ic.loss(i, j);
            let value = outlook.sites[j].expected_price * (1.0 - loss)
                - self.ic.wheeling(i, j).dollars_per_mwh();
            directives[i].export_quota += Energy::from_mwh(sent);
            directives[i].export_value = directives[i].export_value.max(value);
            directives[j].import_expectation += Energy::from_mwh(sent * (1.0 - loss));
            sent_totals[i] += sent;
        }
        lp.workspace.recycle(sol);
        // The plant charges surplus before curtailing it, so a donor
        // directed to buy must also fill its battery or the planned
        // curtailment (and hence the export) never materializes.
        for (s, d) in directives.iter_mut().enumerate() {
            let bought = sent_totals[s] - outlook.sites[s].expected_surplus.mwh().max(0.0);
            if bought > TOL {
                d.procure_for_export +=
                    Energy::from_mwh(bought) + outlook.sites[s].battery_headroom;
            }
        }
        directives
    }

    /// Cumulative solver telemetry across every workspace the planner
    /// owns — settlement plus the prospective template once built.
    /// Counter fields sum; peak fields take the maximum over the
    /// workspaces. See [`SolverStats`].
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        let mut stats = self.workspace.stats();
        if let Some(lp) = &self.prospective_net {
            stats.merge(&lp.workspace.stats());
        }
        stats
    }
}

impl ProspectiveNetLp {
    /// Builds the aggregated template for a topology. Bounds and
    /// right-hand sides are placeholders; every
    /// [`FleetPlanner::plan_prospective`] call edits
    /// them to the frame's caps and budgets before re-solving.
    fn for_topology(ic: &Interconnect) -> Self {
        let n = ic.sites();
        let mut problem = Problem::new(Sense::Minimize);
        let flows: Vec<(usize, usize, Variable)> = ic
            .open_links()
            .map(|(i, j)| {
                let t = problem
                    .add_var(0.0, ic.cap(i, j).mwh(), 0.0)
                    .expect("caps are validated finite");
                (i, j, t)
            })
            .collect();
        let mut bought = vec![None; n];
        let mut free_rows = vec![None; n];
        let mut total_rows = vec![None; n];
        let mut need_rows = vec![None; n];
        for s in 0..n {
            let outgoing: Vec<(Variable, f64)> = flows
                .iter()
                .filter(|&&(i, _, _)| i == s)
                .map(|&(_, _, t)| (t, 1.0))
                .collect();
            if !outgoing.is_empty() {
                let z = problem
                    .add_var(0.0, 0.0, 0.0)
                    .expect("placeholder bounds are valid");
                bought[s] = Some(z);
                let mut free: Vec<(Variable, f64)> = outgoing.clone();
                free.push((z, -1.0));
                free_rows[s] = Some(
                    problem
                        .add_constraint(&free, Relation::Le, 0.0)
                        .expect("template rows are well-formed"),
                );
                total_rows[s] = Some(
                    problem
                        .add_constraint(&outgoing, Relation::Le, 0.0)
                        .expect("template rows are well-formed"),
                );
            }
            let incoming: Vec<(Variable, f64)> = flows
                .iter()
                .filter(|&&(_, j, _)| j == s)
                .map(|&(i, _, t)| (t, 1.0 - ic.loss(i, s)))
                .collect();
            if !incoming.is_empty() {
                need_rows[s] = Some(
                    problem
                        .add_constraint(&incoming, Relation::Le, 0.0)
                        .expect("template rows are well-formed"),
                );
            }
        }
        if let Some(pool) = ic.pool_cap() {
            let all: Vec<(Variable, f64)> = flows.iter().map(|&(_, _, t)| (t, 1.0)).collect();
            problem
                .add_constraint(&all, Relation::Le, pool.mwh())
                .expect("template rows are well-formed");
        }
        ProspectiveNetLp {
            problem,
            flows,
            bought,
            free_rows,
            total_rows,
            need_rows,
            workspace: LpWorkspace::new(),
        }
    }
}

/// The planner as a fleet dispatcher: settle every realized frame with
/// the flow LP ([`FleetPlanner::plan`]); with
/// [`with_coordination`](FleetPlanner::with_coordination) enabled, also
/// direct the sites between frames
/// ([`FleetPlanner::plan_prospective`]) — the *coordinated* dispatch
/// mode.
impl FleetDispatcher for FleetPlanner {
    fn topology(&self) -> Option<&Interconnect> {
        Some(&self.ic)
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        if self.coordinate {
            self.plan_prospective(outlook)
        } else {
            Vec::new()
        }
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        self.plan(ex)
    }
}

/// How a fleet dispatches and settles inter-site transfers — the closed
/// roster `dpss sweep --dispatch` and the serve protocol's `dispatch`
/// field share. [`dispatcher`](Self::dispatcher) turns a mode into the
/// [`FleetDispatcher`] a fleet run steps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Settle realized curtailment after each frame with the greedy fold
    /// ([`Interconnect::settle_greedy`]).
    #[default]
    PostHoc,
    /// Plan each frame's export flows as a linear program
    /// ([`FleetPlanner`]), warm-started frame to frame. Settlement only:
    /// the plan never feeds back into what the sites do.
    Planned,
    /// The planner with coordination: between frames it forecasts the
    /// fleet's exchange and hands every site a [`FrameDirective`]
    /// (buy-to-export when a neighbour's delivered price beats the local
    /// long-term cost), then settles each realized frame with the flow
    /// LP.
    Coordinated,
}

impl DispatchMode {
    /// The spellings, in display order.
    pub const NAMES: [&'static str; 3] = ["post-hoc", "planned", "coordinated"];

    /// Parses a spelling, with the canonical error message (the roster
    /// is closed, so a typo is a usage error).
    ///
    /// # Errors
    ///
    /// `unknown dispatch mode: <name> (expected
    /// post-hoc|planned|coordinated)`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "post-hoc" => Ok(DispatchMode::PostHoc),
            "planned" => Ok(DispatchMode::Planned),
            "coordinated" => Ok(DispatchMode::Coordinated),
            other => Err(format!(
                "unknown dispatch mode: {other} (expected {})",
                Self::NAMES.join("|")
            )),
        }
    }

    /// A fresh dispatcher for this mode over `ic`: the topology itself
    /// (post-hoc), a new [`FleetPlanner`] (planned), or a new
    /// coordinating one (coordinated).
    #[must_use]
    pub fn dispatcher(self, ic: &Interconnect) -> ModeDispatcher {
        match self {
            DispatchMode::PostHoc => ModeDispatcher::Greedy(ic.clone()),
            DispatchMode::Planned => {
                ModeDispatcher::Planner(Box::new(FleetPlanner::new(ic.clone())))
            }
            DispatchMode::Coordinated => ModeDispatcher::Planner(Box::new(
                FleetPlanner::new(ic.clone()).with_coordination(true),
            )),
        }
    }
}

impl fmt::Display for DispatchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DispatchMode::PostHoc => "post-hoc",
            DispatchMode::Planned => "planned",
            DispatchMode::Coordinated => "coordinated",
        })
    }
}

/// Per-frame transfer capacity of the default fleet topology: 2 MWh (a
/// paper site peaks at 2 MW × 24 h = 48 MWh per frame, so about 4% of
/// its interconnect scale).
#[must_use]
pub fn default_transfer_cap() -> Energy {
    Energy::from_mwh(2.0)
}

/// The default topology of an `n`-site fleet — pack sweeps and serve
/// fleet sessions alike: the [`default_transfer_cap`] as a lossless,
/// free, fleet-pooled [`Interconnect`].
///
/// # Errors
///
/// [`SimError::SiteMismatch`] if `sites == 0`.
pub fn default_interconnect(sites: usize) -> Result<Interconnect, SimError> {
    Interconnect::pooled(sites, default_transfer_cap())
}

/// The dispatcher a [`DispatchMode`] runs a fleet with
/// ([`DispatchMode::dispatcher`]).
#[derive(Debug, Clone)]
pub enum ModeDispatcher {
    /// Post-hoc: the topology's greedy settlement.
    Greedy(Interconnect),
    /// Planned or coordinated: the flow-LP planner.
    Planner(Box<FleetPlanner>),
}

impl ModeDispatcher {
    /// The planner's solver telemetry; zeros for the greedy settlement,
    /// which solves no LP.
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        match self {
            ModeDispatcher::Greedy(_) => SolverStats::default(),
            ModeDispatcher::Planner(p) => p.solver_stats(),
        }
    }
}

impl FleetDispatcher for ModeDispatcher {
    fn topology(&self) -> Option<&Interconnect> {
        match self {
            ModeDispatcher::Greedy(ic) => ic.topology(),
            ModeDispatcher::Planner(p) => p.topology(),
        }
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        match self {
            ModeDispatcher::Greedy(ic) => ic.direct(outlook),
            ModeDispatcher::Planner(p) => p.direct(outlook),
        }
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        match self {
            ModeDispatcher::Greedy(ic) => ic.settle(ex),
            ModeDispatcher::Planner(p) => p.settle(ex),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss_units::Price;

    fn exchange(curtailed: &[f64], rt: &[f64], price: &[f64]) -> FrameExchange {
        FrameExchange {
            frame: 0,
            curtailed: curtailed.iter().map(|&e| Energy::from_mwh(e)).collect(),
            rt_energy: rt.iter().map(|&e| Energy::from_mwh(e)).collect(),
            rt_price: price.to_vec(),
        }
    }

    #[test]
    fn decoupled_topologies_plan_nothing() {
        let mut p = FleetPlanner::new(Interconnect::decoupled(3).unwrap());
        let ex = exchange(&[5.0, 5.0, 0.0], &[0.0, 0.0, 9.0], &[0.0, 0.0, 80.0]);
        assert_eq!(p.plan(&ex), FrameSettlement::default());
    }

    #[test]
    fn planner_matches_greedy_on_pooled_lossless_topologies() {
        // The pooled lossless case is where greedy is optimal: the LP must
        // find the same value.
        let ic = Interconnect::pooled(3, Energy::from_mwh(2.0)).unwrap();
        let mut p = FleetPlanner::new(ic.clone());
        let ex = exchange(&[3.0, 0.0, 0.5], &[0.0, 1.5, 2.0], &[0.0, 80.0, 40.0]);
        let planned = p.plan(&ex);
        let greedy = ic.settle_greedy(&ex);
        assert!(
            (planned.savings.dollars() - greedy.savings.dollars()).abs() < 1e-9,
            "planned {} vs greedy {}",
            planned.savings.dollars(),
            greedy.savings.dollars()
        );
        assert_eq!(planned.wheeling, Money::ZERO);
    }

    #[test]
    fn planner_beats_greedy_when_pair_caps_constrain_routing() {
        // Donor 0 can only reach the expensive site 1 through a thin line,
        // while donor 2 reaches it at full width. Greedy spends donor 0's
        // thin line first and donor 2's width on the *expensive* site too,
        // leaving site 2's need unmet; the planner routes donor 2 to
        // site 1 and keeps donor 0 for the cheap site it can still reach.
        let ic = Interconnect::decoupled(4)
            .unwrap()
            .with_link(0, 1, Energy::from_mwh(0.5))
            .unwrap()
            .with_link(0, 3, Energy::from_mwh(2.0))
            .unwrap()
            .with_link(2, 1, Energy::from_mwh(2.0))
            .unwrap();
        let ex = exchange(
            &[2.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 2.0],
            &[0.0, 80.0, 0.0, 40.0],
        );
        let greedy = ic.settle_greedy(&ex);
        let planned = FleetPlanner::new(ic).plan(&ex);
        // Greedy: site 1 takes 0.5 from donor 0 + 0.5 from donor 2
        //         (thin line spent), site 3 takes 1.5 from donor 0.
        assert!((greedy.savings.dollars() - (80.0 + 1.5 * 40.0)).abs() < 1e-9);
        // Planner: donor 2 covers site 1 alone; donor 0 sends 2.0 to
        //          site 3 — strictly more displaced cost.
        assert!((planned.savings.dollars() - (80.0 + 2.0 * 40.0)).abs() < 1e-9);
        assert!(planned.savings > greedy.savings);
    }

    #[test]
    fn planner_never_routes_uneconomic_flows() {
        let ic = Interconnect::uniform(2, Energy::from_mwh(10.0))
            .unwrap()
            .with_uniform_loss(0.5)
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(30.0))
            .unwrap();
        let ex = exchange(&[4.0, 0.0], &[0.0, 2.0], &[0.0, 50.0]);
        let s = FleetPlanner::new(ic).plan(&ex);
        assert_eq!(s, FrameSettlement::default());
    }

    #[test]
    fn frame_chain_reuses_the_warm_path() {
        let ic = Interconnect::uniform(3, Energy::from_mwh(2.0)).unwrap();
        let mut p = FleetPlanner::new(ic);
        for k in 0..6 {
            let bump = 0.1 * f64::from(k);
            let ex = exchange(
                &[2.0 + bump, 0.3, 0.0],
                &[0.0, 1.0, 1.5 + bump],
                &[0.0, 55.0 + bump, 70.0],
            );
            let s = p.plan(&ex);
            assert!(s.savings.dollars() > 0.0);
        }
        let stats = p.solver_stats();
        let (warm, cold) = (stats.warm_solves, stats.cold_solves);
        assert_eq!(warm + cold, 6);
        assert!(
            warm >= 3,
            "frame-to-frame re-solves must warm-start: {warm} warm / {cold} cold"
        );
    }

    fn outlook(frame: usize, sites: &[(f64, f64, f64, f64, f64, f64)]) -> dpss_sim::FrameOutlook {
        dpss_sim::FrameOutlook {
            frame,
            sites: sites
                .iter()
                .map(
                    |&(surplus, need, price, headroom, battery, cost)| dpss_sim::SiteOutlook {
                        expected_surplus: Energy::from_mwh(surplus),
                        expected_need: Energy::from_mwh(need),
                        expected_price: price,
                        export_headroom: Energy::from_mwh(headroom),
                        battery_headroom: Energy::from_mwh(battery),
                        procure_cost: cost,
                        load_backlog: Energy::ZERO,
                        load_due: Energy::ZERO,
                    },
                )
                .collect(),
        }
    }

    #[test]
    fn prospective_plan_is_inert_without_links_or_history() {
        let mut p = FleetPlanner::new(Interconnect::decoupled(3).unwrap()).with_coordination(true);
        let ds = p.plan_prospective(&outlook(2, &[(5.0, 0.0, 0.0, 3.0, 0.5, 31.0); 3]));
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(FrameDirective::is_inert));
        // Frame 0 (zero outlook everywhere) is inert on a live topology.
        let ic = Interconnect::uniform(2, Energy::from_mwh(5.0)).unwrap();
        let mut p = FleetPlanner::new(ic);
        let ds = p.plan_prospective(&outlook(0, &[(0.0, 0.0, 0.0, 0.0, 0.5, 31.0); 2]));
        assert!(ds.iter().all(FrameDirective::is_inert));
    }

    #[test]
    fn prospective_plan_directs_buy_to_export_when_value_clears_the_margin() {
        let ic = Interconnect::decoupled(2)
            .unwrap()
            .with_link(0, 1, Energy::from_mwh(5.0))
            .unwrap();
        let mut p = FleetPlanner::new(ic);
        // Site 1 pays $80 for ~2 MWh; site 0 has 1 MWh of forecast
        // surplus, 3 MWh of grid slack, 0.5 MWh of battery headroom and
        // procures at $31/MWh. $80 clears 31 × 1.6 easily.
        let ds = p.plan_prospective(&outlook(
            3,
            &[
                (1.0, 0.0, 0.0, 3.0, 0.5, 31.0),
                (0.0, 2.0, 80.0, 0.0, 0.0, 31.0),
            ],
        ));
        assert_eq!(ds[0].frame, 3);
        // Recipient need bounds the plan: 1 free + 1 bought.
        assert!((ds[0].export_quota.mwh() - 2.0).abs() < 1e-9, "{ds:?}");
        // The buy-to-export order includes the battery top-off.
        assert!(
            (ds[0].procure_for_export.mwh() - 1.5).abs() < 1e-9,
            "{ds:?}"
        );
        assert!((ds[0].export_value - 80.0).abs() < 1e-9);
        assert!((ds[1].import_expectation.mwh() - 2.0).abs() < 1e-9);
        assert_eq!(ds[1].export_quota, Energy::ZERO);
        // Only the prospective template has solved so far.
        assert_eq!(p.solver_stats().solves, 1);

        // Below the margin ($40 < $31 × 1.6) only the free surplus moves:
        // nothing is procured.
        let ds = p.plan_prospective(&outlook(
            4,
            &[
                (1.0, 0.0, 0.0, 3.0, 0.5, 31.0),
                (0.0, 2.0, 40.0, 0.0, 0.0, 31.0),
            ],
        ));
        assert!((ds[0].export_quota.mwh() - 1.0).abs() < 1e-9, "{ds:?}");
        assert_eq!(ds[0].procure_for_export, Energy::ZERO);
        // Frame-to-frame re-solves stay on the warm path.
        let stats = p.solver_stats();
        assert_eq!((stats.solves, stats.cold_solves), (2, 1));
    }

    #[test]
    fn network_settlement_matches_dense_net_value() {
        // A lossy, wheeled 4-site mesh: every frame must settle to the
        // net value (savings − wheeling, the LP objective) the dense
        // tableau reached on the same frames. The sent/savings split of
        // a degenerate tie may differ by vertex; the optimum may not.
        const DENSE_NET: [f64; 6] = [
            159.375,
            179.20499999999996,
            199.02599999999998,
            218.83799999999997,
            236.77799999999996,
            240.3236842105263,
        ];
        let ic = Interconnect::uniform(4, Energy::from_mwh(2.0))
            .unwrap()
            .with_uniform_loss(0.05)
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
            .unwrap();
        let mut net = FleetPlanner::new(ic);
        for (k, dense) in (0..6).zip(DENSE_NET) {
            let bump = 0.3 * f64::from(k);
            let ex = exchange(
                &[2.0 + bump, 0.3, 0.0, 0.4],
                &[0.0, 1.0, 1.5 + bump, 0.2],
                &[0.0, 55.0 + bump, 70.0, 61.0],
            );
            let n = net.plan(&ex);
            let n_net = (n.savings - n.wheeling).dollars();
            assert!(
                (dense - n_net).abs() < 1e-9,
                "frame {k}: dense {dense} vs network {n_net}"
            );
        }
        let stats = net.solver_stats();
        let (warm, cold) = (stats.warm_solves, stats.cold_solves);
        assert_eq!(warm + cold, 6);
        assert!(warm >= 2, "{warm} warm / {cold} cold");
    }

    #[test]
    fn network_prospective_matches_dense_directives() {
        // Non-degenerate buy-to-export case: the aggregated template must
        // reproduce, exactly, the directives the per-link free/bought
        // split form reached on the dense tableau.
        let ic = Interconnect::decoupled(2)
            .unwrap()
            .with_link(0, 1, Energy::from_mwh(5.0))
            .unwrap();
        let mut net = FleetPlanner::new(ic);
        let directive = |frame, procure: f64, quota: f64, import: f64, value| FrameDirective {
            frame,
            procure_for_export: Energy::from_mwh(procure),
            export_quota: Energy::from_mwh(quota),
            import_expectation: Energy::from_mwh(import),
            export_value: value,
        };
        let cases = [
            (
                outlook(
                    3,
                    &[
                        (1.0, 0.0, 0.0, 3.0, 0.5, 31.0),
                        (0.0, 2.0, 80.0, 0.0, 0.0, 31.0),
                    ],
                ),
                [
                    directive(3, 1.5, 2.0, 0.0, 80.0),
                    directive(3, 0.0, 0.0, 2.0, 0.0),
                ],
            ),
            (
                outlook(
                    4,
                    &[
                        (1.0, 0.0, 0.0, 3.0, 0.5, 31.0),
                        (0.0, 2.0, 40.0, 0.0, 0.0, 31.0),
                    ],
                ),
                [
                    directive(4, 0.0, 1.0, 0.0, 40.0),
                    directive(4, 0.0, 0.0, 1.0, 0.0),
                ],
            ),
            (
                outlook(
                    5,
                    &[
                        (0.0, 0.0, 0.0, 4.0, 0.25, 30.0),
                        (0.0, 3.0, 90.0, 0.0, 0.0, 31.0),
                    ],
                ),
                [
                    directive(5, 3.25, 3.0, 0.0, 90.0),
                    directive(5, 0.0, 0.0, 3.0, 0.0),
                ],
            ),
        ];
        for (look, dense) in &cases {
            assert_eq!(net.plan_prospective(look), dense, "frame {}", look.frame);
        }
        let stats = net.solver_stats();
        let (warm, cold) = (stats.warm_solves, stats.cold_solves);
        assert_eq!(warm + cold, 3);
        assert!(warm >= 1, "{warm} warm / {cold} cold");
    }

    #[test]
    fn export_import_state_carries_the_warm_path_across_planners() {
        let ic = Interconnect::uniform(3, Energy::from_mwh(2.0)).unwrap();
        let mut donor = FleetPlanner::new(ic.clone());
        let ex = exchange(&[2.0, 0.3, 0.0], &[0.0, 1.0, 1.5], &[0.0, 55.0, 70.0]);
        let _ = donor.plan(&ex);
        let state = donor.export_state();

        // A fresh planner with the imported state continues warm and
        // settles the next frame exactly like the donor.
        let mut restored = FleetPlanner::new(ic);
        restored.import_state(&state).unwrap();
        let ex2 = exchange(&[1.8, 0.4, 0.0], &[0.0, 1.2, 1.3], &[0.0, 58.0, 66.0]);
        let a = donor.plan(&ex2);
        let b = restored.plan(&ex2);
        assert_eq!(a, b);
        let stats = restored.solver_stats();
        assert_eq!(
            (stats.warm_solves, stats.cold_solves),
            (1, 0),
            "restored planner must solve warm"
        );

        // Roundtrip through JSON (what a snapshot file carries).
        let json = serde_json::to_string(&state).unwrap();
        let back: FleetPlannerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);

        // A corrupted basis is rejected with a typed error.
        let mut bad = state;
        bad.settlement
            .as_mut()
            .expect("the settlement has solved")
            .basis
            .push(0);
        assert!(matches!(
            FleetPlanner::new(Interconnect::uniform(3, Energy::from_mwh(2.0)).unwrap())
                .import_state(&bad),
            Err(SimError::InvalidState { .. })
        ));

        // So is a slack flagged at an upper bound it does not have.
        let mut bad = back;
        let net = bad.settlement.as_mut().expect("the settlement has solved");
        net.at_upper[net.n] = true;
        assert!(matches!(
            FleetPlanner::new(Interconnect::uniform(3, Energy::from_mwh(2.0)).unwrap())
                .import_state(&bad),
            Err(SimError::InvalidState { .. })
        ));
    }

    #[test]
    fn dispatch_mode_parses_the_closed_roster_into_its_dispatcher() {
        for (name, mode) in DispatchMode::NAMES.into_iter().zip([
            DispatchMode::PostHoc,
            DispatchMode::Planned,
            DispatchMode::Coordinated,
        ]) {
            assert_eq!(DispatchMode::parse(name), Ok(mode));
            assert_eq!(mode.to_string(), name);
        }
        let err = DispatchMode::parse("bogus").unwrap_err();
        assert_eq!(
            err,
            "unknown dispatch mode: bogus (expected post-hoc|planned|coordinated)"
        );
        let ic = default_interconnect(2).unwrap();
        assert_eq!(ic.pool_cap(), Some(default_transfer_cap()));
        assert!(matches!(
            DispatchMode::PostHoc.dispatcher(&ic),
            ModeDispatcher::Greedy(_)
        ));
        let look = outlook(
            3,
            &[
                (1.0, 0.0, 0.0, 3.0, 0.5, 31.0),
                (0.0, 2.0, 80.0, 0.0, 0.0, 31.0),
            ],
        );
        // Only the coordinated planner directs.
        assert!(DispatchMode::Planned
            .dispatcher(&ic)
            .direct(&look)
            .is_empty());
        let mut coordinated = DispatchMode::Coordinated.dispatcher(&ic);
        assert_eq!(coordinated.direct(&look).len(), 2);
        assert_eq!(coordinated.solver_stats().solves, 1);
        assert_eq!(coordinated.topology(), Some(&ic));
    }
}

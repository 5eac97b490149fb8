//! Workload-routing sweeps: the off vs co-optimized comparison table for
//! one scenario pack over one topology. The *off* column prices every
//! request at its arrival frame's mean spot ([`serve-on-arrival`]
//! baseline, [`dpss_sim::FleetWorkload::serve_on_arrival`]) on top of the
//! coordinated energy run; the *co-optimized* column runs the same fleet
//! through [`MultiSiteEngine::run_routed`] with a [`RoutingPlanner`],
//! which absorbs deferrable work into residual curtailment, migrates it
//! across open links toward forecast curtailment, and defers the rest to
//! the cheapest frame inside the queue-age bound. The energy settlement
//! is byte-identical between the two columns (the routing layer is
//! lexicographic — it only consumes what the export plan left over), so
//! `saved $` isolates the workload layer's contribution.
//!
//! [`serve-on-arrival`]: dpss_sim::FleetWorkload::serve_on_arrival

// Bench policy (see `figures`): built-in packs generate valid traces and
// valid engines by construction; expects assert those invariants rather
// than surfacing them as experiment outcomes.
// audit:allow-file(panic-unwrap): bench treats misconfiguration of built-in packs as a programming error; every expect states its invariant
// audit:allow-file(slice-index): variant indices are bounded by the pack roster they iterate

use dpss_core::{default_transfer_cap, FleetPlanner, RoutingPlanner};
use dpss_lp::SolverStats;
use dpss_sim::{Interconnect, LoadTotals, MultiSiteEngine, RoutingConfig, SimParams};
use dpss_traces::ScenarioPack;
use dpss_units::{Money, Price, SlotClock};

use crate::{smart_controllers, ExperimentRunner, FigureTable};

/// One variant's off vs co-optimized outcome, with the workload ledger
/// behind the co-optimized column — the numeric form the acceptance
/// tests consume (the [`routing_sweep_with`] table is a rendering of
/// this).
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// The pack variant's label.
    pub label: String,
    /// Fleet total with routing off: the coordinated energy run plus the
    /// serve-on-arrival workload bill.
    pub off_cost: Money,
    /// Fleet total with routing co-optimized: the identical energy
    /// settlement plus the routed workload bill.
    pub coopt_cost: Money,
    /// The co-optimized run's workload ledger (conservation fields,
    /// absorbed/migrated energy, max queue wait).
    pub load: LoadTotals,
    /// LP telemetry of both runs' planners: the off run's coordinated
    /// planner merged with the co-optimized run's routing planner.
    pub solver_stats: SolverStats,
}

impl RoutingOutcome {
    /// `off - coopt`: what co-optimization saved on this variant. The
    /// deferral rule only ever moves work to a strictly cheaper frame
    /// (or absorbs it for free), so this is structurally non-negative.
    #[must_use]
    pub fn saving(&self) -> Money {
        self.off_cost - self.coopt_cost
    }
}

/// The default topology for a routing sweep: the lossy wheeled ring from
/// [`crate::topology_roster`] — the acceptance topology, because a ring
/// forces migrations through capped, priced, lossy links instead of a
/// frictionless pool.
///
/// # Panics
///
/// Panics if `sites < 2` (a ring needs two sites).
#[must_use]
pub fn routing_interconnect(sites: usize) -> Interconnect {
    Interconnect::ring(sites, default_transfer_cap())
        .expect("valid roster")
        .with_uniform_loss(0.05)
        .expect("valid loss")
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
        .expect("valid wheeling")
}

/// Runs the off vs co-optimized comparison for every variant of `pack`
/// and returns the per-variant outcomes in variant order. Variants fan
/// out across the runner's workers like coordinated pack sweeps — each
/// cell runs its whole fleet twice (off, then co-optimized) with fresh
/// planners, so the outcome roster is byte-identical for any `--threads`
/// value.
///
/// # Panics
///
/// Panics if `sites == 0`, the pack is empty, the topology spans a
/// different site count, the routing config is invalid, or a built-in
/// model misbehaves (harness contract: programming errors, not
/// experiment outcomes).
#[must_use]
pub fn routing_outcomes(
    runner: &ExperimentRunner,
    seed: u64,
    pack: &ScenarioPack,
    sites: usize,
    interconnect: &Interconnect,
    config: RoutingConfig,
) -> Vec<RoutingOutcome> {
    assert!(sites >= 1, "a routing sweep needs at least one site");
    assert!(
        !pack.is_empty(),
        "a routing sweep needs at least one variant"
    );
    assert_eq!(
        interconnect.sites(),
        sites,
        "the interconnect must span the sweep's site roster"
    );
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();

    let variants: Vec<usize> = (0..pack.len()).collect();
    runner.run_cells(&variants, |&v| {
        let fleet = MultiSiteEngine::from_pack(params, pack, clock, seed, v, sites)
            .and_then(|f| f.with_interconnect(interconnect.clone()))
            .expect("built-in pack builds a fleet over the sweep's topology");
        let label = pack.variant(v).expect("cell per variant").0.to_owned();

        // Off: coordinated energy dispatch, every request billed at its
        // arrival frame's mean spot.
        let mut off_dispatcher = FleetPlanner::for_engine(&fleet).with_coordination(true);
        let off_report = fleet
            .run_with(
                &mut smart_controllers(sites, params, clock),
                &mut off_dispatcher,
            )
            .expect("fleet run succeeds");
        let off_workload = fleet
            .workload_ledger(config)
            .expect("built-in traces shape a valid ledger")
            .serve_on_arrival();
        let off_cost = off_report.total_cost() + off_workload.cost;

        // Co-optimized: the same coordinated planner wrapped by the
        // routing layer; the energy settlement is byte-identical.
        let mut routed = RoutingPlanner::new(
            FleetPlanner::for_engine(&fleet).with_coordination(true),
            config,
        )
        .expect("validated routing config");
        let coopt_report = fleet
            .run_routed(
                &mut smart_controllers(sites, params, clock),
                &mut routed,
                config,
            )
            .expect("routed fleet run succeeds");

        let mut solver_stats = off_dispatcher.solver_stats();
        solver_stats.merge(&routed.solver_stats());
        RoutingOutcome {
            label,
            off_cost,
            coopt_cost: coopt_report.total_cost(),
            load: coopt_report.load,
            solver_stats,
        }
    })
}

/// The off vs co-optimized comparison table for one scenario pack:
/// one row per variant with both fleet totals, the saving, and the
/// co-optimized ledger's absorbed/migrated energy plus its mean and
/// worst realized queue delays (in coarse frames). The published table
/// is `traffic-wave` (the pack whose traces carry request-arrival
/// streams) on 3 sites over [`routing_interconnect`]; its flash-crowd
/// saving stays positive.
///
/// Also returns every variant's [`RoutingOutcome::solver_stats`], merged
/// in variant order so the stats are the same for any `--threads`.
///
/// # Panics
///
/// Same contract as [`routing_outcomes`].
#[must_use]
pub fn routing_sweep_with(
    runner: &ExperimentRunner,
    seed: u64,
    pack: &ScenarioPack,
    sites: usize,
    interconnect: &Interconnect,
    config: RoutingConfig,
) -> (FigureTable, SolverStats) {
    let outcomes = routing_outcomes(runner, seed, pack, sites, interconnect, config);
    let mut stats = SolverStats::default();
    let mut table = FigureTable::new(
        &format!(
            "Pack {}: workload routing off vs co-optimized ({} site{}, {})",
            pack.name(),
            sites,
            if sites == 1 { "" } else { "s" },
            interconnect.describe(),
        ),
        &[
            "variant",
            "off $",
            "coopt $",
            "saved $",
            "absorbed MWh",
            "migrated MWh",
            "mean wait",
            "max wait",
        ],
    );
    for o in &outcomes {
        table.push_owned(vec![
            o.label.clone(),
            format!("{:.3}", o.off_cost.dollars()),
            format!("{:.3}", o.coopt_cost.dollars()),
            format!("{:.3}", o.saving().dollars()),
            format!("{:.2}", o.load.absorbed.mwh()),
            format!("{:.2}", o.load.migrated.mwh()),
            format!("{:.2}", o.load.mean_wait_frames()),
            o.load.max_wait_frames.to_string(),
        ]);
        stats.merge(&o.solver_stats);
    }
    (table, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_SEED;
    use dpss_units::Energy;

    #[test]
    fn co_optimized_never_costs_more_than_off() {
        let runner = ExperimentRunner::new(1);
        let pack = ScenarioPack::builtin("traffic-wave").expect("builtin pack");
        let sites = 3;
        let outcomes = routing_outcomes(
            &runner,
            PAPER_SEED,
            &pack,
            sites,
            &routing_interconnect(sites),
            RoutingConfig::icdcs13(),
        );
        assert_eq!(outcomes.len(), pack.len());
        for o in &outcomes {
            assert!(
                o.saving().dollars() >= -1e-9,
                "{}: co-optimized ${} must not exceed off ${}",
                o.label,
                o.coopt_cost.dollars(),
                o.off_cost.dollars()
            );
            // Conservation over the whole run.
            let settled =
                o.load.served_spot + o.load.absorbed + o.load.migrated + o.load.final_backlog;
            assert!((o.load.arrived - settled).mwh().abs() < 1e-6, "{}", o.label);
            assert_eq!(o.load.final_backlog, Energy::ZERO, "{}", o.label);
            assert!(
                o.load.max_wait_frames <= RoutingConfig::icdcs13().max_queue_age,
                "{}",
                o.label
            );
        }
        // The flash-crowd variant actually exercises the layer.
        let flash = outcomes
            .iter()
            .find(|o| o.label == "flash-crowd")
            .expect("traffic-wave carries a flash-crowd variant");
        assert!(flash.load.arrived > Energy::ZERO);
        assert!(
            flash.saving().dollars() > 0.0,
            "flash crowd must save money"
        );
    }

    #[test]
    fn table_renders_one_row_per_variant() {
        let runner = ExperimentRunner::new(1);
        let pack = ScenarioPack::builtin("traffic-wave").expect("builtin pack");
        let sites = 2;
        let (table, stats) = routing_sweep_with(
            &runner,
            PAPER_SEED,
            &pack,
            sites,
            &routing_interconnect(sites),
            RoutingConfig::icdcs13(),
        );
        assert_eq!(table.rows.len(), pack.len());
        assert_eq!(table.columns.len(), 8);
        // Two coordinated runs per variant, each solving LPs every frame.
        assert!(stats.solves > 0);
        assert_eq!(stats.solves, stats.warm_solves + stats.cold_solves);
    }
}

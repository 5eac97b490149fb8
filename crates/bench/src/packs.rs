//! Scenario-pack and multi-datacenter sweeps: grids of packs, pack
//! variants, site counts and transmission topologies, mapped by an
//! [`ExperimentRunner`] and dispatched over an
//! [`Interconnect`] — post-hoc (greedy fold), planned (`FleetPlanner`
//! flow LPs) or coordinated (frame-synchronous fleet dispatch with
//! buy-to-export directives) — so every table is byte-identical for any
//! `--threads` value and any site-execution order.

// Bench policy (see `figures`): built-in packs generate valid traces and
// valid engines by construction; expects assert those invariants rather
// than surfacing them as experiment outcomes. Variant/site grids are
// iterated with indices bounded by the same pack/fleet they index.
// audit:allow-file(panic-unwrap): bench treats misconfiguration of built-in packs as a programming error; every expect states its invariant
// audit:allow-file(slice-index): variant/site indices are bounded by the pack roster and fleet shape they iterate

use dpss_core::{DispatchMode, SmartDpssConfig};
use dpss_lp::SolverStats;
use dpss_sim::{Engine, Interconnect, MultiSiteEngine, SimParams};
use dpss_traces::ScenarioPack;
use dpss_units::{Price, SlotClock};

use crate::{run_smart, smart_controllers, ExperimentRunner, FigureTable};

/// Looks `name` up in the built-in pack registry, with the canonical
/// error message. The single source of that wording: the CLI routes
/// every `--pack` through here (CI greps the exact prefix).
///
/// # Errors
///
/// `unknown scenario pack: <name> (expected <the known names>)`.
pub fn lookup_builtin(name: &str) -> Result<ScenarioPack, String> {
    ScenarioPack::builtin(name).ok_or_else(|| {
        format!(
            "unknown scenario pack: {name} (expected {})",
            ScenarioPack::builtin_names().join("|")
        )
    })
}

/// The cross-site aggregation table for one scenario pack, in the chosen
/// [`DispatchMode`]. Each cell is one variant: its whole fleet (per-site
/// seeds and shared markets from the pack's schedule, SmartDPSS at every
/// site, the paper's one-month calendar) runs frame-synchronously over
/// the interconnect with a fresh [`DispatchMode::dispatcher`] — the
/// greedy fold (post-hoc), a flow-LP planner (planned) or a coordinating
/// one (coordinated). Variants fan out across the runner's workers; a
/// worker budget larger than the variant count steps each fleet's sites
/// on the spare workers. Every cell is deterministic in isolation and
/// at any inner thread count, so the table is byte-identical at any
/// `--threads`.
///
/// Rows: one per site, then one `fleet` aggregate row per variant carrying
/// the transfer settlement (sent MWh, displaced $, wheeling $).
///
/// Also returns the [`SolverStats`] of the per-variant dispatchers,
/// merged in variant order so the stats are the same for any
/// `--threads` (zeros post-hoc: no LP runs).
///
/// # Panics
///
/// Panics if `sites == 0`, the pack is empty, the topology spans a
/// different site count, or a built-in model misbehaves (harness
/// contract: programming errors, not outcomes).
#[must_use]
pub fn pack_sweep_with(
    runner: &ExperimentRunner,
    seed: u64,
    pack: &ScenarioPack,
    sites: usize,
    interconnect: &Interconnect,
    mode: DispatchMode,
) -> (FigureTable, SolverStats) {
    assert!(sites >= 1, "a pack sweep needs at least one site");
    assert!(!pack.is_empty(), "a pack sweep needs at least one variant");
    assert_eq!(
        interconnect.sites(),
        sites,
        "the interconnect must span the sweep's site roster"
    );
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let variants: Vec<usize> = (0..pack.len()).collect();
    let fleet_threads = runner.threads_per_cell(variants.len());
    let cells = runner.run_cells(&variants, |&v| {
        let fleet = MultiSiteEngine::from_pack(params, pack, clock, seed, v, sites)
            .and_then(|f| f.with_interconnect(interconnect.clone()))
            .expect("built-in pack builds a fleet over the sweep's topology")
            .with_threads(fleet_threads);
        let mut dispatcher = mode.dispatcher(interconnect);
        let report = fleet
            .run_with(
                &mut smart_controllers(sites, params, clock),
                &mut dispatcher,
            )
            .expect("fleet run succeeds");
        (report, dispatcher.solver_stats())
    });
    let mut stats = SolverStats::default();
    for (_, cell_stats) in &cells {
        stats.merge(cell_stats);
    }
    let variant_fleets = cells.into_iter().map(|(report, _)| report);

    let mode_tag = match mode {
        DispatchMode::PostHoc => String::new(),
        DispatchMode::Planned | DispatchMode::Coordinated => format!(", {mode}"),
    };
    let mut table = FigureTable::new(
        &format!(
            "Pack {}: cross-site aggregation ({} site{}, {}{})",
            pack.name(),
            sites,
            if sites == 1 { "" } else { "s" },
            interconnect.describe(),
            mode_tag,
        ),
        &[
            "variant",
            "site",
            "$/slot",
            "delay",
            "rt MWh",
            "waste MWh",
            "xfer MWh",
            "saved $",
        ],
    );
    for (v, fleet) in variant_fleets.enumerate() {
        let label = pack.variant(v).expect("fleet per variant").0.to_owned();
        for (s, r) in fleet.sites.iter().enumerate() {
            table.push_owned(vec![
                label.clone(),
                s.to_string(),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                format!("{:.1}", r.energy_rt.mwh()),
                format!("{:.1}", r.energy_wasted.mwh()),
                "-".into(),
                "-".into(),
            ]);
        }
        table.push_owned(vec![
            label,
            "fleet".into(),
            format!("{:.3}", fleet.time_average_cost().dollars()),
            format!("{:.2}", fleet.average_delay_slots()),
            format!(
                "{:.1}",
                fleet.sites.iter().map(|r| r.energy_rt.mwh()).sum::<f64>()
            ),
            format!("{:.1}", fleet.total_energy_wasted().mwh()),
            format!("{:.2}", fleet.energy_transferred.mwh()),
            format!("{:.2}", fleet.transfer_savings.dollars()),
        ]);
    }
    (table, stats)
}

/// The named transmission-structure roster the topology sweep crosses
/// with the scenario packs: `pooled` is the legacy frictionless knob
/// ([`dpss_core::default_interconnect`]); `mesh` and `ring` are *physical*
/// structures at the same per-pair scale with 5% line loss and $2/MWh
/// wheeling; `severed` cuts every line. On a 3-site fleet the ring is
/// the mesh (every pair is adjacent); from 4 sites up they separate.
///
/// # Panics
///
/// Panics if `sites == 0`.
#[must_use]
pub fn topology_roster(sites: usize) -> Vec<(&'static str, Interconnect)> {
    let cap = dpss_core::default_transfer_cap();
    let physical = |ic: Interconnect| {
        ic.with_uniform_loss(0.05)
            .expect("valid loss")
            .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
            .expect("valid wheeling")
    };
    vec![
        (
            "pooled",
            dpss_core::default_interconnect(sites).expect("valid roster"),
        ),
        (
            "mesh",
            physical(Interconnect::uniform(sites, cap).expect("valid roster")),
        ),
        (
            "ring",
            physical(Interconnect::ring(sites, cap).expect("valid roster")),
        ),
        (
            "severed",
            Interconnect::decoupled(sites).expect("valid roster"),
        ),
    ]
}

/// Topology as a sweep axis: every built-in pack variant crossed with
/// the [`topology_roster`], in planned mode (routing is what
/// distinguishes the structures). Each cell is one `(pack, variant)`
/// fleet, run once per topology with a fresh planner (stepping its
/// sites on any workers the cell fan-out leaves idle). Registered as
/// `dpss sweep --figure topology` at 4 sites.
///
/// # Panics
///
/// Panics if `sites == 0` or a built-in model misbehaves.
#[must_use]
pub fn topology_sweep_with(runner: &ExperimentRunner, seed: u64, sites: usize) -> FigureTable {
    assert!(sites >= 1, "a topology sweep needs at least one site");
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let packs: Vec<ScenarioPack> = ScenarioPack::builtin_names()
        .iter()
        .map(|n| ScenarioPack::builtin(n).expect("registry is consistent"))
        .collect();
    let roster = topology_roster(sites);
    let cells = pack_variants(&packs);
    let fleet_threads = runner.threads_per_cell(cells.len());
    runner.run_table(
        &cells,
        &format!(
            "Topology sweep: packs x {{pooled, mesh, ring, severed}} \
             ({sites} sites, planned settlement)"
        ),
        &[
            "pack", "variant", "topology", "$/slot", "xfer MWh", "saved $", "wheel $",
        ],
        |&(pack, v)| {
            let fleet = MultiSiteEngine::from_pack(params, pack, clock, seed, v, sites)
                .expect("built-in pack builds a fleet")
                .with_threads(fleet_threads);
            roster
                .iter()
                .map(|(name, topology)| {
                    let settled = fleet
                        .clone()
                        .with_interconnect(topology.clone())
                        .expect("roster spans the sweep's sites")
                        .run_with(
                            &mut smart_controllers(sites, params, clock),
                            &mut DispatchMode::Planned.dispatcher(topology),
                        )
                        .expect("fleet run succeeds");
                    vec![
                        pack.name().to_owned(),
                        pack.variant(v).expect("v < pack.len()").0.to_owned(),
                        (*name).to_owned(),
                        format!("{:.3}", settled.time_average_cost().dollars()),
                        format!("{:.2}", settled.energy_transferred.mwh()),
                        format!("{:.2}", settled.transfer_savings.dollars()),
                        format!("{:.2}", settled.wheeling_cost.dollars()),
                    ]
                })
                .collect()
        },
    )
}

/// Overview sweep across *all* built-in packs: a `pack × variant` cell
/// grid, one single-site SmartDPSS month per cell. The quick regime
/// comparison the README's pack catalogue quotes; registered as
/// `dpss sweep --figure pack-overview`.
#[must_use]
pub fn pack_overview_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    let packs: Vec<ScenarioPack> = ScenarioPack::builtin_names()
        .iter()
        .map(|n| ScenarioPack::builtin(n).expect("registry is consistent"))
        .collect();
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    runner.run_table(
        &pack_variants(&packs),
        "Scenario packs: single-site cost overview",
        &["pack", "variant", "$/slot", "delay", "waste MWh"],
        |&(pack, v)| {
            let traces = pack
                .generate(&clock, seed, v)
                .expect("built-in pack generates valid traces");
            let engine = Engine::new(params, traces).expect("valid engine");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            vec![vec![
                pack.name().to_owned(),
                pack.variant(v).expect("v < pack.len()").0.to_owned(),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                format!("{:.1}", r.energy_wasted.mwh()),
            ]]
        },
    )
}

/// Every `(pack, variant)` pair of `packs`, pack by pack, variants in
/// order: the grid of the sweeps that cross all built-in packs.
fn pack_variants(packs: &[ScenarioPack]) -> Vec<(&ScenarioPack, usize)> {
    packs
        .iter()
        .flat_map(|pack| (0..pack.len()).map(move |v| (pack, v)))
        .collect()
}

/// Renders the [`SolverStats`] a sweep returned as the metric/value table
/// behind `dpss sweep --solver-stats`, titled after the sweep's own table
/// so the two always describe the same run. Deterministic counters only:
/// the wall-clock `solve_ns` is never rendered, so the table is identical
/// at any `--threads`.
#[must_use]
pub fn solver_stats_table(sweep: &FigureTable, stats: &SolverStats) -> FigureTable {
    let mut table = FigureTable::new(
        &format!("LP kernel stats: {}", sweep.title),
        &["metric", "value"],
    );
    let rows: [(&str, String); 10] = [
        ("lp solves", stats.solves.to_string()),
        ("warm starts", stats.warm_solves.to_string()),
        ("cold starts", stats.cold_solves.to_string()),
        ("warm rejects", stats.warm_rejects.to_string()),
        ("kernel solves", stats.kernel_solves.to_string()),
        ("simplex pivots", stats.pivots.to_string()),
        ("refactorizations", stats.refactorizations.to_string()),
        ("refactor rate", format!("{:.4}", stats.refactor_rate())),
        ("eta entries peak", stats.eta_len_peak.to_string()),
        ("peak scratch bytes", stats.peak_scratch_bytes.to_string()),
    ];
    for (metric, value) in rows {
        table.push_owned(vec![metric.to_owned(), value]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_sweep_table_shape() {
        // Two sites over the 4-variant price-spike pack: 4 × (2 + fleet).
        let pack = ScenarioPack::builtin("price-spike").unwrap();
        let (t, _) = pack_sweep_with(
            &ExperimentRunner::serial(),
            7,
            &pack,
            2,
            &dpss_core::default_interconnect(2).unwrap(),
            DispatchMode::PostHoc,
        );
        assert_eq!(t.rows.len(), 4 * 3);
        assert_eq!(t.rows[0][0], "calm");
        assert_eq!(t.rows[2][1], "fleet");
        // Fleet rows carry the settlement columns, site rows do not.
        assert_eq!(t.rows[0][6], "-");
        assert_ne!(t.rows[2][6], "-");
        // The coordinated table has the same shape and titles its mode.
        let (c, _) = pack_sweep_with(
            &ExperimentRunner::serial(),
            7,
            &pack,
            2,
            &dpss_core::default_interconnect(2).unwrap(),
            DispatchMode::Coordinated,
        );
        assert_eq!(c.rows.len(), 4 * 3);
        assert!(c.title.contains(", coordinated"), "{}", c.title);
        assert_eq!(c.rows[2][1], "fleet");
    }

    #[test]
    fn planned_sweep_reports_its_planners_stats() {
        let pack = ScenarioPack::builtin("price-spike").unwrap();
        let sweep = |mode| {
            pack_sweep_with(
                &ExperimentRunner::serial(),
                7,
                &pack,
                2,
                &dpss_core::default_interconnect(2).unwrap(),
                mode,
            )
        };
        let (t, stats) = sweep(DispatchMode::Planned);
        assert_eq!(t.rows.len(), 4 * 3);
        // A fresh planner per variant: warm chains within each
        // variant's frames, and each variant starts cold at least once.
        assert!(stats.warm_solves > 0, "{stats:?}");
        assert!(stats.cold_solves >= 4, "{stats:?}");
        assert_eq!(stats.solves, stats.warm_solves + stats.cold_solves);
        let shown = solver_stats_table(&t, &stats);
        assert!(shown.title.ends_with(&t.title), "{}", shown.title);
        assert_eq!(shown.rows[0], ["lp solves", &stats.solves.to_string()]);
        // Post-hoc settles greedily: no LP ever runs.
        let (_, none) = sweep(DispatchMode::PostHoc);
        assert_eq!(none, SolverStats::default());
    }

    #[test]
    fn topology_roster_names_the_four_structures() {
        let roster = topology_roster(4);
        let names: Vec<&str> = roster.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["pooled", "mesh", "ring", "severed"]);
        let mesh = &roster[1].1;
        let ring = &roster[2].1;
        assert_eq!(mesh.open_links().count(), 12);
        assert_eq!(ring.open_links().count(), 8);
        assert!(roster[3].1.is_silent());
        assert!((mesh.loss(0, 1) - 0.05).abs() < 1e-12);
    }
}

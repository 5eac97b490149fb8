//! Scenario-pack and multi-datacenter sweeps: [`SweepSpec`] axes over
//! packs, pack variants, site counts and transmission topologies,
//! executed by an [`ExperimentRunner`] and dispatched over an
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

use std::fmt;

use dpss_sim::{
    Controller, Engine, Interconnect, MultiSiteEngine, MultiSiteReport, RunReport, SimParams,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

use crate::{run_smart, Axis, ExperimentRunner, FigureTable, SweepSpec};
use dpss_core::{FleetPlanner, SmartDpss, SmartDpssConfig};
use dpss_lp::SolverStats;

/// How a pack sweep dispatches and settles inter-site transfers over
/// its [`Interconnect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Settle realized curtailment after the fact with the greedy
    /// per-frame fold ([`Interconnect::settle_greedy`]).
    #[default]
    PostHoc,
    /// Plan each frame's export flows as a linear program
    /// ([`FleetPlanner`]), warm-started frame to frame. Settlement only:
    /// the plan never feeds back into what the sites do.
    Planned,
    /// Frame-synchronous fleet dispatch: sites run in lockstep over
    /// coarse frames; between frames the planner forecasts the fleet's
    /// exchange and hands every site a `FrameDirective` (buy-to-export
    /// when a neighbour's delivered price beats the local long-term
    /// cost), then settles each realized frame with the flow LP.
    Coordinated,
}

impl DispatchMode {
    /// The CLI spellings, in display order.
    pub const NAMES: [&'static str; 3] = ["post-hoc", "planned", "coordinated"];

    /// Parses a CLI spelling, with the canonical error message (the
    /// mode roster is closed, so a typo is a *usage* error — the CLI
    /// exits 2 through `CliFailure`).
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

/// Default interconnect-coupling knob for pack sweeps: a modest 2 MWh of
/// inter-site transfer per coarse frame (the paper's site peaks at
/// 2 MW × 24 h = 48 MWh per frame, so this is ~4% of interconnect scale).
#[must_use]
pub fn default_transfer_cap() -> Energy {
    Energy::from_mwh(2.0)
}

/// The default topology for an `n`-site pack sweep: the
/// [`default_transfer_cap`] as a lossless, free, fleet-pooled
/// [`Interconnect`] — exactly the legacy knob.
///
/// # Panics
///
/// Panics if `sites == 0` (the sweep entry points assert this first).
#[must_use]
pub fn default_interconnect(sites: usize) -> Interconnect {
    Interconnect::pooled(sites, default_transfer_cap()).expect("default cap is valid")
}

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
/// [`DispatchMode`]:
///
/// * **post-hoc / planned** — SmartDPSS runs every `(variant, site)`
///   cell of the sweep grid on the paper's one-month calendar (per-site
///   seeds and shared markets from the pack's schedule), then each
///   variant's sites are settled into a fleet row over the interconnect
///   topology — greedily, or through a fresh per-variant
///   [`FleetPlanner`] (so warm starts chain across a variant's frames
///   but variants stay independent of sweep order);
/// * **coordinated** — sites are coupled through directives, so a
///   *variant* is the smallest independent cell: each cell runs its
///   whole fleet frame-synchronously (serially, in site order) with a
///   coordinating planner, and variants fan out across workers. Tables
///   stay byte-identical at any `--threads` because every cell is
///   deterministic in isolation.
///
/// Rows: one per site, then one `fleet` aggregate row per variant carrying
/// the transfer settlement (sent MWh, displaced $, wheeling $).
///
/// Also returns the [`SolverStats`] of the planners that produced the
/// table: zeros post-hoc (no LP runs); in planned mode the one planner
/// (and LP template) reused across all variants, with
/// [`FleetPlanner::clear_basis`] between them, which every golden suite
/// pins against the fresh-per-variant result; in coordinated mode the
/// per-variant planners, merged in variant order so the stats are the
/// same for any `--threads`.
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

    // Engines are built up front (cheap next to the runs) so the sweep
    // cells — the expensive part — can fan out across workers while the
    // settlement stays a deterministic per-variant fold.
    let fleets: Vec<MultiSiteEngine> = (0..pack.len())
        .map(|v| {
            let engines: Vec<Engine> = (0..sites)
                .map(|s| {
                    let traces = pack
                        .generate_site(&clock, seed, v, s)
                        .expect("built-in pack generates valid traces");
                    Engine::new(params, traces).expect("valid engine")
                })
                .collect();
            MultiSiteEngine::new(engines)
                .expect("sites share the calendar")
                .with_interconnect(interconnect.clone())
                .expect("topology spans the roster")
        })
        .collect();

    let mut stats = SolverStats::default();
    let variant_fleets: Vec<MultiSiteReport> = match mode {
        DispatchMode::PostHoc | DispatchMode::Planned => {
            let spec = SweepSpec::new(&format!("pack-{}", pack.name()), seed)
                .with_axis(Axis::new("variant", pack.labels()))
                .with_axis(Axis::new(
                    "site",
                    (0..sites).map(|s| s.to_string()).collect::<Vec<_>>(),
                ));
            let results = runner.run_cells(&spec, |cell| {
                let (v, s) = (cell.coords[0], cell.coords[1]);
                run_smart(&fleets[v].sites()[s], params, SmartDpssConfig::icdcs13())
            });
            // Every variant settles over the same topology, so planned
            // mode reuses one planner (one LP template, one workspace)
            // for the whole sweep; `clear_basis` between variants keeps
            // each variant byte-identical to a fresh planner while the
            // workspace counters accumulate the whole sweep's telemetry.
            let mut planner =
                (mode == DispatchMode::Planned).then(|| FleetPlanner::for_engine(&fleets[0]));
            let mut it = results.into_iter();
            let settled: Vec<MultiSiteReport> = fleets
                .iter()
                .map(|fleet_engine| {
                    let reports: Vec<RunReport> = it.by_ref().take(sites).collect();
                    match planner.as_mut() {
                        None => fleet_engine
                            .couple(reports)
                            .expect("reports match the fleet roster"),
                        Some(pl) => {
                            pl.clear_basis();
                            pl.couple(fleet_engine, reports)
                                .expect("reports match the fleet roster")
                        }
                    }
                })
                .collect();
            if let Some(pl) = &planner {
                stats = pl.solver_stats();
            }
            settled
        }
        DispatchMode::Coordinated => {
            let spec = SweepSpec::new(&format!("pack-{}-coordinated", pack.name()), seed)
                .with_axis(Axis::new("variant", pack.labels()));
            let cells = runner.run_cells(&spec, |cell| {
                let fleet_engine = &fleets[cell.coords[0]];
                let mut controllers: Vec<Box<dyn Controller>> = (0..sites)
                    .map(|_| {
                        Box::new(
                            SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock)
                                .expect("valid configuration"),
                        ) as Box<dyn Controller>
                    })
                    .collect();
                let mut dispatcher = FleetPlanner::for_engine(fleet_engine).with_coordination(true);
                let report = fleet_engine
                    .run_with(&mut controllers, &mut dispatcher)
                    .expect("fleet run succeeds");
                (report, dispatcher.solver_stats())
            });
            cells
                .into_iter()
                .map(|(report, cell_stats)| {
                    stats.merge(&cell_stats);
                    report
                })
                .collect()
        }
    };

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
    for (v, fleet) in variant_fleets.iter().enumerate() {
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
/// ([`default_interconnect`]); `mesh` and `ring` are *physical*
/// structures at the same per-pair scale with 5% line loss and $2/MWh
/// wheeling; `severed` cuts every line. On a 3-site fleet the ring is
/// the mesh (every pair is adjacent); from 4 sites up they separate.
///
/// # Panics
///
/// Panics if `sites == 0`.
#[must_use]
pub fn topology_roster(sites: usize) -> Vec<(&'static str, Interconnect)> {
    let cap = default_transfer_cap();
    let physical = |ic: Interconnect| {
        ic.with_uniform_loss(0.05)
            .expect("valid loss")
            .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
            .expect("valid wheeling")
    };
    vec![
        ("pooled", default_interconnect(sites)),
        (
            "mesh",
            physical(Interconnect::mesh(sites, cap).expect("valid roster")),
        ),
        (
            "ring",
            physical(Interconnect::ring(sites, cap).expect("valid roster")),
        ),
        (
            "severed",
            Interconnect::severed(sites).expect("valid roster"),
        ),
    ]
}

/// Topology as a sweep axis: every built-in pack variant crossed with
/// the [`topology_roster`], settled through a fresh per-cell
/// [`FleetPlanner`] (planned mode — routing is what distinguishes the
/// structures). Site runs are topology-independent, so each
/// `(pack, variant, site)` cell runs once and settles under all four
/// topologies in the fold. Registered as `dpss sweep --figure topology`
/// at 4 sites.
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
    let widest = packs.iter().map(ScenarioPack::len).max().unwrap_or(0);
    let fleets: Vec<Vec<MultiSiteEngine>> = packs
        .iter()
        .map(|pack| {
            (0..pack.len())
                .map(|v| {
                    let engines: Vec<Engine> = (0..sites)
                        .map(|s| {
                            let traces = pack
                                .generate_site(&clock, seed, v, s)
                                .expect("built-in pack generates valid traces");
                            Engine::new(params, traces).expect("valid engine")
                        })
                        .collect();
                    MultiSiteEngine::new(engines).expect("sites share the calendar")
                })
                .collect()
        })
        .collect();

    let spec = SweepSpec::new("topology-sweep", seed)
        .with_axis(Axis::new(
            "pack",
            packs
                .iter()
                .map(|p| p.name().to_owned())
                .collect::<Vec<_>>(),
        ))
        .with_axis(Axis::new(
            "variant",
            (0..widest).map(|v| v.to_string()).collect::<Vec<_>>(),
        ))
        .with_axis(Axis::new(
            "site",
            (0..sites).map(|s| s.to_string()).collect::<Vec<_>>(),
        ));
    let results: Vec<Option<RunReport>> = runner.run_cells(&spec, |cell| {
        let (p, v, s) = (cell.coords[0], cell.coords[1], cell.coords[2]);
        if v >= packs[p].len() {
            return None; // ragged grid: this pack is narrower
        }
        Some(run_smart(
            &fleets[p][v].sites()[s],
            params,
            SmartDpssConfig::icdcs13(),
        ))
    });

    let roster = topology_roster(sites);
    let mut table = FigureTable::new(
        &format!(
            "Topology sweep: packs x {{pooled, mesh, ring, severed}} \
             ({sites} sites, planned settlement)"
        ),
        &[
            "pack", "variant", "topology", "$/slot", "xfer MWh", "saved $", "wheel $",
        ],
    );
    let mut it = results.into_iter();
    for (p, pack) in packs.iter().enumerate() {
        for v in 0..widest {
            // Ragged grid: drain this variant's cells even when the pack
            // is narrower than the widest one.
            let cell_reports: Vec<Option<RunReport>> = it.by_ref().take(sites).collect();
            let Some(base_fleet) = fleets[p].get(v) else {
                continue;
            };
            let reports: Vec<RunReport> = cell_reports
                .into_iter()
                .map(|r| r.expect("real variants produce reports"))
                .collect();
            for (name, topology) in &roster {
                let fleet_engine = base_fleet
                    .clone()
                    .with_interconnect(topology.clone())
                    .expect("roster spans the sweep's sites");
                let settled = FleetPlanner::for_engine(&fleet_engine)
                    .couple(&fleet_engine, reports.clone())
                    .expect("reports match the fleet roster");
                table.push_owned(vec![
                    pack.name().to_owned(),
                    pack.variant(v).expect("v < pack.len()").0.to_owned(),
                    (*name).to_owned(),
                    format!("{:.3}", settled.time_average_cost().dollars()),
                    format!("{:.2}", settled.energy_transferred.mwh()),
                    format!("{:.2}", settled.transfer_savings.dollars()),
                    format!("{:.2}", settled.wheeling_cost.dollars()),
                ]);
            }
        }
    }
    table
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
    let widest = packs.iter().map(ScenarioPack::len).max().unwrap_or(0);

    let spec = SweepSpec::new("pack-overview", seed)
        .with_axis(Axis::new(
            "pack",
            packs
                .iter()
                .map(|p| p.name().to_owned())
                .collect::<Vec<_>>(),
        ))
        .with_axis(Axis::new(
            "variant",
            (0..widest).map(|v| v.to_string()).collect::<Vec<_>>(),
        ));
    runner.run_table(
        &spec,
        "Scenario packs: single-site cost overview",
        &["pack", "variant", "$/slot", "delay", "waste MWh"],
        |cell| {
            let (p, v) = (cell.coords[0], cell.coords[1]);
            let pack = &packs[p];
            if v >= pack.len() {
                return Vec::new(); // ragged grid: this pack is narrower
            }
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
    fn dispatch_mode_parses_the_closed_roster() {
        assert_eq!(
            DispatchMode::parse("post-hoc").unwrap(),
            DispatchMode::PostHoc
        );
        assert_eq!(
            DispatchMode::parse("planned").unwrap(),
            DispatchMode::Planned
        );
        assert_eq!(
            DispatchMode::parse("coordinated").unwrap(),
            DispatchMode::Coordinated
        );
        let err = DispatchMode::parse("bogus").unwrap_err();
        assert!(err.contains("unknown dispatch mode: bogus"), "{err}");
        assert!(err.contains("post-hoc|planned|coordinated"), "{err}");
        assert_eq!(DispatchMode::Planned.to_string(), "planned");
        assert_eq!(DispatchMode::Coordinated.to_string(), "coordinated");
    }

    #[test]
    fn pack_sweep_table_shape() {
        // Two sites over the 4-variant price-spike pack: 4 × (2 + fleet).
        let pack = ScenarioPack::builtin("price-spike").unwrap();
        let (t, _) = pack_sweep_with(
            &ExperimentRunner::serial(),
            7,
            &pack,
            2,
            &default_interconnect(2),
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
            &default_interconnect(2),
            DispatchMode::Coordinated,
        );
        assert_eq!(c.rows.len(), 4 * 3);
        assert!(c.title.contains(", coordinated"), "{}", c.title);
        assert_eq!(c.rows[2][1], "fleet");
    }

    #[test]
    fn planned_sweep_reuses_one_planner_and_reports_its_stats() {
        let pack = ScenarioPack::builtin("price-spike").unwrap();
        let sweep = |mode| {
            pack_sweep_with(
                &ExperimentRunner::serial(),
                7,
                &pack,
                2,
                &default_interconnect(2),
                mode,
            )
        };
        let (t, stats) = sweep(DispatchMode::Planned);
        assert_eq!(t.rows.len(), 4 * 3);
        // One planner serves all four variants: warm chains within each
        // variant's frames, and clear_basis forces at least one cold
        // start per variant (so variants stay order-independent).
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

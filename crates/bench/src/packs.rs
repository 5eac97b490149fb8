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
    Controller, Engine, Interconnect, MultiSiteEngine, MultiSiteReport, RoutingConfig, RunReport,
    SimParams,
};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Price, SlotClock};

use crate::{run_smart, Axis, ExperimentRunner, FigureTable, SweepSpec};
use dpss_core::{FleetPlanner, RoutingPlanner, SmartDpss, SmartDpssConfig};

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

/// Warm/cold LP solve counts accumulated by a sweep's fleet planners,
/// for the `pack_sweep_lp_counts` JSON artifact: settlement counts come
/// from [`FleetPlanner::solve_counts`], prospective counts from
/// [`FleetPlanner::prospective_solve_counts`] (zeros outside coordinated
/// mode). Deterministic — the solve sequence is a pure function of the
/// sweep inputs — so the artifact is byte-stable like every table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetLpCounts {
    /// Warm-started settlement LP solves.
    pub settlement_warm: u64,
    /// Cold (from-scratch) settlement LP solves.
    pub settlement_cold: u64,
    /// Warm-started prospective-dispatch LP solves.
    pub prospective_warm: u64,
    /// Cold prospective-dispatch LP solves.
    pub prospective_cold: u64,
}

impl FleetLpCounts {
    /// Warm fraction of all settlement solves (0 when none ran).
    #[must_use]
    pub fn settlement_warm_ratio(&self) -> f64 {
        ratio(self.settlement_warm, self.settlement_cold)
    }

    /// Warm fraction of all prospective solves (0 when none ran).
    #[must_use]
    pub fn prospective_warm_ratio(&self) -> f64 {
        ratio(self.prospective_warm, self.prospective_cold)
    }
}

fn ratio(warm: u64, cold: u64) -> f64 {
    let total = warm + cold;
    if total == 0 {
        0.0
    } else {
        warm as f64 / total as f64
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
/// error message. The single source of that wording: the CLI parser, the
/// sweep entry points and the artifact binary all route through here
/// (CI greps the exact prefix).
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

/// [`pack_sweep_with`] on the default runner, topology and (post-hoc)
/// settlement mode, looking the pack up in the built-in registry.
///
/// # Errors
///
/// Returns a message naming the known packs if `pack_name` is not a
/// built-in.
pub fn pack_sweep(seed: u64, pack_name: &str, sites: usize) -> Result<FigureTable, String> {
    let pack = lookup_builtin(pack_name)?;
    Ok(pack_sweep_with(
        &ExperimentRunner::default(),
        seed,
        &pack,
        sites,
        &default_interconnect(sites),
        DispatchMode::PostHoc,
    ))
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
) -> FigureTable {
    pack_sweep_with_counts(runner, seed, pack, sites, interconnect, mode).0
}

/// [`pack_sweep_with`] plus the fleet planners' warm/cold LP solve
/// counts. The table bytes are identical to [`pack_sweep_with`]'s — in
/// planned mode one planner (and its LP template) is reused across all
/// variants with [`FleetPlanner::clear_basis`] between them, which every
/// golden suite pins against the fresh-per-variant result.
///
/// # Panics
///
/// Same contract as [`pack_sweep_with`].
#[must_use]
pub fn pack_sweep_with_counts(
    runner: &ExperimentRunner,
    seed: u64,
    pack: &ScenarioPack,
    sites: usize,
    interconnect: &Interconnect,
    mode: DispatchMode,
) -> (FigureTable, FleetLpCounts) {
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

    let mut counts = FleetLpCounts::default();
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
            // workspace counters accumulate the sweep's warm/cold story.
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
                (counts.settlement_warm, counts.settlement_cold) = pl.solve_counts();
                (counts.prospective_warm, counts.prospective_cold) = pl.prospective_solve_counts();
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
                (
                    report,
                    dispatcher.solve_counts(),
                    dispatcher.prospective_solve_counts(),
                )
            });
            cells
                .into_iter()
                .map(|(report, settle, prospective)| {
                    counts.settlement_warm += settle.0;
                    counts.settlement_cold += settle.1;
                    counts.prospective_warm += prospective.0;
                    counts.prospective_cold += prospective.1;
                    report
                })
                .collect()
        }
    };

    let mode_tag = match mode {
        DispatchMode::PostHoc => String::new(),
        DispatchMode::Planned => ", planned".to_owned(),
        DispatchMode::Coordinated => ", coordinated".to_owned(),
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
    (table, counts)
}

/// Renders a mode's [`FleetLpCounts`] as one row of the
/// `pack_sweep_lp_counts` artifact table (built by the `pack_sweep`
/// binary; tested here so the row shape stays stable).
#[must_use]
pub fn lp_counts_row(mode: DispatchMode, counts: &FleetLpCounts) -> Vec<String> {
    vec![
        mode.to_string(),
        counts.settlement_warm.to_string(),
        counts.settlement_cold.to_string(),
        format!("{:.3}", counts.settlement_warm_ratio()),
        counts.prospective_warm.to_string(),
        counts.prospective_cold.to_string(),
        format!("{:.3}", counts.prospective_warm_ratio()),
    ]
}

/// Column headers matching [`lp_counts_row`].
pub const LP_COUNTS_COLUMNS: [&str; 7] = [
    "mode",
    "settle warm",
    "settle cold",
    "settle warm ratio",
    "prospective warm",
    "prospective cold",
    "prospective warm ratio",
];

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
/// topologies in the fold. Persisted by the `pack_sweep` binary as
/// `target/figures/topology_sweep.json`.
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
/// comparison the README's pack catalogue quotes.
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

/// A serial LP-kernel telemetry probe behind `dpss sweep --solver-stats`:
/// runs the pack's *first* variant through one coordinated fleet month —
/// wrapped by the workload router when `routed` is set — and renders the
/// planner's [`SolverStats`](dpss_lp::SolverStats) counters as a
/// metric/value table. Deliberately single-threaded and single-variant so
/// the counters describe one reproducible month rather than a
/// thread-dependent interleaving of planners.
///
/// # Panics
///
/// Same harness contract as [`pack_sweep_with`], plus a validated
/// `routed` config when one is supplied.
#[must_use]
pub fn solver_stats_table(
    seed: u64,
    pack: &ScenarioPack,
    sites: usize,
    interconnect: &Interconnect,
    routed: Option<RoutingConfig>,
) -> FigureTable {
    assert!(sites >= 1, "a stats probe needs at least one site");
    assert!(!pack.is_empty(), "a stats probe needs at least one variant");
    assert_eq!(
        interconnect.sites(),
        sites,
        "the interconnect must span the probe's site roster"
    );
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let label = pack.variant(0).expect("non-empty pack").0.to_owned();
    let engines: Vec<Engine> = (0..sites)
        .map(|s| {
            let traces = pack
                .generate_site(&clock, seed, 0, s)
                .expect("built-in pack generates valid traces");
            Engine::new(params, traces).expect("valid engine")
        })
        .collect();
    let fleet = MultiSiteEngine::new(engines)
        .expect("sites share the calendar")
        .with_interconnect(interconnect.clone())
        .expect("topology spans the roster");
    let mut controllers: Vec<Box<dyn Controller>> = (0..sites)
        .map(|_| {
            Box::new(
                SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock)
                    .expect("valid configuration"),
            ) as Box<dyn Controller>
        })
        .collect();

    let stats = match routed {
        Some(config) => {
            let mut planner = RoutingPlanner::new(
                FleetPlanner::for_engine(&fleet).with_coordination(true),
                config,
            )
            .expect("validated routing config");
            fleet
                .run_routed(&mut controllers, &mut planner, config)
                .expect("routed fleet run succeeds");
            planner.solver_stats()
        }
        None => {
            let mut planner = FleetPlanner::for_engine(&fleet).with_coordination(true);
            fleet
                .run_with(&mut controllers, &mut planner)
                .expect("fleet run succeeds");
            planner.solver_stats()
        }
    };

    let mut table = FigureTable::new(
        &format!(
            "LP kernel stats: pack {} variant {label}, one coordinated month ({sites} site{})",
            pack.name(),
            if sites == 1 { "" } else { "s" },
        ),
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
    fn pack_sweep_rejects_unknown_names() {
        let err = pack_sweep(42, "nonexistent", 1).unwrap_err();
        assert!(err.contains("unknown scenario pack"), "{err}");
        assert!(err.contains("seasonal-calendar"), "{err}");
    }

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
        let t = pack_sweep_with(
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
        let c = pack_sweep_with(
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
    fn planned_sweep_reuses_one_planner_and_reports_counts() {
        let pack = ScenarioPack::builtin("price-spike").unwrap();
        let (t, counts) = pack_sweep_with_counts(
            &ExperimentRunner::serial(),
            7,
            &pack,
            2,
            &default_interconnect(2),
            DispatchMode::Planned,
        );
        assert_eq!(t.rows.len(), 4 * 3);
        // One planner serves all four variants: warm chains within each
        // variant's frames, and clear_basis forces at least one cold
        // start per variant (so variants stay order-independent).
        assert!(counts.settlement_warm > 0, "{counts:?}");
        assert!(counts.settlement_cold >= 4, "{counts:?}");
        assert!(counts.settlement_warm_ratio() > 0.0);
        assert_eq!(counts.prospective_warm + counts.prospective_cold, 0);
        let row = lp_counts_row(DispatchMode::Planned, &counts);
        assert_eq!(row.len(), LP_COUNTS_COLUMNS.len());
        assert_eq!(row[0], "planned");
        // Post-hoc settles greedily: no LP ever runs.
        let (_, none) = pack_sweep_with_counts(
            &ExperimentRunner::serial(),
            7,
            &pack,
            2,
            &default_interconnect(2),
            DispatchMode::PostHoc,
        );
        assert_eq!(none, FleetLpCounts::default());
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

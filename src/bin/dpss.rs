//! `dpss` — command-line front end for the SmartDPSS reproduction.
//!
//! ```text
//! dpss run    [--controller smart|offline|impatient|greedy] [--v F]
//!             [--epsilon F] [--seed N] [--days N] [--battery-min F]
//!             [--market tm|rtm] [--error F] [--json]
//! dpss traces [--seed N] [--days N] [--out FILE]
//! dpss sweep-v [--grid F,F,...] [--seed N] [--days N] [--threads N] [--json]
//! dpss sweep  --figure NAME [--seed N] [--threads N] [--json]
//! dpss sweep  --pack NAME [--sites N]
//!             [--dispatch post-hoc|planned|coordinated]
//!             [--routing off|co-optimized]
//!             [--interactive-fraction F] [--max-queue-age N]
//!             [--solver-stats] [--seed N] [--threads N] [--json]
//! dpss bounds [--v F] [--epsilon F] [--battery-min F] [--t N]
//! dpss audit  [--json]
//! dpss serve  [--state-dir DIR] [--resume] [--log FILE]
//! dpss replay FILE [--state-dir DIR] [--json]
//! ```
//!
//! Everything is deterministic in `--seed` (and independent of
//! `--threads`); defaults reproduce the paper's §VI-A setup. All
//! failures are routed through one stderr formatter and exit nonzero
//! (`2` for usage errors, `1` for execution errors).

use std::process::ExitCode;

use smartdpss::bench::{figures, packs, routing};
use smartdpss::{
    DispatchMode, Engine, ExperimentRunner, FigureTable, GreedyBattery, Impatient, MarketMode,
    OfflineOptimal, Price, RoutingConfig, RoutingMode, RunReport, Scenario, SimParams, SlotClock,
    SmartDpss, SmartDpssConfig, TheoremBounds, UniformError,
};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    command: Command,
    controller: String,
    v: f64,
    epsilon: f64,
    seed: u64,
    days: usize,
    battery_min: f64,
    market: MarketMode,
    error: f64,
    t: usize,
    json: bool,
    grid: Vec<f64>,
    out: Option<String>,
    threads: usize,
    figure: String,
    pack: String,
    sites: usize,
    dispatch: DispatchMode,
    routing: RoutingMode,
    interactive_fraction: Option<f64>,
    max_queue_age: Option<usize>,
    solver_stats: bool,
    state_dir: Option<String>,
    resume: bool,
    log: Option<String>,
    replay_log: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Traces,
    SweepV,
    Sweep,
    Bounds,
    Audit,
    Serve,
    Replay,
    Help,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            command: Command::Help,
            controller: "smart".into(),
            v: 1.0,
            epsilon: 0.5,
            seed: 42,
            days: 31,
            battery_min: 15.0,
            market: MarketMode::TwoMarkets,
            error: 0.0,
            t: 24,
            json: false,
            grid: vec![0.05, 0.25, 1.0, 5.0],
            out: None,
            threads: 0,
            figure: String::new(),
            pack: String::new(),
            sites: 1,
            dispatch: DispatchMode::PostHoc,
            routing: RoutingMode::Off,
            interactive_fraction: None,
            max_queue_age: None,
            solver_stats: false,
            state_dir: None,
            resume: false,
            log: None,
            replay_log: None,
        }
    }
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    cli.command = match it.next().as_deref() {
        Some("run") => Command::Run,
        Some("traces") => Command::Traces,
        Some("sweep-v") => Command::SweepV,
        Some("sweep") => Command::Sweep,
        Some("bounds") => Command::Bounds,
        Some("audit") => Command::Audit,
        Some("serve") => Command::Serve,
        Some("replay") => Command::Replay,
        Some("help" | "--help" | "-h") | None => Command::Help,
        Some(other) => return Err(format!("unknown command: {other}")),
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--controller" => cli.controller = value("--controller")?,
            "--v" => cli.v = parse_f64(&value("--v")?, "--v")?,
            "--epsilon" => cli.epsilon = parse_f64(&value("--epsilon")?, "--epsilon")?,
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--days" => {
                cli.days = value("--days")?
                    .parse()
                    .map_err(|e| format!("--days: {e}"))?;
            }
            "--battery-min" => {
                cli.battery_min = parse_f64(&value("--battery-min")?, "--battery-min")?;
            }
            "--market" => {
                cli.market = match value("--market")?.as_str() {
                    "tm" => MarketMode::TwoMarkets,
                    "rtm" => MarketMode::RealTimeOnly,
                    other => return Err(format!("--market must be tm|rtm, got {other}")),
                };
            }
            "--error" => {
                let e = parse_f64(&value("--error")?, "--error")?;
                if !(0.0..=1.0).contains(&e) {
                    return Err("--error must be within [0, 1]".into());
                }
                cli.error = e;
            }
            "--t" => {
                cli.t = value("--t")?.parse().map_err(|e| format!("--t: {e}"))?;
            }
            "--json" => cli.json = true,
            "--grid" => {
                cli.grid = value("--grid")?
                    .split(',')
                    .map(|s| parse_f64(s, "--grid"))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => cli.out = Some(value("--out")?),
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--figure" => cli.figure = value("--figure")?,
            "--pack" => cli.pack = value("--pack")?,
            "--sites" => {
                cli.sites = value("--sites")?
                    .parse()
                    .map_err(|e| format!("--sites: {e}"))?;
            }
            // The mode roster is closed, so a typo is a usage error
            // (exit 2) just like an unknown pack name.
            "--dispatch" => {
                cli.dispatch = DispatchMode::parse(&value("--dispatch")?)?;
            }
            // Same closed-roster contract as --dispatch: a typo exits 2.
            "--routing" => {
                cli.routing = RoutingMode::parse(&value("--routing")?)?;
            }
            "--interactive-fraction" => {
                let f = parse_f64(&value("--interactive-fraction")?, "--interactive-fraction")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--interactive-fraction must be within [0, 1]".into());
                }
                cli.interactive_fraction = Some(f);
            }
            "--max-queue-age" => {
                cli.max_queue_age = Some(
                    value("--max-queue-age")?
                        .parse()
                        .map_err(|e| format!("--max-queue-age: {e}"))?,
                );
            }
            "--solver-stats" => cli.solver_stats = true,
            "--state-dir" => cli.state_dir = Some(value("--state-dir")?),
            "--resume" => cli.resume = true,
            "--log" => cli.log = Some(value("--log")?),
            other
                if cli.command == Command::Replay
                    && !other.starts_with('-')
                    && cli.replay_log.is_none() =>
            {
                cli.replay_log = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if cli.days == 0 || cli.t == 0 {
        return Err("--days and --t must be at least 1".into());
    }
    if cli.sites == 0 {
        return Err("--sites must be at least 1".into());
    }
    if cli.resume && cli.state_dir.is_none() {
        return Err("--resume requires --state-dir".into());
    }
    if cli.command == Command::Replay && cli.replay_log.is_none() {
        return Err("replay needs a request-log file".into());
    }
    if cli.command == Command::Sweep {
        match (cli.figure.is_empty(), cli.pack.is_empty()) {
            (true, true) => {
                return Err("sweep needs --figure or --pack (see usage for the known names)".into())
            }
            (false, false) => {
                return Err("sweep takes --figure or --pack, not both".into());
            }
            _ => {}
        }
        // Pack and figure names are closed registries, so a typo is a
        // usage error (exit 2), unlike runtime failures inside a sweep
        // (exit 1).
        if !cli.pack.is_empty() {
            packs::lookup_builtin(&cli.pack)?;
        }
        if !cli.figure.is_empty() && !figures::NAMES.contains(&cli.figure.as_str()) {
            return Err(unknown_figure(&cli.figure));
        }
    }
    // The router settles over a ring, which needs two sites. The routing
    // knobs configure the router, which only runs under --routing
    // co-optimized; a silent no-op would misreport what the table
    // measured, so a stray knob is a usage error.
    if cli.routing == RoutingMode::CoOptimized {
        if cli.sites < 2 {
            return Err(
                "--routing co-optimized needs --sites 2 or more (it routes over a ring)".into(),
            );
        }
    } else {
        if cli.interactive_fraction.is_some() {
            return Err("--interactive-fraction requires --routing co-optimized".into());
        }
        if cli.max_queue_age.is_some() {
            return Err("--max-queue-age requires --routing co-optimized".into());
        }
    }
    if cli.solver_stats && (cli.command != Command::Sweep || cli.pack.is_empty()) {
        return Err("--solver-stats requires a pack sweep (sweep --pack NAME)".into());
    }
    Ok(cli)
}

fn unknown_figure(name: &str) -> String {
    format!(
        "unknown figure: {name} (expected {})",
        figures::NAMES.join("|")
    )
}

fn parse_f64(s: &str, name: &str) -> Result<f64, String> {
    let x: f64 = s.trim().parse().map_err(|e| format!("{name}: {e}"))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{name} must be finite"))
    }
}

fn usage() -> String {
    let figure_names = figures::NAMES
        .chunks(6)
        .map(|names| names.join("|"))
        .collect::<Vec<_>>()
        .join("|\n                     ");
    format!(
        "dpss — SmartDPSS (ICDCS 2013) reproduction CLI

USAGE:
  dpss run     [--controller smart|offline|impatient|greedy] [--v F]
               [--epsilon F] [--seed N] [--days N] [--battery-min F]
               [--market tm|rtm] [--error F in [0,1] (obs. error, e.g. 0.5)] [--json]
  dpss traces  [--seed N] [--days N] [--out FILE]   export the input CSV
  dpss sweep-v [--grid F,F,...] [--seed N] [--days N] [--threads N] [--json]
  dpss sweep   --figure NAME [--seed N] [--threads N] [--json]
               NAME: {figure_names}
  dpss sweep   --pack NAME [--sites N]
               [--dispatch post-hoc|planned|coordinated]
               [--routing off|co-optimized]
               [--interactive-fraction F] [--max-queue-age N]
               [--solver-stats] [--seed N] [--threads N] [--json]
               NAME: seasonal-calendar|price-spike|renewable-drought|
                     flat-baseline|traffic-wave (multi-site cross-
                     aggregation table; planned mode routes exports with
                     per-frame flow LPs, coordinated mode feeds the plan
                     back into the sites' dispatch as buy-to-export
                     directives; --routing co-optimized implies
                     coordinated dispatch over a lossy wheeled ring of
                     --sites N >= 2 and adds the workload router:
                     deferrable requests absorb residual curtailment,
                     migrate toward it, or wait for cheaper frames.
                     --interactive-fraction F in [0,1] and
                     --max-queue-age N tune the router's admission
                     split and queue-age bound; --solver-stats appends
                     the LP telemetry of the planners behind the table)
  dpss bounds  [--v F] [--epsilon F] [--battery-min F] [--t N]
  dpss audit   [--json]   run the workspace source lints (determinism,
               panic-safety, hygiene); --json also writes target/audit.json.
               Exit 0 clean, 1 findings. Same pass as `cargo run -p dpss-audit`.
  dpss serve   [--state-dir DIR] [--resume] [--log FILE]
               stream a control session over stdin/stdout as newline-
               delimited JSON (see `dpss-serve --help` for the protocol;
               the standalone binary also serves Unix sockets)
  dpss replay  FILE [--state-dir DIR] [--json]
               re-drive a recorded request log deterministically;
               --json prints only the final report (same bytes as
               `dpss run --json` for an equivalent session)

Sweeps fan their cells out over --threads workers (0 = all cores) and
are deterministic: any thread count produces identical tables.
All defaults reproduce the paper's one-month setup (seed 42)."
    )
}

fn serve_options(cli: &Cli) -> smartdpss::ServeOptions {
    smartdpss::ServeOptions {
        state_dir: cli.state_dir.as_ref().map(std::path::PathBuf::from),
        resume: cli.resume,
        log: cli.log.as_ref().map(std::path::PathBuf::from),
    }
}

fn build_world(cli: &Cli) -> Result<(Engine, SimParams, SlotClock), String> {
    let clock = SlotClock::new(cli.days, cli.t, 1.0).map_err(|e| e.to_string())?;
    let truth = Scenario::icdcs13()
        .generate(&clock, cli.seed)
        .map_err(|e| e.to_string())?;
    let params = SimParams::icdcs13_with_battery(cli.battery_min);
    let mut engine = Engine::new(params, truth.clone()).map_err(|e| e.to_string())?;
    if cli.error > 0.0 {
        let observed = UniformError::new(cli.error)
            .map_err(|e| e.to_string())?
            .perturb(&truth, cli.seed ^ 0xE44)
            .map_err(|e| e.to_string())?;
        engine = engine.with_observed(observed).map_err(|e| e.to_string())?;
    }
    Ok((engine, params, clock))
}

fn smart_config(cli: &Cli) -> SmartDpssConfig {
    SmartDpssConfig::icdcs13()
        .with_v(cli.v)
        .with_epsilon(cli.epsilon)
        .with_market(cli.market)
}

fn run_controller(cli: &Cli) -> Result<RunReport, String> {
    let (engine, params, clock) = build_world(cli)?;
    let report = match cli.controller.as_str() {
        "smart" => {
            let mut c =
                SmartDpss::new(smart_config(cli), params, clock).map_err(|e| e.to_string())?;
            engine.run(&mut c)
        }
        "offline" => {
            let mut c =
                OfflineOptimal::new(params, engine.truth().clone()).map_err(|e| e.to_string())?;
            engine.run(&mut c)
        }
        "impatient" => engine.run(&mut match cli.market {
            MarketMode::TwoMarkets => Impatient::two_markets(),
            MarketMode::RealTimeOnly => Impatient::real_time_only(),
        }),
        "greedy" => {
            let mut c = GreedyBattery::around(Price::from_dollars_per_mwh(35.0))
                .map_err(|e| e.to_string())?;
            engine.run(&mut c)
        }
        other => return Err(format!("unknown controller: {other}")),
    };
    report.map_err(|e| e.to_string())
}

fn execute(cli: &Cli) -> Result<String, String> {
    match cli.command {
        Command::Help => Ok(usage()),
        Command::Run => {
            let report = run_controller(cli)?;
            if cli.json {
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())
            } else {
                Ok(format!(
                    "{}\npeak grid draw {:.3} MWh/slot, battery [{:.3}, {:.3}] MWh, \
                     final backlog {:.3} MWh",
                    report.summary(),
                    report.peak_grid_draw.mwh(),
                    report.battery_min.mwh(),
                    report.battery_max.mwh(),
                    report.final_backlog.mwh(),
                ))
            }
        }
        Command::Traces => {
            let clock = SlotClock::new(cli.days, cli.t, 1.0).map_err(|e| e.to_string())?;
            let truth = Scenario::icdcs13()
                .generate(&clock, cli.seed)
                .map_err(|e| e.to_string())?;
            let csv = truth.to_csv();
            match &cli.out {
                Some(path) => {
                    std::fs::write(path, &csv).map_err(|e| e.to_string())?;
                    Ok(format!("wrote {} ({} rows)", path, clock.total_slots()))
                }
                None => Ok(csv),
            }
        }
        Command::SweepV => {
            let (engine, params, clock) = build_world(cli)?;
            let runner = ExperimentRunner::new(cli.threads);
            let rows: Vec<Result<Vec<String>, String>> = runner.run_cells(&cli.grid, |&v| {
                let mut c = SmartDpss::new(smart_config(cli).with_v(v), params, clock)
                    .map_err(|e| e.to_string())?;
                let r = engine.run(&mut c).map_err(|e| e.to_string())?;
                Ok(vec![
                    format!("{v}"),
                    format!("{:.4}", r.time_average_cost().dollars()),
                    format!("{:.3}", r.average_delay_slots),
                    format!("{}", r.max_delay_slots),
                ])
            });
            let mut table = FigureTable::new(
                "sweep-v",
                &["V", "cost_per_slot", "avg_delay_slots", "max_delay_slots"],
            );
            for row in rows {
                table.push_owned(row?);
            }
            if cli.json {
                serde_json::to_string_pretty(&table).map_err(|e| e.to_string())
            } else {
                let mut out = String::from("V,cost_per_slot,avg_delay_slots,max_delay_slots\n");
                for row in &table.rows {
                    out.push_str(&row.join(","));
                    out.push('\n');
                }
                Ok(out)
            }
        }
        Command::Sweep => {
            let runner = ExperimentRunner::new(cli.threads);
            let tables = if cli.pack.is_empty() {
                // Validated at parse time; unknown figures never get here.
                figures::tables(&cli.figure, &runner, cli.seed)
                    .ok_or_else(|| unknown_figure(&cli.figure))?
            } else {
                pack_sweep_tables(cli, &runner)?
            };
            if cli.json {
                match tables.as_slice() {
                    // A pack sweep without --solver-stats prints one bare
                    // table: the shape of the CI artifacts it writes.
                    [table] if !cli.pack.is_empty() => {
                        serde_json::to_string_pretty(table).map_err(|e| e.to_string())
                    }
                    _ => serde_json::to_string_pretty(&tables).map_err(|e| e.to_string()),
                }
            } else {
                Ok(tables
                    .iter()
                    .map(FigureTable::render)
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
        }
        Command::Audit => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            let root = dpss_audit::find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory")?;
            let report = dpss_audit::audit_workspace(&root).map_err(|e| e.to_string())?;
            if cli.json {
                let target = root.join("target");
                std::fs::create_dir_all(&target).map_err(|e| e.to_string())?;
                std::fs::write(target.join("audit.json"), report.to_json())
                    .map_err(|e| format!("writing target/audit.json: {e}"))?;
            }
            if report.is_clean() {
                Ok(if cli.json {
                    report.to_json()
                } else {
                    report.render()
                })
            } else {
                // Findings are an execution failure (exit 1), rendered
                // through the same stderr funnel as every other error.
                Err(report.render())
            }
        }
        Command::Serve => {
            let options = serve_options(cli);
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut input = stdin.lock();
            let mut output = stdout.lock();
            smartdpss::serve::serve(&mut input, &mut output, &options)
                .map_err(|e| e.to_string())?;
            // The transcript already went to stdout line by line.
            Ok(String::new())
        }
        Command::Replay => {
            // Presence is enforced at parse time.
            let file = cli.replay_log.clone().unwrap_or_default();
            let options = serve_options(cli);
            let mut transcript = Vec::new();
            let outcome = smartdpss::serve::replay_file(
                std::path::Path::new(&file),
                &mut transcript,
                &options,
            )
            .map_err(|e| e.to_string())?;
            if cli.json {
                let report = outcome
                    .final_report
                    .ok_or("replay log did not finish a single-site session")?;
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())
            } else {
                let text = String::from_utf8(transcript).map_err(|e| e.to_string())?;
                Ok(text.trim_end_matches('\n').to_owned())
            }
        }
        Command::Bounds => {
            let params = SimParams::icdcs13_with_battery(cli.battery_min);
            params.validate().map_err(|e| e.to_string())?;
            let clock = SlotClock::new(cli.days, cli.t, 1.0).map_err(|e| e.to_string())?;
            let config = smart_config(cli);
            config.validate().map_err(|e| e.to_string())?;
            let b = TheoremBounds::compute(&config, &params, &clock);
            Ok(format!(
                "Theorem 2 bounds for V={}, eps={}, T={}, battery {} min:\n\
                 Qmax {:.3} MWh | Ymax {:.3} | Umax {:.3} | lambda_max {} slots\n\
                 Vmax {:.3} (premise {}) | X in [{:.3}, {:.3}] | cost gap H2/V {:.3}",
                cli.v,
                cli.epsilon,
                cli.t,
                cli.battery_min,
                b.q_max,
                b.y_max,
                b.u_max,
                b.lambda_max_slots,
                b.v_max,
                if cli.v <= b.v_max {
                    "holds"
                } else {
                    "violated"
                },
                b.x_lower,
                b.x_upper,
                b.cost_gap,
            ))
        }
    }
}

/// The tables of `sweep --pack`: the pack sweep itself and, under
/// `--solver-stats`, the LP telemetry of the planners that produced it.
fn pack_sweep_tables(cli: &Cli, runner: &ExperimentRunner) -> Result<Vec<FigureTable>, String> {
    // Validated at parse time; unknown packs never get here.
    let pack = packs::lookup_builtin(&cli.pack)?;
    let (table, stats) = if cli.routing == RoutingMode::CoOptimized {
        // The router wraps the coordinated fleet dispatch over the lossy
        // wheeled ring. The CLI knobs override the paper defaults only
        // when spelled out.
        let mut config = RoutingConfig::icdcs13();
        if let Some(f) = cli.interactive_fraction {
            config = config.with_interactive_fraction(f);
        }
        if let Some(a) = cli.max_queue_age {
            config = config.with_max_queue_age(a);
        }
        routing::routing_sweep_with(
            runner,
            cli.seed,
            &pack,
            cli.sites,
            &routing::routing_interconnect(cli.sites),
            config,
        )
    } else {
        packs::pack_sweep_with(
            runner,
            cli.seed,
            &pack,
            cli.sites,
            &smartdpss::core::default_interconnect(cli.sites).map_err(|e| e.to_string())?,
            cli.dispatch,
        )
    };
    let stats_table = cli
        .solver_stats
        .then(|| packs::solver_stats_table(&table, &stats));
    Ok(std::iter::once(table).chain(stats_table).collect())
}

/// A CLI failure: the message plus whether it was a usage error (bad
/// flags — exit code 2, usage appended) or an execution error (exit
/// code 1). Every failure path funnels through this one type so stderr
/// formatting and exit codes cannot drift per subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CliFailure {
    message: String,
    usage_error: bool,
}

impl CliFailure {
    fn usage(message: String) -> Self {
        CliFailure {
            message,
            usage_error: true,
        }
    }

    fn execution(message: String) -> Self {
        CliFailure {
            message,
            usage_error: false,
        }
    }

    /// The single stderr rendering of any `dpss` failure.
    fn render(&self) -> String {
        if self.usage_error {
            format!("dpss: error: {}\n\n{}", self.message, usage())
        } else {
            format!("dpss: error: {}", self.message)
        }
    }

    fn exit_code(&self) -> ExitCode {
        ExitCode::from(if self.usage_error { 2 } else { 1 })
    }
}

fn run_cli(args: Vec<String>) -> Result<String, CliFailure> {
    let cli = parse_args(args).map_err(CliFailure::usage)?;
    execute(&cli).map_err(CliFailure::execution)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(args) {
        Ok(output) => {
            // serve streams its transcript itself and returns nothing.
            if !output.is_empty() {
                println!("{output}");
            }
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("{}", failure.render());
            failure.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_run_flags() {
        let cli = parse_args(args(
            "run --controller offline --v 2.5 --epsilon 0.25 --seed 7 \
             --days 3 --battery-min 30 --market rtm --error 0.5 --json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.controller, "offline");
        assert_eq!(cli.v, 2.5);
        assert_eq!(cli.epsilon, 0.25);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.days, 3);
        assert_eq!(cli.battery_min, 30.0);
        assert_eq!(cli.market, MarketMode::RealTimeOnly);
        assert_eq!(cli.error, 0.5);
        assert!(cli.json);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(args("explode")).is_err());
        assert!(parse_args(args("run --v")).is_err());
        assert!(parse_args(args("run --v nan")).is_err());
        assert!(parse_args(args("run --market sideways")).is_err());
        assert!(parse_args(args("run --days 0")).is_err());
        assert!(parse_args(args("run --bogus 1")).is_err());
    }

    #[test]
    fn error_fraction_outside_the_unit_interval_is_a_usage_error() {
        // A negative fraction used to disable error injection silently
        // and a fraction above one failed only at run time.
        for bad in ["-3", "3"] {
            let err = run_cli(args(&format!("run --days 1 --error {bad}"))).unwrap_err();
            assert!(err.usage_error, "--error {bad}: range check at parse time");
            assert_eq!(err.exit_code(), ExitCode::from(2));
            assert!(
                err.render()
                    .starts_with("dpss: error: --error must be within [0, 1]"),
                "{}",
                err.render()
            );
        }
        for ok in ["0", "1"] {
            let cli = parse_args(args(&format!("run --error {ok}"))).unwrap();
            assert_eq!(cli.error, ok.parse::<f64>().unwrap());
        }
    }

    #[test]
    fn bounds_validates_the_plant_parameters_like_run() {
        // A negative battery used to print an inverted X window and exit 0.
        for command in ["bounds", "run --days 1"] {
            let err = run_cli(args(&format!("{command} --battery-min -5"))).unwrap_err();
            assert!(!err.usage_error, "{command}: execution error, exit 1");
            assert_eq!(err.exit_code(), ExitCode::from(1));
            assert!(
                err.render().contains("must be finite and non-negative"),
                "{command}: {}",
                err.render()
            );
        }
    }

    #[test]
    fn parses_grid() {
        let cli = parse_args(args("sweep-v --grid 0.1,1,5")).unwrap();
        assert_eq!(cli.grid, vec![0.1, 1.0, 5.0]);
    }

    #[test]
    fn help_by_default() {
        let cli = parse_args(Vec::new()).unwrap();
        assert_eq!(cli.command, Command::Help);
        assert!(execute(&cli).unwrap().contains("USAGE"));
    }

    #[test]
    fn executes_small_run_for_every_controller() {
        for controller in ["smart", "offline", "impatient", "greedy"] {
            let mut cli = parse_args(args("run --days 2 --seed 3")).unwrap();
            cli.controller = controller.into();
            let out = execute(&cli).unwrap();
            assert!(out.contains("cost/slot"), "{controller}: {out}");
        }
        let mut cli = parse_args(args("run --days 2 --seed 3 --json")).unwrap();
        cli.controller = "smart".into();
        let out = execute(&cli).unwrap();
        assert!(out.contains("\"controller\""));
    }

    #[test]
    fn executes_sweep_and_bounds_and_traces() {
        let cli = parse_args(args("sweep-v --days 2 --grid 0.5,2")).unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.lines().count(), 3);

        let cli = parse_args(args("bounds --v 1 --battery-min 120")).unwrap();
        let out = execute(&cli).unwrap();
        assert!(out.contains("Qmax"));

        let cli = parse_args(args("traces --days 1")).unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.lines().count(), 25); // header + 24 slots
    }

    #[test]
    fn audit_subcommand_runs_clean_on_this_workspace() {
        let cli = parse_args(args("audit")).unwrap();
        assert_eq!(cli.command, Command::Audit);
        let out = execute(&cli).unwrap();
        assert!(out.contains("clean"), "{out}");

        let cli = parse_args(args("audit --json")).unwrap();
        let out = execute(&cli).unwrap();
        assert!(out.contains("\"clean\": true"), "{out}");
        assert!(out.contains("\"findings\": []"), "{out}");
    }

    #[test]
    fn unknown_controller_is_an_execution_error() {
        let mut cli = parse_args(args("run --days 1")).unwrap();
        cli.controller = "quantum".into();
        assert!(execute(&cli).is_err());
    }

    #[test]
    fn parses_serve_and_replay_flags() {
        let cli = parse_args(args(
            "serve --state-dir /tmp/dpss --resume --log /tmp/req.log",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.state_dir.as_deref(), Some("/tmp/dpss"));
        assert!(cli.resume);
        assert_eq!(cli.log.as_deref(), Some("/tmp/req.log"));

        let cli = parse_args(args("replay session.ndjson --json")).unwrap();
        assert_eq!(cli.command, Command::Replay);
        assert_eq!(cli.replay_log.as_deref(), Some("session.ndjson"));
        assert!(cli.json);

        // Resume needs somewhere to resume from; replay needs its log.
        assert!(parse_args(args("serve --resume")).is_err());
        assert!(parse_args(args("replay")).is_err());
    }

    #[test]
    fn replay_reproduces_the_batch_run_byte_for_byte() {
        let dir = std::env::temp_dir().join("dpss-cli-replay-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("session.ndjson");
        let mut text = String::from("{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":2}\n");
        text.push_str("{\"cmd\":\"step\"}\n{\"cmd\":\"step\"}\n{\"cmd\":\"finish\"}\n");
        std::fs::write(&log, text).unwrap();

        let mut cli = parse_args(args("replay placeholder.ndjson --json")).unwrap();
        cli.replay_log = Some(log.display().to_string());
        let replayed = execute(&cli).unwrap();
        let batch = execute(&parse_args(args("run --days 2 --json")).unwrap()).unwrap();
        assert_eq!(replayed, batch);
    }

    #[test]
    fn parses_sweep_flags() {
        let cli = parse_args(args("sweep --figure fig6v --threads 4 --json --seed 9")).unwrap();
        assert_eq!(cli.command, Command::Sweep);
        assert_eq!(cli.figure, "fig6v");
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.seed, 9);
        assert!(cli.json);
        // --figure is mandatory for sweep.
        assert!(parse_args(args("sweep")).is_err());
    }

    #[test]
    fn sweep_v_json_and_threads_agree_with_text() {
        let text = run_cli(args("sweep-v --days 2 --grid 0.5,2 --threads 1")).unwrap();
        let threaded = run_cli(args("sweep-v --days 2 --grid 0.5,2 --threads 4")).unwrap();
        assert_eq!(text, threaded, "thread count must not change results");
        assert_eq!(text.lines().count(), 3);
        let json = run_cli(args("sweep-v --days 2 --grid 0.5,2 --json")).unwrap();
        let table: FigureTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.columns[0], "V");
        // The JSON rows carry the same cells the CSV prints.
        assert!(text.contains(&table.rows[0][1]));
    }

    #[test]
    fn parses_pack_sweep_flags() {
        let cli = parse_args(args("sweep --pack price-spike --sites 3 --json")).unwrap();
        assert_eq!(cli.command, Command::Sweep);
        assert_eq!(cli.pack, "price-spike");
        assert_eq!(cli.sites, 3);
        assert!(cli.json);
        // Exactly one of --figure / --pack.
        assert!(parse_args(args("sweep")).is_err());
        assert!(parse_args(args("sweep --figure fig5 --pack price-spike")).is_err());
        assert!(parse_args(args("sweep --pack price-spike --sites 0")).is_err());
    }

    #[test]
    fn parses_dispatch_mode() {
        let cli = parse_args(args(
            "sweep --pack price-spike --sites 2 --dispatch planned",
        ))
        .unwrap();
        assert_eq!(cli.dispatch, DispatchMode::Planned);
        let cli = parse_args(args("sweep --pack price-spike --dispatch coordinated")).unwrap();
        assert_eq!(cli.dispatch, DispatchMode::Coordinated);
        // The retired `--interconnect` spelling is an unknown flag now.
        assert!(parse_args(args("sweep --pack price-spike --interconnect post-hoc")).is_err());
    }

    #[test]
    fn unknown_dispatch_mode_is_a_usage_error() {
        let err = run_cli(args("sweep --pack price-spike --dispatch bogus")).unwrap_err();
        assert!(err.usage_error, "closed mode roster → usage error, exit 2");
        assert_eq!(err.exit_code(), ExitCode::from(2));
        let shown = err.render();
        assert!(
            shown.starts_with("dpss: error: unknown dispatch mode: bogus"),
            "{shown}"
        );
        assert!(shown.contains("post-hoc|planned|coordinated"), "{shown}");
    }

    #[test]
    fn parses_routing_mode() {
        let cli = parse_args(args(
            "sweep --pack traffic-wave --sites 2 --routing co-optimized",
        ))
        .unwrap();
        assert_eq!(cli.routing, RoutingMode::CoOptimized);
        // `--routing off` is the default spelled out: the parsed command
        // is identical to not passing the flag at all, which is how the
        // CLI keeps the off tables byte-for-bit those of the pre-routing
        // sweep path.
        let spelled = parse_args(args("sweep --pack price-spike --sites 2 --routing off")).unwrap();
        let silent = parse_args(args("sweep --pack price-spike --sites 2")).unwrap();
        assert_eq!(spelled, silent);
    }

    #[test]
    fn unknown_routing_mode_is_a_usage_error() {
        let err = run_cli(args("sweep --pack traffic-wave --routing bogus")).unwrap_err();
        assert!(err.usage_error, "closed mode roster → usage error, exit 2");
        assert_eq!(err.exit_code(), ExitCode::from(2));
        let shown = err.render();
        assert!(
            shown.starts_with("dpss: error: unknown routing mode: bogus"),
            "{shown}"
        );
        assert!(shown.contains("off|co-optimized"), "{shown}");
    }

    #[test]
    fn parses_routing_knobs_and_solver_stats() {
        let cli = parse_args(args(
            "sweep --pack traffic-wave --sites 2 --routing co-optimized \
             --interactive-fraction 0.4 --max-queue-age 3 --solver-stats",
        ))
        .unwrap();
        assert_eq!(cli.interactive_fraction, Some(0.4));
        assert_eq!(cli.max_queue_age, Some(3));
        assert!(cli.solver_stats);
        // Out-of-range admission splits are usage errors, not runtime
        // panics inside the sweep.
        let err = run_cli(args(
            "sweep --pack traffic-wave --routing co-optimized --interactive-fraction 1.5",
        ))
        .unwrap_err();
        assert!(err.usage_error, "range check at parse time, exit 2");
        assert!(err.render().contains("within [0, 1]"), "{}", err.render());
    }

    #[test]
    fn routing_knobs_without_the_router_are_usage_errors() {
        // The knobs tune the workload router; accepted without it they
        // would silently change nothing.
        for bad in [
            "sweep --pack traffic-wave --interactive-fraction 0.4",
            "sweep --pack traffic-wave --routing off --max-queue-age 3",
        ] {
            let err = run_cli(args(bad)).unwrap_err();
            assert!(err.usage_error, "{bad}");
            assert!(
                err.render().contains("requires --routing co-optimized"),
                "{}",
                err.render()
            );
        }
        // --solver-stats probes a pack's fleet month: pack sweeps only.
        let err = run_cli(args("sweep --figure fig5 --solver-stats")).unwrap_err();
        assert!(err.usage_error);
        assert!(
            err.render().contains("requires a pack sweep"),
            "{}",
            err.render()
        );
    }

    #[test]
    fn unknown_pack_is_a_usage_error_with_the_known_names() {
        let err = run_cli(args("sweep --pack nonexistent")).unwrap_err();
        assert!(err.usage_error, "closed registry → usage error, exit 2");
        assert_eq!(err.exit_code(), ExitCode::from(2));
        let shown = err.render();
        assert!(shown.starts_with("dpss: error: unknown scenario pack: nonexistent"));
        assert!(shown.contains("seasonal-calendar"), "{shown}");
    }

    #[test]
    fn unknown_figure_is_a_usage_error_with_the_known_names() {
        let err = run_cli(args("sweep --figure fig99")).unwrap_err();
        assert!(err.usage_error, "closed registry → usage error, exit 2");
        assert_eq!(err.exit_code(), ExitCode::from(2));
        let shown = err.render();
        assert!(
            shown.starts_with(&format!(
                "dpss: error: unknown figure: fig99 (expected {})",
                figures::NAMES.join("|")
            )),
            "{shown}"
        );
        // The usage text lists every registered figure.
        for name in figures::NAMES {
            assert!(usage().contains(name), "usage misses {name}");
        }
    }

    #[test]
    fn routed_sweep_settles_over_the_routing_ring() {
        let json = run_cli(args(
            "sweep --pack traffic-wave --sites 3 --routing co-optimized --json",
        ))
        .unwrap();
        let pack = packs::lookup_builtin("traffic-wave").unwrap();
        let (table, _) = routing::routing_sweep_with(
            &ExperimentRunner::default(),
            42,
            &pack,
            3,
            &routing::routing_interconnect(3),
            RoutingConfig::icdcs13(),
        );
        assert_eq!(json, serde_json::to_string_pretty(&table).unwrap());
        // A ring needs two sites: fewer is a usage error, not a panic.
        let err = run_cli(args("sweep --pack traffic-wave --routing co-optimized")).unwrap_err();
        assert!(err.usage_error);
        assert!(
            err.render().contains("--sites 2 or more"),
            "{}",
            err.render()
        );
    }

    #[test]
    fn solver_stats_describe_the_printed_sweep() {
        // (dispatch, lp solves, warm starts, cold starts) of the planners
        // behind seasonal-calendar on 3 sites.
        let pinned = [
            ("planned", 124, 50, 74),
            ("coordinated", 248, 92, 156),
            ("post-hoc", 0, 0, 0),
        ];
        for (dispatch, solves, warm, cold) in pinned {
            let command = format!(
                "sweep --pack seasonal-calendar --sites 3 --dispatch {dispatch} --solver-stats"
            );
            let shown = run_cli(args(&format!("{command} --threads 1"))).unwrap();
            let threaded = run_cli(args(&format!("{command} --threads 4"))).unwrap();
            assert_eq!(shown, threaded, "{dispatch}: thread count moved the stats");
            let json = run_cli(args(&format!("{command} --json"))).unwrap();
            let tables: Vec<FigureTable> = serde_json::from_str(&json).unwrap();
            let [sweep, stats] = tables.as_slice() else {
                panic!("{dispatch}: expected the sweep and its stats");
            };
            assert_eq!(stats.title, format!("LP kernel stats: {}", sweep.title));
            let value = |metric: &str| -> u64 {
                let row = stats.rows.iter().find(|r| r[0] == metric).unwrap();
                row[1].parse().unwrap()
            };
            assert_eq!(
                (
                    value("lp solves"),
                    value("warm starts"),
                    value("cold starts")
                ),
                (solves, warm, cold),
                "{dispatch}"
            );
            // Deterministic counters only: the wall-clock solve time
            // never reaches the table.
            let metrics: Vec<&str> = stats.rows.iter().map(|r| r[0].as_str()).collect();
            assert_eq!(
                metrics,
                [
                    "lp solves",
                    "warm starts",
                    "cold starts",
                    "warm rejects",
                    "kernel solves",
                    "simplex pivots",
                    "refactorizations",
                    "refactor rate",
                    "eta entries peak",
                    "peak scratch bytes",
                ]
            );
        }
    }

    #[test]
    fn failure_path_formats_and_exit_codes() {
        // Usage errors: prefixed, usage appended, exit code 2.
        let err = run_cli(args("explode")).unwrap_err();
        assert!(err.usage_error);
        let shown = err.render();
        assert!(shown.starts_with("dpss: error: unknown command: explode"));
        assert!(shown.contains("USAGE"), "usage text appended: {shown}");
        assert_eq!(err.exit_code(), ExitCode::from(2));

        // Execution errors: same prefix, no usage spam, exit code 1.
        let mut cli = parse_args(args("run --days 1")).unwrap();
        cli.controller = "quantum".into();
        let err = CliFailure::execution(execute(&cli).unwrap_err());
        let shown = err.render();
        assert!(shown.starts_with("dpss: error: unknown controller: quantum"));
        assert!(!shown.contains("USAGE"));
        assert_eq!(err.exit_code(), ExitCode::from(1));
    }
}

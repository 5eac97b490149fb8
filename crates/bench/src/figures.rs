//! One computation function per paper figure.
//!
//! Every figure maps its own grid (grid points, baselines, ablation
//! variants) through an [`ExperimentRunner`]; callers pass the runner
//! (`dpss sweep` builds one from `--threads`, tests pass
//! `ExperimentRunner::default()`). Results are assembled in grid order,
//! so the tables are byte-identical for every thread count. [`NAMES`]
//! lists the figures `dpss sweep --figure` renders and [`tables`] builds
//! one by name. Each function's doc states the shape the paper leads one
//! to expect.

// Bench policy: built-in scenarios, engines and LPs are valid by
// construction, so generator/solver failure here is a programming error,
// not an experiment outcome — expects carry the invariant they assert.
// Table rows are built rectangular in the same function that indexes them.
// audit:allow-file(panic-unwrap): bench treats misconfiguration of built-in worlds as a programming error; every expect states its invariant
// audit:allow-file(slice-index): figure tables and sweep grids are built rectangular in the same function that indexes them

use dpss_core::{MarketMode, SmartDpssConfig};
use dpss_sim::{Engine, RunReport, SimParams};
use dpss_traces::{scaling, UniformError};
use dpss_units::SlotClock;

use crate::packs::{pack_overview_with, topology_sweep_with};
use crate::{
    paper_traces, run_impatient, run_offline, run_smart, setup, traces_on, ExperimentRunner,
    FigureTable,
};

/// The `V` grid of Fig. 6(a,b).
pub const FIG6_V_GRID: [f64; 8] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0];
/// The `T` grid of Fig. 6(c,d) (the paper sweeps 3 h to 6 days).
pub const FIG6_T_GRID: [usize; 6] = [3, 6, 12, 24, 48, 144];
/// The `ε` grid of Fig. 7.
pub const FIG7_EPS_GRID: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
/// The battery grid (minutes of peak demand) of Fig. 7.
pub const FIG7_BMAX_GRID: [f64; 3] = [0.0, 15.0, 30.0];
/// The renewable-penetration grid of Fig. 8.
pub const FIG8_PENETRATION_GRID: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
/// The demand-variation grid of Fig. 8.
pub const FIG8_VARIATION_GRID: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];
/// The expansion grid of Fig. 10.
pub const FIG10_BETA_GRID: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// One cell of a sweep that runs baselines beside a `V` grid.
#[derive(Clone, Copy)]
enum Run {
    Offline,
    Impatient,
    Smart(f64),
}

/// Builds one registered figure's tables on a runner for a seed.
type Builder = fn(&ExperimentRunner, u64) -> Vec<FigureTable>;

/// The figure registry, in display order: each name with the tables it
/// builds at the published grids.
const REGISTRY: [(&str, Builder); 12] = [
    ("fig5", |r, seed| vec![fig5_with(r, seed)]),
    ("fig6v", |r, seed| {
        vec![fig6_v_with(r, seed, &FIG6_V_GRID, true)]
    }),
    ("fig6t", |r, seed| {
        vec![fig6_t_with(r, seed, &FIG6_T_GRID, 48)]
    }),
    ("fig7", |r, seed| {
        vec![
            fig7_epsilon_with(r, seed, &FIG7_EPS_GRID),
            fig7_markets_with(r, seed),
            fig7_battery_with(r, seed, &FIG7_BMAX_GRID),
        ]
    }),
    ("fig8", |r, seed| {
        let (pen, var) = fig8_with(r, seed, &FIG8_PENETRATION_GRID, &FIG8_VARIATION_GRID);
        vec![pen, var]
    }),
    ("fig9", |r, seed| {
        vec![fig9_with(r, seed, 0.5, &FIG6_V_GRID)]
    }),
    ("fig10", |r, seed| {
        vec![fig10_with(r, seed, &FIG10_BETA_GRID)]
    }),
    ("ablations", |r, seed| vec![ablations_with(r, seed)]),
    ("forecast", |r, seed| vec![forecast_ablation_with(r, seed)]),
    ("baselines", |r, seed| vec![baselines_with(r, seed)]),
    ("pack-overview", |r, seed| vec![pack_overview_with(r, seed)]),
    // Four sites, so the ring is not the mesh.
    ("topology", |r, seed| vec![topology_sweep_with(r, seed, 4)]),
];

/// The names `dpss sweep --figure` accepts, in display order.
pub const NAMES: [&str; REGISTRY.len()] = {
    let mut names = [""; REGISTRY.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = REGISTRY[i].0;
        i += 1;
    }
    names
};

/// Builds the tables of the figure registered as `name` (one of
/// [`NAMES`]), or `None` for an unknown name.
#[must_use]
pub fn tables(name: &str, runner: &ExperimentRunner, seed: u64) -> Option<Vec<FigureTable>> {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build(runner, seed))
}

/// Fig. 5: the one-month input traces, summarized per day, one cell per
/// day. The paper plots the raw series; `dpss traces` exports them as the
/// full per-slot CSV.
#[must_use]
pub fn fig5_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    let traces = paper_traces(seed);
    let t = traces.clock.slots_per_frame();
    let days: Vec<usize> = (0..traces.clock.frames()).collect();
    runner.run_table(
        &days,
        "Fig. 5: one-month traces (per-day summary)",
        &[
            "day",
            "demand MWh",
            "ds MWh",
            "dt MWh",
            "solar MWh",
            "lt $/MWh",
            "rt mean $/MWh",
            "rt max $/MWh",
        ],
        |&day| {
            let range = day * t..(day + 1) * t;
            let ds: f64 = traces.demand_ds[range.clone()]
                .iter()
                .map(|e| e.mwh())
                .sum();
            let dt: f64 = traces.demand_dt[range.clone()]
                .iter()
                .map(|e| e.mwh())
                .sum();
            let solar: f64 = traces.renewable[range.clone()]
                .iter()
                .map(|e| e.mwh())
                .sum();
            let rt: Vec<f64> = traces.price_rt[range]
                .iter()
                .map(|p| p.dollars_per_mwh())
                .collect();
            let rt_mean = rt.iter().sum::<f64>() / rt.len() as f64;
            let rt_max = rt.iter().fold(0.0f64, |a, &b| a.max(b));
            vec![vec![
                format!("{day}"),
                format!("{:.2}", ds + dt),
                format!("{ds:.2}"),
                format!("{dt:.2}"),
                format!("{solar:.2}"),
                format!("{:.2}", traces.price_lt[day].dollars_per_mwh()),
                format!("{rt_mean:.2}"),
                format!("{rt_max:.2}"),
            ]]
        },
    )
}

/// Fig. 6(a,b): time-average cost and average delay vs `V`, SmartDPSS vs
/// the offline benchmark vs Impatient (`T = 24`, `ε = 0.5`, 15-min UPS).
/// The baselines (offline, Impatient) are cells of the same sweep as the
/// `V` grid, so they run concurrently with the SmartDPSS cells instead of
/// serializing in front of them.
///
/// Expected shape: smart cost falls toward offline as `O(1/V)`; smart
/// delay grows as `O(V)`; Impatient is the delay floor and cost ceiling.
#[must_use]
pub fn fig6_v_with(
    runner: &ExperimentRunner,
    seed: u64,
    vs: &[f64],
    include_offline: bool,
) -> FigureTable {
    let (engine, params) = setup(seed);
    let mut runs = Vec::with_capacity(vs.len() + 2);
    if include_offline {
        runs.push(Run::Offline);
    }
    runs.push(Run::Impatient);
    runs.extend(vs.iter().map(|&v| Run::Smart(v)));

    let n_base = usize::from(include_offline) + 1;
    let results = runner.run_cells(&runs, |run| {
        let r = match *run {
            Run::Offline => run_offline(&engine, params),
            Run::Impatient => run_impatient(&engine),
            Run::Smart(v) => run_smart(&engine, params, SmartDpssConfig::icdcs13().with_v(v)),
        };
        (r.time_average_cost().dollars(), r.average_delay_slots)
    });

    let off = if include_offline {
        Some(results[0])
    } else {
        None
    };
    let imp = results[n_base - 1];
    let mut table = FigureTable::new(
        "Fig. 6(a,b): cost and delay vs V (SmartDPSS / offline / impatient)",
        &[
            "V",
            "smart $/slot",
            "smart delay",
            "offline $/slot",
            "offline delay",
            "impatient $/slot",
            "impatient delay",
        ],
    );
    for (v, &(cost, delay)) in vs.iter().zip(&results[n_base..]) {
        let (oc, od) = off.map_or((f64::NAN, f64::NAN), |x| x);
        table.push_owned(vec![
            format!("{v}"),
            format!("{cost:.3}"),
            format!("{delay:.2}"),
            format!("{oc:.3}"),
            format!("{od:.2}"),
            format!("{:.3}", imp.0),
            format!("{:.2}", imp.1),
        ]);
    }
    table
}

/// Fig. 6(c,d): cost and delay vs the coarse-frame length `T` (`V = 1`,
/// `ε = 0.5`), one cell per `T`. The horizon is held at ~744 hourly
/// slots; each cell re-chunks the frames and regenerates the traces for
/// its own calendar. The offline benchmark is included up to
/// `offline_max_t` (its frame LP grows with `T²`; the published table
/// stops at `T = 48`, and the paper's trend statements concern
/// SmartDPSS). Offline cells solve every frame cold, as [`run_offline`]
/// does; the `T = 144` column is reachable the same way
/// (`offline_max_t = 144`), one ~1k-row cold LP per frame.
///
/// Expected shape: cost roughly flat in `T` (paper band −3.65%..+6.23%);
/// delay decreases as `T` grows.
#[must_use]
pub fn fig6_t_with(
    runner: &ExperimentRunner,
    seed: u64,
    ts: &[usize],
    offline_max_t: usize,
) -> FigureTable {
    let params = SimParams::icdcs13();
    runner.run_table(
        ts,
        "Fig. 6(c,d): cost and delay vs T (SmartDPSS; offline where tractable)",
        &[
            "T",
            "frames",
            "smart $/slot",
            "smart delay",
            "offline $/slot",
            "offline delay",
        ],
        |&t| {
            let frames = (744 / t).max(1);
            let clock = SlotClock::new(frames, t, 1.0).expect("valid clock");
            let engine = Engine::new(params, traces_on(&clock, seed)).expect("valid engine");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            let (oc, od) = if t <= offline_max_t {
                let o = run_offline(&engine, params);
                (
                    format!("{:.3}", o.time_average_cost().dollars()),
                    format!("{:.2}", o.average_delay_slots),
                )
            } else {
                ("-".into(), "-".into())
            };
            vec![vec![
                format!("{t}"),
                format!("{frames}"),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                oc,
                od,
            ]]
        },
    )
}

/// Fig. 7, part 1: time-average cost vs the delay-control parameter `ε`.
///
/// Expected shape: cost rises with `ε` while delay falls.
#[must_use]
pub fn fig7_epsilon_with(runner: &ExperimentRunner, seed: u64, eps: &[f64]) -> FigureTable {
    let (engine, params) = setup(seed);
    runner.run_table(
        eps,
        "Fig. 7 (ε): cost and delay vs ε (V=1, T=24, Bmax=15 min, two markets)",
        &["eps", "$/slot", "delay"],
        |&e| {
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13().with_epsilon(e));
            vec![vec![
                format!("{e}"),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
            ]]
        },
    )
}

/// Fig. 7, part 2: two-timescale markets vs real-time-only.
///
/// Expected shape: two markets (TM) beat real-time only (RTM).
#[must_use]
pub fn fig7_markets_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    const CASES: [(&str, MarketMode); 2] = [
        ("TM", MarketMode::TwoMarkets),
        ("RTM", MarketMode::RealTimeOnly),
    ];
    let (engine, params) = setup(seed);
    runner.run_table(
        &CASES,
        "Fig. 7 (markets): two markets (TM) vs real-time only (RTM)",
        &["markets", "$/slot", "lt MWh", "rt MWh"],
        |&(label, market)| {
            let r = run_smart(
                &engine,
                params,
                SmartDpssConfig::icdcs13().with_market(market),
            );
            vec![vec![
                label.into(),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.1}", r.energy_lt.mwh()),
                format!("{:.1}", r.energy_rt.mwh()),
            ]]
        },
    )
}

/// Fig. 7, part 3: cost vs UPS size (`Bmax` in minutes of peak demand;
/// `0` is the paper's "no battery" case). Each cell derives its engine
/// from one shared trace set via [`Engine::with_params`] instead of
/// regenerating the month per battery size.
///
/// Expected shape: larger batteries reduce curtailment; the cost effect
/// is small here, because the delay-tolerant backlog already stores the
/// energy the battery would.
#[must_use]
pub fn fig7_battery_with(runner: &ExperimentRunner, seed: u64, minutes: &[f64]) -> FigureTable {
    let (base, _) = setup(seed);
    runner.run_table(
        minutes,
        "Fig. 7 (battery): cost vs Bmax (minutes of peak demand)",
        &["Bmax min", "$/slot", "waste MWh", "battery ops"],
        |&m| {
            let params = SimParams::icdcs13_with_battery(m);
            let engine = base.with_params(params).expect("valid params");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            vec![vec![
                format!("{m}"),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.1}", r.energy_wasted.mwh()),
                format!("{}", r.battery_ops),
            ]]
        },
    )
}

/// Fig. 8: cost vs renewable penetration and vs demand variation (one
/// sweep per sub-figure; cells apply the scaling transform to one shared
/// truth set).
///
/// Expected shape: cost falls steeply with penetration (renewables are
/// free at the margin); cost rises mildly with demand variation.
#[must_use]
pub fn fig8_with(
    runner: &ExperimentRunner,
    seed: u64,
    penetrations: &[f64],
    variations: &[f64],
) -> (FigureTable, FigureTable) {
    let params = SimParams::icdcs13();
    let truth = paper_traces(seed);

    let pen_table = runner.run_table(
        penetrations,
        "Fig. 8 (penetration): cost vs renewable penetration",
        &["penetration", "$/slot", "waste MWh"],
        |&p| {
            let t = scaling::with_renewable_penetration(&truth, p).expect("valid penetration");
            let engine = Engine::new(params, t).expect("valid engine");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            vec![vec![
                format!("{:.0}%", p * 100.0),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.1}", r.energy_wasted.mwh()),
            ]]
        },
    );

    let var_table = runner.run_table(
        variations,
        "Fig. 8 (variation): cost vs demand variation (std-dev stretch)",
        &["stretch", "demand std MWh", "$/slot"],
        |&f| {
            let t = scaling::with_demand_variation(&truth, f).expect("valid variation");
            let std = t.demand_stats().std;
            let engine = Engine::new(params, t).expect("valid engine");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            vec![vec![
                format!("{f}"),
                format!("{std:.3}"),
                format!("{:.3}", r.time_average_cost().dollars()),
            ]]
        },
    );
    (pen_table, var_table)
}

/// Fig. 9: change in cost *reduction* (vs Impatient) when the controller
/// observes uniformly perturbed inputs, across `V`. The Impatient
/// baseline is cell 0 of the same sweep; each `V` cell runs the clean and
/// the noisy world.
///
/// Expected shape: the delta column stays within a few percentage points
/// for every `V` (the paper reports [−1.6%, +2.1%]).
#[must_use]
pub fn fig9_with(
    runner: &ExperimentRunner,
    seed: u64,
    error_fraction: f64,
    vs: &[f64],
) -> FigureTable {
    let params = SimParams::icdcs13();
    let truth = paper_traces(seed);
    let clean_engine = Engine::new(params, truth.clone()).expect("valid engine");
    let observed = UniformError::new(error_fraction)
        .expect("valid fraction")
        .perturb(&truth, seed ^ 0x9E37)
        .expect("valid observation");
    let noisy_engine = Engine::new(params, truth)
        .expect("valid engine")
        .with_observed(observed)
        .expect("same calendar");

    let mut runs = vec![Run::Impatient];
    runs.extend(vs.iter().map(|&v| Run::Smart(v)));
    let results = runner.run_cells(&runs, |run| {
        if let Run::Smart(v) = *run {
            let config = SmartDpssConfig::icdcs13().with_v(v);
            let clean = run_smart(&clean_engine, params, config)
                .total_cost()
                .dollars();
            let noisy = run_smart(&noisy_engine, params, config)
                .total_cost()
                .dollars();
            (clean, noisy)
        } else {
            let b = run_impatient(&clean_engine).total_cost().dollars();
            (b, f64::NAN)
        }
    });

    let baseline = results[0].0;
    let mut table = FigureTable::new(
        "Fig. 9: cost-reduction delta under observation errors, vs V",
        &["V", "clean red. %", "noisy red. %", "delta pp"],
    );
    for (v, &(clean, noisy)) in vs.iter().zip(&results[1..]) {
        let red_clean = 100.0 * (baseline - clean) / baseline;
        let red_noisy = 100.0 * (baseline - noisy) / baseline;
        table.push_owned(vec![
            format!("{v}"),
            format!("{red_clean:.2}"),
            format!("{red_noisy:.2}"),
            format!("{:+.2}", red_noisy - red_clean),
        ]);
    }
    table
}

/// Fig. 10: total cost under system expansion `β` (demand and renewables
/// scaled, UPS fixed, interconnect scaled with the build-out). The
/// per-unit column normalizes against the first `β`, so cells return raw
/// costs and the table is assembled sequentially afterwards.
///
/// Expected shape: total cost grows almost linearly in `β`; the per-unit
/// column stays near 1.0x.
#[must_use]
pub fn fig10_with(runner: &ExperimentRunner, seed: u64, betas: &[f64]) -> FigureTable {
    let truth = paper_traces(seed);
    let base = SimParams::icdcs13();
    let costs = runner.run_cells(betas, |&b| {
        let t = scaling::expand(&truth, b).expect("valid beta");
        let mut params = base;
        params.grid_cap = base.grid_cap * b;
        let engine = Engine::new(params, t).expect("valid engine");
        let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
        r.time_average_cost().dollars()
    });

    let mut table = FigureTable::new(
        "Fig. 10: time-average total cost vs expansion beta (UPS fixed)",
        &["beta", "$/slot", "per-unit vs beta=1"],
    );
    let mut unit_base = None;
    for (b, cost) in betas.iter().zip(costs) {
        let per_unit = cost / b;
        let base_unit = *unit_base.get_or_insert(per_unit);
        table.push_owned(vec![
            format!("{b}"),
            format!("{cost:.3}"),
            format!("{:.3}x", per_unit / base_unit),
        ]);
    }
    table
}

/// Ablation: the printed P5 objective vs the drift-plus-penalty
/// derivation, and the paper-literal P4 vs the waste-aware cap, one cell
/// per variant (the `dpss_core::P5Objective` and `dpss_core::P4Variant`
/// docs say why each variant exists).
///
/// Expected shape: the paper-literal P4 over-buys whenever the queue
/// weight exceeds `V·p_lt` and burns the surplus as waste; the P5
/// objective variants land close to each other.
#[must_use]
pub fn ablations_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    use dpss_core::{P4Variant, P5Objective};
    let (engine, params) = setup(seed);
    let cases: [(&str, SmartDpssConfig); 4] = [
        (
            "derived + waste-aware (default)",
            SmartDpssConfig::icdcs13(),
        ),
        (
            "paper-literal P5",
            SmartDpssConfig::icdcs13().with_p5_objective(P5Objective::PaperLiteral),
        ),
        (
            "paper-literal P4",
            SmartDpssConfig::icdcs13().with_p4_variant(P4Variant::PaperLiteral),
        ),
        (
            "paper-literal both",
            SmartDpssConfig::icdcs13()
                .with_p5_objective(P5Objective::PaperLiteral)
                .with_p4_variant(P4Variant::PaperLiteral),
        ),
    ];
    runner.run_table(
        &cases,
        "Ablations: P5 objective and P4 purchase cap (V=1)",
        &["variant", "$/slot", "delay", "waste MWh"],
        |&(label, config)| {
            let r = run_smart(&engine, params, config);
            vec![vec![
                label.into(),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                format!("{:.1}", r.energy_wasted.mwh()),
            ]]
        },
    )
}

/// Extension ablation: how much is better frame-ahead information worth?
/// Runs SmartDPSS under the causal previous-frame observation, a perfect
/// coming-frame oracle, and a noisy oracle at the paper's cited 22.2%
/// renewable forecast error, one cell per policy.
///
/// Expected shape: oracle frame forecasts shave a few percent.
#[must_use]
pub fn forecast_ablation_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    use dpss_sim::ForecastPolicy;
    let params = SimParams::icdcs13();
    let truth = paper_traces(seed);
    let policies: [(&str, ForecastPolicy); 3] = [
        (
            "prev-frame average (paper)",
            ForecastPolicy::PrevFrameAverage,
        ),
        ("perfect oracle", ForecastPolicy::Oracle),
        (
            "noisy oracle (22.2% err)",
            ForecastPolicy::NoisyOracle {
                rel_std: 0.222,
                seed: seed ^ 0xF0,
            },
        ),
    ];
    runner.run_table(
        &policies,
        "Forecast ablation: value of frame-ahead information (V=1)",
        &["frame forecast", "$/slot", "delay", "rt MWh"],
        |&(label, policy)| {
            let engine = Engine::new(params, truth.clone())
                .expect("valid engine")
                .with_forecast(policy)
                .expect("valid policy");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            vec![vec![
                label.into(),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                format!("{:.1}", r.energy_rt.mwh()),
            ]]
        },
    )
}

/// Extension: the full baseline roster on one trace — SmartDPSS, the
/// offline benchmark, the receding-horizon MPC (causal and oracle
/// forecasts), Impatient, and the greedy battery-arbitrage rule — one
/// cell per policy.
///
/// Expected shape: SmartDPSS beats both myopic baselines (Impatient and
/// greedy).
#[must_use]
pub fn baselines_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    use dpss_core::{GreedyBattery, RecedingHorizon};
    use dpss_sim::ForecastPolicy;
    use dpss_units::Price;
    let (engine, params) = setup(seed);
    // Each policy's run, and the label the table prints for it (`None`
    // prints the controller's own name).
    type Policy = (Option<&'static str>, fn(&Engine, SimParams) -> RunReport);
    let policies: [Policy; 6] = [
        (None, |engine, params| {
            run_smart(engine, params, SmartDpssConfig::icdcs13())
        }),
        (None, run_offline),
        (Some("mpc (causal fcst)"), |engine, params| {
            let mut mpc = RecedingHorizon::new(params).expect("valid params");
            engine.run(&mut mpc).expect("run succeeds")
        }),
        (Some("mpc (oracle fcst)"), |engine, params| {
            let oracle_engine = engine
                .clone()
                .with_forecast(ForecastPolicy::Oracle)
                .expect("valid policy");
            let mut mpc = RecedingHorizon::new(params).expect("valid params");
            oracle_engine.run(&mut mpc).expect("run succeeds")
        }),
        (None, |engine, _| run_impatient(engine)),
        (None, |engine, _| {
            let mut greedy =
                GreedyBattery::around(Price::from_dollars_per_mwh(35.0)).expect("valid thresholds");
            engine.run(&mut greedy).expect("run succeeds")
        }),
    ];
    runner.run_table(
        &policies,
        "Baseline roster (one-month trace)",
        &["policy", "$/slot", "delay", "battery ops"],
        |&(label, run)| {
            let r = run(&engine, params);
            vec![vec![
                label.map_or_else(|| r.controller.clone(), str::to_owned),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                format!("{}", r.battery_ops),
            ]]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_SEED;

    #[test]
    fn fig5_covers_every_day() {
        let table = fig5_with(&ExperimentRunner::default(), 7);
        assert_eq!(table.rows.len(), 31);
    }

    #[test]
    fn registry_names_are_unique_and_unknown_names_build_nothing() {
        for (i, name) in NAMES.iter().enumerate() {
            assert!(!NAMES[..i].contains(name), "{name} registered twice");
        }
        assert!(NAMES.contains(&"pack-overview") && NAMES.contains(&"topology"));
        assert!(tables("fig99", &ExperimentRunner::serial(), PAPER_SEED).is_none());
    }

    #[test]
    fn fig6_v_small_grid_is_monotone_in_cost() {
        let t = fig6_v_with(&ExperimentRunner::default(), PAPER_SEED, &[0.1, 5.0], false);
        assert_eq!(t.rows.len(), 2);
        let cost_low: f64 = t.rows[0][1].parse().unwrap();
        let cost_high: f64 = t.rows[1][1].parse().unwrap();
        assert!(cost_high < cost_low, "{cost_high} vs {cost_low}");
        let delay_low: f64 = t.rows[0][2].parse().unwrap();
        let delay_high: f64 = t.rows[1][2].parse().unwrap();
        assert!(delay_high > delay_low);
    }

    #[test]
    fn fig7_tables_have_expected_shapes() {
        let runner = ExperimentRunner::default();
        let eps = fig7_epsilon_with(&runner, PAPER_SEED, &[0.25, 2.0]);
        let d0: f64 = eps.rows[0][2].parse().unwrap();
        let d1: f64 = eps.rows[1][2].parse().unwrap();
        assert!(d1 < d0, "larger ε serves sooner");
        let markets = fig7_markets_with(&runner, PAPER_SEED);
        let tm: f64 = markets.rows[0][1].parse().unwrap();
        let rtm: f64 = markets.rows[1][1].parse().unwrap();
        assert!(tm < rtm, "two markets cheaper");
    }

    #[test]
    fn fig8_penetration_reduces_cost() {
        let (pen, _) = fig8_with(
            &ExperimentRunner::default(),
            PAPER_SEED,
            &[0.0, 1.0],
            &[1.0],
        );
        let none: f64 = pen.rows[0][1].parse().unwrap();
        let full: f64 = pen.rows[1][1].parse().unwrap();
        assert!(full < none);
    }

    #[test]
    fn fig10_grows_with_beta() {
        let t = fig10_with(&ExperimentRunner::default(), PAPER_SEED, &[1.0, 2.0]);
        let c1: f64 = t.rows[0][1].parse().unwrap();
        let c2: f64 = t.rows[1][1].parse().unwrap();
        assert!(c2 > c1);
    }

    #[test]
    fn serial_and_threaded_runners_agree() {
        let serial = fig6_v_with(&ExperimentRunner::serial(), PAPER_SEED, &[0.25, 1.0], false);
        let threaded = fig6_v_with(&ExperimentRunner::new(4), PAPER_SEED, &[0.25, 1.0], false);
        assert_eq!(serial, threaded);
    }
}

//! One computation function per paper figure.
//!
//! Every figure is expressed as a [`SweepSpec`] — a named roster of cells
//! (grid points, baselines, ablation variants) — executed by an
//! [`ExperimentRunner`]. Each `figN` entry point has a `figN_with`
//! sibling taking an explicit runner; the short form uses the default
//! runner (all available cores). Results are assembled in cell order, so
//! the tables are byte-identical for every thread count.

// Bench policy: built-in scenarios, engines and LPs are valid by
// construction, so generator/solver failure here is a programming error,
// not an experiment outcome — expects carry the invariant they assert.
// Table rows are built rectangular in the same function that indexes them.
// audit:allow-file(panic-unwrap): bench treats misconfiguration of built-in worlds as a programming error; every expect states its invariant
// audit:allow-file(slice-index): figure tables and sweep grids are built rectangular in the same function that indexes them

use dpss_core::{MarketMode, OfflineConfig, SmartDpssConfig};
use dpss_sim::{Engine, SimParams};
use dpss_traces::{scaling, UniformError};
use dpss_units::SlotClock;

use crate::{
    paper_traces, run_impatient, run_offline, run_smart, setup, traces_on, Axis, ExperimentRunner,
    FigureTable, SweepSpec, PAPER_SEED,
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

/// Fig. 5: the one-month input traces, summarized per day (the paper plots
/// the raw series; the regenerator binary also exports the full CSV).
#[must_use]
pub fn fig5(seed: u64) -> (FigureTable, String) {
    fig5_with(&ExperimentRunner::default(), seed)
}

/// [`fig5`] on an explicit runner (one cell per day).
#[must_use]
pub fn fig5_with(runner: &ExperimentRunner, seed: u64) -> (FigureTable, String) {
    let traces = paper_traces(seed);
    let t = traces.clock.slots_per_frame();
    let days: Vec<String> = (0..traces.clock.frames()).map(|d| d.to_string()).collect();
    let spec = SweepSpec::new("fig5-traces", seed).with_axis(Axis::new("day", days));
    let table = runner.run_table(
        &spec,
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
        |cell| {
            let day = cell.index;
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
    );
    (table, traces.to_csv())
}

/// Fig. 6(a,b): time-average cost and average delay vs `V`, SmartDPSS vs
/// the offline benchmark vs Impatient (`T = 24`, `ε = 0.5`, 15-min UPS).
#[must_use]
pub fn fig6_v(seed: u64, vs: &[f64], include_offline: bool) -> FigureTable {
    fig6_v_with(&ExperimentRunner::default(), seed, vs, include_offline)
}

/// [`fig6_v`] on an explicit runner. The baselines (offline, Impatient)
/// are cells of the same sweep as the `V` grid, so they run concurrently
/// with the SmartDPSS cells instead of serializing in front of them.
#[must_use]
pub fn fig6_v_with(
    runner: &ExperimentRunner,
    seed: u64,
    vs: &[f64],
    include_offline: bool,
) -> FigureTable {
    let (engine, params) = setup(seed);
    let mut roster: Vec<String> = Vec::with_capacity(vs.len() + 2);
    if include_offline {
        roster.push("offline".into());
    }
    roster.push("impatient".into());
    roster.extend(vs.iter().map(|v| format!("V={v}")));
    let spec = SweepSpec::new("fig6-v", seed).with_axis(Axis::new("run", roster));

    let n_base = usize::from(include_offline) + 1;
    let results = runner.run_cells(&spec, |cell| {
        if include_offline && cell.index == 0 {
            let r = run_offline(&engine, params);
            (r.time_average_cost().dollars(), r.average_delay_slots)
        } else if cell.index == n_base - 1 {
            let r = run_impatient(&engine);
            (r.time_average_cost().dollars(), r.average_delay_slots)
        } else {
            let v = vs[cell.index - n_base];
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13().with_v(v));
            (r.time_average_cost().dollars(), r.average_delay_slots)
        }
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
/// `ε = 0.5`). The horizon is held at ~744 hourly slots; frames are
/// re-chunked and traces regenerated per calendar. The offline benchmark
/// is included up to `offline_max_t` (its frame LP grows with `T²`).
#[must_use]
pub fn fig6_t(seed: u64, ts: &[usize], offline_max_t: usize) -> FigureTable {
    fig6_t_with(&ExperimentRunner::default(), seed, ts, offline_max_t)
}

/// [`fig6_t`] on an explicit runner (one cell per `T`; each cell builds
/// its own calendar, trace set and engine). Offline cells solve cold for
/// bit-reproducibility of the published table.
#[must_use]
pub fn fig6_t_with(
    runner: &ExperimentRunner,
    seed: u64,
    ts: &[usize],
    offline_max_t: usize,
) -> FigureTable {
    fig6_t_offline_with(runner, seed, ts, offline_max_t, OfflineConfig::default())
}

/// [`fig6_t_with`] with an explicit [`OfflineConfig`] for the offline
/// cells. This is how the `T = 144` column gets populated at all:
/// `warm_start: true` lets frames 2…K reuse the previous optimal basis of
/// the ~1k-row frame LP, and a revised `frame_pivot_budget` bounds the
/// worst case (the `sweep_determinism` suite pins the resulting cost).
#[must_use]
pub fn fig6_t_offline_with(
    runner: &ExperimentRunner,
    seed: u64,
    ts: &[usize],
    offline_max_t: usize,
    offline: OfflineConfig,
) -> FigureTable {
    let params = SimParams::icdcs13();
    let labels: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
    let spec = SweepSpec::new("fig6-t", seed).with_axis(Axis::new("T", labels));
    runner.run_table(
        &spec,
        "Fig. 6(c,d): cost and delay vs T (SmartDPSS; offline where tractable)",
        &[
            "T",
            "frames",
            "smart $/slot",
            "smart delay",
            "offline $/slot",
            "offline delay",
        ],
        |cell| {
            let t = ts[cell.index];
            let frames = (744 / t).max(1);
            let clock = SlotClock::new(frames, t, 1.0).expect("valid clock");
            let engine = Engine::new(params, traces_on(&clock, seed)).expect("valid engine");
            let r = run_smart(&engine, params, SmartDpssConfig::icdcs13());
            let (oc, od) = if t <= offline_max_t {
                let o = crate::run_offline_with(&engine, params, offline);
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
#[must_use]
pub fn fig7_epsilon(seed: u64, eps: &[f64]) -> FigureTable {
    fig7_epsilon_with(&ExperimentRunner::default(), seed, eps)
}

/// [`fig7_epsilon`] on an explicit runner.
#[must_use]
pub fn fig7_epsilon_with(runner: &ExperimentRunner, seed: u64, eps: &[f64]) -> FigureTable {
    let (engine, params) = setup(seed);
    let spec = SweepSpec::new("fig7-eps", seed).with_axis(Axis::from_f64s("eps", eps));
    runner.run_table(
        &spec,
        "Fig. 7 (ε): cost and delay vs ε (V=1, T=24, Bmax=15 min, two markets)",
        &["eps", "$/slot", "delay"],
        |cell| {
            let e = eps[cell.index];
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
#[must_use]
pub fn fig7_markets(seed: u64) -> FigureTable {
    fig7_markets_with(&ExperimentRunner::default(), seed)
}

/// [`fig7_markets`] on an explicit runner.
#[must_use]
pub fn fig7_markets_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    const CASES: [(&str, MarketMode); 2] = [
        ("TM", MarketMode::TwoMarkets),
        ("RTM", MarketMode::RealTimeOnly),
    ];
    let (engine, params) = setup(seed);
    let spec = SweepSpec::new("fig7-markets", seed)
        .with_axis(Axis::new("markets", CASES.iter().map(|(l, _)| *l)));
    runner.run_table(
        &spec,
        "Fig. 7 (markets): two markets (TM) vs real-time only (RTM)",
        &["markets", "$/slot", "lt MWh", "rt MWh"],
        |cell| {
            let (label, market) = CASES[cell.index];
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
/// `0` is the paper's "no battery" case).
#[must_use]
pub fn fig7_battery(seed: u64, minutes: &[f64]) -> FigureTable {
    fig7_battery_with(&ExperimentRunner::default(), seed, minutes)
}

/// [`fig7_battery`] on an explicit runner. Each cell derives its engine
/// from one shared trace set via [`Engine::with_params`] instead of
/// regenerating the month per battery size.
#[must_use]
pub fn fig7_battery_with(runner: &ExperimentRunner, seed: u64, minutes: &[f64]) -> FigureTable {
    let (base, _) = setup(seed);
    let spec = SweepSpec::new("fig7-battery", seed).with_axis(Axis::from_f64s("bmax", minutes));
    runner.run_table(
        &spec,
        "Fig. 7 (battery): cost vs Bmax (minutes of peak demand)",
        &["Bmax min", "$/slot", "waste MWh", "battery ops"],
        |cell| {
            let m = minutes[cell.index];
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

/// Fig. 8: cost vs renewable penetration and vs demand variation.
#[must_use]
pub fn fig8(seed: u64, penetrations: &[f64], variations: &[f64]) -> (FigureTable, FigureTable) {
    fig8_with(&ExperimentRunner::default(), seed, penetrations, variations)
}

/// [`fig8`] on an explicit runner (one sweep per sub-figure; cells apply
/// the scaling transform to one shared truth set).
#[must_use]
pub fn fig8_with(
    runner: &ExperimentRunner,
    seed: u64,
    penetrations: &[f64],
    variations: &[f64],
) -> (FigureTable, FigureTable) {
    let params = SimParams::icdcs13();
    let truth = paper_traces(seed);

    let pen_spec = SweepSpec::new("fig8-penetration", seed)
        .with_axis(Axis::from_f64s("penetration", penetrations));
    let pen_table = runner.run_table(
        &pen_spec,
        "Fig. 8 (penetration): cost vs renewable penetration",
        &["penetration", "$/slot", "waste MWh"],
        |cell| {
            let p = penetrations[cell.index];
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

    let var_spec =
        SweepSpec::new("fig8-variation", seed).with_axis(Axis::from_f64s("stretch", variations));
    let var_table = runner.run_table(
        &var_spec,
        "Fig. 8 (variation): cost vs demand variation (std-dev stretch)",
        &["stretch", "demand std MWh", "$/slot"],
        |cell| {
            let f = variations[cell.index];
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
/// observes uniformly perturbed inputs, across `V`.
#[must_use]
pub fn fig9(seed: u64, error_fraction: f64, vs: &[f64]) -> FigureTable {
    fig9_with(&ExperimentRunner::default(), seed, error_fraction, vs)
}

/// [`fig9`] on an explicit runner. The Impatient baseline is cell 0 of
/// the same sweep; each `V` cell runs the clean and the noisy world.
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

    let mut roster = vec!["impatient-baseline".to_owned()];
    roster.extend(vs.iter().map(|v| format!("V={v}")));
    let spec = SweepSpec::new("fig9-errors", seed).with_axis(Axis::new("run", roster));
    let results = runner.run_cells(&spec, |cell| {
        if cell.index == 0 {
            let b = run_impatient(&clean_engine).total_cost().dollars();
            (b, f64::NAN)
        } else {
            let config = SmartDpssConfig::icdcs13().with_v(vs[cell.index - 1]);
            let clean = run_smart(&clean_engine, params, config)
                .total_cost()
                .dollars();
            let noisy = run_smart(&noisy_engine, params, config)
                .total_cost()
                .dollars();
            (clean, noisy)
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
/// scaled, UPS fixed, interconnect scaled with the build-out).
#[must_use]
pub fn fig10(seed: u64, betas: &[f64]) -> FigureTable {
    fig10_with(&ExperimentRunner::default(), seed, betas)
}

/// [`fig10`] on an explicit runner. The per-unit column normalizes
/// against the first `β`, so cells return raw costs and the table is
/// assembled sequentially afterwards.
#[must_use]
pub fn fig10_with(runner: &ExperimentRunner, seed: u64, betas: &[f64]) -> FigureTable {
    let truth = paper_traces(seed);
    let base = SimParams::icdcs13();
    let spec = SweepSpec::new("fig10-expansion", seed).with_axis(Axis::from_f64s("beta", betas));
    let costs = runner.run_cells(&spec, |cell| {
        let b = betas[cell.index];
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
/// derivation, and the paper-literal P4 vs the waste-aware cap (the
/// `dpss_core::P5Objective` and `dpss_core::P4Variant` docs say why
/// each variant exists).
#[must_use]
pub fn ablations(seed: u64) -> FigureTable {
    ablations_with(&ExperimentRunner::default(), seed)
}

/// [`ablations`] on an explicit runner (one cell per variant).
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
    let spec = SweepSpec::new("ablations", seed)
        .with_axis(Axis::new("variant", cases.iter().map(|(l, _)| *l)));
    runner.run_table(
        &spec,
        "Ablations: P5 objective and P4 purchase cap (V=1)",
        &["variant", "$/slot", "delay", "waste MWh"],
        |cell| {
            let (label, config) = cases[cell.index];
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
/// renewable forecast error.
#[must_use]
pub fn forecast_ablation(seed: u64) -> FigureTable {
    forecast_ablation_with(&ExperimentRunner::default(), seed)
}

/// [`forecast_ablation`] on an explicit runner (one cell per policy).
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
    let spec = SweepSpec::new("forecast-ablation", seed)
        .with_axis(Axis::new("forecast", policies.iter().map(|(l, _)| *l)));
    runner.run_table(
        &spec,
        "Forecast ablation: value of frame-ahead information (V=1)",
        &["frame forecast", "$/slot", "delay", "rt MWh"],
        |cell| {
            let (label, policy) = policies[cell.index];
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
/// forecasts), Impatient, and the greedy battery-arbitrage rule.
#[must_use]
pub fn baselines(seed: u64) -> FigureTable {
    baselines_with(&ExperimentRunner::default(), seed)
}

/// [`baselines`] on an explicit runner (one cell per policy).
#[must_use]
pub fn baselines_with(runner: &ExperimentRunner, seed: u64) -> FigureTable {
    use dpss_core::{GreedyBattery, RecedingHorizon};
    use dpss_sim::ForecastPolicy;
    use dpss_units::Price;
    let (engine, params) = setup(seed);
    let roster = [
        "smart-dpss",
        "offline",
        "mpc (causal fcst)",
        "mpc (oracle fcst)",
        "impatient",
        "greedy",
    ];
    let spec = SweepSpec::new("baselines", seed).with_axis(Axis::new("policy", roster));
    runner.run_table(
        &spec,
        "Baseline roster (one-month trace)",
        &["policy", "$/slot", "delay", "battery ops"],
        |cell| {
            let (label, r) = match cell.index {
                0 => (None, run_smart(&engine, params, SmartDpssConfig::icdcs13())),
                1 => (None, run_offline(&engine, params)),
                2 => {
                    let mut mpc = RecedingHorizon::new(params).expect("valid params");
                    (
                        Some("mpc (causal fcst)"),
                        engine.run(&mut mpc).expect("run succeeds"),
                    )
                }
                3 => {
                    let oracle_engine = engine
                        .clone()
                        .with_forecast(ForecastPolicy::Oracle)
                        .expect("valid policy");
                    let mut mpc = RecedingHorizon::new(params).expect("valid params");
                    (
                        Some("mpc (oracle fcst)"),
                        oracle_engine.run(&mut mpc).expect("run succeeds"),
                    )
                }
                4 => (None, run_impatient(&engine)),
                _ => {
                    let mut greedy = GreedyBattery::around(Price::from_dollars_per_mwh(35.0))
                        .expect("valid thresholds");
                    (None, engine.run(&mut greedy).expect("run succeeds"))
                }
            };
            vec![vec![
                label.map_or_else(|| r.controller.clone(), str::to_owned),
                format!("{:.3}", r.time_average_cost().dollars()),
                format!("{:.2}", r.average_delay_slots),
                format!("{}", r.battery_ops),
            ]]
        },
    )
}

/// Default-everything convenience used by tests: computes the Fig. 6(a)
/// table with the canonical seed and grid.
#[must_use]
pub fn fig6_v_default() -> FigureTable {
    fig6_v(PAPER_SEED, &FIG6_V_GRID, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_covers_every_day() {
        let (table, csv) = fig5(7);
        assert_eq!(table.rows.len(), 31);
        assert_eq!(csv.lines().count(), 745); // header + 744 slots
    }

    #[test]
    fn fig6_v_small_grid_is_monotone_in_cost() {
        let t = fig6_v(PAPER_SEED, &[0.1, 5.0], false);
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
        let eps = fig7_epsilon(PAPER_SEED, &[0.25, 2.0]);
        let d0: f64 = eps.rows[0][2].parse().unwrap();
        let d1: f64 = eps.rows[1][2].parse().unwrap();
        assert!(d1 < d0, "larger ε serves sooner");
        let markets = fig7_markets(PAPER_SEED);
        let tm: f64 = markets.rows[0][1].parse().unwrap();
        let rtm: f64 = markets.rows[1][1].parse().unwrap();
        assert!(tm < rtm, "two markets cheaper");
    }

    #[test]
    fn fig8_penetration_reduces_cost() {
        let (pen, _) = fig8(PAPER_SEED, &[0.0, 1.0], &[1.0]);
        let none: f64 = pen.rows[0][1].parse().unwrap();
        let full: f64 = pen.rows[1][1].parse().unwrap();
        assert!(full < none);
    }

    #[test]
    fn fig10_grows_with_beta() {
        let t = fig10(PAPER_SEED, &[1.0, 2.0]);
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

//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets one workload up from the seed, runs one untimed warm-up
//! pass, then timed passes for `--seconds`, checking every pass's output,
//! then traced passes that attribute the time to the layers. The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A human
//! readable breakdown goes to standard error. `perfbench/README.md`
//! defines every metric.

mod fleet;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("tick_p50_us", "us"),
    ("tick_tail_us", "us"),
    ("cost_per_slot", "USD/slot"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not reach reads zero there.
const PER_LAYER: [(&str, &str); 34] = [
    ("result.delay_slots", "slot"),
    ("traces.generate_s", "s"),
    ("lp.solves", "count"),
    ("lp.warm_ratio", "ratio"),
    ("lp.warm_rejects", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.refactorizations", "count"),
    ("lp.kernel_pct", "%"),
    ("lp.peak_scratch_bytes", "bytes"),
    ("core.build_pct", "%"),
    ("core.direct_pct", "%"),
    ("core.settle_pct", "%"),
    ("core.frame_lp_pct", "%"),
    ("core.frame_lp_calls", "count"),
    ("core.p4_pct", "%"),
    ("core.p4_calls", "count"),
    ("core.p5_pct", "%"),
    ("core.p5_calls", "count"),
    ("sim.plant_self_pct", "%"),
    ("sim.lockstep_self_pct", "%"),
    ("sim.step_wall_pct", "%"),
    ("sim.step_parallel_eff", "ratio"),
    ("serve.parse_pct", "%"),
    ("serve.handle_pct", "%"),
    ("serve.emit_pct", "%"),
    ("serve.snapshot_pct", "%"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.requests", "count"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("pass_traced_s", "s"),
    ("tick.samples", "count"),
    ("tick.tail_pct", "pct"),
    ("tick.passes", "count"),
];

/// What one workload run measured.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: BTreeMap::new(),
        }
    }

    /// Records a metric by its name in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name);
        let (key, _) = known.unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.metrics.insert(key, value);
    }

    /// Records the timing metrics of the timed passes, each given as its
    /// wall time and its step times (seconds); `ticks` marks the steps
    /// that are ticks. `pass_s` is the step-by-step composite of
    /// [`stats::composite`], and the tick percentiles are over the ticks'
    /// fastest times. The tail percentile is fixed per workload by its
    /// tick count, so it never shifts with machine speed. Returns
    /// `pass_s` and the fastest step times.
    pub fn timing(
        &mut self,
        timed: &[(f64, Vec<f64>)],
        ticks: &[bool],
    ) -> Result<(f64, Vec<f64>), String> {
        let durations: Vec<f64> = timed.iter().map(|(d, _)| *d).collect();
        log_passes(&durations);
        if timed.iter().any(|(_, steps)| steps.len() != ticks.len()) {
            return Err(format!("a pass did not time its {} steps", ticks.len()));
        }
        let (pass_s, best) = stats::composite(timed).ok_or("no timed pass")?;
        let mut ticks_us: Vec<f64> = best
            .iter()
            .zip(ticks)
            .filter(|(_, &tick)| tick)
            .map(|(s, _)| s * 1e6)
            .collect();
        let tail = stats::tail_percentile(ticks_us.len(), &stats::TAIL_CANDIDATES)
            .ok_or("too few latency samples for any tail percentile")?;
        let p50 = stats::median(&mut ticks_us);
        let tail_us = stats::percentile(&mut ticks_us, tail);
        self.set("pass_s", pass_s);
        self.set("tick_p50_us", p50);
        self.set("tick_tail_us", tail_us);
        self.set("tick.samples", ticks_us.len() as f64);
        self.set("tick.tail_pct", tail);
        self.set("tick.passes", durations.len() as f64);
        eprintln!(
            "composite of {} passes: {pass_s:.4} s; ticks: {} samples, \
             p50 {p50:.1} us, p{tail} {tail_us:.1} us",
            durations.len(),
            ticks_us.len(),
        );
        Ok((pass_s, best))
    }

    fn json(&self, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Timed passes per repetition of the set-up. Set-up runs once before
/// the warm-up and again before every this-many timed passes, so its
/// repetitions span the run the way the passes do while leaving most of
/// the run to the passes.
pub const SETUP_EVERY: usize = 4;

/// Set-up times of a run (see [`SETUP_EVERY`]).
#[derive(Default)]
pub struct SetupTimes {
    /// Each repetition's wall time and step times.
    setup: Vec<(f64, Vec<f64>)>,
    generate: Vec<f64>,
}

impl SetupTimes {
    /// Times one set-up. `build` returns what it built, the seconds it
    /// spent generating traces, and the seconds of each of its steps.
    pub fn time<T>(
        &mut self,
        build: impl FnOnce() -> Result<(T, f64, Vec<f64>), String>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let (built, generate_s, steps) = build()?;
        self.setup.push((secs(t0, Instant::now()), steps));
        self.generate.push(generate_s);
        Ok(built)
    }

    /// Records `setup_s`, composed step by step like `pass_s`
    /// ([`stats::composite`]), and `traces.generate_s`, the median of
    /// the three fastest repetitions.
    pub fn report(&self, out: &mut Outcome) -> Result<(), String> {
        let (setup_s, _) = stats::composite(&self.setup).ok_or("no set-up was timed")?;
        out.set("setup_s", setup_s);
        out.set(
            "traces.generate_s",
            stats::fastest_median(&self.generate, 3),
        );
        Ok(())
    }
}

/// Traced passes per run: one serves the inertness gate; with
/// `--trace 1` the fastest of three is attributed.
pub fn traced_passes(trace: bool) -> usize {
    if trace {
        3
    } else {
        1
    }
}

/// Prints the timed passes, in run order, to standard error.
fn log_passes(pass_s: &[f64]) {
    let ms: Vec<String> = pass_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    eprintln!("passes (ms, in order): {}", ms.join(" "));
}

/// Seconds from `a` to `b`.
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// Timed passes a run makes even when `--seconds` is over.
const MIN_PASSES: usize = 4;

/// Decides how many timed passes to run: until `seconds` have passed
/// and at least [`MIN_PASSES`] ran.
pub struct Sampler {
    start: Instant,
    seconds: f64,
    passes: usize,
}

impl Sampler {
    pub fn new(seconds: f64) -> Self {
        Sampler {
            start: Instant::now(),
            seconds,
            passes: 0,
        }
    }

    pub fn more(&mut self) -> bool {
        let go = self.passes < MIN_PASSES || secs(self.start, Instant::now()) < self.seconds;
        if go {
            self.passes += 1;
        }
        go
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            eprintln!(
                "usage: perfbench --workload fleet-512-coordinated|fleet-8-mpc-routed|\
                 serve-stream-year --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "fleet-512-coordinated" => {
            fleet::run(&fleet::COORDINATED_512, args.seed, args.seconds, args.trace)
        }
        "fleet-8-mpc-routed" => {
            fleet::run(&fleet::MPC_ROUTED_8, args.seed, args.seconds, args.trace)
        }
        "serve-stream-year" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match result.and_then(|o| o.json(args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}

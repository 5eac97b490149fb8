//! The two fleet workloads: one month of a multi-site fleet through the
//! frame-lockstep loop, with a fresh planner and fresh controllers per
//! pass.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dpss_core::{FleetPlanner, RecedingHorizon, RoutingPlanner, SmartDpss, SmartDpssConfig};
use dpss_lp::SolverStats;
use dpss_sim::{Controller, Engine, MultiSiteEngine, MultiSiteReport, RoutingConfig, SimParams};
use dpss_traces::ScenarioPack;
use dpss_units::{Energy, SlotClock};

use crate::stats::{fastest, ratio, self_time, wall_shares};
use crate::trace::{Call, Probe, SiteFrame, SiteLog, TracedController};
use crate::{secs, Outcome, Sampler, SetupTimes};

/// One fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    pub pack: &'static str,
    pub variant: usize,
    pub sites: usize,
    /// `MultiSiteEngine::with_threads` budget.
    pub threads: usize,
    /// `RecedingHorizon` at every site instead of SmartDPSS.
    pub receding: bool,
    /// `RoutingPlanner` over the coordinated planner, via `run_routed`.
    pub routed: bool,
}

/// `fleet-512-coordinated`: the network-LP-heavy month.
pub const COORDINATED_512: FleetSpec = FleetSpec {
    pack: "price-spike",
    variant: 3, // stressed
    sites: 512,
    threads: 1,
    receding: false,
    routed: false,
};

/// `fleet-8-mpc-routed`: frame LPs inside the site steps, plus the
/// routing LP and the workload ledger.
pub const MPC_ROUTED_8: FleetSpec = FleetSpec {
    pack: "traffic-wave",
    variant: 2, // flash-crowd
    sites: 8,
    // Serial: on a two-vCPU host, two stepping threads made runs of the
    // same code spread past the benchmark's bounds (see the README).
    threads: 1,
    receding: true,
    routed: true,
};

/// Coarse frames in the paper month (`SlotClock::icdcs13_month`).
const FRAMES: usize = 31;

/// Wall-attributed layer times of one traced pass, in seconds.
#[derive(Debug, Default)]
struct Layers {
    pass: f64,
    build: f64,
    direct: f64,
    settle: f64,
    lp_kernel: f64,
    frame_lp: f64,
    p4: f64,
    p5: f64,
    plant_self: f64,
    lockstep_self: f64,
    unattributed: f64,
    /// Thread-summed plant self time (span minus controller calls).
    plant_self_sum: f64,
    /// Σ over frames of (settle start − direct return).
    step_wall: f64,
    /// Σ site-frame span durations.
    spans_sum: f64,
    frame_calls: u64,
    slot_calls: u64,
}

struct PassOut {
    report: MultiSiteReport,
    stats: SolverStats,
    seconds: f64,
    frame_latency: Vec<f64>,
    layers: Option<Layers>,
}

/// The fleet, the seconds spent generating traces, and the seconds each
/// site took (its traces plus its engine).
fn build_fleet(spec: &FleetSpec, seed: u64) -> Result<(MultiSiteEngine, f64, Vec<f64>), String> {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin(spec.pack).ok_or("unknown built-in pack")?;
    let mut generate_s = 0.0;
    let mut per_site = Vec::with_capacity(spec.sites);
    let mut engines = Vec::with_capacity(spec.sites);
    for s in 0..spec.sites {
        let t0 = Instant::now();
        let traces = pack
            .generate_site(&clock, seed, spec.variant, s)
            .map_err(|e| format!("trace generation failed: {e}"))?;
        let t1 = Instant::now();
        engines
            .push(Engine::new(params, traces).map_err(|e| format!("engine rejected traces: {e}"))?);
        generate_s += secs(t0, t1);
        per_site.push(secs(t0, Instant::now()));
    }
    let fleet = MultiSiteEngine::new(engines)
        .and_then(|f| f.with_interconnect(dpss_bench::routing_interconnect(spec.sites)))
        .map_err(|e| format!("fleet rejected: {e}"))?
        .with_threads(spec.threads);
    Ok((fleet, generate_s, per_site))
}

fn controller(spec: &FleetSpec) -> Result<Box<dyn Controller>, String> {
    let params = SimParams::icdcs13();
    if spec.receding {
        let ctl = RecedingHorizon::new(params).map_err(|e| e.to_string())?;
        Ok(Box::new(ctl))
    } else {
        let ctl = SmartDpss::new(
            SmartDpssConfig::icdcs13(),
            params,
            SlotClock::icdcs13_month(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Box::new(ctl))
    }
}

/// One month: fresh controllers and planner, then the lockstep run.
fn pass(spec: &FleetSpec, fleet: &MultiSiteEngine, traced: bool) -> Result<PassOut, String> {
    let frames = SlotClock::icdcs13_month().frames();
    let log: SiteLog = Arc::new(Mutex::new(Vec::with_capacity(if traced {
        spec.sites * frames
    } else {
        0
    })));
    let t_pass = Instant::now();
    let mut ctls = (0..spec.sites)
        .map(|_| {
            controller(spec).map(|c| {
                if traced {
                    Box::new(TracedController::new(c, log.clone())) as Box<dyn Controller>
                } else {
                    c
                }
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let planner = FleetPlanner::for_engine(fleet).with_coordination(true);
    let t_run = Instant::now();
    let (report, direct, settle, stats) = if spec.routed {
        let config = RoutingConfig::icdcs13();
        let router = RoutingPlanner::new(planner, config).map_err(|e| e.to_string())?;
        let mut probe = Probe::new(router, traced, frames);
        let report = fleet
            .run_routed(&mut ctls, &mut probe, config)
            .map_err(|e| format!("routed run failed: {e}"))?;
        let stats = probe.inner.solver_stats();
        (report, probe.direct, probe.settle, stats)
    } else {
        let mut probe = Probe::new(planner, traced, frames);
        let report = fleet
            .run_with(&mut ctls, &mut probe)
            .map_err(|e| format!("fleet run failed: {e}"))?;
        let stats = probe.inner.solver_stats();
        (report, probe.direct, probe.settle, stats)
    };
    let t_ran = Instant::now();
    drop(ctls);
    let t_end = Instant::now();

    let mut frame_latency: Vec<f64> = direct
        .windows(2)
        .map(|w| secs(w[0].start, w[1].start))
        .collect();
    if let Some(last) = direct.last() {
        frame_latency.push(secs(last.start, t_ran));
    }
    let layers = traced.then(|| {
        let spans = std::mem::take(&mut *log.lock().expect("site log poisoned"));
        account(spec, t_pass, t_run, t_ran, t_end, &direct, &settle, &spans)
    });
    Ok(PassOut {
        report,
        stats,
        seconds: secs(t_pass, t_end),
        frame_latency,
        layers,
    })
}

/// Attributes the traced pass's wall time to layers. The children of
/// the run span are the dispatcher calls and the site-frame spans; their
/// overlap (two stepping threads) is split by [`wall_shares`], and each
/// child's share is divided among its own parts in proportion to their
/// durations.
#[allow(clippy::too_many_arguments)]
fn account(
    spec: &FleetSpec,
    t_pass: Instant,
    t_run: Instant,
    t_ran: Instant,
    t_end: Instant,
    direct: &[Call],
    settle: &[Call],
    spans: &[SiteFrame],
) -> Layers {
    let at = |t: Instant| secs(t_pass, t);
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    intervals.extend(direct.iter().map(|c| (at(c.start), at(c.end))));
    intervals.extend(settle.iter().map(|c| (at(c.start), at(c.end))));
    intervals.extend(spans.iter().map(|s| (at(s.start), at(s.end))));
    let shares = wall_shares(&intervals);
    let mut l = Layers {
        pass: secs(t_pass, t_end),
        build: secs(t_pass, t_run),
        lockstep_self: self_time((at(t_run), at(t_ran)), &intervals),
        unattributed: secs(t_ran, t_end),
        ..Layers::default()
    };
    let (calls, site_shares) = shares.split_at(direct.len() + settle.len());
    for (i, (call, share)) in direct.iter().chain(settle).zip(calls).enumerate() {
        let dur = secs(call.start, call.end);
        let lp = (call.lp_ns as f64 * 1e-9).min(dur);
        let scale = ratio(*share, dur);
        l.lp_kernel += lp * scale;
        if i < direct.len() {
            l.direct += (dur - lp) * scale;
        } else {
            l.settle += (dur - lp) * scale;
        }
    }
    for (span, share) in spans.iter().zip(site_shares) {
        let dur = secs(span.start, span.end);
        let scale = ratio(*share, dur);
        let frame_s = span.frame_ns as f64 * 1e-9;
        if spec.receding {
            l.frame_lp += frame_s * scale;
        } else {
            l.p4 += frame_s * scale;
        }
        l.p5 += span.slot_ns as f64 * 1e-9 * scale;
        let plant = (dur - span.controller_s()).max(0.0);
        l.plant_self += plant * scale;
        l.plant_self_sum += plant;
        l.spans_sum += dur;
        l.frame_calls += 1;
        l.slot_calls += span.slot_calls;
    }
    l.step_wall = direct
        .iter()
        .zip(settle)
        .map(|(d, s)| secs(d.end, s.start))
        .sum();
    l
}

/// The correctness gates every pass must clear: availability and
/// delay-sensitive service at every site, plus (routed) per-frame load
/// conservation, an empty final queue and the age bound.
fn check(spec: &FleetSpec, report: &MultiSiteReport) -> Result<(), String> {
    for (i, site) in report.sites.iter().enumerate() {
        if site.availability_violations != 0 || site.unserved_ds > Energy::ZERO {
            return Err(format!(
                "site {i}: {} availability violations, {} MWh unserved delay-sensitive energy",
                site.availability_violations,
                site.unserved_ds.mwh()
            ));
        }
    }
    if spec.routed {
        let load = &report.load;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        let mut carried = 0.0;
        for f in &load.frames {
            let left = f.arrived.mwh() + carried;
            let right = f.served_spot.mwh() + f.absorbed.mwh() + f.migrated.mwh() + f.backlog.mwh();
            if !close(left, right) {
                return Err(format!(
                    "frame {}: load not conserved ({left} MWh in, {right} MWh out)",
                    f.frame
                ));
            }
            carried = f.backlog.mwh();
        }
        let out = load.served_spot.mwh()
            + load.absorbed.mwh()
            + load.migrated.mwh()
            + load.final_backlog.mwh();
        if !close(load.arrived.mwh(), out) {
            return Err("run: load not conserved".to_owned());
        }
        if load.final_backlog.mwh().abs() > 1e-9 {
            return Err(format!("final backlog {} MWh", load.final_backlog.mwh()));
        }
        let bound = RoutingConfig::icdcs13().max_queue_age;
        if load.max_wait_frames > bound {
            return Err(format!(
                "max wait {} frames exceeds the age bound {bound}",
                load.max_wait_frames
            ));
        }
        if load.arrived <= Energy::ZERO {
            return Err("routed month carried no workload".to_owned());
        }
    }
    Ok(())
}

/// The LP counts that must repeat exactly (everything but the clock).
fn counts(s: &SolverStats) -> SolverStats {
    SolverStats { solve_ns: 0, ..*s }
}

pub fn run(spec: &FleetSpec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup = SetupTimes::default();
    let fleet = setup.time(|| build_fleet(spec, seed))?;
    if fleet.sites()[0].truth().clock.frames() != FRAMES {
        return Err("the paper month changed length".to_owned());
    }
    let slots = (spec.sites * SlotClock::icdcs13_month().total_slots()) as u64;

    // Warm-up, then timed untraced passes; each is checked and must
    // reproduce the warm-up exactly.
    let first = pass(spec, &fleet, false)?;
    check(spec, &first.report)?;
    let rss = crate::peak_rss_mb()?;
    let mut sampler = Sampler::new(seconds);
    let mut timed = Vec::new();
    while sampler.more() {
        if timed.len() % crate::SETUP_EVERY == 0 {
            drop(setup.time(|| build_fleet(spec, seed))?);
        }
        let out = pass(spec, &fleet, false)?;
        check(spec, &out.report)?;
        if out.report != first.report || counts(&out.stats) != counts(&first.stats) {
            return Err("a pass diverged from the warm-up pass".to_owned());
        }
        timed.push((out.seconds, out.frame_latency));
    }
    eprintln!(
        "peak RSS after the warm-up {rss:.1} MB, after the timed passes {:.1} MB",
        crate::peak_rss_mb()?
    );

    // Traced passes: decorators must leave the report untouched. The
    // fastest one is attributed.
    let mut traced = Vec::new();
    for _ in 0..crate::traced_passes(trace) {
        let out = pass(spec, &fleet, true)?;
        check(spec, &out.report)?;
        if out.report != first.report || counts(&out.stats) != counts(&first.stats) {
            return Err("a traced pass diverged from the untraced passes".to_owned());
        }
        traced.push((out.seconds, out.layers.ok_or("no layers recorded")?));
    }
    let passes = (timed.len() + traced.len() + 1) as u64;
    let (_, l) = fastest(traced, 1).swap_remove(0);

    let report = &first.report;
    let served: f64 = report.sites.iter().map(|r| r.served_dt.mwh()).sum();
    let delay: f64 = report
        .sites
        .iter()
        .map(|r| r.average_delay_slots * r.served_dt.mwh())
        .sum();
    let mut out = Outcome::new(slots * passes, 0);
    setup.report(&mut out)?;
    let (pass_s, _) = out.timing(&timed, &[true; FRAMES])?;
    out.set(
        "cost_per_slot",
        report.total_cost().dollars() / slots as f64,
    );
    out.set("result.delay_slots", ratio(delay, served));
    out.set("peak_rss_mb", rss);

    let s = &first.stats;
    let pct = |x: f64| 100.0 * ratio(x, l.pass);
    out.set("lp.solves", s.solves as f64);
    out.set(
        "lp.warm_ratio",
        ratio(s.warm_solves as f64, s.solves as f64),
    );
    out.set("lp.warm_rejects", s.warm_rejects as f64);
    out.set(
        "lp.pivots_per_solve",
        ratio(s.pivots as f64, s.kernel_solves as f64),
    );
    out.set("lp.refactorizations", s.refactorizations as f64);
    out.set("lp.kernel_pct", pct(l.lp_kernel));
    out.set("lp.peak_scratch_bytes", s.peak_scratch_bytes as f64);
    out.set("core.build_pct", pct(l.build));
    out.set("core.direct_pct", pct(l.direct));
    out.set("core.settle_pct", pct(l.settle));
    out.set("core.frame_lp_pct", pct(l.frame_lp));
    out.set("core.p4_pct", pct(l.p4));
    if spec.receding {
        out.set("core.frame_lp_calls", l.frame_calls as f64);
    } else {
        out.set("core.p4_calls", l.frame_calls as f64);
    }
    out.set("core.p5_pct", pct(l.p5));
    out.set("core.p5_calls", l.slot_calls as f64);
    out.set("sim.plant_self_pct", pct(l.plant_self));
    out.set("sim.lockstep_self_pct", pct(l.lockstep_self));
    out.set("sim.step_wall_pct", pct(l.step_wall));
    out.set(
        "sim.step_parallel_eff",
        ratio(l.spans_sum, spec.threads as f64 * l.step_wall),
    );
    out.set("unattributed_pct", pct(l.unattributed));
    out.set("trace_overhead_pct", 100.0 * ratio(l.pass - pass_s, pass_s));
    out.set("pass_traced_s", l.pass);

    eprintln!(
        "traced pass {:.4} s = build {:.4} + direct {:.4} + settle {:.4} + lp kernel {:.4} \
         + frame LP {:.4} + P4 {:.4} + P5/slot {:.4} + plant {:.4} + lockstep {:.4} \
         + unattributed {:.4}",
        l.pass,
        l.build,
        l.direct,
        l.settle,
        l.lp_kernel,
        l.frame_lp,
        l.p4,
        l.p5,
        l.plant_self,
        l.lockstep_self,
        l.unattributed
    );
    eprintln!(
        "thread-summed: plant self {:.4} s, site-frame spans {:.4} s, step wall {:.4} s; \
         lp: {} solves, {} warm, {} rejects, {} pivots, {} refactorizations",
        l.plant_self_sum,
        l.spans_sum,
        l.step_wall,
        s.solves,
        s.warm_solves,
        s.warm_rejects,
        s.pivots,
        s.refactorizations
    );
    Ok(out)
}

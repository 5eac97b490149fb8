//! `serve-stream-year`: a 372-day stream session through the daemon's
//! request loop, one closed-loop client over in-memory pipes.

use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::time::Instant;

use dpss_core::{SmartDpss, SmartDpssConfig};
use dpss_serve::{serve, RawRequest, Response, ServeOptions, SessionServer};
use dpss_sim::{Engine, RunReport, SimParams};
use dpss_traces::{Scenario, TraceSet};
use dpss_units::SlotClock;

use crate::stats::{fastest, median, ratio};
use crate::{secs, Outcome, Sampler, SetupTimes};

const DAYS: usize = 372;
/// A snapshot request follows every this-many ticks.
const SNAPSHOT_EVERY: usize = 31;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Tick,
    Snapshot,
    Other,
}

/// The session's request log and the kind of each request line.
struct Log {
    text: String,
    kinds: Vec<Kind>,
}

fn clock() -> Result<SlotClock, String> {
    SlotClock::new(DAYS, 24, 1.0).map_err(|e| e.to_string())
}

fn params() -> SimParams {
    // What a stream session runs with (`battery_min` defaults to 15).
    SimParams::icdcs13_with_battery(15.0)
}

fn request_log(truth: &TraceSet, clock: &SlotClock) -> Result<Log, String> {
    let mut text = format!("{{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":{DAYS}}}\n");
    let mut kinds = vec![Kind::Other];
    let t = clock.slots_per_frame();
    for frame in 0..clock.frames() {
        let span = frame * t..(frame + 1) * t;
        let mwh = |v: &[dpss_units::Energy]| v[span.clone()].iter().map(|e| e.mwh()).collect();
        let tick = RawRequest {
            cmd: Some("tick".to_owned()),
            frame: Some(frame),
            price_lt: Some(truth.price_lt[frame].dollars_per_mwh()),
            price_rt: Some(
                truth.price_rt[span.clone()]
                    .iter()
                    .map(|p| p.dollars_per_mwh())
                    .collect(),
            ),
            demand_ds: Some(mwh(&truth.demand_ds)),
            demand_dt: Some(mwh(&truth.demand_dt)),
            renewable: Some(mwh(&truth.renewable)),
            ..RawRequest::default()
        };
        text.push_str(&serde_json::to_string(&tick).map_err(|e| e.to_string())?);
        text.push('\n');
        kinds.push(Kind::Tick);
        if (frame + 1) % SNAPSHOT_EVERY == 0 {
            text.push_str("{\"cmd\":\"snapshot\"}\n");
            kinds.push(Kind::Snapshot);
        }
    }
    text.push_str("{\"cmd\":\"finish\"}\n{\"cmd\":\"shutdown\"}\n");
    kinds.extend([Kind::Other, Kind::Other]);
    Ok(Log { text, kinds })
}

/// The client's side of the request pipe: hands the daemon one line at
/// a time and stamps the moment each line is asked for.
struct StampedInput<'a> {
    data: &'a [u8],
    pos: usize,
    stamped: Option<usize>,
    stamps: Vec<Instant>,
}

impl Read for StampedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let line = self.fill_buf()?;
            let n = line.len().min(buf.len());
            buf[..n].copy_from_slice(&line[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for StampedInput<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos < self.data.len() && self.stamped != Some(self.pos) {
            self.stamps.push(Instant::now());
            self.stamped = Some(self.pos);
        }
        let rest = &self.data[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        Ok(&rest[..end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// The client's side of the response pipe: keeps the transcript and
/// stamps every flush (the daemon flushes once per response).
#[derive(Default)]
struct StampedOutput {
    bytes: Vec<u8>,
    flushes: Vec<Instant>,
}

impl Write for StampedOutput {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes.push(Instant::now());
        Ok(())
    }
}

/// A scratch state directory inside the checkout, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new() -> Self {
        StateDir(PathBuf::from(format!(
            "perfbench/.state-{}",
            std::process::id()
        )))
    }

    fn clear(&self) -> Result<(), String> {
        match std::fs::remove_dir_all(&self.0) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("cannot clear {}: {e}", self.0.display())),
        }
    }

    fn largest_file(&self) -> Result<u64, String> {
        let entries = std::fs::read_dir(&self.0).map_err(|e| e.to_string())?;
        let mut largest = 0;
        for entry in entries {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| e.to_string())?;
            largest = largest.max(meta.len());
        }
        Ok(largest)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct PassOut {
    seconds: f64,
    transcript: Vec<u8>,
    report: Option<RunReport>,
    errors: u64,
    /// Latency of each request, in seconds, in log order.
    latency: Vec<f64>,
}

/// One untraced session through `dpss_serve::serve`.
fn pass(log: &Log, state: &StateDir) -> Result<PassOut, String> {
    state.clear()?;
    let options = ServeOptions {
        state_dir: Some(state.0.clone()),
        ..ServeOptions::default()
    };
    let mut input = StampedInput {
        data: log.text.as_bytes(),
        pos: 0,
        stamped: None,
        stamps: Vec::with_capacity(log.kinds.len()),
    };
    let mut output = StampedOutput {
        bytes: Vec::with_capacity(1 << 20),
        flushes: Vec::with_capacity(log.kinds.len() + 1),
    };
    let t0 = Instant::now();
    let outcome = serve(&mut input, &mut output, &options).map_err(|e| e.to_string())?;
    let seconds = secs(t0, Instant::now());
    if input.stamps.len() != log.kinds.len() || output.flushes.len() != log.kinds.len() + 1 {
        return Err("the session did not answer every request".to_owned());
    }
    // Flush 0 is the hello line; flush i + 1 answers request i.
    let latency = input
        .stamps
        .iter()
        .zip(&output.flushes[1..])
        .map(|(&asked, &answered)| secs(asked, answered))
        .collect();
    Ok(PassOut {
        seconds,
        transcript: output.bytes,
        report: outcome.final_report,
        errors: outcome.errors,
        latency,
    })
}

/// Wall time of the traced session by part, in seconds.
#[derive(Debug, Default)]
struct Layers {
    pass: f64,
    parse: f64,
    handle: f64,
    snapshot: f64,
    emit: f64,
}

/// The traced session: the same request loop driven through
/// `SessionServer::handle_line`, with each line also parsed and each
/// response serialized under the benchmark's own clock.
fn traced_pass(log: &Log, state: &StateDir) -> Result<(PassOut, Layers), String> {
    state.clear()?;
    let mut l = Layers::default();
    let mut transcript: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut errors = 0;
    let t0 = Instant::now();
    let mut server = SessionServer::new(Some(&state.0)).map_err(|e| e.to_string())?;
    let mut emit = |response: &Response, l: &mut Layers| -> Result<(), String> {
        let e0 = Instant::now();
        let text = serde_json::to_string(response).map_err(|e| e.to_string())?;
        transcript.extend_from_slice(text.as_bytes());
        transcript.push(b'\n');
        l.emit += secs(e0, Instant::now());
        Ok(())
    };
    emit(&Response::hello(), &mut l)?;
    for (line, kind) in log.text.lines().zip(&log.kinds) {
        let p0 = Instant::now();
        let parsed: Result<RawRequest, _> = serde_json::from_str(line);
        let p1 = Instant::now();
        std::hint::black_box(&parsed);
        let (response, quit) = server.handle_line(line);
        let h1 = Instant::now();
        let parse = secs(p0, p1);
        l.parse += parse;
        let handled = (secs(p1, h1) - parse).max(0.0);
        if *kind == Kind::Snapshot {
            l.snapshot += handled;
        } else {
            l.handle += handled;
        }
        if matches!(response, Response::Error { .. }) {
            errors += 1;
        }
        emit(&response, &mut l)?;
        if quit {
            break;
        }
    }
    let report = server.take_final_report();
    l.pass = secs(t0, Instant::now());
    Ok((
        PassOut {
            seconds: l.pass,
            transcript,
            report,
            errors,
            latency: Vec::new(),
        },
        l,
    ))
}

fn check(out: &PassOut, golden: &str, kinds: usize) -> Result<(), String> {
    if out.errors != 0 {
        return Err(format!("{} error responses", out.errors));
    }
    let Some(report) = &out.report else {
        return Err("the stream session did not finish".to_owned());
    };
    let streamed = serde_json::to_string(report).map_err(|e| e.to_string())?;
    if streamed != golden {
        return Err("the streamed report differs from the batch run".to_owned());
    }
    let lines = out.transcript.iter().filter(|&&b| b == b'\n').count();
    if lines != kinds + 1 {
        return Err(format!("{lines} response lines for {kinds} requests"));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let clock = clock()?;
    // Set-up in two steps: the year's traces, then the request log.
    let build = || {
        let t0 = Instant::now();
        let truth = Scenario::icdcs13()
            .generate(&clock, seed)
            .map_err(|e| format!("trace generation failed: {e}"))?;
        let t1 = Instant::now();
        let log = request_log(&truth, &clock)?;
        let generate_s = secs(t0, t1);
        Ok((
            (truth, log),
            generate_s,
            vec![generate_s, secs(t1, Instant::now())],
        ))
    };
    let mut setup = SetupTimes::default();
    let (truth, log) = setup.time(build)?;

    // The gate's reference: the batch engine over the same year.
    let golden = {
        let engine = Engine::new(params(), truth).map_err(|e| e.to_string())?;
        let mut ctl = SmartDpss::new(SmartDpssConfig::icdcs13(), params(), clock)
            .map_err(|e| e.to_string())?;
        let report = engine.run(&mut ctl).map_err(|e| e.to_string())?;
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    };
    let state = StateDir::new();
    let requests = log.kinds.len();

    let first = pass(&log, &state)?;
    check(&first, &golden, requests)?;
    let rss = crate::peak_rss_mb()?;
    let mut sampler = Sampler::new(seconds);
    let mut timed = Vec::new();
    while sampler.more() {
        if timed.len() % crate::SETUP_EVERY == 0 {
            drop(setup.time(build)?);
        }
        let out = pass(&log, &state)?;
        check(&out, &golden, requests)?;
        if out.transcript != first.transcript {
            return Err("a session's transcript diverged from the warm-up".to_owned());
        }
        timed.push((out.seconds, out.latency));
    }
    eprintln!(
        "peak RSS after the warm-up {rss:.1} MB, after the timed passes {:.1} MB",
        crate::peak_rss_mb()?
    );

    // Traced sessions must answer byte for byte like the untraced ones;
    // the fastest is attributed.
    let mut traced = Vec::new();
    for _ in 0..crate::traced_passes(trace) {
        let (out, layers) = traced_pass(&log, &state)?;
        check(&out, &golden, requests)?;
        if out.transcript != first.transcript {
            return Err("a traced session's transcript diverged".to_owned());
        }
        traced.push((out.seconds, layers));
    }
    let snapshot_bytes = state.largest_file()?;
    let passes = (timed.len() + traced.len() + 1) as u64;
    let (_, l) = fastest(traced, 1).swap_remove(0);

    let report = first.report.as_ref().ok_or("no final report")?;
    let mut out = Outcome::new(requests as u64 * passes, 0);
    setup.report(&mut out)?;
    let is_tick: Vec<bool> = log.kinds.iter().map(|k| *k == Kind::Tick).collect();
    let (pass_s, best) = out.timing(&timed, &is_tick)?;
    let mut snapshots: Vec<f64> = best
        .iter()
        .zip(&log.kinds)
        .filter(|(_, k)| **k == Kind::Snapshot)
        .map(|(s, _)| s * 1e3)
        .collect();
    out.set("cost_per_slot", report.time_average_cost().dollars());
    out.set("result.delay_slots", report.average_delay_slots);
    out.set("peak_rss_mb", rss);

    let pct = |x: f64| 100.0 * ratio(x, l.pass);
    let unattributed = l.pass - l.parse - l.handle - l.snapshot - l.emit;
    out.set("serve.parse_pct", pct(l.parse));
    out.set("serve.handle_pct", pct(l.handle));
    out.set("serve.emit_pct", pct(l.emit));
    out.set("serve.snapshot_pct", pct(l.snapshot));
    out.set("serve.snapshot_bytes", snapshot_bytes as f64);
    out.set("serve.requests", requests as f64);
    out.set("unattributed_pct", pct(unattributed));
    out.set("trace_overhead_pct", 100.0 * ratio(l.pass - pass_s, pass_s));
    out.set("pass_traced_s", l.pass);
    eprintln!(
        "snapshots: {} samples, p50 {:.3} ms, largest file {snapshot_bytes} bytes",
        snapshots.len(),
        median(&mut snapshots)
    );
    eprintln!(
        "traced session {:.4} s = parse {:.4} + handle {:.4} + snapshot {:.4} + emit {:.4} \
         + unattributed {:.4}",
        l.pass, l.parse, l.handle, l.snapshot, l.emit, unattributed
    );
    Ok(out)
}

//! Resume/replay equivalence conformance suite.
//!
//! The contract pinned here is the daemon's reason to exist: a session
//! that is snapshotted mid-month, killed, and resumed from disk must
//! finish with a [`dpss_sim::RunReport`] that is **byte-identical**
//! (after JSON serialization) to an uninterrupted batch run over the
//! same inputs. Every built-in scenario-pack variant is exercised with
//! both controller kinds at the paper seed, with snapshots taken at the
//! first frame, mid-month, and the penultimate frame. A `stream` session
//! fed the paper month one `tick` per frame must finish byte-identical to
//! the batch run too: its ticks write each frame into the run in place.

use std::fs;
use std::path::{Path, PathBuf};

use dpss_core::{FleetPlanner, RecedingHorizon, SmartDpss, SmartDpssConfig};
use dpss_serve::{RawRequest, Response, SessionServer};
use dpss_sim::{Controller, Engine, Interconnect, MultiSiteEngine, SimParams};
use dpss_traces::{Scenario, ScenarioPack};
use dpss_units::{Energy, SlotClock};

/// Master seed shared by every run in the suite (the paper's seed).
const SEED: u64 = 42;
/// Coarse frames in the horizon — the paper's January month.
const DAYS: usize = 31;
/// Snapshot cut points: first frame, mid-month, penultimate frame.
const CUTS: [usize; 3] = [1, DAYS / 2, DAYS - 1];

fn clock() -> SlotClock {
    SlotClock::new(DAYS, 24, 1.0).expect("valid calendar")
}

fn params() -> SimParams {
    SimParams::icdcs13_with_battery(15.0)
}

/// Mirrors the daemon's controller roster exactly.
fn build_controller(kind: &str) -> Box<dyn Controller> {
    match kind {
        "smart" => Box::new(
            SmartDpss::new(SmartDpssConfig::icdcs13(), params(), clock())
                .expect("valid configuration"),
        ),
        "receding" => Box::new(
            RecedingHorizon::new(params())
                .expect("valid parameters")
                .with_warm_start(true),
        ),
        other => panic!("unknown controller kind {other}"),
    }
}

/// The uninterrupted batch run this whole suite is measured against.
fn batch_golden(pack_name: &str, variant: usize, controller: &str) -> String {
    let pack = ScenarioPack::builtin(pack_name).expect("builtin pack");
    let truth = pack
        .generate(&clock(), SEED, variant)
        .expect("traces generate");
    let engine = Engine::new(params(), truth).expect("valid engine");
    let mut ctl = build_controller(controller);
    let report = engine.run(ctl.as_mut()).expect("batch run succeeds");
    serde_json::to_string(&report).expect("report serializes")
}

/// A fresh scratch directory under the cargo-managed test tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

fn init_line(pack: &str, variant: usize, controller: &str) -> String {
    format!(
        "{{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"{pack}\",\
         \"variant\":{variant},\"controller\":\"{controller}\"}}"
    )
}

/// Sends one request and fails the test on any `Error` response.
fn expect_ok(server: &mut SessionServer, line: &str) -> Response {
    let (resp, shutdown) = server.handle_line(line);
    assert!(!shutdown, "unexpected shutdown for {line}");
    if let Response::Error { kind, message } = &resp {
        panic!("unexpected {kind} error for {line}: {message}");
    }
    resp
}

fn finish_report(server: &mut SessionServer) -> String {
    match expect_ok(server, "{\"cmd\":\"finish\"}") {
        Response::Finished { report } => serde_json::to_string(&report).expect("report serializes"),
        other => panic!("expected Finished, got {other:?}"),
    }
}

/// One full equivalence check: batch golden, uninterrupted serve run
/// emitting snapshots at every cut, then one cold resume per cut — all
/// four byte-compared against the golden.
fn check_variant(pack: &str, variant: usize, controller: &str) {
    let golden = batch_golden(pack, variant, controller);
    let tag = format!("resume-{pack}-{variant}-{controller}");
    let dir = scratch(&tag);

    let mut server = SessionServer::new(Some(&dir)).expect("state dir opens");
    expect_ok(&mut server, &init_line(pack, variant, controller));
    for frame in 0..DAYS {
        if CUTS.contains(&frame) {
            match expect_ok(&mut server, "{\"cmd\":\"snapshot\"}") {
                Response::Snapshotted { frame: at, .. } => {
                    assert_eq!(at, frame, "snapshot taken at the wrong frame")
                }
                other => panic!("expected Snapshotted, got {other:?}"),
            }
        }
        expect_ok(&mut server, "{\"cmd\":\"step\"}");
    }
    let streamed = finish_report(&mut server);
    assert_eq!(
        streamed, golden,
        "uninterrupted serve run diverged from batch: {pack}/{variant}/{controller}"
    );

    for cut in CUTS {
        let resume_dir = scratch(&format!("{tag}-cut{cut}"));
        let snap = format!("snap-{cut:06}.json");
        fs::copy(dir.join(&snap), resume_dir.join(&snap)).expect("snapshot copies");

        let mut resumed = SessionServer::new(Some(&resume_dir)).expect("state dir opens");
        match resumed.resume_latest().expect("resume succeeds") {
            Response::Resumed {
                frame,
                frames,
                discarded,
            } => {
                assert_eq!(frame, cut, "resumed at the wrong frame");
                assert_eq!(frames, DAYS);
                assert_eq!(discarded, 0, "no corrupt snapshots were planted");
            }
            other => panic!("expected Resumed, got {other:?}"),
        }
        for _ in cut..DAYS {
            expect_ok(&mut resumed, "{\"cmd\":\"step\"}");
        }
        let restored = finish_report(&mut resumed);
        assert_eq!(
            restored, golden,
            "resume at frame {cut} diverged from batch: {pack}/{variant}/{controller}"
        );
    }
}

/// All four variants of one builtin pack under one controller.
fn check_pack(pack: &str, controller: &str) {
    let variants = ScenarioPack::builtin(pack).expect("builtin pack").len();
    assert_eq!(variants, 4, "builtin packs ship four variants each");
    for variant in 0..variants {
        check_variant(pack, variant, controller);
    }
}

/// One `tick` per frame of the paper scenario month, stepped in place
/// by a `stream` session, against the batch SmartDPSS run on the same
/// traces.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stream-vs-batch month equivalence is a release-mode contract"
)]
fn stream_ticks_match_the_batch_month() {
    let clock = SlotClock::icdcs13_month();
    let truth = Scenario::icdcs13()
        .generate(&clock, SEED)
        .expect("paper scenario generates");
    let params = SimParams::icdcs13();
    let golden = {
        let engine = Engine::new(params, truth.clone()).expect("valid engine");
        let mut ctl =
            SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock).expect("valid configuration");
        let report = engine.run(&mut ctl).expect("batch month succeeds");
        serde_json::to_string(&report).expect("report serializes")
    };

    let mut server = SessionServer::new(None).expect("server without a state dir");
    expect_ok(&mut server, "{\"cmd\":\"init\",\"mode\":\"stream\"}");
    let t = clock.slots_per_frame();
    for frame in 0..clock.frames() {
        let slots = frame * t..(frame + 1) * t;
        let mwh = |series: &[Energy]| Some(series[slots.clone()].iter().map(|e| e.mwh()).collect());
        let tick = RawRequest {
            cmd: Some("tick".to_owned()),
            frame: Some(frame),
            price_lt: Some(truth.price_lt[frame].dollars_per_mwh()),
            price_rt: Some(
                truth.price_rt[slots.clone()]
                    .iter()
                    .map(|p| p.dollars_per_mwh())
                    .collect(),
            ),
            demand_ds: mwh(&truth.demand_ds),
            demand_dt: mwh(&truth.demand_dt),
            renewable: mwh(&truth.renewable),
            ..RawRequest::default()
        };
        let line = serde_json::to_string(&tick).expect("tick serializes");
        expect_ok(&mut server, &line);
    }
    assert_eq!(
        finish_report(&mut server),
        golden,
        "stream session diverged from the batch month"
    );
}

#[test]
fn seasonal_calendar_smart_resumes_are_byte_identical() {
    check_pack("seasonal-calendar", "smart");
}

#[test]
fn price_spike_smart_resumes_are_byte_identical() {
    check_pack("price-spike", "smart");
}

#[test]
fn renewable_drought_smart_resumes_are_byte_identical() {
    check_pack("renewable-drought", "smart");
}

#[test]
fn flat_baseline_smart_resumes_are_byte_identical() {
    check_pack("flat-baseline", "smart");
}

#[test]
fn seasonal_calendar_receding_resumes_are_byte_identical() {
    check_pack("seasonal-calendar", "receding");
}

#[test]
fn price_spike_receding_resumes_are_byte_identical() {
    check_pack("price-spike", "receding");
}

#[test]
fn renewable_drought_receding_resumes_are_byte_identical() {
    check_pack("renewable-drought", "receding");
}

#[test]
fn flat_baseline_receding_resumes_are_byte_identical() {
    check_pack("flat-baseline", "receding");
}

// ---- Fleet sessions -----------------------------------------------------

/// The batch fleet golden, mirroring the daemon's construction recipe:
/// per-site pack traces, a pooled 2 MWh interconnect, and the planned
/// fleet dispatcher.
fn fleet_golden(pack_name: &str, variant: usize, sites: usize) -> (Vec<String>, String) {
    let pack = ScenarioPack::builtin(pack_name).expect("builtin pack");
    let mut engines = Vec::with_capacity(sites);
    for site in 0..sites {
        let traces = pack
            .generate_site(&clock(), SEED, variant, site)
            .expect("traces generate");
        engines.push(Engine::new(params(), traces).expect("valid engine"));
    }
    let ic = Interconnect::pooled(sites, Energy::from_mwh(2.0)).expect("valid interconnect");
    let fleet = MultiSiteEngine::new(engines)
        .expect("valid roster")
        .with_interconnect(ic)
        .expect("compatible interconnect");
    let mut controllers: Vec<Box<dyn Controller>> =
        (0..sites).map(|_| build_controller("smart")).collect();
    let mut planner = FleetPlanner::for_engine(&fleet);
    let report = fleet
        .run_with(&mut controllers, &mut planner)
        .expect("batch fleet run succeeds");
    let sites_json = report
        .sites
        .iter()
        .map(|r| serde_json::to_string(r).expect("report serializes"))
        .collect();
    let totals = format!(
        "{} {} {} {} {}",
        report.energy_transferred.mwh(),
        report.energy_delivered.mwh(),
        report.transfer_savings.dollars(),
        report.wheeling_cost.dollars(),
        report.total_cost().dollars(),
    );
    (sites_json, totals)
}

fn fleet_finish(server: &mut SessionServer) -> (Vec<String>, String) {
    match expect_ok(server, "{\"cmd\":\"finish\"}") {
        Response::FleetFinished {
            sites,
            transferred_mwh,
            delivered_mwh,
            savings_dollars,
            wheeling_dollars,
            total_cost_dollars,
        } => {
            let sites_json = sites
                .iter()
                .map(|r| serde_json::to_string(r).expect("report serializes"))
                .collect();
            let totals = format!(
                "{transferred_mwh} {delivered_mwh} {savings_dollars} \
                 {wheeling_dollars} {total_cost_dollars}"
            );
            (sites_json, totals)
        }
        other => panic!("expected FleetFinished, got {other:?}"),
    }
}

#[test]
fn fleet_session_matches_batch_lockstep_and_survives_resume() {
    const SITES: usize = 3;
    let (golden_sites, golden_totals) = fleet_golden("seasonal-calendar", 0, SITES);

    // Uninterrupted fleet session, snapshotted mid-month.
    let dir = scratch("resume-fleet-planned");
    let mut server = SessionServer::new(Some(&dir)).expect("state dir opens");
    expect_ok(
        &mut server,
        "{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"seasonal-calendar\",\
         \"variant\":0,\"sites\":3}",
    );
    let cut = DAYS / 2;
    for frame in 0..DAYS {
        if frame == cut {
            expect_ok(&mut server, "{\"cmd\":\"snapshot\"}");
        }
        match expect_ok(&mut server, "{\"cmd\":\"step\"}") {
            Response::FleetStepped { frame: at, .. } => assert_eq!(at, frame),
            other => panic!("expected FleetStepped, got {other:?}"),
        }
    }
    let (streamed_sites, streamed_totals) = fleet_finish(&mut server);
    assert_eq!(streamed_sites, golden_sites, "per-site reports diverged");
    assert_eq!(streamed_totals, golden_totals, "settlement totals diverged");

    // Cold resume from the mid-month snapshot.
    let mut resumed = SessionServer::new(Some(&dir)).expect("state dir opens");
    match resumed.resume_latest().expect("resume succeeds") {
        Response::Resumed { frame, .. } => assert_eq!(frame, cut),
        other => panic!("expected Resumed, got {other:?}"),
    }
    for _ in cut..DAYS {
        expect_ok(&mut resumed, "{\"cmd\":\"step\"}");
    }
    let (resumed_sites, resumed_totals) = fleet_finish(&mut resumed);
    assert_eq!(
        resumed_sites, golden_sites,
        "resumed per-site reports diverged"
    );
    assert_eq!(
        resumed_totals, golden_totals,
        "resumed settlement totals diverged"
    );
}

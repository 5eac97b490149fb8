//! Crash-injection conformance suite.
//!
//! A control daemon earns its keep at the worst moment: the process
//! dies mid-month, possibly mid-write. This suite pins what `--resume`
//! does with every kind of wreckage — a truncated newest snapshot falls
//! back to the last complete checksummed one, total corruption and
//! version skew are *typed* hard errors, an intact snapshot with a
//! hostile stream frame is a typed `snapshot` fault, and a genuinely
//! killed process picks the month back up byte-identically. Snapshots
//! are O(state): neither a fleet's nor a stream's grows with the month.
//!
//! The damaged envelopes under `tests/fixtures/` are committed verbatim
//! so the classification of each wreck is pinned against drift: their
//! checksums are keyed to forged salts, which makes the fixtures valid
//! under their own declared version forever and stale under every real
//! binary version.

mod common;

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use common::tick_line;
use dpss_serve::{Response, ServeError, Session, SessionServer, SessionSnapshot, SnapshotStore};
use dpss_traces::{Scenario, TraceSet};
use dpss_units::SlotClock;

/// A fresh scratch directory under the cargo-managed test tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Plants a fixture into `dir` under a real snapshot name.
fn plant(dir: &Path, fixture_name: &str, frame: usize) {
    fs::copy(
        fixture(fixture_name),
        dir.join(format!("snap-{frame:06}.json")),
    )
    .expect("fixture copies");
}

fn expect_ok(server: &mut SessionServer, line: &str) -> Response {
    let (resp, _) = server.handle_line(line);
    if let Response::Error { kind, message } = &resp {
        panic!("unexpected {kind} error for {line}: {message}");
    }
    resp
}

/// Drives a 4-day scenario session to completion, snapshotting at the
/// requested frames; returns the serialized final report.
fn run_session(dir: &Path, snapshot_at: &[usize]) -> String {
    let mut server = SessionServer::new(Some(dir)).expect("state dir opens");
    expect_ok(
        &mut server,
        "{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":4}",
    );
    for frame in 0..4 {
        if snapshot_at.contains(&frame) {
            expect_ok(&mut server, "{\"cmd\":\"snapshot\"}");
        }
        expect_ok(&mut server, "{\"cmd\":\"step\"}");
    }
    match expect_ok(&mut server, "{\"cmd\":\"finish\"}") {
        Response::Finished { report } => serde_json::to_string(&report).expect("report serializes"),
        other => panic!("expected Finished, got {other:?}"),
    }
}

// ---- Fallback and hard-error classification ------------------------------

#[test]
fn truncated_newest_snapshot_falls_back_to_last_complete_one() {
    let dir = scratch("crash-truncated-fallback");
    let golden = run_session(&dir, &[1, 3]);

    // Crash injection: the newest snapshot died mid-write.
    let newest = dir.join("snap-000003.json");
    let text = fs::read_to_string(&newest).expect("snapshot reads");
    fs::write(&newest, &text[..text.len() / 2]).expect("truncation writes");

    let mut resumed = SessionServer::new(Some(&dir)).expect("state dir opens");
    match resumed.resume_latest().expect("resume falls back") {
        Response::Resumed {
            frame,
            frames,
            discarded,
        } => {
            assert_eq!(frame, 1, "fell back to the last complete snapshot");
            assert_eq!(frames, 4);
            assert_eq!(discarded, 1, "the wreck is counted, not hidden");
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    for _ in 1..4 {
        expect_ok(&mut resumed, "{\"cmd\":\"step\"}");
    }
    match expect_ok(&mut resumed, "{\"cmd\":\"finish\"}") {
        Response::Finished { report } => assert_eq!(
            serde_json::to_string(&report).expect("report serializes"),
            golden,
            "the fallback resume still reproduces the uninterrupted month"
        ),
        other => panic!("expected Finished, got {other:?}"),
    }
}

#[test]
fn empty_state_dir_is_a_typed_no_snapshot_error() {
    let dir = scratch("crash-empty");
    let err = SessionServer::new(Some(&dir))
        .expect("state dir opens")
        .resume_latest()
        .expect_err("nothing to resume");
    assert!(matches!(err, ServeError::NoSnapshot { .. }), "got {err:?}");
}

#[test]
fn pinned_wrecks_are_classified_as_corruption() {
    for name in [
        "truncated-mid-write.json",
        "bad-checksum.json",
        "wrong-magic.json",
    ] {
        let dir = scratch(&format!("crash-fixture-{name}"));
        plant(&dir, name, 3);
        let err = SessionServer::new(Some(&dir))
            .expect("state dir opens")
            .resume_latest()
            .expect_err("wreck must not resume");
        assert!(
            matches!(err, ServeError::CorruptSnapshot { .. }),
            "{name} must read as corruption, got {err:?}"
        );
    }
}

#[test]
fn pinned_stale_snapshots_are_rejected_not_reinterpreted() {
    let dir = scratch("crash-fixture-stale-salt");
    plant(&dir, "stale-salt.json", 3);
    let err = SessionServer::new(Some(&dir))
        .expect("state dir opens")
        .resume_latest()
        .expect_err("stale must not resume");
    match err {
        ServeError::StaleSnapshot {
            found_schema,
            found_salt,
            expected_schema,
            ..
        } => {
            assert_eq!(found_schema, 1);
            assert_eq!(found_salt, "deadbeefdeadbeef");
            assert_eq!(expected_schema, dpss_serve::SCHEMA_VERSION);
        }
        other => panic!("expected StaleSnapshot, got {other:?}"),
    }

    let dir = scratch("crash-fixture-stale-schema");
    plant(&dir, "stale-schema.json", 3);
    let err = SessionServer::new(Some(&dir))
        .expect("state dir opens")
        .resume_latest()
        .expect_err("stale must not resume");
    match err {
        ServeError::StaleSnapshot { found_schema, .. } => assert_eq!(found_schema, 0),
        other => panic!("expected StaleSnapshot, got {other:?}"),
    }
}

/// Every older snapshot shape must be refused, not reinterpreted:
/// schema 2 dropped the dense prospective basis from the fleet planner
/// state, schema 3 replaced each site's slot history with its
/// last-frame totals, schema 4 replaced a stream session's
/// whole-horizon traces with its previous frame, schema 5 dropped
/// the engine's slot record and the controller state's scalar and
/// vector maps, schema 6 reordered the receding-horizon frame LP's
/// standard-form columns that its warm-start basis indexes, schema 7
/// replaced every basis's dense/network pair with the one factorized
/// kernel basis, over internal columns the frame LP's dense basis never
/// indexed, and schema 8 gave the frame LP an overflow column after its
/// slot columns, so a receding-horizon basis spans one more structural
/// column and every slack index moves up by one. The payload decoder
/// ignores unknown fields, so an older coordinated fleet snapshot could
/// otherwise load silently and resume on a different state; the
/// envelope's schema check must refuse all seven.
#[test]
fn schema_1_fleet_snapshots_are_refused_as_stale() {
    use dpss_serve::snapshot::{hex64, payload_checksum};
    use dpss_traces::seed::{fnv1a, splitmix64};

    let dir = scratch("crash-schema-1-fleet");
    let mut server = SessionServer::new(Some(&dir)).expect("state dir opens");
    expect_ok(
        &mut server,
        "{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"price-spike\",\"variant\":3,\
         \"sites\":3,\"days\":4,\"dispatch\":\"coordinated\"}",
    );
    expect_ok(&mut server, "{\"cmd\":\"step\"}");
    expect_ok(&mut server, "{\"cmd\":\"step\"}");
    let Response::Snapshotted { path, .. } = expect_ok(&mut server, "{\"cmd\":\"snapshot\"}")
    else {
        panic!("expected Snapshotted");
    };
    let current: dpss_serve::SnapshotFile =
        serde_json::from_str(&fs::read_to_string(&path).expect("snapshot reads")).unwrap();
    assert!(current.payload.contains("\"prospective_net\":"));
    for schema in [1, 2, 3, 4, 5, 6, 7] {
        let mut file = current.clone();
        if schema == 1 {
            // What the schema-1 writer produced: the dense prospective
            // basis next to the network one.
            file.payload = file.payload.replace(
                "\"prospective_net\":",
                "\"prospective\":null,\"prospective_net\":",
            );
        }
        let salt = splitmix64(u64::from(schema) ^ fnv1a(env!("CARGO_PKG_VERSION")));
        (file.schema, file.salt) = (schema, hex64(salt));
        file.checksum = hex64(payload_checksum(&file.payload, salt));
        fs::write(&path, serde_json::to_string(&file).unwrap()).expect("snapshot rewrites");
        let err = SessionServer::new(Some(&dir))
            .expect("state dir opens")
            .resume_latest()
            .expect_err("an older-schema snapshot must not resume");
        match err {
            ServeError::StaleSnapshot {
                found_schema,
                expected_schema,
                ..
            } => assert_eq!(
                (found_schema, expected_schema),
                (schema, dpss_serve::SCHEMA_VERSION)
            ),
            other => panic!("schema {schema}: expected StaleSnapshot, got {other:?}"),
        }
    }
}

/// Fleet snapshots carry each site's last-frame totals, not its slot
/// history, so a fleet session's snapshot does not grow as the month
/// advances.
#[test]
fn fleet_snapshots_do_not_grow_with_the_frames_stepped() {
    let dir = scratch("crash-fleet-snapshot-size");
    let mut server = SessionServer::new(Some(&dir)).expect("state dir opens");
    expect_ok(
        &mut server,
        "{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"price-spike\",\
         \"sites\":8,\"dispatch\":\"coordinated\"}",
    );
    let mut bytes = Vec::new();
    for frame in 1..=30 {
        expect_ok(&mut server, "{\"cmd\":\"step\"}");
        if frame == 5 || frame == 30 {
            let Response::Snapshotted { path, .. } =
                expect_ok(&mut server, "{\"cmd\":\"snapshot\"}")
            else {
                panic!("expected Snapshotted");
            };
            bytes.push(fs::metadata(&path).expect("snapshot exists").len());
        }
    }
    let (at_5, at_30) = (bytes[0], bytes[1]);
    assert!(
        at_30 * 5 <= at_5 * 6,
        "snapshot grew from {at_5} B at frame 5 to {at_30} B at frame 30"
    );
}

/// The paper scenario's first `frames` frames (seed 42), fed as ticks.
fn stream_traces(frames: usize) -> TraceSet {
    let clock = SlotClock::new(frames, 24, 1.0).expect("valid calendar");
    Scenario::icdcs13()
        .generate(&clock, 42)
        .expect("scenario generates")
}

/// A stream session of `days` in `dir`, ticked through `traces` and
/// snapshotted once `snapshot_at` frames are done; returns each
/// snapshot's size in bytes.
fn stream_snapshot_bytes(
    dir: &Path,
    days: usize,
    traces: &TraceSet,
    snapshot_at: &[usize],
) -> Vec<u64> {
    let mut server = SessionServer::new(Some(dir)).expect("state dir opens");
    expect_ok(
        &mut server,
        &format!("{{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":{days}}}"),
    );
    let mut bytes = Vec::new();
    for frame in 0..traces.clock.frames() {
        if snapshot_at.contains(&frame) {
            let Response::Snapshotted { path, .. } =
                expect_ok(&mut server, "{\"cmd\":\"snapshot\"}")
            else {
                panic!("expected Snapshotted");
            };
            bytes.push(fs::metadata(&path).expect("snapshot exists").len());
        }
        expect_ok(&mut server, &tick_line(traces, frame));
    }
    bytes
}

/// Stream snapshots carry the one previous frame the next step reads,
/// not the calendar: they grow neither with the frames stepped nor with
/// the session's horizon.
#[test]
fn stream_snapshots_do_not_grow_with_the_frames_or_the_horizon() {
    let traces = stream_traces(31);
    let month = stream_snapshot_bytes(&scratch("crash-stream-size-31"), 31, &traces, &[5, 30]);
    let year = stream_snapshot_bytes(&scratch("crash-stream-size-372"), 372, &traces, &[5]);
    let (at_5, at_30, year_at_5) = (month[0], month[1], year[0]);
    assert!(
        at_30 * 5 <= at_5 * 6,
        "snapshot grew from {at_5} B at frame 5 to {at_30} B at frame 30"
    );
    assert!(
        year_at_5 * 5 <= at_5 * 6,
        "a 372-day session's frame-5 snapshot is {year_at_5} B against {at_5} B for 31 days"
    );
    for bytes in [at_5, at_30, year_at_5] {
        assert!(
            bytes <= 8 * 1024,
            "a {bytes} B stream snapshot exceeds 8 KB"
        );
    }
}

/// A decoded snapshot of a `mode` session (`stream` ticks the paper
/// scenario, `scenario` steps) taken once `frames` frames are done.
fn snapshot_after(mode: &str, frames: usize) -> SessionSnapshot {
    let dir = scratch(&format!("crash-hostile-{mode}-{frames}"));
    let mut server = SessionServer::new(Some(&dir)).expect("state dir opens");
    expect_ok(
        &mut server,
        &format!("{{\"cmd\":\"init\",\"mode\":\"{mode}\",\"days\":8}}"),
    );
    let traces = stream_traces(frames.max(1));
    for frame in 0..frames {
        if mode == "stream" {
            expect_ok(&mut server, &tick_line(&traces, frame));
        } else {
            expect_ok(&mut server, "{\"cmd\":\"step\"}");
        }
    }
    let Response::Snapshotted { path, .. } = expect_ok(&mut server, "{\"cmd\":\"snapshot\"}")
    else {
        panic!("expected Snapshotted");
    };
    let file: dpss_serve::SnapshotFile =
        serde_json::from_str(&fs::read_to_string(&path).expect("snapshot reads")).unwrap();
    serde_json::from_str(&file.payload).expect("payload decodes")
}

/// One frame of the paper scenario on an arbitrary slot grid.
fn saved_frame(slots_per_frame: usize, slot_hours: f64) -> TraceSet {
    let clock = SlotClock::new(1, slots_per_frame, slot_hours).expect("valid calendar");
    Scenario::icdcs13()
        .generate(&clock, 42)
        .expect("scenario generates")
}

/// A value no honest snapshot holds, swapped for an infinity on disk
/// (JSON has no spelling for a non-finite number; `1e999` overflows to
/// one when parsed).
const SENTINEL: f64 = 12345.678;

/// `tampered` must decode, then be refused with a `snapshot` fault by
/// the session layer and as an invalid snapshot by `--resume`, and the
/// daemon must then take a fresh `init`.
fn assert_refused(what: &str, tampered: SessionSnapshot) {
    let payload = serde_json::to_string(&tampered)
        .expect("snapshot serializes")
        .replace(&SENTINEL.to_string(), "1e999");
    let decoded: SessionSnapshot = serde_json::from_str(&payload).expect("payload decodes");
    match Session::restore(decoded) {
        Err(fault) => assert_eq!(fault.kind, "snapshot", "{what}: {}", fault.message),
        Ok(_) => panic!("{what}: the session layer accepted it"),
    }
    let dir = scratch(&format!("crash-hostile-resume-{}", what.replace(' ', "-")));
    SnapshotStore::open(&dir)
        .expect("state dir opens")
        .write(3, &payload)
        .expect("snapshot writes");
    let mut server = SessionServer::new(Some(&dir)).expect("state dir opens");
    let err = server
        .resume_latest()
        .expect_err("hostile snapshot resumed");
    assert!(
        matches!(err, ServeError::InvalidSnapshot { .. }),
        "{what}: got {err:?}"
    );
    match expect_ok(&mut server, "{\"cmd\":\"init\",\"mode\":\"stream\"}") {
        Response::Started { .. } => {}
        other => panic!("{what}: expected Started, got {other:?}"),
    }
}

/// Edits the saved frame of a decoded single-site snapshot.
fn with_saved_frame(
    mut snapshot: SessionSnapshot,
    edit: impl FnOnce(&mut Option<TraceSet>),
) -> SessionSnapshot {
    let single = snapshot.single.as_mut().expect("a single-site snapshot");
    edit(&mut single.run_state.prev_traces);
    snapshot
}

#[test]
fn hostile_stream_snapshots_are_typed_faults() {
    let at_3 = snapshot_after("stream", 3);
    assert!(
        Session::restore(at_3.clone()).is_ok(),
        "the honest snapshot resumes"
    );
    assert_refused(
        "saved frame missing past frame 0",
        with_saved_frame(at_3.clone(), |prev| *prev = None),
    );
    assert_refused(
        "saved frame present at frame 0",
        with_saved_frame(snapshot_after("stream", 0), |prev| {
            *prev = Some(saved_frame(24, 1.0))
        }),
    );
    assert_refused(
        "saved frame with the wrong slot count",
        with_saved_frame(at_3.clone(), |prev| *prev = Some(saved_frame(12, 1.0))),
    );
    assert_refused(
        "saved frame with the wrong slot length",
        with_saved_frame(at_3.clone(), |prev| *prev = Some(saved_frame(24, 0.5))),
    );
    assert_refused(
        "saved frame holding an infinity",
        with_saved_frame(at_3, |prev| {
            let frame = prev.as_mut().expect("a saved frame past frame 0");
            frame.demand_ds[7] = dpss_units::Energy::from_mwh(SENTINEL);
        }),
    );
    assert_refused(
        "scenario snapshot carrying a saved frame",
        with_saved_frame(snapshot_after("scenario", 3), |prev| {
            *prev = Some(saved_frame(24, 1.0))
        }),
    );
}

#[test]
fn stale_snapshot_behind_a_wreck_still_stops_the_scan() {
    // Newest is corrupt (skippable), the one behind it is stale: the
    // scan must hard-stop on the version skew, never silently skip it.
    let dir = scratch("crash-stale-behind-wreck");
    plant(&dir, "bad-checksum.json", 5);
    plant(&dir, "stale-salt.json", 2);
    let err = SessionServer::new(Some(&dir))
        .expect("state dir opens")
        .resume_latest()
        .expect_err("version skew must surface");
    assert!(
        matches!(err, ServeError::StaleSnapshot { .. }),
        "got {err:?}"
    );
}

#[test]
fn a_directory_of_nothing_but_wrecks_is_a_corruption_error() {
    let dir = scratch("crash-all-wrecks");
    plant(&dir, "truncated-mid-write.json", 4);
    plant(&dir, "bad-checksum.json", 2);
    let err = SessionServer::new(Some(&dir))
        .expect("state dir opens")
        .resume_latest()
        .expect_err("no usable snapshot");
    match err {
        ServeError::CorruptSnapshot { message } => {
            assert!(
                message.contains("2 corrupt"),
                "counts the wrecks: {message}"
            )
        }
        other => panic!("expected CorruptSnapshot, got {other:?}"),
    }
}

// ---- A real kill, through the spawned binary -----------------------------

#[test]
fn killed_daemon_resumes_byte_identically_through_the_binary() {
    let dir = scratch("crash-kill-binary");
    let dir_str = dir.to_str().expect("tmpdir path is UTF-8");
    let golden = run_session(&scratch("crash-kill-golden"), &[]);

    // First life: two frames, a snapshot, then SIGKILL mid-session.
    let mut first = Command::new(env!("CARGO_BIN_EXE_dpss-serve"))
        .args(["--state-dir", dir_str])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut stdin = first.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(first.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("greeting arrives");
    assert!(line.starts_with("{\"Hello\":"), "greeting first: {line}");
    let mut send = |req: &str, line: &mut String| {
        stdin.write_all(req.as_bytes()).expect("request writes");
        stdin.write_all(b"\n").expect("request writes");
        line.clear();
        stdout.read_line(line).expect("response arrives");
    };
    assert!(line.starts_with("{\"Hello\":"), "greeting first: {line}");
    send(
        "{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":4}",
        &mut line,
    );
    assert!(
        line.starts_with("{\"Started\":"),
        "init acknowledged: {line}"
    );
    send("{\"cmd\":\"step\"}", &mut line);
    send("{\"cmd\":\"step\"}", &mut line);
    send("{\"cmd\":\"snapshot\"}", &mut line);
    assert!(
        line.starts_with("{\"Snapshotted\":"),
        "snapshot landed: {line}"
    );
    first.kill().expect("daemon dies");
    first.wait().expect("daemon reaped");

    // Second life: resume from disk and finish the month.
    let second = Command::new(env!("CARGO_BIN_EXE_dpss-serve"))
        .args(["--state-dir", dir_str, "--resume"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    second
        .stdin
        .as_ref()
        .expect("stdin is piped")
        .write_all(b"{\"cmd\":\"step\"}\n{\"cmd\":\"step\"}\n{\"cmd\":\"finish\"}\n{\"cmd\":\"shutdown\"}\n")
        .expect("requests write");
    let out = second.wait_with_output().expect("daemon exits");
    assert_eq!(out.status.code(), Some(0), "clean exit after resume");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let resumed = stdout
        .lines()
        .nth(1)
        .expect("resume acknowledgment is the second line");
    assert!(
        resumed.starts_with("{\"Resumed\":"),
        "resume acknowledged: {resumed}"
    );
    let finished = stdout
        .lines()
        .find(|l| l.starts_with("{\"Finished\":"))
        .expect("final report reaches stdout");
    let report: Response = serde_json::from_str(finished).expect("report parses");
    match report {
        Response::Finished { report } => assert_eq!(
            serde_json::to_string(&report).expect("report serializes"),
            golden,
            "the killed-and-resumed month matches the uninterrupted one"
        ),
        other => panic!("expected Finished, got {other:?}"),
    }
}

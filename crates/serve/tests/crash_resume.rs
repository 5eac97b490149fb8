//! Crash-injection conformance suite.
//!
//! A control daemon earns its keep at the worst moment: the process
//! dies mid-month, possibly mid-write. This suite pins what `--resume`
//! does with every kind of wreckage — a truncated newest snapshot falls
//! back to the last complete checksummed one, total corruption and
//! version skew are *typed* hard errors, and a genuinely killed process
//! picks the month back up byte-identically.
//!
//! The damaged envelopes under `tests/fixtures/` are committed verbatim
//! so the classification of each wreck is pinned against drift: their
//! checksums are keyed to forged salts, which makes the fixtures valid
//! under their own declared version forever and stale under every real
//! binary version.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use dpss_serve::{Response, ServeError, SessionServer};

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

/// Schema 2 dropped the dense prospective basis from the fleet planner
/// state. The payload decoder ignores unknown fields, so a schema-1
/// coordinated fleet snapshot would otherwise load silently and resume
/// on a different LP route; the envelope's schema check must refuse it.
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
    let mut file: dpss_serve::SnapshotFile =
        serde_json::from_str(&fs::read_to_string(&path).expect("snapshot reads")).unwrap();
    // What the schema-1 writer produced: the dense prospective basis next
    // to the network one, under the schema-1 salt.
    assert!(file.payload.contains("\"prospective_net\":"));
    file.payload = file.payload.replace(
        "\"prospective_net\":",
        "\"prospective\":null,\"prospective_net\":",
    );
    let salt = splitmix64(1 ^ fnv1a(env!("CARGO_PKG_VERSION")));
    (file.schema, file.salt) = (1, hex64(salt));
    file.checksum = hex64(payload_checksum(&file.payload, salt));
    fs::write(&path, serde_json::to_string(&file).unwrap()).expect("snapshot rewrites");
    let err = SessionServer::new(Some(&dir))
        .expect("state dir opens")
        .resume_latest()
        .expect_err("a schema-1 snapshot must not resume");
    assert!(
        matches!(
            err,
            ServeError::StaleSnapshot {
                found_schema: 1,
                expected_schema: 2,
                ..
            }
        ),
        "got {err:?}"
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

//! Wire-protocol conformance suite.
//!
//! Pins the NDJSON contract three ways: golden transcripts for a
//! well-behaved session (exact bytes where the output is closed-form,
//! structural assertions where it is engine-computed), malformed-input
//! recovery (every bad line earns a typed `Error` response and the
//! session survives), and the spawned binary's 0/1/2 exit contract.

use std::io::{BufReader, Write};
use std::process::{Command, Stdio};

use dpss_serve::{serve, Response, ServeOptions, SessionServer};

/// Runs a request log through an in-memory serve loop and returns the
/// transcript lines plus the outcome.
fn run_log(log: impl AsRef<[u8]>) -> (Vec<String>, dpss_serve::ServeOutcome) {
    let mut input = BufReader::new(log.as_ref());
    let mut output = Vec::new();
    let outcome = serve(&mut input, &mut output, &ServeOptions::default())
        .expect("in-memory serve loop succeeds");
    let text = String::from_utf8(output).expect("transcript is UTF-8");
    (text.lines().map(str::to_owned).collect(), outcome)
}

fn parse(line: &str) -> Response {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("unparseable response {line}: {e}"))
}

// ---- Golden transcripts -------------------------------------------------

#[test]
fn hello_and_started_lines_are_golden_bytes() {
    let (lines, outcome) = run_log(
        "{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":3}\n\
         {\"cmd\":\"status\"}\n\
         {\"cmd\":\"shutdown\"}\n",
    );
    // The greeting and the acknowledgments are closed-form: pin bytes.
    assert_eq!(
        lines[0],
        format!(
            "{{\"Hello\":{{\"service\":\"dpss-serve\",\"version\":\"{}\",\"schema\":4}}}}",
            env!("CARGO_PKG_VERSION")
        )
    );
    assert_eq!(
        lines[1],
        "{\"Started\":{\"mode\":\"scenario\",\"controller\":\"smart\",\
         \"frames\":3,\"slots_per_frame\":24,\"sites\":1}}"
    );
    assert_eq!(
        lines[2],
        "{\"Status\":{\"mode\":\"scenario\",\"controller\":\"smart\",\
         \"frame\":0,\"frames\":3,\"sites\":1,\"done\":false}}"
    );
    assert_eq!(lines[3], "{\"Bye\":{\"reason\":\"client shutdown\"}}");
    assert_eq!(lines.len(), 4);
    assert!(outcome.shutdown);
    assert_eq!(outcome.requests, 3);
    assert_eq!(outcome.errors, 0);
}

#[test]
fn full_session_transcript_is_deterministic_and_well_shaped() {
    let log = "{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":3}\n\
               {\"cmd\":\"step\"}\n\
               {\"cmd\":\"step\"}\n\
               {\"cmd\":\"step\"}\n\
               {\"cmd\":\"finish\"}\n\
               {\"cmd\":\"shutdown\"}\n";
    let (first, outcome) = run_log(log);
    let (second, _) = run_log(log);
    assert_eq!(first, second, "the same log must replay to the same bytes");
    assert!(outcome.final_report.is_some(), "finish caches the report");

    // Lines 2..=4 are Stepped frames 0..=2; the last one flips `done`.
    for (i, line) in first[2..5].iter().enumerate() {
        match parse(line) {
            Response::Stepped {
                frame,
                done,
                cost_dollars,
                battery_mwh,
                ..
            } => {
                assert_eq!(frame, i, "frames arrive in order");
                assert_eq!(done, i == 2, "done flips on the last frame");
                assert!(cost_dollars.is_finite(), "cost is a number: {line}");
                assert!(battery_mwh >= 0.0, "battery level is physical: {line}");
            }
            other => panic!("expected Stepped, got {other:?}"),
        }
    }
    match parse(&first[5]) {
        Response::Finished { report } => {
            assert_eq!(report.slots, 72, "finish returns the full 3-day report")
        }
        other => panic!("expected Finished, got {other:?}"),
    }
}

#[test]
fn blank_lines_are_skipped_without_response() {
    let (lines, outcome) = run_log("\n   \n{\"cmd\":\"status\"}\n");
    // Hello plus exactly one response: the two blank lines are silent.
    assert_eq!(lines.len(), 2);
    assert_eq!(outcome.requests, 1);
    match parse(&lines[1]) {
        Response::Error { kind, .. } => {
            assert_eq!(kind, "session", "status before init is a session error")
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

// ---- Malformed input recovery -------------------------------------------

/// Sends one line and returns the typed error it must earn.
fn expect_error(server: &mut SessionServer, line: &str) -> (String, String) {
    let (resp, shutdown) = server.handle_line(line);
    assert!(!shutdown, "errors never terminate the loop: {line}");
    match resp {
        Response::Error { kind, message } => (kind, message),
        other => panic!("expected Error for {line}, got {other:?}"),
    }
}

fn expect_ok(server: &mut SessionServer, line: &str) -> Response {
    let (resp, _) = server.handle_line(line);
    if let Response::Error { kind, message } = &resp {
        panic!("unexpected {kind} error for {line}: {message}");
    }
    resp
}

#[test]
fn malformed_lines_earn_typed_errors_and_the_session_survives() {
    let mut server = SessionServer::new(None).expect("memory-only server");

    // Before any session exists.
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"init\"");
    assert_eq!(kind, "parse", "truncated JSON is a parse error");
    let (kind, _) = expect_error(&mut server, "{\"days\":3}");
    assert_eq!(kind, "protocol", "missing cmd is a protocol error");
    let (kind, msg) = expect_error(&mut server, "{\"cmd\":\"frobnicate\"}");
    assert_eq!(kind, "protocol");
    assert!(
        msg.contains("unknown message type"),
        "message names the problem: {msg}"
    );
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"step\"}");
    assert_eq!(
        kind, "session",
        "stepping without a session is a session error"
    );
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"init\",\"mode\":\"wormhole\"}");
    assert_eq!(kind, "protocol", "unknown mode is rejected at init");
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"init\",\"controller\":\"psychic\"}");
    assert_eq!(kind, "protocol", "unknown controller is rejected at init");
    let (kind, _) = expect_error(
        &mut server,
        "{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"no-such\"}",
    );
    assert_eq!(kind, "protocol", "unknown pack is rejected at init");
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"init\",\"sites\":2}");
    assert_eq!(kind, "protocol", "fleet sessions must be pack-sourced");

    // A stream session, abused in every direction.
    expect_ok(
        &mut server,
        "{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":2,\"slots_per_frame\":2}",
    );
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"init\",\"mode\":\"scenario\"}");
    assert_eq!(kind, "session", "one session per connection");
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"step\"}");
    assert_eq!(kind, "protocol", "stream sessions advance via tick");
    let tick_tail = "\"price_lt\":50.0,\"price_rt\":[40.0,60.0],\"demand_ds\":[0.5,0.5],\
                     \"demand_dt\":[0.2,0.2],\"renewable\":[0.1,0.0]";
    let (kind, msg) = expect_error(
        &mut server,
        &format!("{{\"cmd\":\"tick\",\"frame\":1,{tick_tail}}}"),
    );
    assert_eq!(kind, "order", "out-of-order frames are an order error");
    assert!(
        msg.contains("expected frame 0"),
        "message names the expected frame: {msg}"
    );
    let (kind, _) = expect_error(
        &mut server,
        "{\"cmd\":\"tick\",\"frame\":0,\"price_lt\":-1.0,\"price_rt\":[40.0,60.0],\
         \"demand_ds\":[0.5,0.5],\"demand_dt\":[0.2,0.2],\"renewable\":[0.1,0.0]}",
    );
    assert_eq!(kind, "protocol", "negative prices are a protocol error");
    let (kind, _) = expect_error(
        &mut server,
        "{\"cmd\":\"tick\",\"frame\":0,\"price_lt\":50.0,\"price_rt\":[40.0],\
         \"demand_ds\":[0.5,0.5],\"demand_dt\":[0.2,0.2],\"renewable\":[0.1,0.0]}",
    );
    assert_eq!(kind, "protocol", "short slot series are a protocol error");
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"snapshot\"}");
    assert_eq!(kind, "state", "snapshots need --state-dir");
    let (kind, _) = expect_error(&mut server, "{\"cmd\":\"finish\"}");
    assert_eq!(kind, "order", "finishing early is an order error");

    // After all that abuse the session still works, start to finish.
    for frame in 0..2 {
        match expect_ok(
            &mut server,
            &format!("{{\"cmd\":\"tick\",\"frame\":{frame},{tick_tail}}}"),
        ) {
            Response::Ticked {
                frame: at, done, ..
            } => {
                assert_eq!(at, frame);
                assert_eq!(done, frame == 1);
            }
            other => panic!("expected Ticked, got {other:?}"),
        }
    }
    match expect_ok(&mut server, "{\"cmd\":\"finish\"}") {
        Response::Finished { report } => assert_eq!(report.slots, 4),
        other => panic!("expected Finished, got {other:?}"),
    }
}

#[test]
fn error_count_is_reported_in_the_outcome() {
    let (lines, outcome) = run_log(
        "not json at all\n\
         {\"cmd\":\"status\"}\n\
         {\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":2}\n\
         {\"cmd\":\"step\"}\n",
    );
    assert_eq!(outcome.requests, 4);
    assert_eq!(outcome.errors, 2);
    assert!(
        !outcome.shutdown,
        "EOF without shutdown is a clean exit too"
    );
    for (line, want) in [(&lines[1], "parse"), (&lines[2], "session")] {
        match parse(line) {
            Response::Error { kind, .. } => assert_eq!(kind, want),
            other => panic!("expected Error, got {other:?}"),
        }
    }
}

#[test]
fn hostile_lines_earn_parse_errors_and_the_session_survives() {
    // 200,000 nested `[` used to overflow the parser's stack and abort
    // the daemon, and an over-long line was buffered whole.
    let huge = format!(
        "{{\"pad\":\"{}\"}}",
        "x".repeat(dpss_serve::MAX_REQUEST_BYTES)
    );
    let log = [
        // Calendars past the site-slot cap used to abort the daemon on
        // allocation failure or capacity overflow.
        b"{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":100000000000}".to_vec(),
        b"{\"cmd\":\"init\",\"mode\":\"stream\",\"slots_per_frame\":4611686018427387904}".to_vec(),
        b"{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":2}".to_vec(),
        b"[".repeat(200_000),
        huge.into_bytes(),
        b"{\"cmd\":\"status\",\"pad\":\"\xff\"}".to_vec(),
        b"{\"cmd\":\"step\"}".to_vec(),
    ]
    .join(&b'\n');
    let (lines, outcome) = run_log(&log);
    assert_eq!((outcome.requests, outcome.errors), (7, 5));
    for (line, want_kind, needle) in [
        (&lines[1], "protocol", "site-slots"),
        (&lines[2], "protocol", "site-slots"),
        (&lines[4], "parse", "nesting deeper than"),
        (&lines[5], "parse", "exceeds"),
        (&lines[6], "parse", "not valid UTF-8"),
    ] {
        match parse(line) {
            Response::Error { kind, message } => {
                assert_eq!(kind, want_kind);
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
    assert!(matches!(parse(&lines[3]), Response::Started { .. }));
    assert!(matches!(
        parse(&lines[7]),
        Response::Stepped { frame: 0, .. }
    ));
}

// ---- Spawned binary: the 0/1/2 exit contract ----------------------------

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpss-serve"))
}

fn run_binary(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = binary()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(stdin.as_bytes())
        .expect("stdin writes");
    let out = child.wait_with_output().expect("binary exits");
    (
        out.status.code().expect("binary exits with a code"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn clean_session_exits_zero() {
    let (code, stdout, stderr) = run_binary(
        &[],
        "{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":2}\n\
         {\"cmd\":\"step\"}\n{\"cmd\":\"step\"}\n{\"cmd\":\"finish\"}\n{\"cmd\":\"shutdown\"}\n",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    let first = stdout.lines().next().expect("greeting is printed");
    assert!(
        first.starts_with("{\"Hello\":"),
        "greeting comes first: {first}"
    );
    assert!(stdout.contains("\"Finished\""), "report reaches stdout");
}

#[test]
fn request_errors_do_not_change_the_exit_code() {
    let (code, stdout, _) = run_binary(&[], "garbage\n{\"cmd\":\"nope\"}\n");
    assert_eq!(code, 0, "request-level errors are answered, not fatal");
    assert_eq!(stdout.matches("\"Error\"").count(), 2);
}

#[test]
fn usage_errors_exit_two_with_usage_text() {
    for args in [
        &["--bogus-flag"][..],
        &["--resume"][..],
        &["--state-dir"][..],
        &["replay"][..],
        &["replay", "log", "--socket", "/tmp/x.sock"][..],
    ] {
        let (code, _, stderr) = run_binary(args, "");
        assert_eq!(code, 2, "usage error for {args:?}; stderr: {stderr}");
        assert!(
            stderr.contains("dpss-serve: error:"),
            "typed prefix: {stderr}"
        );
        assert!(
            stderr.to_lowercase().contains("usage"),
            "usage appended: {stderr}"
        );
    }
}

#[test]
fn execution_errors_exit_one() {
    let empty = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire-empty-state");
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).expect("scratch dir is creatable");
    let dir = empty.to_str().expect("tmpdir path is UTF-8");

    let (code, _, stderr) = run_binary(&["--state-dir", dir, "--resume"], "");
    assert_eq!(code, 1, "resume with no snapshot is an execution error");
    assert!(
        stderr.contains("dpss-serve: error:"),
        "typed prefix: {stderr}"
    );

    let (code, _, stderr) = run_binary(&["replay", "/definitely/not/a/file.ndjson"], "");
    assert_eq!(code, 1, "unreadable replay log is an execution error");
    assert!(
        stderr.contains("dpss-serve: error:"),
        "typed prefix: {stderr}"
    );
}

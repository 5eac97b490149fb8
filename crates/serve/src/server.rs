//! The request loop: one NDJSON line in, one NDJSON line out.
//!
//! [`serve`] drives a [`SessionServer`] over any `BufRead`/`Write`
//! pair — stdin/stdout, a Unix-socket stream, or in-memory buffers in
//! tests. [`replay_file`] is the same loop fed from a recorded request
//! log, which is what makes every session reproducible: replaying the
//! log deterministically re-derives every response, byte for byte.

use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

use dpss_sim::RunReport;

use crate::error::ServeError;
use crate::protocol::{Fault, RawRequest, Response};
use crate::session::{tick_frame, Session, SessionConfig, SessionSnapshot};
use crate::snapshot::SnapshotStore;

/// Longest request line the loop reads, newline excluded. A legitimate
/// request is far smaller (a tick carries four series of one frame's
/// slots); anything longer is answered with a `parse` error and skipped
/// without ever being buffered whole.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How a serve loop should run.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Where snapshots live; `None` disables the `snapshot` command.
    pub state_dir: Option<PathBuf>,
    /// Reconstruct the newest valid snapshot before reading requests.
    pub resume: bool,
    /// Append every request line to this file (the replay log).
    pub log: Option<PathBuf>,
}

/// What a finished serve loop saw.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Whether the client said `shutdown` (vs. just closing the pipe).
    pub shutdown: bool,
    /// Request lines processed.
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// The final single-site report, if the session finished.
    pub final_report: Option<RunReport>,
}

/// A stateful request handler: at most one live session plus the
/// snapshot store.
pub struct SessionServer {
    store: Option<SnapshotStore>,
    session: Option<Session>,
    final_report: Option<RunReport>,
}

impl std::fmt::Debug for SessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionServer")
            .field("has_session", &self.session.is_some())
            .field("has_store", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl SessionServer {
    /// Creates a server, opening the state directory if one is given.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the state directory cannot be created.
    pub fn new(state_dir: Option<&Path>) -> Result<Self, ServeError> {
        let store = match state_dir {
            Some(dir) => Some(SnapshotStore::open(dir)?),
            None => None,
        };
        Ok(SessionServer {
            store,
            session: None,
            final_report: None,
        })
    }

    /// The live session, if any.
    #[must_use]
    pub fn session(&self) -> Option<&Session> {
        self.session.as_ref()
    }

    /// Takes the final report of a finished single-site session.
    pub fn take_final_report(&mut self) -> Option<RunReport> {
        self.final_report.take()
    }

    /// Reconstructs the newest valid snapshot as the live session.
    ///
    /// # Errors
    ///
    /// Hard [`ServeError`]s: no state dir configured, no snapshot, all
    /// candidates corrupt, a stale snapshot, or a payload the session
    /// layer refuses.
    pub fn resume_latest(&mut self) -> Result<Response, ServeError> {
        let Some(store) = &self.store else {
            return Err(ServeError::Usage(
                "--resume requires --state-dir".to_owned(),
            ));
        };
        let loaded = store.load_latest()?;
        let snapshot: SessionSnapshot =
            serde_json::from_str(&loaded.payload).map_err(|e| ServeError::InvalidSnapshot {
                message: format!("payload does not parse: {e}"),
            })?;
        let session = Session::restore(snapshot)
            .map_err(|f| ServeError::InvalidSnapshot { message: f.message })?;
        let response = Response::Resumed {
            frame: session.next_frame(),
            frames: session.frames(),
            discarded: loaded.discarded,
        };
        self.session = Some(session);
        Ok(response)
    }

    /// Handles one request line; returns the response and whether the
    /// client asked to shut down. Never fails: every problem becomes a
    /// [`Response::Error`] and the session survives.
    pub fn handle_line(&mut self, line: &str) -> (Response, bool) {
        match self.dispatch(line) {
            Ok(pair) => pair,
            Err(fault) => (fault.into_response(), false),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(Response, bool), Fault> {
        let raw: RawRequest = serde_json::from_str(line)
            .map_err(|e| Fault::new("parse", format!("unparseable request line: {e}")))?;
        let Some(cmd) = raw.cmd.clone() else {
            return Err(Fault::new("protocol", "request is missing the cmd field"));
        };
        match cmd.as_str() {
            "init" => {
                if self.session.is_some() {
                    return Err(Fault::new(
                        "session",
                        "a session is already active; one session per connection",
                    ));
                }
                let config = SessionConfig::from_request(&raw)?;
                let session = Session::new(config)?;
                let response = Response::Started {
                    mode: session.config().mode.clone(),
                    controller: session.config().controller.clone(),
                    frames: session.frames(),
                    slots_per_frame: session.config().slots_per_frame,
                    sites: session.config().sites,
                };
                self.session = Some(session);
                Ok((response, false))
            }
            "tick" => {
                let session = self.session_mut()?;
                let Session::Single(single) = session else {
                    return Err(Fault::new(
                        "protocol",
                        "fleet sessions advance via step, not tick",
                    ));
                };
                let Some(frame) = raw.frame else {
                    return Err(Fault::new("protocol", "tick is missing its frame number"));
                };
                let data = tick_frame(&raw, single.config.clock()?)?;
                let step = single.tick(frame, &data)?;
                Ok((
                    Response::Ticked {
                        frame: step.frame,
                        purchased_lt_mwh: step.purchased_lt_mwh,
                        purchased_rt_mwh: step.purchased_rt_mwh,
                        cost_dollars: step.cost_dollars,
                        battery_mwh: step.battery_mwh,
                        backlog_mwh: step.backlog_mwh,
                        done: step.done,
                    },
                    false,
                ))
            }
            "step" => match self.session_mut()? {
                Session::Single(single) => {
                    let step = single.step()?;
                    Ok((
                        Response::Stepped {
                            frame: step.frame,
                            purchased_lt_mwh: step.purchased_lt_mwh,
                            purchased_rt_mwh: step.purchased_rt_mwh,
                            cost_dollars: step.cost_dollars,
                            battery_mwh: step.battery_mwh,
                            backlog_mwh: step.backlog_mwh,
                            done: step.done,
                        },
                        false,
                    ))
                }
                Session::Fleet(fleet) => {
                    let step = fleet.step()?;
                    Ok((
                        Response::FleetStepped {
                            frame: step.frame,
                            cost_dollars: step.cost_dollars,
                            transferred_mwh: step.transferred_mwh,
                            savings_dollars: step.savings_dollars,
                            directives: step.directives,
                            done: step.done,
                        },
                        false,
                    ))
                }
            },
            "snapshot" => {
                let Some(store) = self.store.clone() else {
                    return Err(Fault::new(
                        "state",
                        "snapshots are disabled; start the daemon with --state-dir",
                    ));
                };
                let session = self.session_ref()?;
                let payload = serde_json::to_string(&session.snapshot()).map_err(|e| {
                    Fault::new("state", format!("snapshot serialization failed: {e}"))
                })?;
                let frame = session.next_frame();
                let (path, checksum) = store
                    .write(frame, &payload)
                    .map_err(|e| Fault::new("io", e.to_string()))?;
                Ok((
                    Response::Snapshotted {
                        frame,
                        path: path.display().to_string(),
                        checksum,
                    },
                    false,
                ))
            }
            "status" => {
                let session = self.session_ref()?;
                Ok((
                    Response::Status {
                        mode: session.config().mode.clone(),
                        controller: session.config().controller.clone(),
                        frame: session.next_frame(),
                        frames: session.frames(),
                        sites: session.config().sites,
                        done: session.is_done(),
                    },
                    false,
                ))
            }
            "finish" => match self.session_ref()? {
                Session::Single(single) => {
                    let report = single.finish()?;
                    self.final_report = Some(report.clone());
                    Ok((Response::Finished { report }, false))
                }
                Session::Fleet(fleet) => {
                    let report = fleet.finish()?;
                    Ok((
                        Response::FleetFinished {
                            transferred_mwh: report.energy_transferred.mwh(),
                            delivered_mwh: report.energy_delivered.mwh(),
                            savings_dollars: report.transfer_savings.dollars(),
                            wheeling_dollars: report.wheeling_cost.dollars(),
                            total_cost_dollars: report.total_cost().dollars(),
                            sites: report.sites,
                        },
                        false,
                    ))
                }
            },
            "shutdown" => Ok((
                Response::Bye {
                    reason: "client shutdown".to_owned(),
                },
                true,
            )),
            other => Err(Fault::new(
                "protocol",
                format!("unknown message type: {other}"),
            )),
        }
    }

    fn session_mut(&mut self) -> Result<&mut Session, Fault> {
        self.session
            .as_mut()
            .ok_or_else(|| Fault::new("session", "no session; send init first"))
    }

    fn session_ref(&self) -> Result<&Session, Fault> {
        self.session
            .as_ref()
            .ok_or_else(|| Fault::new("session", "no session; send init first"))
    }
}

fn emit(output: &mut dyn Write, response: &Response) -> Result<(), ServeError> {
    let text = serde_json::to_string(response).map_err(|e| ServeError::Io {
        context: "serializing a response".to_owned(),
        message: e.to_string(),
    })?;
    output
        .write_all(text.as_bytes())
        .and_then(|()| output.write_all(b"\n"))
        .and_then(|()| output.flush())
        .map_err(|e| ServeError::Io {
            context: "writing a response".to_owned(),
            message: e.to_string(),
        })
}

/// Runs the request loop until the input closes or the client says
/// `shutdown`.
///
/// The first output line is always [`Response::hello`]; with
/// `options.resume` the second is the `Resumed` acknowledgment. Blank
/// input lines are skipped. Every non-blank request line is appended to
/// `options.log` (when set) *before* it is handled, so the log replays
/// the session even if handling crashes the process. A line longer than
/// [`MAX_REQUEST_BYTES`] or not valid UTF-8 is answered with a `parse`
/// error and not logged: it never reaches the session, so replay does
/// not need it.
///
/// # Errors
///
/// Hard failures only: unopenable state dir or log, resume failures
/// ([`ServeError::NoSnapshot`] / [`ServeError::CorruptSnapshot`] /
/// [`ServeError::StaleSnapshot`] / [`ServeError::InvalidSnapshot`]),
/// and output I/O errors. Request-level problems are answered on the
/// wire instead.
pub fn serve(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    options: &ServeOptions,
) -> Result<ServeOutcome, ServeError> {
    let mut server = SessionServer::new(options.state_dir.as_deref())?;
    let mut log = match &options.log {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| ServeError::Io {
                    context: format!("opening request log {}", path.display()),
                    message: e.to_string(),
                })?,
        ),
        None => None,
    };
    let mut outcome = ServeOutcome::default();
    emit(output, &Response::hello())?;
    if options.resume {
        let response = server.resume_latest()?;
        emit(output, &response)?;
    }
    let read_error = |e: std::io::Error| ServeError::Io {
        context: "reading a request".to_owned(),
        message: e.to_string(),
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = Read::take(&mut *input, MAX_REQUEST_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(read_error)?;
        if n == 0 {
            break;
        }
        let text = if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            input.skip_until(b'\n').map_err(read_error)?;
            Err(Fault::new(
                "parse",
                format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
            ))
        } else {
            std::str::from_utf8(&line)
                .map_err(|_| Fault::new("parse", "request line is not valid UTF-8"))
        };
        let trimmed = match text {
            Ok(text) => text.trim(),
            Err(fault) => {
                outcome.requests += 1;
                outcome.errors += 1;
                emit(output, &fault.into_response())?;
                continue;
            }
        };
        if trimmed.is_empty() {
            continue;
        }
        if let Some(log) = &mut log {
            log.write_all(trimmed.as_bytes())
                .and_then(|()| log.write_all(b"\n"))
                .map_err(|e| ServeError::Io {
                    context: "appending to the request log".to_owned(),
                    message: e.to_string(),
                })?;
        }
        outcome.requests += 1;
        let (response, quit) = server.handle_line(trimmed);
        if matches!(response, Response::Error { .. }) {
            outcome.errors += 1;
        }
        emit(output, &response)?;
        if quit {
            outcome.shutdown = true;
            break;
        }
    }
    outcome.final_report = server.take_final_report();
    Ok(outcome)
}

/// Replays a recorded request log deterministically.
///
/// # Errors
///
/// [`ServeError::Io`] if the log cannot be opened, plus everything
/// [`serve`] can return.
pub fn replay_file(
    path: &Path,
    output: &mut dyn Write,
    options: &ServeOptions,
) -> Result<ServeOutcome, ServeError> {
    let file = std::fs::File::open(path).map_err(|e| ServeError::Io {
        context: format!("opening replay log {}", path.display()),
        message: e.to_string(),
    })?;
    let mut reader = std::io::BufReader::new(file);
    serve(&mut reader, output, options)
}

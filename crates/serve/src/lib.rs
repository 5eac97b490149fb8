//! `dpss-serve`: a crash-resumable streaming control daemon for the
//! SmartDPSS reproduction.
//!
//! The batch crates answer "what would the month have cost"; this crate
//! runs the same engines as a *service*. A session ingests price/demand
//! ticks frame by frame over newline-delimited JSON (stdin/stdout or a
//! Unix-domain socket), drives a resumable run of the single-site
//! [`Engine`](dpss_sim::Engine) or the multi-site lockstep loop with a
//! fleet dispatcher in the loop, and emits per-frame purchase decisions
//! and [`FrameDirective`](dpss_sim::FrameDirective)s as they happen.
//!
//! Three properties are load-bearing and pinned by the conformance
//! suites in `tests/`:
//!
//! 1. **Resume equivalence** — a session snapshotted at any frame,
//!    killed, and resumed finishes with a report byte-identical to an
//!    uninterrupted batch run over the same traces.
//! 2. **Crash safety** — snapshots are versioned, checksummed and
//!    written atomically; `--resume` falls back to the newest *intact*
//!    snapshot past truncated writes, and refuses stale-version state
//!    with a typed error instead of silently reinterpreting it.
//! 3. **Replayability** — every session can log its request stream, and
//!    replaying the log re-derives every response deterministically.
//!
//! # A complete in-memory session
//!
//! ```
//! use std::io::BufReader;
//! use dpss_serve::{serve, ServeOptions};
//!
//! let mut requests = String::new();
//! requests.push_str("{\"cmd\":\"init\",\"mode\":\"scenario\",\"days\":3}\n");
//! for _ in 0..3 {
//!     requests.push_str("{\"cmd\":\"step\"}\n");
//! }
//! requests.push_str("{\"cmd\":\"finish\"}\n{\"cmd\":\"shutdown\"}\n");
//!
//! let mut input = BufReader::new(requests.as_bytes());
//! let mut transcript = Vec::new();
//! let outcome = serve(&mut input, &mut transcript, &ServeOptions::default()).unwrap();
//! assert!(outcome.shutdown);
//! assert!(outcome.final_report.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod error;
pub mod protocol;
pub mod server;
pub mod session;
pub mod snapshot;

pub use error::ServeError;
pub use protocol::{Fault, RawRequest, Response, SCHEMA_VERSION};
pub use server::{
    replay_file, serve, ServeOptions, ServeOutcome, SessionServer, MAX_REQUEST_BYTES,
};
pub use session::{
    tick_frame, FleetSession, Session, SessionConfig, SessionSnapshot, SingleSession,
};
pub use snapshot::{snapshot_salt, LoadedSnapshot, SnapshotFile, SnapshotStore, SNAPSHOT_MAGIC};

//! The newline-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line; every request produces
//! exactly one response line. Requests are dispatched on their `cmd`
//! field; all other fields are flat, optional, and only read by the
//! commands that need them (unknown fields are ignored, so the grammar
//! is forward-extensible).
//!
//! # Request grammar
//!
//! | `cmd`      | fields                                                                  |
//! |------------|-------------------------------------------------------------------------|
//! | `init`     | `mode` (`scenario`\|`pack`\|`stream`), `controller` (`smart`\|`receding`), `seed`, `days`, `slots_per_frame`, `slot_hours`, `battery_min`, `pack`, `variant`, `sites`, `dispatch` — all optional |
//! | `tick`     | `frame`, `price_lt`, `price_rt`, `demand_ds`, `demand_dt`, `renewable` (stream sessions; supplies frame data and steps it) |
//! | `step`     | — (scenario/pack/fleet sessions; advances one coarse frame)             |
//! | `snapshot` | — (persists the session under `--state-dir`)                            |
//! | `status`   | —                                                                       |
//! | `finish`   | — (closes the month and emits the final report)                         |
//! | `shutdown` | — (ends the connection politely)                                        |
//!
//! # Error discipline
//!
//! A malformed or mistimed request yields an [`Response::Error`] line with
//! a machine-readable `kind` — the session survives and the next request
//! is processed normally. Error kinds form a closed set:
//!
//! * `parse` — the line was not a JSON object this protocol understands;
//! * `protocol` — the object was well-formed but the request is invalid
//!   (unknown `cmd`, missing field, bad value);
//! * `order` — the request is valid but arrived at the wrong time
//!   (out-of-order tick, `finish` before the month is complete);
//! * `state` — the daemon cannot honor the request in its configuration
//!   (e.g. `snapshot` without `--state-dir`);
//! * `session` — session lifecycle misuse (`init` twice, commands before
//!   `init`);
//! * `io` — a snapshot write failed at the operating-system level.

use serde::{Deserialize, Serialize};

use dpss_sim::{FrameDirective, RunReport};

/// Snapshot/wire schema revision; bumped on any incompatible change.
pub const SCHEMA_VERSION: u32 = 8;

/// A request line, decoded as a flat bag of optional fields.
///
/// The `cmd` field selects the command; each command reads only the
/// fields it documents and ignores the rest.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RawRequest {
    /// Which command this line carries.
    pub cmd: Option<String>,
    /// `init`: trace source (`scenario`, `pack` or `stream`).
    pub mode: Option<String>,
    /// `init`: controller kind (`smart` or `receding`).
    pub controller: Option<String>,
    /// `init`: master seed for trace generation.
    pub seed: Option<u64>,
    /// `init`: number of coarse frames (daily frames in the paper).
    pub days: Option<usize>,
    /// `init`: fine slots per coarse frame.
    pub slots_per_frame: Option<usize>,
    /// `init`: duration of a fine slot in hours.
    pub slot_hours: Option<f64>,
    /// `init`: battery capacity in minutes of peak demand.
    pub battery_min: Option<f64>,
    /// `init`: built-in scenario pack name (`pack` mode).
    pub pack: Option<String>,
    /// `init`: variant index within the pack.
    pub variant: Option<usize>,
    /// `init`: number of datacenter sites (>1 selects fleet mode).
    pub sites: Option<usize>,
    /// `init`: fleet dispatch mode (`post-hoc`, `planned`, `coordinated`).
    pub dispatch: Option<String>,
    /// `tick`: which coarse frame this tick carries data for.
    pub frame: Option<usize>,
    /// `tick`: long-term market price for the frame, $/MWh.
    pub price_lt: Option<f64>,
    /// `tick`: per-slot real-time prices for the frame, $/MWh.
    pub price_rt: Option<Vec<f64>>,
    /// `tick`: per-slot delay-sensitive demand, MWh.
    pub demand_ds: Option<Vec<f64>>,
    /// `tick`: per-slot delay-tolerant demand, MWh.
    pub demand_dt: Option<Vec<f64>>,
    /// `tick`: per-slot renewable generation, MWh.
    pub renewable: Option<Vec<f64>>,
}

/// A response line. Externally tagged: `{"Ticked":{...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// First line of every connection: who is serving and at what schema.
    Hello {
        /// Always `"dpss-serve"`.
        service: String,
        /// Crate version of the serving binary.
        version: String,
        /// Snapshot/wire schema revision.
        schema: u32,
    },
    /// A session was created by `init`.
    Started {
        /// Trace source mode.
        mode: String,
        /// Controller kind driving each site.
        controller: String,
        /// Coarse frames in the horizon.
        frames: usize,
        /// Fine slots per coarse frame.
        slots_per_frame: usize,
        /// Number of sites (1 = single-datacenter session).
        sites: usize,
    },
    /// A session was reconstructed from the newest valid snapshot.
    Resumed {
        /// Next coarse frame the session will step.
        frame: usize,
        /// Coarse frames in the horizon.
        frames: usize,
        /// Snapshot candidates skipped as corrupt during the scan.
        discarded: usize,
    },
    /// A stream tick was absorbed and its frame stepped.
    Ticked {
        /// The coarse frame that was stepped.
        frame: usize,
        /// Long-term energy purchased this frame, MWh.
        purchased_lt_mwh: f64,
        /// Real-time energy purchased this frame, MWh.
        purchased_rt_mwh: f64,
        /// Cumulative cost so far, dollars.
        cost_dollars: f64,
        /// Battery level after the frame, MWh.
        battery_mwh: f64,
        /// Delay-tolerant backlog after the frame, MWh.
        backlog_mwh: f64,
        /// Whether every frame of the horizon has now been stepped.
        done: bool,
    },
    /// A scenario/pack frame was stepped (single-site session).
    Stepped {
        /// The coarse frame that was stepped.
        frame: usize,
        /// Long-term energy purchased this frame, MWh.
        purchased_lt_mwh: f64,
        /// Real-time energy purchased this frame, MWh.
        purchased_rt_mwh: f64,
        /// Cumulative cost so far, dollars.
        cost_dollars: f64,
        /// Battery level after the frame, MWh.
        battery_mwh: f64,
        /// Delay-tolerant backlog after the frame, MWh.
        backlog_mwh: f64,
        /// Whether every frame of the horizon has now been stepped.
        done: bool,
    },
    /// A fleet frame was stepped across every site in lockstep.
    FleetStepped {
        /// The coarse frame that was stepped.
        frame: usize,
        /// Cumulative fleet cost so far (pre-settlement), dollars.
        cost_dollars: f64,
        /// Cumulative energy sent over the interconnect, MWh.
        transferred_mwh: f64,
        /// Cumulative real-time cost displaced by transfers, dollars.
        savings_dollars: f64,
        /// Directives applied to the sites before this frame.
        directives: Vec<FrameDirective>,
        /// Whether every frame of the horizon has now been stepped.
        done: bool,
    },
    /// A snapshot was written and fsync-renamed into place.
    Snapshotted {
        /// Next coarse frame recorded in the snapshot.
        frame: usize,
        /// Path of the snapshot file.
        path: String,
        /// Keyed checksum of the payload (hex).
        checksum: String,
    },
    /// Current session position.
    Status {
        /// Trace source mode.
        mode: String,
        /// Controller kind driving each site.
        controller: String,
        /// Next coarse frame to step.
        frame: usize,
        /// Coarse frames in the horizon.
        frames: usize,
        /// Number of sites.
        sites: usize,
        /// Whether every frame has been stepped.
        done: bool,
    },
    /// The month closed on a single-site session.
    Finished {
        /// The final report — byte-identical to an uninterrupted
        /// [`Engine::run`](dpss_sim::Engine::run) over the same traces.
        report: RunReport,
    },
    /// The month closed on a fleet session.
    FleetFinished {
        /// Per-site final reports, in site order.
        sites: Vec<RunReport>,
        /// Energy sent by donors over the month, MWh.
        transferred_mwh: f64,
        /// Energy delivered after line losses, MWh.
        delivered_mwh: f64,
        /// Real-time cost displaced by transfers, dollars.
        savings_dollars: f64,
        /// Wheeling charges on transfers, dollars.
        wheeling_dollars: f64,
        /// Fleet total cost net of settlement, dollars.
        total_cost_dollars: f64,
    },
    /// The connection is closing at the client's request.
    Bye {
        /// Why the connection is closing.
        reason: String,
    },
    /// The request could not be honored; the session survives.
    Error {
        /// Machine-readable error class (see the module docs).
        kind: String,
        /// Human-readable explanation.
        message: String,
    },
}

impl Response {
    /// The greeting emitted as the first line of every connection.
    #[must_use]
    pub fn hello() -> Self {
        Response::Hello {
            service: "dpss-serve".to_owned(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            schema: SCHEMA_VERSION,
        }
    }
}

/// A recoverable request failure, reported on the wire as
/// [`Response::Error`] without ending the session.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Machine-readable error class (see the module docs).
    pub kind: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Fault {
    /// Creates a fault of the given class.
    #[must_use]
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Fault {
            kind,
            message: message.into(),
        }
    }

    /// Converts the fault into its wire representation.
    #[must_use]
    pub fn into_response(self) -> Response {
        Response::Error {
            kind: self.kind.to_owned(),
            message: self.message,
        }
    }
}

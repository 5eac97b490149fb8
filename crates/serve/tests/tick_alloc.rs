//! The per-request allocation gate: a session's step must cost the same
//! heap traffic whatever the horizon. A stream tick writes one frame into
//! the run's two-frame window in place and steps it; a fleet step steps
//! the runs the session holds. Neither may copy or rebuild anything the
//! size of the whole horizon, so the bytes a request allocates at frame
//! 20 must be identical for a 31-day and a 372-day session. A stream
//! `init` allocates that window, never the calendar, so it too must cost
//! the same bytes for both horizons.
//!
//! A counting `#[global_allocator]` tallies the bytes requested while
//! armed. The file holds exactly one `#[test]` so no sibling test thread
//! can allocate inside the armed window.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use common::tick_line;
use dpss_serve::{Response, SessionServer};
use dpss_traces::Scenario;
use dpss_units::SlotClock;

/// Pass-through allocator that tallies allocated bytes while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn tally(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call carries exactly the caller's `GlobalAlloc` contract; the
// tally only touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `alloc` contract, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The frame at which the request is measured.
const FRAME: usize = 20;

/// Drives `server` through `lines`; returns the bytes allocated while it
/// handled the last one.
fn last_request_bytes(server: &mut SessionServer, lines: &[String]) -> u64 {
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        BYTES.store(0, Ordering::SeqCst);
        ARMED.store(last, Ordering::SeqCst);
        let (response, _) = server.handle_line(line);
        ARMED.store(false, Ordering::SeqCst);
        assert!(
            !matches!(response, Response::Error { .. }),
            "{line}: {response:?}"
        );
    }
    BYTES.load(Ordering::SeqCst)
}

/// A stream session of `days` ticked through frame [`FRAME`] with the
/// same seeded scenario frames whatever the horizon.
fn stream_tick_bytes(days: usize) -> u64 {
    let clock = SlotClock::new(FRAME + 1, 24, 1.0).expect("valid calendar");
    let traces = Scenario::icdcs13()
        .generate(&clock, 42)
        .expect("scenario generates");
    let mut lines = vec![format!(
        "{{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":{days}}}"
    )];
    lines.extend((0..=FRAME).map(|k| tick_line(&traces, k)));
    last_request_bytes(&mut SessionServer::new(None).expect("server"), &lines)
}

/// A fresh stream session's `init` for a `days` calendar.
fn stream_init_bytes(days: usize) -> u64 {
    let init = format!("{{\"cmd\":\"init\",\"mode\":\"stream\",\"days\":{days}}}");
    last_request_bytes(&mut SessionServer::new(None).expect("server"), &[init])
}

/// A pack-mode fleet session of `days` stepped through frame [`FRAME`].
/// Pack traces are generated per horizon, so a 31-day and a 372-day
/// fleet see different frames; post-hoc dispatch keeps the comparison
/// about the session (the greedy settlement allocates by roster, while
/// the LP dispatch modes grow solver arenas to data-dependent
/// high-water marks).
fn fleet_step_bytes(days: usize) -> u64 {
    let mut lines = vec![format!(
        "{{\"cmd\":\"init\",\"mode\":\"pack\",\"pack\":\"price-spike\",\"variant\":3,\
         \"sites\":3,\"dispatch\":\"post-hoc\",\"days\":{days}}}"
    )];
    lines.extend((0..=FRAME).map(|_| "{\"cmd\":\"step\"}".to_owned()));
    last_request_bytes(&mut SessionServer::new(None).expect("server"), &lines)
}

#[test]
fn request_allocations_do_not_grow_with_the_horizon() {
    for (what, bytes) in [
        ("stream init", stream_init_bytes as fn(usize) -> u64),
        ("stream tick", stream_tick_bytes),
        ("fleet step", fleet_step_bytes),
    ] {
        let (month, year) = (bytes(31), bytes(372));
        assert!(month > 0, "the armed window measured the {what}");
        assert_eq!(
            month, year,
            "a {what} allocated {month} bytes in a 31-day session but {year} \
             bytes in a 372-day one"
        );
    }
}

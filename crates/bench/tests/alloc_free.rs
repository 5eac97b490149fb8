//! The warm re-solve zero-allocation gate.
//!
//! The factorized LP kernel's contract (`dpss-lp/src/network.rs`) is
//! that after the first solve through a workspace, warm re-solves run
//! entirely out of preallocated arenas: the eta file, the FTRAN/BTRAN
//! scratch, the pricing candidate list, the dual restore's pivot row and
//! the solution buffer are all reused, so a month's thousands of frame
//! solves pin a constant working set. This test makes that contract
//! mechanical: a counting `#[global_allocator]` is armed around two
//! warm chains (solve → read → recycle) — 64 edits of a packing-form
//! fleet flow LP, and 64 regime switches of a general-form frame LP that
//! force dual restores, each followed by a three-solve zero-pivot stretch
//! that keeps its factorization — and must observe **zero** heap
//! allocations.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the armed windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dpss_lp::{ConstraintId, LpWorkspace, Problem, Relation, Sense, Variable};

/// Pass-through allocator that tallies allocation events while armed.
/// Deallocations are deliberately not counted: returning a recycled
/// buffer is free, creating one is what the gate forbids.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The settlement flow shape the fleet planner solves every frame:
/// 3 sites, one variable per directed pair, donor and need rows.
fn flow_lp() -> (Problem, Vec<Variable>, Vec<ConstraintId>) {
    let n = 3;
    let mut p = Problem::new(Sense::Minimize);
    let mut flows = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let f = p.add_var(0.0, 2.0, -40.0 - (i * n + j) as f64).unwrap();
            flows.push(f);
        }
    }
    let var = |i: usize, j: usize| flows[i * (n - 1) + if j > i { j - 1 } else { j }];
    let mut rows = Vec::new();
    for i in 0..n {
        let terms: Vec<(Variable, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (var(i, j), 1.0))
            .collect();
        rows.push(p.add_constraint(&terms, Relation::Le, 2.5).unwrap());
    }
    for j in 0..n {
        let terms: Vec<(Variable, f64)> = (0..n)
            .filter(|&i| i != j)
            .map(|i| (var(i, j), 0.95))
            .collect();
        rows.push(p.add_constraint(&terms, Relation::Le, 2.0).unwrap());
    }
    (p, flows, rows)
}

/// Allocation-free xorshift for the in-window edit payloads.
fn unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A frame-LP-shaped general-form problem over `T = 6` slots: per slot a
/// balance equality `g + dch − ch − w − s = demand`, a battery recursion
/// equality, a backlog recursion equality and a `≥` cover row
/// `g + dch ≥ floor`; the battery level sits on `[0.5, 3]` (a shifted
/// lower bound), and waste, service and backlog are unbounded above.
/// Returns the problem, the purchase variables and the balance rows.
fn frame_lp() -> (Problem, Vec<Variable>, Vec<ConstraintId>) {
    let mut p = Problem::new(Sense::Minimize);
    let (mut buys, mut balances) = (Vec::new(), Vec::new());
    let mut prev: Option<(Variable, Variable)> = None;
    for i in 0..6 {
        let g = p.add_var(0.0, 2.0, 40.0 + i as f64).unwrap();
        let ch = p.add_var(0.0, 1.0, 0.1).unwrap();
        let dch = p.add_var(0.0, 1.0, 0.1).unwrap();
        let w = p.add_var(0.0, f64::INFINITY, 1.0).unwrap();
        let serve = p.add_var(0.0, f64::INFINITY, 0.0).unwrap();
        let level = p.add_var(0.5, 3.0, 0.0).unwrap();
        let backlog = p.add_var(0.0, f64::INFINITY, 0.5).unwrap();
        let balance = [(g, 1.0), (dch, 1.0), (ch, -1.0), (w, -1.0), (serve, -1.0)];
        balances.push(p.add_constraint(&balance, Relation::Eq, 0.8).unwrap());
        let mut battery = vec![(level, 1.0), (ch, -0.9), (dch, 1.1)];
        let mut queue = vec![(backlog, 1.0), (serve, 1.0)];
        if let Some((l, q)) = prev {
            battery.push((l, -1.0));
            queue.push((q, -1.0));
        }
        let start = if prev.is_none() { 1.0 } else { 0.0 };
        p.add_constraint(&battery, Relation::Eq, start).unwrap();
        p.add_constraint(&queue, Relation::Eq, 0.2).unwrap();
        p.add_constraint(&[(g, 1.0), (dch, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        buys.push(g);
        prev = Some((level, backlog));
    }
    (p, buys, balances)
}

/// Counts the heap allocations `laps` runs of `lap` make.
fn allocations_in(laps: usize, mut lap: impl FnMut(usize)) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for k in 0..laps {
        lap(k);
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn warm_resolves_perform_zero_heap_allocations() {
    // ---- Packing form: the fleet settlement flow. ----------------------
    let (mut p, flows, rows) = flow_lp();
    let mut ws = LpWorkspace::new();
    let mut state = 0x5EED_CAFE_F00Du64;
    // Even laps edit objectives only — a packing optimum sits tight
    // against its bounds, so cost-only edits are the laps guaranteed to
    // ride the warm path (the basis stays primal-feasible). Odd laps
    // rewrite the full surface (bounds, rhs, costs); those may
    // warm-reject and restart from the slack basis, which must be
    // equally allocation-free.
    let edit = |p: &mut Problem, state: &mut u64, lap: usize| {
        for &f in &flows {
            if lap % 2 == 1 {
                p.set_bounds(f, 0.0, 1.5 + 0.2 * unit(state))
                    .expect("valid bounds");
            }
            p.set_objective(f, -50.0 - 8.0 * unit(state))
                .expect("known variable");
        }
        if lap % 2 == 1 {
            for &row in &rows {
                p.set_rhs(row, 2.0 + 0.3 * unit(state)).expect("known row");
            }
        }
    };

    // Priming pass: the cold solve sizes every arena, the recycle hands
    // the solution buffer back, and 96 unarmed laps of the same edit
    // distribution walk every arena (eta file, pricing candidates,
    // refactorization scratch) to its steady-state high-water capacity.
    // The armed window below draws from the same deterministic stream,
    // so a capacity high never first appears while the counter is live.
    let sol = p.solve_with(&mut ws).expect("feasible packing LP");
    assert!(sol.objective().is_finite());
    ws.recycle(sol);
    for lap in 0..96 {
        edit(&mut p, &mut state, lap);
        let sol = p.solve_with(&mut ws).expect("feasible packing LP");
        ws.recycle(sol);
    }
    let primed_warm = ws.warm_solves();

    // The measured window: 64 edit→solve→read→recycle laps, zero
    // allocation events allowed.
    let mut checksum = 0.0f64;
    let allocs = allocations_in(64, |lap| {
        edit(&mut p, &mut state, lap);
        let sol = p.solve_with(&mut ws).expect("feasible packing LP");
        checksum += sol.objective();
        ws.recycle(sol);
    });
    assert_eq!(
        allocs, 0,
        "packing-form warm re-solves must be allocation-free: {allocs} heap \
         allocations across 64 solve→read→recycle laps (checksum {checksum})"
    );
    assert!(checksum.is_finite());
    assert!(
        ws.warm_solves() >= primed_warm + 32,
        "the armed window must have measured the warm path: {} warm / {} cold / {} rejects",
        ws.warm_solves(),
        ws.cold_solves(),
        ws.warm_rejects()
    );

    // ---- General form: the frame LP, with dual restores. ---------------
    // Laps come in fours. The first switches demand between a surplus
    // regime (below the cover floor: the surplus is charged or wasted)
    // and a deficit regime (above it). Each switch leaves the saved basis
    // primal-infeasible — the variable that absorbed the surplus would go
    // negative — so every warm solve across a switch runs the dual
    // restore. The other three raise every demand by a hair, which keeps
    // the basis optimal: a zero-pivot stretch, whose later solves keep
    // the factorization the first one rebuilt.
    let (mut p, buys, balances) = frame_lp();
    let mut ws = LpWorkspace::new();
    let edit = |p: &mut Problem, state: &mut u64, lap: usize| {
        if !lap.is_multiple_of(4) {
            for &row in &balances {
                let (_, _, rhs) = p.constraints().nth(row.index()).expect("known row");
                p.set_rhs(row, rhs + 1e-4).expect("known row");
            }
            return;
        }
        let base = if lap.is_multiple_of(8) { 0.3 } else { 1.6 };
        for &row in &balances {
            p.set_rhs(row, base + 0.2 * unit(state)).expect("known row");
        }
        for &g in &buys {
            p.set_objective(g, 40.0 + 10.0 * unit(state))
                .expect("known variable");
        }
    };
    // Priming: 96 regime switches, each with its stretch, as in the
    // packing chain above.
    let sol = p.solve_with(&mut ws).expect("feasible frame LP");
    ws.recycle(sol);
    for lap in 0..4 * 96 {
        edit(&mut p, &mut state, lap);
        let sol = p.solve_with(&mut ws).expect("feasible frame LP");
        ws.recycle(sol);
    }
    let (primed_warm, primed_pivots) = (ws.warm_solves(), ws.stats().pivots);
    // The measured window: 64 regime switches, each followed by its
    // three-lap stretch.
    let mut checksum = 0.0f64;
    let mut stretch_pivots = 0;
    let allocs = allocations_in(4 * 64, |lap| {
        edit(&mut p, &mut state, lap);
        let sol = p.solve_with(&mut ws).expect("feasible frame LP");
        checksum += sol.objective();
        if !lap.is_multiple_of(4) {
            stretch_pivots += sol.pivots();
        }
        ws.recycle(sol);
    });
    assert_eq!(
        allocs, 0,
        "general-form warm re-solves must be allocation-free: {allocs} heap \
         allocations across 256 solve→read→recycle laps (checksum {checksum})"
    );
    assert!(checksum.is_finite());
    assert_eq!(
        (ws.warm_solves() - primed_warm, ws.warm_rejects()),
        (4 * 64, 0),
        "every armed frame solve must restore warm"
    );
    assert!(
        ws.stats().pivots >= primed_pivots + 64,
        "regime switches must take pivots: {} → {}",
        primed_pivots,
        ws.stats().pivots
    );
    assert_eq!(
        stretch_pivots, 0,
        "the zero-pivot stretches must pivot nowhere"
    );
}

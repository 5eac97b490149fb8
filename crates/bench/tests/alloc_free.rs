//! The warm re-solve zero-allocation gate.
//!
//! The factorized network kernel's contract (`dpss-lp/src/network.rs`)
//! is that after the first solve through a workspace, warm re-solves
//! run entirely out of preallocated arenas: the eta file, the FTRAN/
//! BTRAN scratch, the pricing candidate list and the solution buffer
//! are all reused, so a fleet month's thousands of frame solves pin a
//! constant working set. This test makes that contract mechanical: a
//! counting `#[global_allocator]` is armed around a 64-edit warm chain
//! (solve → read → recycle) and must observe **zero** heap allocations.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the armed window.

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

#[test]
fn warm_resolves_perform_zero_heap_allocations() {
    let (mut p, flows, rows) = flow_lp();
    assert!(p.is_network_form());
    let mut ws = LpWorkspace::new();
    let mut state = 0x5EED_CAFE_F00Du64;

    // Priming pass: the cold solve sizes every arena, the recycle hands
    // the solution buffer back, and 96 unarmed laps of the same edit
    // distribution walk every arena (eta file, pricing candidates,
    // refactorization scratch) to its steady-state high-water capacity.
    // The armed window below draws from the same deterministic stream,
    // so a capacity high never first appears while the counter is live.
    let sol = p.solve_network_with(&mut ws).expect("feasible packing LP");
    assert!(sol.objective().is_finite());
    ws.recycle(sol);
    for lap in 0..96 {
        for &f in &flows {
            if lap % 2 == 1 {
                p.set_bounds(f, 0.0, 1.5 + 0.2 * unit(&mut state))
                    .expect("valid bounds");
            }
            p.set_objective(f, -50.0 - 8.0 * unit(&mut state))
                .expect("known variable");
        }
        if lap % 2 == 1 {
            for &row in &rows {
                p.set_rhs(row, 2.0 + 0.3 * unit(&mut state))
                    .expect("known row");
            }
        }
        let sol = p.solve_network_with(&mut ws).expect("feasible packing LP");
        ws.recycle(sol);
    }
    let primed_warm = ws.warm_solves();

    // The measured window: 64 edit→solve→read→recycle laps, zero
    // allocation events allowed. Even laps edit objectives only — a
    // packing optimum sits tight against its bounds, so cost-only edits
    // are the laps guaranteed to ride the warm path (the basis stays
    // primal-feasible). Odd laps rewrite the full surface (bounds, rhs,
    // costs); those may warm-reject and restart from the slack basis,
    // which must be equally allocation-free.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut checksum = 0.0;
    for lap in 0..64 {
        for &f in &flows {
            if lap % 2 == 1 {
                p.set_bounds(f, 0.0, 1.5 + 0.2 * unit(&mut state))
                    .expect("valid bounds");
            }
            p.set_objective(f, -50.0 - 8.0 * unit(&mut state))
                .expect("known variable");
        }
        if lap % 2 == 1 {
            for &row in &rows {
                p.set_rhs(row, 2.0 + 0.3 * unit(&mut state))
                    .expect("known row");
            }
        }
        let sol = p.solve_network_with(&mut ws).expect("feasible packing LP");
        checksum += sol.objective();
        ws.recycle(sol);
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "warm re-solves must be allocation-free: {allocs} heap allocations \
         across 64 solve→read→recycle laps (checksum {checksum})"
    );
    assert!(checksum.is_finite());
    assert!(
        ws.warm_solves() >= primed_warm + 32,
        "the armed window must have measured the warm path: {} warm / {} cold / {} rejects",
        ws.warm_solves(),
        ws.cold_solves(),
        ws.warm_rejects()
    );
}

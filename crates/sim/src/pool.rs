//! The workspace's one worker pool: an ordered parallel map over a
//! list of items, with one thread-budget rule ([`worker_budget`]).
//!
//! A fleet frame steps its sites through it
//! ([`MultiSiteEngine::with_threads`](crate::MultiSiteEngine::with_threads)),
//! and `dpss-bench`'s `ExperimentRunner` maps every sweep's grid through
//! it. Workers claim item indices from a shared atomic counter, so
//! utilization stays high even when item costs vary by an order of
//! magnitude, and each result lands in the slot of its item's index: the
//! output order is the input order at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker budget a thread count names: `0` means the machine's
/// available parallelism (at least 1); any other count is taken as is.
#[must_use]
pub fn worker_budget(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Calls `f` once per item on up to `threads` scoped workers and returns
/// the results in item order, whichever worker computed what when. With
/// one worker (or one item) the map runs inline on the caller's thread,
/// in item order, and spawns no thread, allocating nothing but the
/// result vector. Items are taken by value, so `&mut` items (a fleet's
/// sites) need no lock of their own.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
///
/// # Examples
///
/// ```
/// let squares = dpss_sim::ordered_map(8, &[1, 2, 3], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn ordered_map<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return items.map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claims: Vec<Mutex<Option<I::Item>>> = items.map(|item| Mutex::new(Some(item))).collect();
    let slots: Vec<Mutex<Option<R>>> = claims.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(claim) = claims.get(i) else {
                    break;
                };
                // audit:allow(panic-unwrap): a poisoned claim means a sibling worker already panicked
                let item = claim.lock().expect("item claim poisoned").take();
                // audit:allow(panic-explicit): index i is claimed once, so its item is still there
                let item = item.unwrap_or_else(|| panic!("item {i} claimed twice"));
                let out = f(item);
                // audit:allow(slice-index): claim i exists, and slots has one entry per claim
                // audit:allow(panic-unwrap): a poisoned slot means a sibling worker already panicked
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                // audit:allow(panic-unwrap): a poisoned slot means a worker already panicked
                .expect("result slot poisoned")
                // audit:allow(panic-explicit): the claim loop covers every claim, so an empty slot is a scheduler bug
                .unwrap_or_else(|| panic!("item {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn items(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(worker_budget(0) >= 1);
        assert_eq!(worker_budget(3), 3);
        assert_eq!(worker_budget(1), 1);
    }

    #[test]
    fn results_are_in_item_order_for_any_thread_count() {
        let xs = items(23);
        for threads in [1, 2, 5, 16] {
            assert_eq!(ordered_map(threads, &xs, |&i| i), xs, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let xs = items(40);
        let count = AtomicUsize::new(0);
        let got = ordered_map(4, &xs, |&i| {
            count.fetch_add(1, Ordering::Relaxed);
            i * 7 + 3
        });
        assert_eq!(count.load(Ordering::Relaxed), 40);
        assert_eq!(got, ordered_map(1, &xs, |&i| i * 7 + 3));
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(ordered_map(64, &items(2), |&i| i), vec![0, 1]);
        assert!(ordered_map(8, &items(0), |&i| i).is_empty());
    }

    #[test]
    fn mutable_items_are_each_updated_once_at_any_thread_count() {
        for threads in [1, 2, 5, 16] {
            let mut xs = items(23);
            let old = ordered_map(threads, xs.iter_mut(), |x| {
                let old = *x;
                *x += 100;
                old
            });
            assert_eq!(old, items(23), "threads = {threads}");
            assert_eq!(xs, (100..123).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        ordered_map(1, &items(5), |&i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), items(5));
    }
}

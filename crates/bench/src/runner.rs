//! The experiment runner: fans a [`SweepSpec`]'s cells out across scoped
//! worker threads and collects results in deterministic cell order.
//!
//! Workers pull cell indices from a shared atomic counter, so scheduling
//! is work-stealing-ish and utilization stays high even when cell costs
//! vary by an order of magnitude (an offline-benchmark cell next to an
//! Impatient cell). Results land in a per-cell slot keyed by index, so
//! the output order — and therefore every figure table — is identical for
//! any thread count, including `1` (which runs inline on the caller's
//! thread with zero scheduling overhead).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::spec::{Cell, SweepSpec};
use crate::FigureTable;

/// Executes sweeps over a fixed worker-thread budget.
///
/// # Examples
///
/// ```
/// use dpss_bench::{Axis, ExperimentRunner, SweepSpec};
///
/// let spec = SweepSpec::new("squares", 0).with_axis(Axis::from_f64s("x", &[1.0, 2.0, 3.0]));
/// let serial = ExperimentRunner::serial().run_cells(&spec, |c| c.index * c.index);
/// let threaded = ExperimentRunner::new(8).run_cells(&spec, |c| c.index * c.index);
/// assert_eq!(serial, vec![0, 1, 4]);
/// assert_eq!(serial, threaded); // deterministic regardless of scheduling
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentRunner {
    threads: usize,
}

impl Default for ExperimentRunner {
    /// A runner sized to the machine's available parallelism.
    fn default() -> Self {
        ExperimentRunner::new(0)
    }
}

impl ExperimentRunner {
    /// Creates a runner with an explicit worker budget; `0` means "use
    /// the machine's available parallelism".
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        ExperimentRunner { threads }
    }

    /// A single-threaded runner (cells run inline, in order).
    #[must_use]
    pub fn serial() -> Self {
        ExperimentRunner { threads: 1 }
    }

    /// The worker budget this runner was built with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The share of the worker budget each cell of `spec` may use for
    /// its own inner parallelism (at least 1): the workers the cell
    /// fan-out leaves idle when the sweep has fewer cells than workers.
    #[must_use]
    pub fn threads_per_cell(&self, spec: &SweepSpec) -> usize {
        (self.threads / spec.cells().max(1)).max(1)
    }

    /// Runs `f` once per cell and returns the results in cell order,
    /// regardless of which worker computed what when.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the scope joins all workers first).
    pub fn run_cells<R, F>(&self, spec: &SweepSpec, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Cell) -> R + Sync,
    {
        let n = spec.cells();
        let workers = self.threads.min(n).max(1);
        if workers == 1 {
            return (0..n).map(|i| f(&spec.cell(i))).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(&spec.cell(i));
                    // audit:allow(slice-index): i < n guards the claim above and slots has n entries
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
                    // audit:allow(panic-explicit): the claim loop covers 0..n, so an empty slot is a scheduler bug
                    .unwrap_or_else(|| panic!("cell {i} produced no result"))
            })
            .collect()
    }

    /// Runs `f` once per cell, where each cell yields zero or more table
    /// rows, and stitches the rows into a [`FigureTable`] in cell order.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`; panics if a row's arity does not match
    /// `columns`.
    pub fn run_table<F>(&self, spec: &SweepSpec, title: &str, columns: &[&str], f: F) -> FigureTable
    where
        F: Fn(&Cell) -> Vec<Vec<String>> + Sync,
    {
        let mut table = FigureTable::new(title, columns);
        for rows in self.run_cells(spec, f) {
            for row in rows {
                table.push_owned(row);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;
    use std::sync::atomic::AtomicUsize;

    fn spec(n: usize) -> SweepSpec {
        SweepSpec::new("t", 9).with_axis(Axis::new(
            "i",
            (0..n).map(|i| i.to_string()).collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(ExperimentRunner::new(0).threads() >= 1);
        assert_eq!(ExperimentRunner::new(3).threads(), 3);
        assert_eq!(ExperimentRunner::serial().threads(), 1);
    }

    #[test]
    fn results_are_in_cell_order_for_any_thread_count() {
        let s = spec(23);
        let expect: Vec<usize> = (0..23).collect();
        for threads in [1, 2, 5, 16] {
            let got = ExperimentRunner::new(threads).run_cells(&s, |c| c.index);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let s = spec(40);
        let count = AtomicUsize::new(0);
        let got = ExperimentRunner::new(4).run_cells(&s, |c| {
            count.fetch_add(1, Ordering::Relaxed);
            c.seed
        });
        assert_eq!(count.load(Ordering::Relaxed), 40);
        let serial = ExperimentRunner::serial().run_cells(&s, |c| c.seed);
        assert_eq!(got, serial);
    }

    #[test]
    fn run_table_stitches_rows_in_cell_order() {
        let s = spec(4);
        let t = ExperimentRunner::new(2).run_table(&s, "title", &["cell", "twice"], |c| {
            // Variable row counts per cell must still stitch in order.
            (0..=c.index.min(1))
                .map(|k| vec![format!("{}", c.index), format!("{}", 2 * c.index + k)])
                .collect()
        });
        assert_eq!(t.rows.len(), 1 + 2 + 2 + 2);
        assert_eq!(t.rows[0], vec!["0", "0"]);
        assert_eq!(t.rows[1], vec!["1", "2"]);
        assert_eq!(t.rows[2], vec!["1", "3"]);
        assert_eq!(t.rows[6], vec!["3", "7"]);
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let s = spec(2);
        let got = ExperimentRunner::new(64).run_cells(&s, |c| c.index);
        assert_eq!(got, vec![0, 1]);
    }
}

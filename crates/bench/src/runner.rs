//! The experiment runner: maps a sweep's own grid (V values, ε values,
//! policies, `(pack, variant)` pairs, …) through the workspace's one
//! worker pool, [`dpss_sim::ordered_map`], and collects the results in
//! grid order.
//!
//! The pool's workers claim grid indices from a shared atomic counter,
//! so utilization stays high even when cell costs vary by an order of
//! magnitude (an offline-benchmark cell next to an Impatient cell), and
//! each result lands in its index's slot: the output order — and
//! therefore every figure table — is identical for any thread count,
//! including `1` (which runs inline on the caller's thread).

use dpss_sim::{ordered_map, worker_budget};

use crate::FigureTable;

/// Executes sweeps over a fixed worker-thread budget.
///
/// # Examples
///
/// ```
/// use dpss_bench::ExperimentRunner;
///
/// let xs = [1, 2, 3];
/// let serial = ExperimentRunner::serial().run_cells(&xs, |x| x * x);
/// let threaded = ExperimentRunner::new(8).run_cells(&xs, |x| x * x);
/// assert_eq!(serial, vec![1, 4, 9]);
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
    /// the machine's available parallelism" ([`worker_budget`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ExperimentRunner {
            threads: worker_budget(threads),
        }
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

    /// The share of the worker budget each of `cells` cells may use for
    /// its own inner parallelism (at least 1): the workers the cell
    /// fan-out leaves idle when the sweep has fewer cells than workers.
    #[must_use]
    pub fn threads_per_cell(&self, cells: usize) -> usize {
        (self.threads / cells.max(1)).max(1)
    }

    /// Runs `f` once per grid value and returns the results in grid
    /// order, regardless of which worker computed what when.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the pool joins all workers first).
    pub fn run_cells<T, R, F>(&self, grid: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        ordered_map(self.threads, grid, f)
    }

    /// Runs `f` once per grid value, where each value yields zero or
    /// more table rows, and stitches the rows into a [`FigureTable`] in
    /// grid order.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`; panics if a row's arity does not match
    /// `columns`.
    pub fn run_table<T, F>(&self, grid: &[T], title: &str, columns: &[&str], f: F) -> FigureTable
    where
        T: Sync,
        F: Fn(&T) -> Vec<Vec<String>> + Sync,
    {
        let mut table = FigureTable::new(title, columns);
        for rows in self.run_cells(grid, f) {
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

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(ExperimentRunner::new(0).threads() >= 1);
        assert_eq!(ExperimentRunner::new(3).threads(), 3);
        assert_eq!(ExperimentRunner::serial().threads(), 1);
    }

    #[test]
    fn run_table_stitches_rows_in_cell_order() {
        let grid: Vec<usize> = (0..4).collect();
        let t = ExperimentRunner::new(2).run_table(&grid, "title", &["cell", "twice"], |&i| {
            // Variable row counts per cell must still stitch in order.
            (0..=i.min(1))
                .map(|k| vec![format!("{i}"), format!("{}", 2 * i + k)])
                .collect()
        });
        assert_eq!(t.rows.len(), 1 + 2 + 2 + 2);
        assert_eq!(t.rows[0], vec!["0", "0"]);
        assert_eq!(t.rows[1], vec!["1", "2"]);
        assert_eq!(t.rows[2], vec!["1", "3"]);
        assert_eq!(t.rows[6], vec!["3", "7"]);
    }

    #[test]
    fn threads_per_cell_splits_the_budget_over_the_cells() {
        let runner = ExperimentRunner::new(8);
        assert_eq!(runner.threads_per_cell(3), 2);
        assert_eq!(runner.threads_per_cell(16), 1);
        assert_eq!(runner.threads_per_cell(0), 8);
    }
}

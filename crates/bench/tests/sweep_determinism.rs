//! Threaded-determinism and seed-stability contracts of the experiment
//! runner.
//!
//! * Every figure table must be identical for any `--threads` value —
//!   results land in per-cell slots keyed by cell index, so scheduling
//!   cannot reorder or perturb them. CI runs this suite in release mode.
//! * The runner port must not shift any figure's seed stream: the Fig. 6
//!   V-sweep rows are pinned byte-for-byte to the values the
//!   pre-runner (hand-rolled loop) code produced at the canonical seed.
//! * The Fig. 6(c,d) `T = 144` offline column populates with cold frame
//!   solves at the default pivot budget, at a pinned cost.

use dpss_bench::{figures, ExperimentRunner, PAPER_SEED};

#[test]
fn fig6_v_threads_1_and_8_are_identical() {
    let serial = figures::fig6_v_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &figures::FIG6_V_GRID,
        true,
    );
    let threaded = figures::fig6_v_with(
        &ExperimentRunner::new(8),
        PAPER_SEED,
        &figures::FIG6_V_GRID,
        true,
    );
    assert_eq!(serial, threaded);
}

#[test]
fn fig6_t_threads_1_and_8_are_identical() {
    // Small-T subset: each cell regenerates traces on its own calendar,
    // which is exactly where a scheduling-dependent seed stream would
    // show up.
    let ts = [3usize, 6, 12];
    let serial = figures::fig6_t_with(&ExperimentRunner::serial(), PAPER_SEED, &ts, 6);
    let threaded = figures::fig6_t_with(&ExperimentRunner::new(8), PAPER_SEED, &ts, 6);
    assert_eq!(serial, threaded);
}

#[test]
fn fig8_and_fig9_threads_1_and_8_are_identical() {
    let serial = ExperimentRunner::serial();
    let threaded = ExperimentRunner::new(8);
    let (pen_s, var_s) = figures::fig8_with(&serial, PAPER_SEED, &[0.0, 0.5, 1.0], &[0.5, 1.5]);
    let (pen_t, var_t) = figures::fig8_with(&threaded, PAPER_SEED, &[0.0, 0.5, 1.0], &[0.5, 1.5]);
    assert_eq!(pen_s, pen_t);
    assert_eq!(var_s, var_t);
    let nine_s = figures::fig9_with(&serial, PAPER_SEED, 0.5, &[0.25, 1.0]);
    let nine_t = figures::fig9_with(&threaded, PAPER_SEED, 0.5, &[0.25, 1.0]);
    assert_eq!(nine_s, nine_t);
}

#[test]
fn roster_figures_threads_1_and_8_are_identical() {
    let serial = ExperimentRunner::serial();
    let threaded = ExperimentRunner::new(8);
    assert_eq!(
        figures::ablations_with(&serial, PAPER_SEED),
        figures::ablations_with(&threaded, PAPER_SEED)
    );
    assert_eq!(
        figures::fig7_battery_with(&serial, PAPER_SEED, &[0.0, 15.0]),
        figures::fig7_battery_with(&threaded, PAPER_SEED, &[0.0, 15.0])
    );
}

/// The satellite contract of the runner port: no figure's seed stream
/// shifted. These rows are the byte-for-byte output of the pre-runner
/// `fig6_v` implementation (hand-rolled sequential loops, cold LP
/// solves) at the canonical seed on the vendored RNG stream, except the
/// offline columns: on the factorized kernel, degenerate frame LPs land
/// on other, equally optimal vertices, whose realized plans differ.
#[test]
fn fig6_v_rows_match_pre_runner_golden_bytes() {
    let table = figures::fig6_v_with(
        &ExperimentRunner::serial(),
        PAPER_SEED,
        &figures::FIG6_V_GRID,
        true,
    );
    let golden: [[&str; 7]; 8] = [
        [
            "0.05", "39.033", "1.85", "28.818", "23.70", "42.347", "1.00",
        ],
        ["0.1", "37.824", "3.40", "28.818", "23.70", "42.347", "1.00"],
        [
            "0.25", "35.672", "7.30", "28.818", "23.70", "42.347", "1.00",
        ],
        [
            "0.5", "33.675", "11.45", "28.818", "23.70", "42.347", "1.00",
        ],
        ["1", "31.684", "20.44", "28.818", "23.70", "42.347", "1.00"],
        ["2", "29.267", "48.31", "28.818", "23.70", "42.347", "1.00"],
        ["3", "29.248", "72.42", "28.818", "23.70", "42.347", "1.00"],
        ["5", "28.575", "138.72", "28.818", "23.70", "42.347", "1.00"],
    ];
    assert_eq!(table.rows.len(), golden.len());
    for (row, want) in table.rows.iter().zip(&golden) {
        assert_eq!(row, want, "fig6_v row drifted from the golden bytes");
    }
}

/// The `T = 144` offline cell (frame LPs of ~1k rows) is the column the
/// default Fig. 6(c,d) table skips. Solved cold frame by frame at the
/// solver's default pivot budget, it must populate at its pinned cost.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a ~1k-row frame LP per day is a release-mode workload"
)]
fn fig6_t144_offline_column_populates_at_the_pinned_cost() {
    let table = figures::fig6_t_with(&ExperimentRunner::serial(), PAPER_SEED, &[144], 144);
    let cell = &table.rows[0][4];
    let cost: f64 = cell
        .parse()
        .unwrap_or_else(|_| panic!("T=144 offline column not populated: {cell:?}"));
    assert_eq!(cost, 27.385, "T=144 offline $/slot drifted");
}

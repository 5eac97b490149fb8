//! The benchmark's own arithmetic: percentiles, the tail-percentile
//! rule, wall-time attribution of overlapping spans, and guarded ratios.

/// Percentile candidates for a latency tail, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Rounding guards `p/100 · n` against float noise just above an
    // integer (e.g. 0.95 · 20 = 19.000000000000004).
    let exact = p / 100.0 * n as f64;
    let rounded = (exact * 1e9).round() / 1e9;
    (rounded.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `samples` (sorted in place); `0.0` for
/// an empty set.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), p) - 1]
}

/// Median of `samples` (nearest rank, sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank, if any.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// The `k` fastest of `items` keyed by duration, fastest first. Noise
/// from other tenants of the host only ever adds time, so the fastest
/// repetitions estimate the undisturbed cost, while a change that slows
/// every repetition still moves them by the same factor.
pub fn fastest<T>(mut items: Vec<(f64, T)>, k: usize) -> Vec<(f64, T)> {
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    items.truncate(k);
    items
}

/// A pass's fastest time, composed step by step. Every pass repeats the
/// same deterministic steps (a month's frames, a session's requests), so
/// each step's fastest time over the passes estimates its undisturbed
/// cost even when no single pass ran undisturbed from start to end.
/// `passes` holds each pass's wall time and its step times. Returns the
/// fastest remainder (the wall time outside the steps) plus the sum of
/// the fastest step times, and those step times; `None` when there is no
/// pass or the passes have different step counts.
pub fn composite(passes: &[(f64, Vec<f64>)]) -> Option<(f64, Vec<f64>)> {
    let (_, first) = passes.first()?;
    if passes.iter().any(|(_, steps)| steps.len() != first.len()) {
        return None;
    }
    let best: Vec<f64> = (0..first.len())
        .map(|i| {
            passes
                .iter()
                .map(|(_, steps)| steps[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let rest = passes
        .iter()
        .map(|(total, steps)| total - steps.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    Some((rest + best.iter().sum::<f64>(), best))
}

/// Median of the `k` fastest `durations`.
pub fn fastest_median(durations: &[f64], k: usize) -> f64 {
    let mut quick: Vec<f64> = fastest(durations.iter().map(|&d| (d, ())).collect(), k)
        .into_iter()
        .map(|(d, ())| d)
        .collect();
    median(&mut quick)
}

/// `num / den`, or `0.0` when the denominator is zero (no work done
/// means no ratio to report, never NaN or infinity).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Splits the wall time covered by `spans` (start, end) among them:
/// every instant is shared equally by the spans active at it. Returns
/// each span's share, in input order; the shares sum to the length of
/// the spans' union. Spans on one thread never overlap, so on a single
/// thread each share equals its span's duration; spans on two threads
/// split the overlapped stretches half and half.
pub fn wall_shares(spans: &[(f64, f64)]) -> Vec<f64> {
    let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, &(start, end)) in spans.iter().enumerate() {
        events.push((start, true, i));
        events.push((end.max(start), false, i));
    }
    // Ends before starts at equal times: touching spans do not overlap.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut shares = vec![0.0; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut prev = 0.0;
    for (t, is_start, i) in events {
        if !active.is_empty() {
            let each = (t - prev) / active.len() as f64;
            for &a in &active {
                shares[a] += each;
            }
        }
        prev = t;
        if is_start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    shares
}

/// Self time of a parent span: its duration minus the part of it that
/// its children cover (the union of the child spans, which equals the
/// sum of their [`wall_shares`]).
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let covered: f64 = wall_shares(children).iter().sum();
    (parent.1 - parent.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(1000, &TAIL_CANDIDATES), Some(99.0));
        // 999 samples: p99 leaves 9, so p95 (rank 950, 49 beyond) wins.
        assert_eq!(tail_percentile(999, &TAIL_CANDIDATES), Some(95.0));
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(tail_percentile(200, &TAIL_CANDIDATES), Some(95.0));
        assert_eq!(tail_percentile(199, &TAIL_CANDIDATES), Some(90.0));
        // 40 samples: p90 leaves 4, p75 (rank 30) leaves 10.
        assert_eq!(tail_percentile(40, &TAIL_CANDIDATES), Some(75.0));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail_percentile(20, &TAIL_CANDIDATES), Some(50.0));
        // Too few for any candidate, and the empty set.
        assert_eq!(tail_percentile(19, &TAIL_CANDIDATES), None);
        assert_eq!(tail_percentile(0, &TAIL_CANDIDATES), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn overlapping_children_on_two_threads_split_the_overlap() {
        // Thread A runs [0, 4], thread B runs [2, 6]: the overlap [2, 4]
        // is shared half and half.
        let shares = wall_shares(&[(0.0, 4.0), (2.0, 6.0)]);
        assert_eq!(shares, vec![3.0, 3.0]);
        // A parent [0, 10] is covered for 6 s, so its self time is 4 s.
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 4.0), (2.0, 6.0)]), 4.0);
        // A child nested inside another's interval on the other thread.
        let nested = wall_shares(&[(0.0, 10.0), (3.0, 5.0)]);
        assert_eq!(nested, vec![9.0, 1.0]);
        assert_eq!(self_time((0.0, 12.0), &[(0.0, 10.0), (3.0, 5.0)]), 2.0);
    }

    #[test]
    fn serial_children_keep_their_durations() {
        let spans = [(0.0, 1.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(wall_shares(&spans), vec![1.0, 2.0, 1.0]);
        assert_eq!(self_time((0.0, 7.0), &spans), 3.0);
        assert!(wall_shares(&[]).is_empty());
    }

    #[test]
    fn fastest_keeps_the_k_quickest_repetitions() {
        let q = fastest(vec![(3.0, 'c'), (1.0, 'a'), (9.0, 'x'), (2.0, 'b')], 2);
        assert_eq!(q, vec![(1.0, 'a'), (2.0, 'b')]);
        assert_eq!(fastest(vec![(1.0, 'a')], 3), vec![(1.0, 'a')]);
        // Eight passes, five slowed by a noisy neighbour: the median of
        // the three fastest ignores them, the plain median would not.
        let passes = [1.5, 1.0, 1.6, 1.02, 1.55, 1.01, 1.45, 1.5];
        assert_eq!(fastest_median(&passes, 3), 1.01);
        assert_eq!(fastest_median(&[], 3), 0.0);
    }

    #[test]
    fn composite_keeps_each_steps_fastest_time() {
        // Each pass was slowed in a different step; neither ran quick
        // throughout. Remainders: 10 − 7 = 3 and 9 − 7 = 2.
        let passes = vec![(10.0, vec![2.0, 5.0]), (9.0, vec![4.0, 3.0])];
        assert_eq!(composite(&passes), Some((7.0, vec![2.0, 3.0])));
        // One pass is its own composite.
        assert_eq!(composite(&passes[..1]), Some((10.0, vec![2.0, 5.0])));
        assert_eq!(composite(&[]), None);
        assert_eq!(composite(&[(1.0, vec![0.5]), (1.0, vec![])]), None);
    }

    #[test]
    fn ratios_with_a_zero_denominator_are_zero() {
        // lp.warm_ratio on a workload without LP solves.
        assert_eq!(ratio(0.0, 0.0), 0.0);
        // sim.step_parallel_eff when no stepping wall time was seen.
        assert_eq!(ratio(1.5, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}

//! Hour-of-day arithmetic shared by the generators: an exact, cheap
//! replacement for `x % 24.0`, and a memo that evaluates a pure function
//! of the hour of day once per distinct hour.

use std::collections::BTreeMap;

/// The hour of day of absolute hour `x`, bit for bit equal to
/// `x % 24.0`, for finite `x` with `+0.0 ≤ x < 2⁵³`.
///
/// It computes `r = x − 24·k` with `k = trunc(x / 24)`, then adds 24 once
/// if `r < 0`. Every step is exact:
///
/// * Let `n = ⌊x / 24⌋`. Division rounds correctly and monotonically, and
///   `n` and `n + 1` are representable, so `k` is `n` or `n + 1`: it is
///   `n + 1` only when `x / 24` rounds up to the next integer.
/// * `24·k` is exact, because `3k < 2⁵³`.
/// * `x − 24·k` is exact. For `k = 0` it is `x`. For `k ≥ 1`, `x` lies in
///   the binade of `24·k` or above it (`24·k` is no power of two, so
///   rounding up to it leaves `x` in its binade). Both `x` and `24·k` are
///   then multiples of `ulp(24·k)`, and their difference is below
///   `24 ≤ 24·k` in magnitude, so it has at most 53 significant bits.
/// * If `k = n`, then `r ∈ [0, 24)` is the remainder itself. If
///   `k = n + 1`, then `r < 0` and `r + 24` is the true remainder. That
///   remainder is representable, because `fmod` is exact, so the one
///   correction rounds to it exactly.
///
/// This is one division, one truncation, one multiply and one
/// subtraction, where `f64 %` is a loop of its own.
#[must_use]
pub fn hour_of_day(x: f64) -> f64 {
    debug_assert!(
        x.is_sign_positive() && x < 9_007_199_254_740_992.0,
        "hour_of_day takes +0 <= x < 2^53, got {x}"
    );
    let r = x - 24.0 * (x / 24.0).trunc();
    if r < 0.0 {
        r + 24.0
    } else {
        r
    }
}

/// Distinct hours a memo keeps. A clock whose hours never repeat (a slot
/// length with no exact binary form) stops filling it here and computes
/// the remaining hours directly.
const MEMO_CAP: usize = 4096;

/// A pure function of the hour of day, evaluated once per distinct hour
/// and keyed by the hour's bits, so every caller gets exactly the value
/// a direct evaluation gives.
///
/// The hours of a clock come round in the same order every day, so a
/// lookup first tries the entry after the one it last returned; a clock
/// whose hours repeat pays one ordered-map lookup a day.
#[derive(Debug)]
pub(crate) struct HourMemo<T> {
    /// Hour bits and values, in first-seen order.
    seen: Vec<(u64, T)>,
    /// The position in `seen` of each hour's bits.
    index: BTreeMap<u64, usize>,
    /// The entry after the last one returned.
    next: usize,
}

impl<T: Copy> HourMemo<T> {
    pub(crate) fn new() -> Self {
        HourMemo {
            seen: Vec::new(),
            index: BTreeMap::new(),
            next: 0,
        }
    }

    /// `eval(hour)`, from the memo when this hour was seen before.
    pub(crate) fn get(&mut self, hour: f64, eval: impl FnOnce(f64) -> T) -> T {
        let key = hour.to_bits();
        let at = match self.seen.get(self.next) {
            Some(&(k, v)) if k == key => Some((self.next, v)),
            _ => self
                .index
                .get(&key)
                .and_then(|&i| Some((i, self.seen.get(i)?.1))),
        };
        if let Some((i, v)) = at {
            self.next = i + 1;
            return v;
        }
        let v = eval(hour);
        if self.seen.len() < MEMO_CAP {
            self.index.insert(key, self.seen.len());
            self.seen.push((key, v));
            self.next = self.seen.len();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_returns_the_direct_value_past_its_cap() {
        let mut memo = HourMemo::new();
        let mut calls = 0;
        for i in 0..2 * MEMO_CAP {
            let hour = hour_of_day(i as f64 * 0.001);
            let v = memo.get(hour, |h| {
                calls += 1;
                h.sin()
            });
            assert_eq!(v.to_bits(), hour.sin().to_bits());
        }
        assert_eq!(calls, 2 * MEMO_CAP, "every hour is new");
        // The first MEMO_CAP hours are kept; the rest are recomputed.
        memo.get(0.0, |_| unreachable!("kept"));
        assert_eq!(memo.seen.len(), MEMO_CAP);
    }

    #[test]
    fn memo_evaluates_each_repeated_hour_once() {
        let mut memo = HourMemo::new();
        let mut calls = 0;
        for i in 0..24 * 31 {
            let hour = hour_of_day(i as f64);
            memo.get(hour, |h| {
                calls += 1;
                h
            });
        }
        assert_eq!(calls, 24);
    }
}

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::UnitsError;

/// The two-timescale calendar of the SmartDPSS model (paper §II, Fig. 2).
///
/// Time is divided into `K` coarse-grained **frames** of `T` fine-grained
/// **slots** each. The long-term-ahead grid market clears once per frame
/// (`t = kT`); real-time purchases, demand management and battery operations
/// happen every slot. Empirically a slot is 15 or 60 minutes and a frame is a
/// day (the paper's evaluation uses `T = 24` hourly slots).
///
/// # Examples
///
/// ```
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), dpss_units::UnitsError> {
/// let clock = SlotClock::new(2, 3, 1.0)?; // 2 frames × 3 hourly slots
/// let ids: Vec<_> = clock.slots().map(|s| (s.frame, s.offset)).collect();
/// assert_eq!(ids, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
/// assert!(clock.is_frame_start(3));
/// assert_eq!(clock.frame_of(4), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotClock {
    frames: usize,
    slots_per_frame: usize,
    // Milli-hours, so the calendar can be Eq/Hash (used as a sweep key).
    slot_hours_milli: u64,
}

impl SlotClock {
    /// Creates a calendar with `frames` coarse frames (the paper's `K`),
    /// `slots_per_frame` fine slots per frame (the paper's `T`), and a fine
    /// slot duration of `slot_hours` hours.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::ZeroCount`] if either count is zero, and
    /// [`UnitsError::NotFinite`] / [`UnitsError::Negative`] if `slot_hours`
    /// is not a finite positive number. The calendar holds `slot_hours` in
    /// whole milli-hours, so a length that rounds to zero of them is a
    /// [`UnitsError::ZeroCount`] and one whose count does not fit in a
    /// `u64` is [`UnitsError::NotFinite`].
    pub fn new(frames: usize, slots_per_frame: usize, slot_hours: f64) -> Result<Self, UnitsError> {
        if frames == 0 {
            return Err(UnitsError::ZeroCount { what: "frames" });
        }
        if slots_per_frame == 0 {
            return Err(UnitsError::ZeroCount {
                what: "slots_per_frame",
            });
        }
        if !slot_hours.is_finite() {
            return Err(UnitsError::NotFinite { what: "slot_hours" });
        }
        if slot_hours <= 0.0 {
            return Err(UnitsError::Negative { what: "slot_hours" });
        }
        let milli = (slot_hours * 1_000.0).round();
        if milli < 1.0 {
            return Err(UnitsError::ZeroCount {
                what: "slot_hours in milli-hours",
            });
        }
        // `u64::MAX as f64` is 2^64, the first value that does not fit.
        if milli >= u64::MAX as f64 {
            return Err(UnitsError::NotFinite {
                what: "slot_hours in milli-hours as a u64",
            });
        }
        Ok(SlotClock {
            frames,
            slots_per_frame,
            slot_hours_milli: milli as u64,
        })
    }

    /// The paper's one-month evaluation calendar: 31 daily frames of 24
    /// hourly slots (`K = 31`, `T = 24`).
    #[must_use]
    pub fn icdcs13_month() -> Self {
        // audit:allow(panic-unwrap): constant arguments satisfy every `new` precondition
        SlotClock::new(31, 24, 1.0).expect("static calendar is valid")
    }

    /// Number of coarse frames `K`.
    #[must_use]
    pub const fn frames(&self) -> usize {
        self.frames
    }

    /// Number of fine slots per frame `T`.
    #[must_use]
    pub const fn slots_per_frame(&self) -> usize {
        self.slots_per_frame
    }

    /// Duration of one fine slot, in hours.
    #[must_use]
    pub fn slot_hours(&self) -> f64 {
        self.slot_hours_milli as f64 / 1_000.0
    }

    /// Total number of fine slots `K·T` in the horizon.
    #[must_use]
    pub const fn total_slots(&self) -> usize {
        self.frames * self.slots_per_frame
    }

    /// Total horizon length in hours.
    #[must_use]
    pub fn total_hours(&self) -> f64 {
        self.total_slots() as f64 * self.slot_hours()
    }

    /// Coarse frame containing fine slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= total_slots()`.
    #[must_use]
    pub fn frame_of(&self, slot: usize) -> usize {
        assert!(slot < self.total_slots(), "slot {slot} out of range");
        slot / self.slots_per_frame
    }

    /// Offset of `slot` within its frame (`0..T`).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= total_slots()`.
    #[must_use]
    pub fn slot_in_frame(&self, slot: usize) -> usize {
        assert!(slot < self.total_slots(), "slot {slot} out of range");
        slot % self.slots_per_frame
    }

    /// Whether `slot` is the first fine slot of a coarse frame (`t = kT`),
    /// i.e. a long-term-ahead market decision point.
    #[must_use]
    pub fn is_frame_start(&self, slot: usize) -> bool {
        slot.is_multiple_of(self.slots_per_frame)
    }

    /// First fine slot of coarse frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= frames()`.
    #[must_use]
    pub fn frame_start(&self, frame: usize) -> usize {
        assert!(frame < self.frames, "frame {frame} out of range");
        frame * self.slots_per_frame
    }

    /// Iterates over all fine slots in chronological order.
    pub fn slots(&self) -> Slots {
        Slots {
            clock: *self,
            next: 0,
        }
    }

    /// Fully resolved identifier for fine slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= total_slots()`.
    #[must_use]
    pub fn slot_id(&self, slot: usize) -> SlotId {
        SlotId {
            index: slot,
            frame: self.frame_of(slot),
            offset: self.slot_in_frame(slot),
        }
    }

    /// Returns a calendar identical to this one except for the number of
    /// slots per frame — used by the Fig. 6(c,d) `T` sweep, which keeps the
    /// total horizon fixed while changing the market granularity.
    ///
    /// The number of frames is recomputed so that the total slot count stays
    /// as close as possible to the original (rounded up to cover it).
    ///
    /// # Errors
    ///
    /// Returns an error if `slots_per_frame` is zero.
    pub fn with_slots_per_frame(&self, slots_per_frame: usize) -> Result<Self, UnitsError> {
        if slots_per_frame == 0 {
            return Err(UnitsError::ZeroCount {
                what: "slots_per_frame",
            });
        }
        let total = self.total_slots();
        let frames = total.div_ceil(slots_per_frame).max(1);
        SlotClock::new(frames, slots_per_frame, self.slot_hours())
    }
}

impl fmt::Display for SlotClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames x {} slots x {:.2} h",
            self.frames,
            self.slots_per_frame,
            self.slot_hours()
        )
    }
}

/// Identifier of one fine slot: absolute index plus (frame, offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotId {
    /// Absolute fine-slot index `τ ∈ [0, K·T)`.
    pub index: usize,
    /// Coarse frame `k` containing this slot.
    pub frame: usize,
    /// Offset within the frame, `0..T`; `0` means a frame start (`t = kT`).
    pub offset: usize,
}

impl SlotId {
    /// Whether this slot is a long-term-ahead market decision point.
    #[must_use]
    pub const fn is_frame_start(&self) -> bool {
        self.offset == 0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slot {} (frame {}, offset {})",
            self.index, self.frame, self.offset
        )
    }
}

/// Iterator over the fine slots of a [`SlotClock`], produced by
/// [`SlotClock::slots`].
#[derive(Debug, Clone)]
pub struct Slots {
    clock: SlotClock,
    next: usize,
}

impl Iterator for Slots {
    type Item = SlotId;

    fn next(&mut self) -> Option<SlotId> {
        if self.next >= self.clock.total_slots() {
            return None;
        }
        let id = self.clock.slot_id(self.next);
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.clock.total_slots() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Slots {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_construction() {
        assert!(SlotClock::new(0, 24, 1.0).is_err());
        assert!(SlotClock::new(31, 0, 1.0).is_err());
        assert!(SlotClock::new(31, 24, 0.0).is_err());
        assert!(SlotClock::new(31, 24, -1.0).is_err());
        assert!(SlotClock::new(31, 24, f64::NAN).is_err());
    }

    #[test]
    fn slot_hours_must_fit_the_millihour_grid() {
        // Below half a milli-hour the grid would hold a zero-hour slot.
        for tiny in [0.0001, 0.000_499] {
            assert_eq!(
                SlotClock::new(2, 24, tiny),
                Err(UnitsError::ZeroCount {
                    what: "slot_hours in milli-hours"
                })
            );
        }
        assert_eq!(SlotClock::new(2, 24, 0.0005).unwrap().slot_hours(), 0.001);
        // Past u64 milli-hours the count would saturate, so 1e20 and
        // 1e300 would be the same calendar.
        for huge in [1.9e16, 1e20, 1e300] {
            assert!(matches!(
                SlotClock::new(2, 24, huge),
                Err(UnitsError::NotFinite { .. })
            ));
        }
        assert!(SlotClock::new(2, 24, 1e16).is_ok());
    }

    #[test]
    fn paper_month_calendar() {
        let c = SlotClock::icdcs13_month();
        assert_eq!(c.frames(), 31);
        assert_eq!(c.slots_per_frame(), 24);
        assert_eq!(c.total_slots(), 744);
        assert_eq!(c.total_hours(), 744.0);
        assert_eq!(c.slot_hours(), 1.0);
    }

    #[test]
    fn frame_and_offset_math() {
        let c = SlotClock::new(3, 4, 0.25).unwrap();
        assert_eq!(c.frame_of(0), 0);
        assert_eq!(c.frame_of(7), 1);
        assert_eq!(c.slot_in_frame(7), 3);
        assert!(c.is_frame_start(8));
        assert!(!c.is_frame_start(9));
        assert_eq!(c.frame_start(2), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_of_out_of_range_panics() {
        let c = SlotClock::new(2, 2, 1.0).unwrap();
        let _ = c.frame_of(4);
    }

    #[test]
    fn iterator_is_exact_and_chronological() {
        let c = SlotClock::new(2, 3, 1.0).unwrap();
        let slots: Vec<_> = c.slots().collect();
        assert_eq!(slots.len(), 6);
        assert_eq!(c.slots().len(), 6);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.frame, i / 3);
            assert_eq!(s.offset, i % 3);
            assert_eq!(s.is_frame_start(), i % 3 == 0);
        }
    }

    #[test]
    fn slot_id_display_mentions_frame() {
        let c = SlotClock::new(2, 3, 1.0).unwrap();
        let s = c.slot_id(4);
        assert_eq!(s.to_string(), "slot 4 (frame 1, offset 1)");
    }

    #[test]
    fn t_sweep_preserves_horizon() {
        let base = SlotClock::icdcs13_month(); // 744 slots
        for t in [3usize, 6, 12, 24, 48, 144] {
            let c = base.with_slots_per_frame(t).unwrap();
            assert_eq!(c.slots_per_frame(), t);
            assert!(c.total_slots() >= base.total_slots());
            assert!(c.total_slots() < base.total_slots() + t);
        }
        assert!(base.with_slots_per_frame(0).is_err());
    }

    #[test]
    fn fractional_slot_hours_round_trip() {
        let c = SlotClock::new(4, 96, 0.25).unwrap(); // 15-minute slots
        assert_eq!(c.slot_hours(), 0.25);
        assert_eq!(c.total_hours(), 96.0);
    }
}

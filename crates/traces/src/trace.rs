// Every series is length-validated against the calendar in `TraceSet::new`
// and kept private thereafter; slot and frame indices below come from the
// same `SlotClock` (its iterator, `frame_of`, or an explicit range check),
// so they are in bounds by the struct invariant.
// audit:allow-file(slice-index): series lengths are clock-validated at construction; slot/frame ids come from the same clock
#![allow(clippy::indexing_slicing)]

use dpss_units::{Energy, Price, SlotClock};
use serde::{Deserialize, Serialize};

use crate::{SeriesStats, TraceError};

/// A complete, calendar-aligned set of input traces for one simulation run.
///
/// Per-fine-slot series cover every `τ ∈ [0, K·T)`; the long-term price has
/// one entry per coarse frame (the long-term-ahead market clears once per
/// frame, §II-A1).
///
/// Invariants (enforced by [`TraceSet::new`] and preserved by all transforms
/// in this crate): all energy values are finite and non-negative, all prices
/// are finite and non-negative, and series lengths match the calendar.
///
/// # Examples
///
/// ```
/// use dpss_traces::Scenario;
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::new(2, 24, 1.0)?;
/// let traces = Scenario::icdcs13().generate(&clock, 7)?;
/// let total = traces.total_demand();
/// assert!(total > dpss_units::Energy::ZERO);
/// assert!(traces.renewable_penetration() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSet {
    /// Two-timescale calendar the series are aligned to.
    pub clock: SlotClock,
    /// Delay-sensitive demand `d_ds(τ)` per fine slot.
    pub demand_ds: Vec<Energy>,
    /// Delay-tolerant demand `d_dt(τ)` per fine slot.
    pub demand_dt: Vec<Energy>,
    /// Renewable production `r(τ)` per fine slot.
    pub renewable: Vec<Energy>,
    /// Long-term-ahead market price `p_lt(t)`, one entry per coarse frame.
    pub price_lt: Vec<Price>,
    /// Real-time market price `p_rt(τ)` per fine slot.
    pub price_rt: Vec<Price>,
    /// Request arrivals `w(τ)` per fine slot (IT energy required to serve
    /// the arriving work), when the scenario models a workload stream.
    /// `None` for pure supply-side runs; absent from the CSV round-trip
    /// (which predates the request layer), so [`TraceSet::from_csv`]
    /// always yields `None`.
    #[serde(default)]
    pub arrivals: Option<Vec<Energy>>,
}

impl TraceSet {
    /// Validates series lengths and values against `clock` and assembles a
    /// trace set.
    ///
    /// # Errors
    ///
    /// [`TraceError::LengthMismatch`] if any series disagrees with the
    /// calendar, [`TraceError::InvalidValue`] if a value is NaN, infinite
    /// or negative.
    pub fn new(
        clock: SlotClock,
        demand_ds: Vec<Energy>,
        demand_dt: Vec<Energy>,
        renewable: Vec<Energy>,
        price_lt: Vec<Price>,
        price_rt: Vec<Price>,
    ) -> Result<Self, TraceError> {
        let ts = TraceSet {
            clock,
            demand_ds,
            demand_dt,
            renewable,
            price_lt,
            price_rt,
            arrivals: None,
        };
        ts.validate()?;
        Ok(ts)
    }

    /// Attaches a per-slot request-arrival series (builder style).
    ///
    /// # Errors
    ///
    /// Propagates [`TraceSet::validate`] errors if the series has the
    /// wrong length or non-finite/negative values.
    pub fn with_arrivals(mut self, arrivals: Vec<Energy>) -> Result<Self, TraceError> {
        self.arrivals = Some(arrivals);
        self.validate()?;
        Ok(self)
    }

    /// Overwrites coarse frame `frame` in place with `data`, a one-frame
    /// trace set on this calendar's slot grid. Nothing is written unless
    /// `data` passes [`validate`](Self::validate), so every invariant
    /// keeps holding.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidParameter`] if `frame` lies outside the
    /// calendar, or `data` is not one frame of this calendar's slots with
    /// an arrival stream iff this set has one; `data`'s own validation
    /// errors.
    pub fn write_frame(&mut self, frame: usize, data: &TraceSet) -> Result<(), TraceError> {
        data.validate()?;
        let t = self.clock.slots_per_frame();
        if frame >= self.clock.frames()
            || data.clock.frames() != 1
            || data.clock.slots_per_frame() != t
            || data.clock.slot_hours() != self.clock.slot_hours()
            || data.arrivals.is_some() != self.arrivals.is_some()
        {
            return Err(TraceError::InvalidParameter {
                what: "frame data",
                requirement: "must be one frame of the calendar's slot grid",
            });
        }
        let slots = frame * t..(frame + 1) * t;
        self.demand_ds[slots.clone()].copy_from_slice(&data.demand_ds);
        self.demand_dt[slots.clone()].copy_from_slice(&data.demand_dt);
        self.renewable[slots.clone()].copy_from_slice(&data.renewable);
        self.price_rt[slots.clone()].copy_from_slice(&data.price_rt);
        self.price_lt[frame] = data.price_lt[0];
        if let (Some(dst), Some(src)) = (&mut self.arrivals, &data.arrivals) {
            dst[slots].copy_from_slice(src);
        }
        Ok(())
    }

    /// Re-checks all invariants (used by transforms in [`crate::scaling`]).
    pub fn validate(&self) -> Result<(), TraceError> {
        let slots = self.clock.total_slots();
        let frames = self.clock.frames();
        let check_len = |series: &'static str, len: usize, expected: usize| {
            if len == expected {
                Ok(())
            } else {
                Err(TraceError::LengthMismatch {
                    series,
                    expected,
                    actual: len,
                })
            }
        };
        check_len("demand_ds", self.demand_ds.len(), slots)?;
        check_len("demand_dt", self.demand_dt.len(), slots)?;
        check_len("renewable", self.renewable.len(), slots)?;
        check_len("price_lt", self.price_lt.len(), frames)?;
        check_len("price_rt", self.price_rt.len(), slots)?;

        let check_energy = |series: &'static str, xs: &[Energy]| {
            for (i, x) in xs.iter().enumerate() {
                if !x.is_finite() || x.mwh() < 0.0 {
                    return Err(TraceError::InvalidValue { series, slot: i });
                }
            }
            Ok(())
        };
        if let Some(arrivals) = &self.arrivals {
            check_len("arrivals", arrivals.len(), slots)?;
        }
        check_energy("demand_ds", &self.demand_ds)?;
        check_energy("demand_dt", &self.demand_dt)?;
        check_energy("renewable", &self.renewable)?;
        if let Some(arrivals) = &self.arrivals {
            check_energy("arrivals", arrivals)?;
        }
        let check_price = |series: &'static str, xs: &[Price]| {
            for (i, x) in xs.iter().enumerate() {
                if !x.is_finite() || x.dollars_per_mwh() < 0.0 {
                    return Err(TraceError::InvalidValue { series, slot: i });
                }
            }
            Ok(())
        };
        check_price("price_lt", &self.price_lt)?;
        check_price("price_rt", &self.price_rt)?;
        Ok(())
    }

    /// Total demand `d(τ) = d_ds(τ) + d_dt(τ)` at fine slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn demand_total(&self, slot: usize) -> Energy {
        self.demand_ds[slot] + self.demand_dt[slot]
    }

    /// Long-term price for the frame containing `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn price_lt_at_slot(&self, slot: usize) -> Price {
        self.price_lt[self.clock.frame_of(slot)]
    }

    /// Sum of all demand over the horizon.
    #[must_use]
    pub fn total_demand(&self) -> Energy {
        self.demand_ds.iter().sum::<Energy>() + self.demand_dt.iter().sum::<Energy>()
    }

    /// Sum of all renewable production over the horizon.
    #[must_use]
    pub fn total_renewable(&self) -> Energy {
        self.renewable.iter().sum()
    }

    /// Renewable penetration: total renewable production divided by total
    /// demand (the x-axis of Fig. 8). Zero when there is no demand.
    #[must_use]
    pub fn renewable_penetration(&self) -> f64 {
        let d = self.total_demand();
        if d <= Energy::ZERO {
            0.0
        } else {
            self.total_renewable() / d
        }
    }

    /// Mean long-term price over frames.
    #[must_use]
    pub fn mean_lt_price(&self) -> Price {
        if self.price_lt.is_empty() {
            return Price::ZERO;
        }
        let sum: f64 = self.price_lt.iter().map(|p| p.dollars_per_mwh()).sum();
        Price::from_dollars_per_mwh(sum / self.price_lt.len() as f64)
    }

    /// Mean real-time price over fine slots.
    #[must_use]
    pub fn mean_rt_price(&self) -> Price {
        if self.price_rt.is_empty() {
            return Price::ZERO;
        }
        let sum: f64 = self.price_rt.iter().map(|p| p.dollars_per_mwh()).sum();
        Price::from_dollars_per_mwh(sum / self.price_rt.len() as f64)
    }

    /// Statistics of the *total* demand series (Fig. 8's variation metric).
    #[must_use]
    pub fn demand_stats(&self) -> SeriesStats {
        SeriesStats::from_values((0..self.clock.total_slots()).map(|s| self.demand_total(s).mwh()))
    }

    /// Statistics of the renewable series.
    #[must_use]
    pub fn renewable_stats(&self) -> SeriesStats {
        SeriesStats::from_values(self.renewable.iter().map(|e| e.mwh()))
    }

    /// Statistics of the real-time price series.
    #[must_use]
    pub fn rt_price_stats(&self) -> SeriesStats {
        SeriesStats::from_values(self.price_rt.iter().map(|p| p.dollars_per_mwh()))
    }

    /// Sum of all request arrivals over the horizon (zero when the
    /// scenario carries no workload stream).
    #[must_use]
    pub fn total_arrivals(&self) -> Energy {
        self.arrivals
            .as_deref()
            .map(|xs| xs.iter().sum())
            .unwrap_or(Energy::ZERO)
    }

    /// Statistics of the request-arrival series; `None` when the scenario
    /// carries no workload stream.
    #[must_use]
    pub fn arrival_stats(&self) -> Option<SeriesStats> {
        self.arrivals
            .as_deref()
            .map(|xs| SeriesStats::from_values(xs.iter().map(|e| e.mwh())))
    }

    /// Serializes all series to a CSV document (header + one row per fine
    /// slot; the frame-level long-term price is repeated on each row of its
    /// frame).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * self.clock.total_slots());
        out.push_str(
            "slot,frame,offset,demand_ds_mwh,demand_dt_mwh,renewable_mwh,price_lt,price_rt\n",
        );
        for id in self.clock.slots() {
            // `{}` on f64 is Rust's shortest round-trippable representation,
            // so `from_csv(to_csv(t)) == t` exactly.
            let row = format!(
                "{},{},{},{},{},{},{},{}\n",
                id.index,
                id.frame,
                id.offset,
                self.demand_ds[id.index].mwh(),
                self.demand_dt[id.index].mwh(),
                self.renewable[id.index].mwh(),
                self.price_lt[id.frame].dollars_per_mwh(),
                self.price_rt[id.index].dollars_per_mwh(),
            );
            out.push_str(&row);
        }
        out
    }

    /// Parses a CSV document produced by [`TraceSet::to_csv`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Parse`] on malformed rows, plus all [`TraceSet::new`]
    /// validation errors.
    pub fn from_csv(clock: SlotClock, csv: &str) -> Result<Self, TraceError> {
        let slots = clock.total_slots();
        let mut demand_ds = vec![Energy::ZERO; slots];
        let mut demand_dt = vec![Energy::ZERO; slots];
        let mut renewable = vec![Energy::ZERO; slots];
        let mut price_lt = vec![Price::ZERO; clock.frames()];
        let mut price_rt = vec![Price::ZERO; slots];
        let mut seen = vec![false; slots];

        for (lineno, line) in csv.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue; // header / trailing newline
            }
            let fields: Vec<&str> = line.split(',').collect();
            let &[slot_s, _frame, _offset, ds_s, dt_s, rn_s, plt_s, prt_s] = fields.as_slice()
            else {
                return Err(TraceError::Parse {
                    line: lineno + 1,
                    reason: format!("expected 8 fields, found {}", fields.len()),
                });
            };
            let parse = |s: &str, what: &str| -> Result<f64, TraceError> {
                s.trim().parse::<f64>().map_err(|e| TraceError::Parse {
                    line: lineno + 1,
                    reason: format!("bad {what}: {e}"),
                })
            };
            let slot = slot_s
                .trim()
                .parse::<usize>()
                .map_err(|e| TraceError::Parse {
                    line: lineno + 1,
                    reason: format!("bad slot: {e}"),
                })?;
            if seen.get(slot) != Some(&false) {
                let why = if slot >= slots {
                    "out of range for calendar"
                } else {
                    "appears twice"
                };
                return Err(TraceError::Parse {
                    line: lineno + 1,
                    reason: format!("slot {slot} {why}"),
                });
            }
            demand_ds[slot] = Energy::from_mwh(parse(ds_s, "demand_ds")?);
            demand_dt[slot] = Energy::from_mwh(parse(dt_s, "demand_dt")?);
            renewable[slot] = Energy::from_mwh(parse(rn_s, "renewable")?);
            price_lt[clock.frame_of(slot)] = Price::from_dollars_per_mwh(parse(plt_s, "price_lt")?);
            price_rt[slot] = Price::from_dollars_per_mwh(parse(prt_s, "price_rt")?);
            seen[slot] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(TraceError::Parse {
                line: 0,
                reason: format!("slot {missing} missing from csv"),
            });
        }
        TraceSet::new(clock, demand_ds, demand_dt, renewable, price_lt, price_rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TraceSet {
        let clock = SlotClock::new(2, 2, 1.0).unwrap();
        TraceSet::new(
            clock,
            vec![Energy::from_mwh(1.0); 4],
            vec![Energy::from_mwh(0.5); 4],
            vec![Energy::from_mwh(0.25); 4],
            vec![
                Price::from_dollars_per_mwh(30.0),
                Price::from_dollars_per_mwh(40.0),
            ],
            vec![Price::from_dollars_per_mwh(50.0); 4],
        )
        .unwrap()
    }

    #[test]
    fn validates_lengths() {
        let clock = SlotClock::new(2, 2, 1.0).unwrap();
        let r = TraceSet::new(
            clock,
            vec![Energy::ZERO; 3], // wrong
            vec![Energy::ZERO; 4],
            vec![Energy::ZERO; 4],
            vec![Price::ZERO; 2],
            vec![Price::ZERO; 4],
        );
        assert!(matches!(
            r,
            Err(TraceError::LengthMismatch {
                series: "demand_ds",
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn validates_values() {
        let clock = SlotClock::new(1, 2, 1.0).unwrap();
        let r = TraceSet::new(
            clock,
            vec![Energy::from_mwh(-1.0), Energy::ZERO],
            vec![Energy::ZERO; 2],
            vec![Energy::ZERO; 2],
            vec![Price::ZERO; 1],
            vec![Price::ZERO; 2],
        );
        assert!(matches!(
            r,
            Err(TraceError::InvalidValue {
                series: "demand_ds",
                slot: 0
            })
        ));
        let r = TraceSet::new(
            clock,
            vec![Energy::ZERO; 2],
            vec![Energy::ZERO; 2],
            vec![Energy::ZERO; 2],
            vec![Price::from_dollars_per_mwh(f64::NAN)],
            vec![Price::ZERO; 2],
        );
        assert!(matches!(
            r,
            Err(TraceError::InvalidValue {
                series: "price_lt",
                ..
            })
        ));
    }

    #[test]
    fn aggregates() {
        let t = tiny();
        assert_eq!(t.total_demand(), Energy::from_mwh(6.0));
        assert_eq!(t.total_renewable(), Energy::from_mwh(1.0));
        assert!((t.renewable_penetration() - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(t.demand_total(0), Energy::from_mwh(1.5));
        assert_eq!(t.mean_lt_price(), Price::from_dollars_per_mwh(35.0));
        assert_eq!(t.mean_rt_price(), Price::from_dollars_per_mwh(50.0));
        assert_eq!(t.price_lt_at_slot(3), Price::from_dollars_per_mwh(40.0));
    }

    #[test]
    fn stats_of_constant_series() {
        let t = tiny();
        let d = t.demand_stats();
        assert!((d.mean - 1.5).abs() < 1e-12);
        assert_eq!(d.std, 0.0);
        assert_eq!(t.renewable_stats().mean, 0.25);
        assert_eq!(t.rt_price_stats().mean, 50.0);
    }

    #[test]
    fn csv_round_trip() {
        let t = tiny();
        let csv = t.to_csv();
        assert!(csv.starts_with("slot,frame,offset"));
        let back = TraceSet::from_csv(t.clock, &csv).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        let t = tiny();
        let truncated = "slot,frame\n0,0\n";
        assert!(matches!(
            TraceSet::from_csv(t.clock, truncated),
            Err(TraceError::Parse { .. })
        ));
        let bad_number = "h\n0,0,0,x,0,0,0,0\n";
        assert!(matches!(
            TraceSet::from_csv(t.clock, bad_number),
            Err(TraceError::Parse { .. })
        ));
        let out_of_range = "h\n99,0,0,0,0,0,0,0\n";
        assert!(matches!(
            TraceSet::from_csv(t.clock, out_of_range),
            Err(TraceError::Parse { .. })
        ));
        // A slot index is an exact non-negative integer: `-1` and `NaN`
        // must not saturate onto slot 0, nor `1.5` truncate onto slot 1.
        for slot in ["-1", "1.5", "NaN"] {
            let csv = format!("h\n0,0,0,1,1,1,1,1\n{slot},0,0,1,1,1,1,1\n");
            assert!(
                matches!(
                    TraceSet::from_csv(t.clock, &csv),
                    Err(TraceError::Parse { line: 3, .. })
                ),
                "slot {slot} was accepted"
            );
        }
        // A repeated slot must not silently overwrite the earlier row.
        let duplicate = "h\n0,0,0,1,1,1,1,1\n1,0,1,1,1,1,1,1\n1,0,1,2,2,2,2,2\n";
        assert!(matches!(
            TraceSet::from_csv(t.clock, duplicate),
            Err(TraceError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn csv_detects_missing_slots() {
        let t = tiny();
        let mut csv = String::from(
            "slot,frame,offset,demand_ds_mwh,demand_dt_mwh,renewable_mwh,price_lt,price_rt\n",
        );
        csv.push_str("0,0,0,1,1,1,1,1\n"); // only slot 0 of 4
        assert!(matches!(
            TraceSet::from_csv(t.clock, &csv),
            Err(TraceError::Parse { .. })
        ));
    }

    #[test]
    fn arrivals_are_validated_and_aggregated() {
        let t = tiny();
        assert_eq!(t.arrivals, None);
        assert_eq!(t.total_arrivals(), Energy::ZERO);
        assert!(t.arrival_stats().is_none());

        let with = tiny()
            .with_arrivals(vec![Energy::from_mwh(0.5); 4])
            .unwrap();
        assert_eq!(with.total_arrivals(), Energy::from_mwh(2.0));
        assert_eq!(with.arrival_stats().unwrap().mean, 0.5);

        assert!(matches!(
            tiny().with_arrivals(vec![Energy::ZERO; 3]),
            Err(TraceError::LengthMismatch {
                series: "arrivals",
                ..
            })
        ));
        assert!(matches!(
            tiny().with_arrivals(vec![Energy::from_mwh(-1.0); 4]),
            Err(TraceError::InvalidValue {
                series: "arrivals",
                slot: 0
            })
        ));
    }

    #[test]
    fn csv_round_trip_drops_arrivals() {
        let t = tiny()
            .with_arrivals(vec![Energy::from_mwh(0.5); 4])
            .unwrap();
        let back = TraceSet::from_csv(t.clock, &t.to_csv()).unwrap();
        assert_eq!(back.arrivals, None);
        assert_eq!(back.demand_ds, t.demand_ds);
    }

    #[test]
    fn zero_demand_has_zero_penetration() {
        let clock = SlotClock::new(1, 1, 1.0).unwrap();
        let t = TraceSet::new(
            clock,
            vec![Energy::ZERO],
            vec![Energy::ZERO],
            vec![Energy::from_mwh(5.0)],
            vec![Price::ZERO],
            vec![Price::ZERO],
        )
        .unwrap();
        assert_eq!(t.renewable_penetration(), 0.0);
    }
}

use dpss_units::{Energy, Power, SlotClock};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::randutil::{poisson, subseed, Ar1};
use crate::TraceError;

/// Synthetic per-region request-arrival model — the *workload* side of the
/// geo-distributed routing extension.
///
/// Millions of users are aggregated into one deterministic request-rate
/// series, expressed as the IT energy required to serve the arriving work
/// (MWh per fine slot, the same unit the demand series use). The model is
/// a diurnal sine-of-day bell with a seeded regional phase offset (regions
/// in different time zones peak at different hours), AR(1) noise,
/// optional Poisson *flash crowds* (short multiplicative bursts) and an
/// optional linear *traffic surge* ramp across the horizon.
///
/// # Examples
///
/// ```
/// use dpss_traces::WorkloadModel;
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::icdcs13_month();
/// let arrivals = WorkloadModel::icdcs13().generate(&clock, 42)?;
/// assert_eq!(arrivals.len(), 744);
/// assert!(arrivals.iter().all(|a| a.mwh() >= 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    base: Power,
    diurnal_amplitude: f64,
    offset_spread_hours: f64,
    noise_std: f64,
    flash_rate_per_day: f64,
    flash_magnitude: f64,
    flash_duration_slots: usize,
    surge_ramp: f64,
    slot_cap: Energy,
}

impl WorkloadModel {
    /// Defaults sized against the paper's 2 MW site: ~0.3 MW of mean
    /// request-service load with a 45% diurnal swing, no flash crowds,
    /// no surge, no regional offset.
    #[must_use]
    pub fn icdcs13() -> Self {
        WorkloadModel {
            base: Power::from_mw(0.3),
            diurnal_amplitude: 0.45,
            offset_spread_hours: 0.0,
            noise_std: 0.06,
            flash_rate_per_day: 0.0,
            flash_magnitude: 4.0,
            flash_duration_slots: 3,
            surge_ramp: 0.0,
            slot_cap: Energy::from_mwh(1.5),
        }
    }

    /// Sets the mean request-service load.
    #[must_use]
    pub fn with_base(mut self, base: Power) -> Self {
        self.base = base;
        self
    }

    /// Sets the diurnal swing as a fraction of base (at most 1).
    #[must_use]
    pub fn with_diurnal_amplitude(mut self, amplitude: f64) -> Self {
        self.diurnal_amplitude = amplitude;
        self
    }

    /// Sets the regional phase-offset spread in hours: each generated
    /// stream draws one offset uniformly from `[0, spread)` and shifts
    /// its diurnal peak by it, so per-site seeds yield regions peaking
    /// at different wall-clock hours.
    #[must_use]
    pub fn with_offset_spread(mut self, hours: f64) -> Self {
        self.offset_spread_hours = hours;
        self
    }

    /// Sets the AR(1) noise level as a fraction of base.
    #[must_use]
    pub fn with_noise(mut self, noise_std: f64) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Sets the flash-crowd regime: Poisson event rate per day, peak
    /// magnitude as a multiple of base, and the burst's linear decay
    /// length in slots.
    #[must_use]
    pub fn with_flash_crowds(mut self, rate_per_day: f64, magnitude: f64, duration: usize) -> Self {
        self.flash_rate_per_day = rate_per_day;
        self.flash_magnitude = magnitude;
        self.flash_duration_slots = duration;
        self
    }

    /// Sets the traffic-surge ramp: arrivals grow linearly from 1× at the
    /// start of the horizon to `1 + ramp` at its end.
    #[must_use]
    pub fn with_surge_ramp(mut self, ramp: f64) -> Self {
        self.surge_ramp = ramp;
        self
    }

    /// Sets the per-slot arrival cap (admission-side clipping, the
    /// workload analogue of the demand model's `Pgrid` clip).
    #[must_use]
    pub fn with_slot_cap(mut self, cap: Energy) -> Self {
        self.slot_cap = cap;
        self
    }

    fn validate(&self) -> Result<(), TraceError> {
        if !(self.base.is_finite() && self.base.mw() >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "workload base",
                requirement: "must be finite and non-negative",
            });
        }
        for (v, what) in [
            (self.diurnal_amplitude, "workload diurnal_amplitude"),
            (self.offset_spread_hours, "workload offset_spread_hours"),
            (self.noise_std, "workload noise_std"),
            (self.flash_rate_per_day, "workload flash_rate_per_day"),
            (self.flash_magnitude, "workload flash_magnitude"),
            (self.surge_ramp, "workload surge_ramp"),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(TraceError::InvalidParameter {
                    what,
                    requirement: "must be finite and non-negative",
                });
            }
        }
        if self.diurnal_amplitude > 1.0 {
            return Err(TraceError::InvalidParameter {
                what: "workload diurnal_amplitude",
                requirement: "must be at most 1 (arrivals cannot go negative)",
            });
        }
        if self.offset_spread_hours > 24.0 {
            return Err(TraceError::InvalidParameter {
                what: "workload offset_spread_hours",
                requirement: "must be at most 24 (one diurnal period)",
            });
        }
        if self.flash_rate_per_day > 0.0 && self.flash_duration_slots == 0 {
            return Err(TraceError::InvalidParameter {
                what: "workload flash_duration_slots",
                requirement: "must be at least 1 when flash crowds are enabled",
            });
        }
        if !(self.slot_cap.is_finite() && self.slot_cap.mwh() > 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "workload slot_cap",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// Generates the per-slot arrival series for the whole calendar.
    /// Deterministic in `(self, clock, seed)`.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidParameter`] if the model is misconfigured.
    pub fn generate(&self, clock: &SlotClock, seed: u64) -> Result<Vec<Energy>, TraceError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(subseed(seed, 0x10AD_0005));
        let slot_h = clock.slot_hours();
        let total = clock.total_slots();

        // The regional time-zone offset is one draw per stream, so two
        // sites (two seeds) of the same model peak at different hours.
        let offset = rng.gen::<f64>() * self.offset_spread_hours;

        // Flash-crowd bursts: Poisson events per day, each starting at a
        // uniform slot of its day and decaying linearly over the burst
        // duration, expressed as an additive multiple-of-base series.
        let mut flash = vec![0.0f64; total];
        if self.flash_rate_per_day > 0.0 {
            let slots_per_day = (24.0 / slot_h).max(1.0) as usize;
            let days = total.div_ceil(slots_per_day);
            let limit = (-self.flash_rate_per_day).exp();
            for day in 0..days {
                let events = poisson(&mut rng, self.flash_rate_per_day, limit);
                for _ in 0..events {
                    let start =
                        day * slots_per_day + (rng.gen::<f64>() * slots_per_day as f64) as usize;
                    for k in 0..self.flash_duration_slots {
                        let Some(cell) = flash.get_mut(start + k) else {
                            break;
                        };
                        let decay = 1.0 - k as f64 / self.flash_duration_slots as f64;
                        *cell += self.flash_magnitude * decay;
                    }
                }
            }
        }

        let mut noise = Ar1::new(0.7, 1.0);
        let mut out = Vec::with_capacity(total);
        for id in clock.slots() {
            let hour = (id.index as f64 * slot_h - offset).rem_euclid(24.0);
            let shape = 1.0 + self.diurnal_amplitude * diurnal_shape(hour);
            let n = 1.0 + self.noise_std * noise.next(&mut rng);
            let surge = if total > 1 {
                1.0 + self.surge_ramp * id.index as f64 / (total - 1) as f64
            } else {
                1.0
            };
            let flash_add = flash.get(id.index).copied().unwrap_or(0.0);
            let mw = self.base.mw() * (shape * n.max(0.0) * surge + flash_add);
            let e = Power::from_mw(mw.max(0.0)).over_hours(slot_h);
            out.push(e.min(self.slot_cap));
        }
        Ok(out)
    }
}

/// Diurnal request factor in roughly `[-0.75, 1.0]`: evening peak around
/// 20:00 (consumer traffic), pre-dawn trough.
fn diurnal_shape(hour: f64) -> f64 {
    let d = (hour - 20.0).abs().min(24.0 - (hour - 20.0).abs());
    (-d * d / 30.0).exp() * 1.5 - 0.62
}

#[cfg(test)]
mod tests {
    use super::*;

    fn month() -> SlotClock {
        SlotClock::icdcs13_month()
    }

    #[test]
    fn deterministic_given_seed() {
        let m = WorkloadModel::icdcs13().with_flash_crowds(0.5, 5.0, 3);
        assert_eq!(
            m.generate(&month(), 1).unwrap(),
            m.generate(&month(), 1).unwrap()
        );
        assert_ne!(
            m.generate(&month(), 1).unwrap(),
            m.generate(&month(), 2).unwrap()
        );
    }

    #[test]
    fn arrivals_are_bounded_and_non_negative() {
        let m = WorkloadModel::icdcs13().with_flash_crowds(3.0, 10.0, 5);
        let xs = m.generate(&month(), 3).unwrap();
        assert_eq!(xs.len(), 744);
        for (i, x) in xs.iter().enumerate() {
            assert!(x.mwh() >= 0.0, "slot {i}: {x}");
            assert!(x.mwh() <= 1.5 + 1e-12, "slot {i}: {x}");
        }
    }

    #[test]
    fn diurnal_pattern_peaks_in_the_evening() {
        let m = WorkloadModel::icdcs13().with_noise(0.0);
        let xs = m.generate(&month(), 5).unwrap();
        let mut peak = 0.0;
        let mut trough = 0.0;
        for day in 0..31 {
            peak += xs[day * 24 + 20].mwh();
            trough += xs[day * 24 + 4].mwh();
        }
        assert!(peak > 1.5 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    fn offset_spread_shifts_the_peak_per_seed() {
        let m = WorkloadModel::icdcs13()
            .with_noise(0.0)
            .with_offset_spread(24.0);
        // With a full-day spread, different seeds place the peak at
        // different hours: the argmax hour over a mean day must differ
        // for at least one seed pair.
        let peak_hour = |seed: u64| -> usize {
            let xs = m.generate(&month(), seed).unwrap();
            let mut by_hour = [0.0f64; 24];
            for (i, x) in xs.iter().enumerate() {
                by_hour[i % 24] += x.mwh();
            }
            (0..24)
                .max_by(|&a, &b| by_hour[a].total_cmp(&by_hour[b]))
                .unwrap()
        };
        let hours: Vec<usize> = (0..6).map(peak_hour).collect();
        assert!(
            hours.iter().any(|&h| h != hours[0]),
            "all seeds peaked at hour {hours:?}"
        );
    }

    #[test]
    fn flash_crowds_add_mass() {
        let calm = WorkloadModel::icdcs13().generate(&month(), 7).unwrap();
        let crowded = WorkloadModel::icdcs13()
            .with_flash_crowds(1.0, 5.0, 3)
            .generate(&month(), 7)
            .unwrap();
        let sum = |xs: &[Energy]| xs.iter().map(|e| e.mwh()).sum::<f64>();
        assert!(sum(&crowded) > sum(&calm) * 1.05, "flash crowds must show");
    }

    #[test]
    fn surge_ramps_up_over_the_horizon() {
        let m = WorkloadModel::icdcs13()
            .with_noise(0.0)
            .with_surge_ramp(1.0);
        let xs = m.generate(&month(), 9).unwrap();
        let first_week: f64 = xs[..168].iter().map(|e| e.mwh()).sum();
        let last_week: f64 = xs[744 - 168..].iter().map(|e| e.mwh()).sum();
        assert!(
            last_week > 1.5 * first_week,
            "surge must ramp: {first_week} -> {last_week}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let c = month();
        assert!(WorkloadModel::icdcs13()
            .with_diurnal_amplitude(1.5)
            .generate(&c, 0)
            .is_err());
        assert!(WorkloadModel::icdcs13()
            .with_offset_spread(25.0)
            .generate(&c, 0)
            .is_err());
        assert!(WorkloadModel::icdcs13()
            .with_flash_crowds(1.0, 2.0, 0)
            .generate(&c, 0)
            .is_err());
        assert!(WorkloadModel::icdcs13()
            .with_slot_cap(Energy::ZERO)
            .generate(&c, 0)
            .is_err());
        assert!(WorkloadModel::icdcs13()
            .with_base(Power::from_mw(f64::NAN))
            .generate(&c, 0)
            .is_err());
        assert!(WorkloadModel::icdcs13()
            .with_surge_ramp(-0.5)
            .generate(&c, 0)
            .is_err());
    }
}

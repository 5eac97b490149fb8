use dpss_units::{Price, SlotClock};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::hour::{hour_of_day, HourMemo};
use crate::randutil::{subseed, Ar1};
use crate::TraceError;

/// The pair of market price series consumed by a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTraces {
    /// Long-term-ahead market price `p_lt(t)`, one entry per coarse frame.
    pub long_term: Vec<Price>,
    /// Real-time market price `p_rt(τ)`, one entry per fine slot.
    pub real_time: Vec<Price>,
}

/// Synthetic two-timescale electricity price model.
///
/// Substitutes for the paper's NYISO traces (central U.S., January 2012).
/// The real-time series has a diurnal double-peak shape (morning and
/// evening), AR(1) noise and occasional spikes; the long-term series is an
/// AR(1) around the base level. Construction guarantees the structural
/// property the algorithm exploits (§II-B2): the real-time price is more
/// expensive *on average* than the long-term price (`E[p_rt] > E[p_lt]`),
/// and both are capped at `Pmax`.
///
/// # Examples
///
/// ```
/// use dpss_traces::PriceModel;
/// use dpss_units::SlotClock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::icdcs13_month();
/// let prices = PriceModel::icdcs13().generate(&clock, 11)?;
/// assert_eq!(prices.long_term.len(), 31);
/// assert_eq!(prices.real_time.len(), 744);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PriceModel {
    base: Price,
    daily_amplitude: f64,
    lt_noise_std: f64,
    rt_noise_std: f64,
    rt_markup: f64,
    spike_probability: f64,
    spike_scale: f64,
    cap: Price,
    floor: Price,
}

impl PriceModel {
    /// Paper-like defaults: ~$35/MWh base, real-time ~35% above long-term
    /// on average (and rarely below it, as in the NYISO data the paper
    /// uses), `Pmax = $100/MWh` cap.
    #[must_use]
    pub fn icdcs13() -> Self {
        PriceModel {
            base: Price::from_dollars_per_mwh(35.0),
            daily_amplitude: 0.3,
            lt_noise_std: 0.10,
            rt_noise_std: 0.12,
            rt_markup: 1.35,
            spike_probability: 0.04,
            spike_scale: 40.0,
            cap: Price::from_dollars_per_mwh(100.0),
            floor: Price::ZERO,
        }
    }

    /// Sets the base price level.
    #[must_use]
    pub fn with_base(mut self, base: Price) -> Self {
        self.base = base;
        self
    }

    /// Sets the mean multiplicative markup of real-time over long-term
    /// (`> 1` per §II-B2).
    #[must_use]
    pub fn with_rt_markup(mut self, markup: f64) -> Self {
        self.rt_markup = markup;
        self
    }

    /// Sets the price cap `Pmax` (both markets are capped, §II-A1).
    #[must_use]
    pub fn with_cap(mut self, cap: Price) -> Self {
        self.cap = cap;
        self
    }

    /// Sets the diurnal swing as a fraction of base.
    #[must_use]
    pub fn with_daily_amplitude(mut self, amplitude: f64) -> Self {
        self.daily_amplitude = amplitude;
        self
    }

    /// Sets AR(1) noise levels (fraction of base) for the two markets.
    #[must_use]
    pub fn with_noise(mut self, lt_std: f64, rt_std: f64) -> Self {
        self.lt_noise_std = lt_std;
        self.rt_noise_std = rt_std;
        self
    }

    /// Sets real-time spike behaviour: per-slot probability and mean spike
    /// size in $/MWh.
    #[must_use]
    pub fn with_spikes(mut self, probability: f64, scale: f64) -> Self {
        self.spike_probability = probability;
        self.spike_scale = scale;
        self
    }

    /// The price cap `Pmax`.
    #[must_use]
    pub fn cap(&self) -> Price {
        self.cap
    }

    fn validate(&self) -> Result<(), TraceError> {
        if !(self.base.is_finite() && self.base.dollars_per_mwh() >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "base price",
                requirement: "must be finite and non-negative",
            });
        }
        if self.rt_markup < 1.0 || !self.rt_markup.is_finite() {
            return Err(TraceError::InvalidParameter {
                what: "rt_markup",
                requirement: "must be >= 1 (E[p_rt] > E[p_lt], paper §II-B2)",
            });
        }
        if !(0.0..=1.0).contains(&self.spike_probability) {
            return Err(TraceError::InvalidParameter {
                what: "spike_probability",
                requirement: "must be in [0, 1]",
            });
        }
        if self.cap < self.floor || !self.cap.is_finite() {
            return Err(TraceError::InvalidParameter {
                what: "cap",
                requirement: "must be finite and at least the floor",
            });
        }
        for (v, what) in [
            (self.daily_amplitude, "daily_amplitude"),
            (self.lt_noise_std, "lt_noise_std"),
            (self.rt_noise_std, "rt_noise_std"),
            (self.spike_scale, "spike_scale"),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(TraceError::InvalidParameter {
                    what,
                    requirement: "must be finite and non-negative",
                });
            }
        }
        Ok(())
    }

    /// Generates both market series for the whole calendar.
    ///
    /// Deterministic in `(self, clock, seed)`.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidParameter`] if the model is misconfigured.
    pub fn generate(&self, clock: &SlotClock, seed: u64) -> Result<PriceTraces, TraceError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(subseed(seed, 0x981C_0003));
        let base = self.base.dollars_per_mwh();

        // Long-term-ahead market: AR(1) around base, one value per frame.
        let mut lt_ar = Ar1::new(0.6, 1.0);
        let long_term: Vec<Price> = (0..clock.frames())
            .map(|_| {
                let p = base * (1.0 + self.lt_noise_std * lt_ar.next(&mut rng));
                Price::from_dollars_per_mwh(p).clamp(self.floor, self.cap)
            })
            .collect();

        // Real-time market: diurnal shape × noise × markup + spikes.
        let mut rt_ar = Ar1::new(0.8, 1.0);
        let slot_h = clock.slot_hours();
        let mut shapes = HourMemo::new();
        let real_time: Vec<Price> = clock
            .slots()
            .map(|id| {
                let shape = shapes.get(hour_of_day(id.index as f64 * slot_h), |hour| {
                    1.0 + self.daily_amplitude * diurnal_shape(hour)
                });
                let noise = 1.0 + self.rt_noise_std * rt_ar.next(&mut rng);
                let mut p = base * self.rt_markup * shape * noise.max(0.1);
                if rng.gen::<f64>() < self.spike_probability {
                    p += crate::randutil::exponential(&mut rng, self.spike_scale);
                }
                Price::from_dollars_per_mwh(p).clamp(self.floor, self.cap)
            })
            .collect();

        Ok(PriceTraces {
            long_term,
            real_time,
        })
    }
}

/// Double-peak diurnal factor in roughly `[-0.5, 1.0]`: morning peak around
/// 09:00, a stronger evening peak around 19:00, night-time dip.
fn diurnal_shape(hour: f64) -> f64 {
    let morning = 0.7 * (-(hour - 9.0).powi(2) / 8.0).exp();
    let evening = (-(hour - 19.0).powi(2) / 10.0).exp();
    morning + evening - 0.45
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let m = PriceModel::icdcs13();
        let clock = SlotClock::icdcs13_month();
        assert_eq!(
            m.generate(&clock, 1).unwrap(),
            m.generate(&clock, 1).unwrap()
        );
        assert_ne!(
            m.generate(&clock, 1).unwrap(),
            m.generate(&clock, 2).unwrap()
        );
    }

    #[test]
    fn rt_mean_exceeds_lt_mean() {
        // The structural market property of §II-B2 must hold for a range of
        // seeds, not just one lucky draw.
        let m = PriceModel::icdcs13();
        let clock = SlotClock::icdcs13_month();
        for seed in 0..10 {
            let p = m.generate(&clock, seed).unwrap();
            let lt_mean: f64 = p.long_term.iter().map(|x| x.dollars_per_mwh()).sum::<f64>()
                / p.long_term.len() as f64;
            let rt_mean: f64 = p.real_time.iter().map(|x| x.dollars_per_mwh()).sum::<f64>()
                / p.real_time.len() as f64;
            assert!(
                rt_mean > lt_mean,
                "seed {seed}: rt {rt_mean} <= lt {lt_mean}"
            );
        }
    }

    #[test]
    fn prices_respect_cap_and_floor() {
        let m = PriceModel::icdcs13().with_spikes(0.5, 500.0);
        let clock = SlotClock::icdcs13_month();
        let p = m.generate(&clock, 3).unwrap();
        for x in p.real_time.iter().chain(p.long_term.iter()) {
            assert!(x.dollars_per_mwh() >= 0.0);
            assert!(x.dollars_per_mwh() <= 100.0 + 1e-12);
        }
    }

    #[test]
    fn diurnal_shape_has_two_peaks_and_night_dip() {
        assert!(diurnal_shape(9.0) > diurnal_shape(3.0));
        assert!(diurnal_shape(19.0) > diurnal_shape(14.0));
        assert!(diurnal_shape(3.0) < 0.0, "night dips below the mean");
        assert!(diurnal_shape(19.0) > 0.4);
    }

    #[test]
    fn real_time_series_varies_over_the_day() {
        let m = PriceModel::icdcs13();
        let clock = SlotClock::icdcs13_month();
        let p = m.generate(&clock, 4).unwrap();
        let stats =
            crate::SeriesStats::from_values(p.real_time.iter().map(|x| x.dollars_per_mwh()));
        assert!(stats.coefficient_of_variation() > 0.08, "cv {}", stats.std);
    }

    #[test]
    fn rejects_bad_parameters() {
        let clock = SlotClock::icdcs13_month();
        assert!(PriceModel::icdcs13()
            .with_rt_markup(0.8)
            .generate(&clock, 0)
            .is_err());
        assert!(PriceModel::icdcs13()
            .with_spikes(1.5, 10.0)
            .generate(&clock, 0)
            .is_err());
        assert!(PriceModel::icdcs13()
            .with_cap(Price::from_dollars_per_mwh(-5.0))
            .generate(&clock, 0)
            .is_err());
        assert!(PriceModel::icdcs13()
            .with_noise(-0.1, 0.1)
            .generate(&clock, 0)
            .is_err());
        assert!(PriceModel::icdcs13()
            .with_base(Price::from_dollars_per_mwh(f64::INFINITY))
            .generate(&clock, 0)
            .is_err());
    }

    #[test]
    fn cap_accessor_reports_pmax() {
        assert_eq!(
            PriceModel::icdcs13().cap(),
            Price::from_dollars_per_mwh(100.0)
        );
    }
}

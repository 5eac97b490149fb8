use dpss_units::{Energy, Power, SlotClock};
use rand::{rngs::StdRng, SeedableRng};

use crate::hour::{hour_of_day, HourMemo};
use crate::randutil::{gaussian, subseed, Ar1};
use crate::TraceError;

/// Synthetic solar-farm production model.
///
/// Substitutes for the paper's MIDC meteorological traces (central U.S.,
/// January 2012): a deterministic diurnal irradiance bell between sunrise
/// and sunset, attenuated by an AR(1) cloud-cover process (persistent
/// weather within a day) and a per-day brightness factor (clear vs overcast
/// days). The result has the properties SmartDPSS exploits and suffers
/// from: zero production at night, a noon peak, and hour-ahead
/// unpredictability on the order of the 22.2% forecast error the paper
/// cites (§IV-A).
///
/// # Examples
///
/// ```
/// use dpss_traces::SolarModel;
/// use dpss_units::{Power, SlotClock};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::new(3, 24, 1.0)?;
/// let trace = SolarModel::icdcs13().generate(&clock, 1)?;
/// // Night slots produce nothing; midday slots produce something.
/// assert_eq!(trace[0].mwh(), 0.0);
/// assert!(trace[12].mwh() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolarModel {
    capacity: Power,
    sunrise_hour: f64,
    sunset_hour: f64,
    bell_sharpness: f64,
    cloud_persistence: f64,
    cloud_severity: f64,
    day_scale_std: f64,
}

impl SolarModel {
    /// Paper-like defaults: 2.5 MW nameplate farm, January daylight
    /// (sunrise 07:30, sunset 17:15), persistent clouds.
    #[must_use]
    pub fn icdcs13() -> Self {
        SolarModel {
            capacity: Power::from_mw(2.5),
            sunrise_hour: 7.5,
            sunset_hour: 17.25,
            bell_sharpness: 1.2,
            cloud_persistence: 0.85,
            cloud_severity: 0.55,
            day_scale_std: 0.35,
        }
    }

    /// Summer variant of [`SolarModel::icdcs13`]: June daylight (05:30 to
    /// 20:45), lighter clouds. Useful for seasonal studies beyond the
    /// paper's January month.
    #[must_use]
    pub fn summer() -> Self {
        SolarModel {
            sunrise_hour: 5.5,
            sunset_hour: 20.75,
            cloud_severity: 0.35,
            ..SolarModel::icdcs13()
        }
    }

    /// Sets the nameplate capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Power) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets sunrise/sunset hours (local time, `0.0..24.0`).
    #[must_use]
    pub fn with_daylight(mut self, sunrise_hour: f64, sunset_hour: f64) -> Self {
        self.sunrise_hour = sunrise_hour;
        self.sunset_hour = sunset_hour;
        self
    }

    /// Sets the AR(1) cloud process: `persistence ∈ [0, 1)` controls how
    /// slowly weather changes, `severity ≥ 0` how deep attenuation gets.
    #[must_use]
    pub fn with_clouds(mut self, persistence: f64, severity: f64) -> Self {
        self.cloud_persistence = persistence;
        self.cloud_severity = severity;
        self
    }

    /// Sets the log-scale standard deviation of the per-day brightness.
    #[must_use]
    pub fn with_day_variability(mut self, day_scale_std: f64) -> Self {
        self.day_scale_std = day_scale_std;
        self
    }

    /// Nameplate capacity.
    #[must_use]
    pub fn capacity(&self) -> Power {
        self.capacity
    }

    fn validate(&self) -> Result<(), TraceError> {
        if !(self.capacity.is_finite() && self.capacity.mw() >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "capacity",
                requirement: "must be finite and non-negative",
            });
        }
        if !(0.0..24.0).contains(&self.sunrise_hour)
            || !(0.0..=24.0).contains(&self.sunset_hour)
            || self.sunrise_hour >= self.sunset_hour
        {
            return Err(TraceError::InvalidParameter {
                what: "daylight hours",
                requirement: "must satisfy 0 <= sunrise < sunset <= 24",
            });
        }
        if !(0.0..1.0).contains(&self.cloud_persistence) {
            return Err(TraceError::InvalidParameter {
                what: "cloud_persistence",
                requirement: "must be in [0, 1)",
            });
        }
        if !(self.cloud_severity.is_finite() && self.cloud_severity >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "cloud_severity",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.day_scale_std.is_finite() && self.day_scale_std >= 0.0) {
            return Err(TraceError::InvalidParameter {
                what: "day_scale_std",
                requirement: "must be finite and non-negative",
            });
        }
        Ok(())
    }

    /// Generates per-fine-slot production for the whole calendar.
    ///
    /// Deterministic in `(self, clock, seed)`.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidParameter`] if the model is misconfigured.
    pub fn generate(&self, clock: &SlotClock, seed: u64) -> Result<Vec<Energy>, TraceError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(subseed(seed, 0x501A_0001));
        let mut clouds = Ar1::new(self.cloud_persistence, 1.0);
        let slot_h = clock.slot_hours();
        let mut irradiance = HourMemo::new();
        let mut out = Vec::with_capacity(clock.total_slots());
        let mut day_scale = 1.0;
        let mut current_day = usize::MAX;
        for id in clock.slots() {
            let hour_abs = id.index as f64 * slot_h;
            let day = (hour_abs / 24.0) as usize;
            if day != current_day {
                current_day = day;
                // Lognormal day factor with unit mean.
                let z = gaussian(&mut rng);
                let s = self.day_scale_std;
                day_scale = (s * z - 0.5 * s * s).exp().min(1.6);
            }
            let clear_sky =
                irradiance.get(hour_of_day(hour_abs), |hour| self.irradiance_fraction(hour));
            let cloud = 1.0 - self.cloud_severity * clouds.next(&mut rng).abs();
            let cloud = cloud.clamp(0.05, 1.0);
            let mw = self.capacity.mw() * clear_sky * cloud * day_scale;
            out.push(Power::from_mw(mw.max(0.0)).over_hours(slot_h));
        }
        Ok(out)
    }

    /// Clear-sky irradiance as a fraction of nameplate at local `hour`.
    fn irradiance_fraction(&self, hour: f64) -> f64 {
        if hour < self.sunrise_hour || hour > self.sunset_hour {
            return 0.0;
        }
        let span = self.sunset_hour - self.sunrise_hour;
        let phase = (hour - self.sunrise_hour) / span;
        (std::f64::consts::PI * phase)
            .sin()
            .powf(self.bell_sharpness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn month_clock() -> SlotClock {
        SlotClock::icdcs13_month()
    }

    #[test]
    fn deterministic_given_seed() {
        let m = SolarModel::icdcs13();
        let a = m.generate(&month_clock(), 9).unwrap();
        let b = m.generate(&month_clock(), 9).unwrap();
        assert_eq!(a, b);
        let c = m.generate(&month_clock(), 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn night_is_dark_noon_is_bright() {
        let m = SolarModel::icdcs13();
        let t = m.generate(&month_clock(), 3).unwrap();
        for day in 0..31 {
            let base = day * 24;
            // Midnight through 6am and 6pm through 11pm are dark in January.
            for h in (0..7).chain(18..24) {
                assert_eq!(t[base + h].mwh(), 0.0, "day {day} hour {h}");
            }
        }
        // Noon across the month is productive on average.
        let noon_mean: f64 = (0..31).map(|d| t[d * 24 + 12].mwh()).sum::<f64>() / 31.0;
        assert!(noon_mean > 0.2, "noon mean {noon_mean}");
    }

    #[test]
    fn production_bounded_by_scaled_capacity() {
        let m = SolarModel::icdcs13();
        let t = m.generate(&month_clock(), 4).unwrap();
        // Day factor is capped at 1.6 and cloud/irradiance at 1.
        let cap = 2.5 * 1.6 + 1e-12;
        for e in &t {
            assert!(e.mwh() >= 0.0 && e.mwh() <= cap);
        }
    }

    #[test]
    fn intermittency_is_substantial() {
        // The coefficient of variation over daylight hours must be large
        // enough to exercise the uncertainty handling (>15%).
        let m = SolarModel::icdcs13();
        let t = m.generate(&month_clock(), 5).unwrap();
        let daylight: Vec<f64> = t.iter().map(|e| e.mwh()).filter(|&x| x > 0.0).collect();
        let stats = crate::SeriesStats::from_values(daylight.iter().copied());
        assert!(
            stats.coefficient_of_variation() > 0.15,
            "cv {}",
            stats.coefficient_of_variation()
        );
    }

    #[test]
    fn zero_capacity_produces_nothing() {
        let m = SolarModel::icdcs13().with_capacity(Power::ZERO);
        let t = m.generate(&month_clock(), 6).unwrap();
        assert!(t.iter().all(|e| e.mwh() == 0.0));
    }

    #[test]
    fn rejects_bad_parameters() {
        let clock = month_clock();
        assert!(SolarModel::icdcs13()
            .with_daylight(18.0, 6.0)
            .generate(&clock, 0)
            .is_err());
        assert!(SolarModel::icdcs13()
            .with_clouds(1.0, 0.5)
            .generate(&clock, 0)
            .is_err());
        assert!(SolarModel::icdcs13()
            .with_clouds(0.5, -1.0)
            .generate(&clock, 0)
            .is_err());
        assert!(SolarModel::icdcs13()
            .with_capacity(Power::from_mw(-1.0))
            .generate(&clock, 0)
            .is_err());
        assert!(SolarModel::icdcs13()
            .with_day_variability(f64::NAN)
            .generate(&clock, 0)
            .is_err());
    }

    #[test]
    fn summer_outproduces_winter() {
        let total = |m: &SolarModel| -> f64 {
            m.generate(&month_clock(), 11)
                .unwrap()
                .iter()
                .map(|e| e.mwh())
                .sum()
        };
        let winter = total(&SolarModel::icdcs13());
        let summer = total(&SolarModel::summer());
        assert!(summer > 1.4 * winter, "summer {summer} vs winter {winter}");
    }

    #[test]
    fn respects_custom_daylight_window() {
        let m = SolarModel::icdcs13().with_daylight(5.0, 21.0);
        let t = m.generate(&SlotClock::new(2, 24, 1.0).unwrap(), 8).unwrap();
        // Hour 6 now falls inside daylight.
        assert!(t[6].mwh() + t[30].mwh() > 0.0);
    }

    #[test]
    fn quarter_hour_slots_integrate_consistently() {
        // With 15-minute slots, per-slot energy is roughly a quarter of the
        // hourly energy at the same hour of day (same deterministic bell).
        let hourly = SolarModel::icdcs13()
            .with_clouds(0.0, 0.0)
            .with_day_variability(0.0);
        let t1 = hourly
            .generate(&SlotClock::new(1, 24, 1.0).unwrap(), 0)
            .unwrap();
        let t4 = hourly
            .generate(&SlotClock::new(1, 96, 0.25).unwrap(), 0)
            .unwrap();
        let daily_1: f64 = t1.iter().map(|e| e.mwh()).sum();
        let daily_4: f64 = t4.iter().map(|e| e.mwh()).sum();
        assert!(
            (daily_1 - daily_4).abs() / daily_1 < 0.05,
            "{daily_1} vs {daily_4}"
        );
    }
}

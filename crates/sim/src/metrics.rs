use dpss_units::{Energy, Money, SlotId};
use serde::{Deserialize, Serialize};

/// Cost components of one fine slot — the paper's
/// `Cost(τ) = g_bef/T·p_lt + g_rt·p_rt + n(τ)·Cb + W(τ)` split out.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SlotCost {
    /// Long-term-ahead purchase cost `g_bef(t)/T · p_lt(t)`.
    pub long_term: Money,
    /// Real-time purchase cost `g_rt(τ) · p_rt(τ)` (includes emergency
    /// purchases made by the feasibility guard).
    pub real_time: Money,
    /// Battery wear `n(τ) · Cb`.
    pub battery: Money,
    /// Waste penalty `w_pen · W(τ)`.
    pub waste: Money,
}

impl SlotCost {
    /// Total cost of the slot.
    #[must_use]
    pub fn total(&self) -> Money {
        self.long_term + self.real_time + self.battery + self.waste
    }
}

/// Everything that physically happened in one fine slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// Which slot.
    pub slot: SlotId,
    /// Long-term energy delivered this slot (`g_bef(t)/T`).
    pub supply_lt: Energy,
    /// Real-time energy purchased (controller request plus emergency).
    pub purchase_rt: Energy,
    /// Portion of `purchase_rt` forced by the feasibility guard.
    pub emergency_rt: Energy,
    /// Renewable energy fed into the circuit (`r(τ)`, always all of it).
    pub renewable: Energy,
    /// Delay-sensitive demand served.
    pub served_ds: Energy,
    /// Delay-tolerant backlog served (`s_dt(τ)` realized).
    pub served_dt: Energy,
    /// Grid-side battery charge `brc(τ)`.
    pub charge: Energy,
    /// Load-side battery discharge `bdc(τ)`.
    pub discharge: Energy,
    /// Wasted (curtailed) energy `W(τ)`.
    pub waste: Energy,
    /// Delay-sensitive demand that could not be served even after the
    /// feasibility guard — an availability violation.
    pub unserved_ds: Energy,
    /// Battery level after the slot.
    pub battery_level_after: Energy,
    /// Queue backlog after the slot (post-arrival).
    pub queue_after: Energy,
    /// Whether the battery operated this slot (`n(τ)`).
    pub battery_op: bool,
    /// Cost breakdown.
    pub cost: SlotCost,
}

impl SlotOutcome {
    /// Total grid draw this slot (`g_bef/T + g_rt`), for peak audits.
    #[must_use]
    pub fn grid_draw(&self) -> Energy {
        self.supply_lt + self.purchase_rt
    }
}

/// One coarse frame's realized totals: everything a fleet reads from a
/// site between frames (its outlook and its exchange), so a fleet run
/// needs no slot history.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameTotals {
    /// Curtailed energy `Σ W(τ)`.
    pub waste: Energy,
    /// Real-time energy purchased (incl. emergency).
    pub energy_rt: Energy,
    /// Real-time purchase cost.
    pub cost_rt: Money,
    /// Grid draw `Σ (g_bef/T + g_rt)`.
    pub grid_draw: Energy,
}

impl FrameTotals {
    /// Totals before the frame's first slot. Each field starts at `-0.0`,
    /// the value `Iterator::sum` folds from, so adding the slots in order
    /// reproduces a sum over the frame's outcomes bit for bit.
    pub const EMPTY: FrameTotals = FrameTotals {
        waste: Energy::from_mwh(-0.0),
        energy_rt: Energy::from_mwh(-0.0),
        cost_rt: Money::from_dollars(-0.0),
        grid_draw: Energy::from_mwh(-0.0),
    };

    /// Adds one slot's outcome.
    pub fn add(&mut self, outcome: &SlotOutcome) {
        self.waste += outcome.waste;
        self.energy_rt += outcome.purchase_rt;
        self.cost_rt += outcome.cost.real_time;
        self.grid_draw += outcome.grid_draw();
    }

    /// The frame-average realized real-time price, $/MWh (zero when
    /// nothing was bought).
    #[must_use]
    pub fn rt_price(&self) -> f64 {
        average_price(self.energy_rt, self.cost_rt)
    }
}

/// `cost / energy` in $/MWh, or zero when no energy was bought.
pub(crate) fn average_price(energy: Energy, cost: Money) -> f64 {
    if energy > Energy::ZERO {
        cost.dollars() / energy.mwh()
    } else {
        0.0
    }
}

/// Aggregated result of one simulation run.
///
/// # Examples
///
/// ```no_run
/// # fn report() -> dpss_sim::RunReport { unimplemented!() }
/// let r = report();
/// println!("{}: ${:.2}/slot, delay {:.2} slots",
///          r.controller, r.time_average_cost().dollars(),
///          r.average_delay_slots);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the controller that produced this run.
    pub controller: String,
    /// Number of fine slots simulated.
    pub slots: usize,
    /// Long-term purchase cost total.
    pub cost_lt: Money,
    /// Real-time purchase cost total.
    pub cost_rt: Money,
    /// Battery wear cost total.
    pub cost_battery: Money,
    /// Waste penalty total.
    pub cost_waste: Money,
    /// Demand charge on the horizon's peak grid draw (zero unless
    /// [`SimParams::peak_charge_per_mw`](crate::SimParams) is set).
    pub cost_peak: Money,
    /// Energy bought long-term.
    pub energy_lt: Energy,
    /// Energy bought real-time (incl. emergency).
    pub energy_rt: Energy,
    /// Emergency portion of real-time purchases.
    pub energy_emergency: Energy,
    /// Renewable energy produced.
    pub energy_renewable: Energy,
    /// Energy wasted (curtailed).
    pub energy_wasted: Energy,
    /// Delay-sensitive demand served.
    pub served_ds: Energy,
    /// Delay-tolerant demand served.
    pub served_dt: Energy,
    /// Delay-sensitive demand unserved (availability violations).
    pub unserved_ds: Energy,
    /// Number of slots with an availability violation.
    pub availability_violations: usize,
    /// Energy-weighted mean service delay of delay-tolerant demand (slots).
    pub average_delay_slots: f64,
    /// Worst realized service delay (slots).
    pub max_delay_slots: usize,
    /// Age of the oldest still-queued energy at horizon end (slots).
    pub oldest_pending_age: Option<usize>,
    /// Backlog remaining at horizon end.
    pub final_backlog: Energy,
    /// Largest backlog observed.
    pub max_backlog: Energy,
    /// Battery operating slots (`Σ n(τ)`).
    pub battery_ops: u64,
    /// Lowest battery level observed.
    pub battery_min: Energy,
    /// Highest battery level observed.
    pub battery_max: Energy,
    /// Largest per-slot grid draw observed.
    pub peak_grid_draw: Energy,
    /// Per-slot outcomes, when recording was enabled.
    pub slot_outcomes: Option<Vec<SlotOutcome>>,
}

impl RunReport {
    /// Total operating cost over the horizon (including the peak demand
    /// charge if configured).
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.cost_lt + self.cost_rt + self.cost_battery + self.cost_waste + self.cost_peak
    }

    /// Time-average cost per fine slot — the paper's `Cost_av` objective
    /// (Eq. (10)).
    #[must_use]
    pub fn time_average_cost(&self) -> Money {
        if self.slots == 0 {
            Money::ZERO
        } else {
            self.total_cost() / self.slots as f64
        }
    }

    /// Delay-sensitive availability: the fraction of delay-sensitive
    /// energy that was actually served (the paper's motivation targets
    /// "more than six 9's" — this is the audit). `1.0` when there was no
    /// demand at all.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let demanded = self.served_ds + self.unserved_ds;
        if demanded <= Energy::ZERO {
            1.0
        } else {
            self.served_ds / demanded
        }
    }

    /// Fraction of served energy that came from renewables (diagnostic).
    #[must_use]
    pub fn renewable_share(&self) -> f64 {
        let served = self.served_ds + self.served_dt;
        if served <= Energy::ZERO {
            0.0
        } else {
            let used = self.energy_renewable - self.energy_wasted;
            (used.max(Energy::ZERO) / served).min(1.0)
        }
    }

    /// One-line human-readable summary (printed by `dpss run`).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{:<12} cost/slot ${:8.3} (lt {:7.2} rt {:7.2} bat {:6.2} waste {:6.2}) \
             delay avg {:6.2} max {:4} | unserved {:.4} MWh",
            self.controller,
            self.time_average_cost().dollars(),
            self.cost_lt.dollars(),
            self.cost_rt.dollars(),
            self.cost_battery.dollars(),
            self.cost_waste.dollars(),
            self.average_delay_slots,
            self.max_delay_slots,
            self.unserved_ds.mwh(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_report() -> RunReport {
        RunReport {
            controller: "test".into(),
            slots: 0,
            cost_lt: Money::ZERO,
            cost_rt: Money::ZERO,
            cost_battery: Money::ZERO,
            cost_waste: Money::ZERO,
            cost_peak: Money::ZERO,
            energy_lt: Energy::ZERO,
            energy_rt: Energy::ZERO,
            energy_emergency: Energy::ZERO,
            energy_renewable: Energy::ZERO,
            energy_wasted: Energy::ZERO,
            served_ds: Energy::ZERO,
            served_dt: Energy::ZERO,
            unserved_ds: Energy::ZERO,
            availability_violations: 0,
            average_delay_slots: 0.0,
            max_delay_slots: 0,
            oldest_pending_age: None,
            final_backlog: Energy::ZERO,
            max_backlog: Energy::ZERO,
            battery_ops: 0,
            battery_min: Energy::ZERO,
            battery_max: Energy::ZERO,
            peak_grid_draw: Energy::ZERO,
            slot_outcomes: None,
        }
    }

    #[test]
    fn slot_cost_totals() {
        let c = SlotCost {
            long_term: Money::from_dollars(1.0),
            real_time: Money::from_dollars(2.0),
            battery: Money::from_dollars(0.1),
            waste: Money::from_dollars(0.5),
        };
        assert!((c.total().dollars() - 3.6).abs() < 1e-12);
        assert_eq!(SlotCost::default().total(), Money::ZERO);
    }

    #[test]
    fn empty_report_time_average_is_zero() {
        let r = zero_report();
        assert_eq!(r.time_average_cost(), Money::ZERO);
        assert_eq!(r.renewable_share(), 0.0);
    }

    #[test]
    fn availability_audit() {
        let mut r = zero_report();
        assert_eq!(r.availability(), 1.0, "no demand is perfect availability");
        r.served_ds = Energy::from_mwh(999.0);
        r.unserved_ds = Energy::from_mwh(1.0);
        assert!((r.availability() - 0.999).abs() < 1e-12);
        r.unserved_ds = Energy::ZERO;
        assert_eq!(r.availability(), 1.0);
    }

    #[test]
    fn report_aggregation_math() {
        let mut r = zero_report();
        r.slots = 10;
        r.cost_lt = Money::from_dollars(30.0);
        r.cost_rt = Money::from_dollars(10.0);
        r.cost_battery = Money::from_dollars(1.0);
        r.cost_waste = Money::from_dollars(2.0);
        assert!((r.total_cost().dollars() - 43.0).abs() < 1e-12);
        assert!((r.time_average_cost().dollars() - 4.3).abs() < 1e-12);
        r.served_ds = Energy::from_mwh(8.0);
        r.served_dt = Energy::from_mwh(2.0);
        r.energy_renewable = Energy::from_mwh(4.0);
        r.energy_wasted = Energy::from_mwh(1.0);
        assert!((r.renewable_share() - 0.3).abs() < 1e-12);
        let s = r.summary();
        assert!(s.contains("test"));
    }
}

//! The request layer: per-site admission/queue model and the fleet
//! workload ledger the routed dispatch loop settles against.
//!
//! SmartDPSS treats demand as exogenous; this module makes part of it
//! *dispatchable*. Each site receives a request-arrival stream (the
//! `arrivals` series of its trace set, in IT energy per fine slot),
//! split per coarse frame into an *interactive* share — latency-bound,
//! served on arrival at the site's frame-mean real-time price — and a
//! *deferrable* share that enters a bounded-age queue. Deferrable work
//! can be:
//!
//! * **absorbed** — served with energy the site curtailed this frame
//!   (free: the energy was already paid for and would otherwise be
//!   wasted);
//! * **migrated** — moved over an open interconnect link (bounded by the
//!   per-link migration cap) and absorbed by the *host*'s curtailment in
//!   the same frame;
//! * **served at spot** — billed at the site's frame-mean real-time
//!   price; or
//! * **deferred** — left in the queue for a cheaper frame, never past
//!   its due frame.
//!
//! Deferral uses the prospective rule: leftover deferrable work is
//! served now unless a strictly cheaper frame-mean price exists within
//! its remaining life (the planner sees the frame-mean price series, the
//! deterministic stand-in for the paper's price forecast). Work due this
//! frame is always served, so the queue-age bound holds by construction,
//! and every deferrable unit settles at a price no higher than its
//! arrival frame's — which makes co-optimized routing structurally no
//! more expensive than serving on arrival ([`FleetWorkload::
//! serve_on_arrival`], the `--routing off` baseline). The load
//! conservation suite pins all of this.

// `FleetWorkload::new` validates that every per-site series shares one
// frame count and that the arrival/spot/queue rosters are congruent; the
// cursor assertions in `frame_load`/`settle` keep `frame` inside that
// horizon, and all site loops run over `0..site_count()`.
// audit:allow-file(slice-index): rosters are congruent by construction and frames bounded by the cursor assertions

use std::fmt;

use dpss_units::{Energy, Money};

use crate::{
    FleetDispatcher, FrameDirective, FrameExchange, FrameOutlook, FrameSettlement, Interconnect,
    SimError,
};

/// Whether the fleet loop co-optimizes workload flows alongside energy
/// flows ([`MultiSiteEngine::run_routed`](crate::MultiSiteEngine::run_routed))
/// or leaves the request layer untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Requests are served on arrival at each site; the engine behaves
    /// byte-for-byte like the pre-routing code paths.
    Off,
    /// The dispatcher plans absorption and migration flows each frame,
    /// and deferrable work may wait (within its age bound) for cheaper
    /// frames.
    CoOptimized,
}

impl RoutingMode {
    /// The closed roster of mode names, in declaration order.
    pub const NAMES: [&'static str; 2] = ["off", "co-optimized"];

    /// Parses a mode name from the closed roster.
    ///
    /// # Errors
    ///
    /// A usage-style message naming the roster, for CLI surfaces.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "off" => Ok(RoutingMode::Off),
            "co-optimized" => Ok(RoutingMode::CoOptimized),
            other => Err(format!(
                "unknown routing mode: {other} (expected {})",
                Self::NAMES.join("|")
            )),
        }
    }
}

impl fmt::Display for RoutingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RoutingMode::Off => "off",
            RoutingMode::CoOptimized => "co-optimized",
        })
    }
}

/// Parameters of the per-site admission/queue model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Share of each frame's arrivals that is latency-bound and must be
    /// served on arrival, in `[0, 1]`.
    pub interactive_fraction: f64,
    /// Maximum coarse frames a deferrable request may wait before it is
    /// force-served (the queue-age bound `A`).
    pub max_queue_age: usize,
}

impl RoutingConfig {
    /// Per-open-link, per-frame cap on migrated work (IT energy): each
    /// link moves at most 1 MWh of work per frame.
    pub const MIGRATION_CAP: Energy = Energy::from_mwh(1.0);

    /// Defaults sized against the paper's site: a little over half the
    /// arrivals are interactive, and deferrable work may wait two coarse
    /// frames (two days on the paper calendar).
    #[must_use]
    pub fn icdcs13() -> Self {
        RoutingConfig {
            interactive_fraction: 0.55,
            max_queue_age: 2,
        }
    }

    /// Sets the interactive share.
    #[must_use]
    pub fn with_interactive_fraction(mut self, fraction: f64) -> Self {
        self.interactive_fraction = fraction;
        self
    }

    /// Sets the queue-age bound in coarse frames.
    #[must_use]
    pub fn with_max_queue_age(mut self, frames: usize) -> Self {
        self.max_queue_age = frames;
        self
    }

    /// Validates the documented ranges.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.interactive_fraction.is_finite()
            && (0.0..=1.0).contains(&self.interactive_fraction))
        {
            return Err(SimError::InvalidParameter {
                what: "interactive_fraction",
                requirement: "must be within [0, 1]",
            });
        }
        Ok(())
    }
}

/// One planned workload flow: `amount` of site `from`'s queued work
/// served by site `to`'s curtailed energy this frame. `from == to` is
/// local absorption; `from != to` is migration over the interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadFlow {
    /// Donor site (whose queue shrinks).
    pub from: usize,
    /// Host site (whose curtailment serves the work).
    pub to: usize,
    /// Work moved, in IT energy.
    pub amount: Energy,
}

/// A dispatcher's workload plan for one coarse frame: absorption and
/// migration flows. The default (empty) plan absorbs nothing — the
/// deferral rule still applies, so an empty plan is *not* the `off`
/// baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadPlan {
    /// Planned flows. [`FleetWorkload::settle`] clamps every flow
    /// against donor availability, the per-link migration cap, link
    /// openness and the host's gross curtailment, in roster order — a
    /// plan can therefore never create or destroy work, only route it.
    pub absorb: Vec<LoadFlow>,
}

/// The workload side of one coarse frame, as the routed dispatcher sees
/// it before planning: per-site deferrable availability and prices, in
/// site-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadFrame {
    /// The coarse frame about to settle.
    pub frame: usize,
    /// Deferrable work available to absorb or migrate per site (queued
    /// backlog plus this frame's deferrable arrivals).
    pub available: Vec<Energy>,
    /// The share of `available` that is due this frame (will be served
    /// unconditionally if not absorbed).
    pub due: Vec<Energy>,
    /// Frame-mean real-time price per site, $/MWh — what unabsorbed work
    /// is billed at.
    pub spot: Vec<f64>,
}

/// Per-frame workload accounting, fleet-aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadFrameRecord {
    /// The coarse frame.
    pub frame: usize,
    /// Work that arrived this frame (interactive + deferrable).
    pub arrived: Energy,
    /// Work served at spot prices this frame (interactive, due, and
    /// deferrable the deferral rule released).
    pub served_spot: Energy,
    /// Work served by local curtailment (self flows).
    pub absorbed: Energy,
    /// Work migrated to and absorbed at another site.
    pub migrated: Energy,
    /// Queued work remaining at frame end.
    pub backlog: Energy,
    /// Workload bill for the frame.
    pub cost: Money,
}

/// End-of-run workload totals. The default value (all zeros) is what
/// every non-routed run reports — the request layer inert.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadTotals {
    /// Total work that arrived over the horizon.
    pub arrived: Energy,
    /// Total work served at spot prices.
    pub served_spot: Energy,
    /// Total work served by local curtailment.
    pub absorbed: Energy,
    /// Total work migrated cross-site and absorbed at its host.
    pub migrated: Energy,
    /// Queued work left at the end of the horizon (zero by construction:
    /// deferrable life never extends past the last frame).
    pub final_backlog: Energy,
    /// Longest realized wait of any served work, in coarse frames.
    pub max_wait_frames: usize,
    /// MWh·frames of realized wait summed over all queue-served work —
    /// the numerator of [`mean_wait_frames`](Self::mean_wait_frames).
    pub wait_frames_mwh: f64,
    /// Total MWh drained from the deferrable queues (absorbed, migrated
    /// or released to spot) — the matching denominator.
    pub queue_served_mwh: f64,
    /// Total workload bill.
    pub cost: Money,
    /// Per-frame accounting, in frame order.
    pub frames: Vec<LoadFrameRecord>,
}

impl LoadTotals {
    /// Whether the request layer did anything at all (false for every
    /// non-routed run).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self == &LoadTotals::default()
    }

    /// MWh-weighted mean queueing delay of deferrable work, in coarse
    /// frames (zero when nothing was queued — e.g. serve-on-arrival).
    #[must_use]
    pub fn mean_wait_frames(&self) -> f64 {
        if self.queue_served_mwh > 0.0 {
            self.wait_frames_mwh / self.queue_served_mwh
        } else {
            0.0
        }
    }
}

/// A fleet dispatch policy that co-optimizes workload flows alongside
/// energy flows: [`direct`](Self::direct) and the energy half of
/// [`settle_routed`](Self::settle_routed) mirror [`FleetDispatcher`];
/// the workload half returns a [`LoadPlan`] over the same frame.
///
/// Both methods must be deterministic functions of the dispatcher's own
/// history and their arguments — the routed determinism suite holds
/// implementations to that.
pub trait RoutedDispatcher {
    /// The topology this dispatcher plans over (`None` opts out of
    /// validation), mirroring [`FleetDispatcher::topology`].
    fn topology(&self) -> Option<&Interconnect> {
        None
    }

    /// Plans energy directives for the coming frame, mirroring
    /// [`FleetDispatcher::direct`].
    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        let _ = outlook;
        Vec::new()
    }

    /// Settles one realized frame: the energy settlement over `ex` plus
    /// the workload plan over `load`.
    fn settle_routed(
        &mut self,
        ex: &FrameExchange,
        load: &LoadFrame,
    ) -> (FrameSettlement, LoadPlan);
}

/// Queued deferrable work that arrived together and falls due together.
#[derive(Debug, Clone, Copy)]
struct Cohort {
    /// Frame the work must be served by.
    due: usize,
    /// Frame the work arrived.
    arrived: usize,
    amount: Energy,
}

/// The fleet's workload ledger: per-site bounded-age queues stepped one
/// coarse frame at a time, in lockstep with the routed dispatch loop.
///
/// All quantities are aggregated per coarse frame (arrivals are summed
/// over the frame's fine slots; billing uses the frame-mean real-time
/// price), matching the frame granularity at which the fleet dispatcher
/// plans.
#[derive(Debug, Clone)]
pub struct FleetWorkload {
    config: RoutingConfig,
    frames: usize,
    /// `[site][frame]` arrival totals.
    arrivals: Vec<Vec<Energy>>,
    /// `[site][frame]` frame-mean real-time price, $/MWh.
    spot: Vec<Vec<f64>>,
    queues: Vec<Vec<Cohort>>,
    totals: LoadTotals,
    /// Next frame to admit (`frame_load`) / settle (`settle`); the two
    /// must alternate.
    cursor: usize,
    admitted: bool,
}

impl FleetWorkload {
    /// Builds the ledger from per-site, per-frame arrival totals and
    /// frame-mean spot prices.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if the rosters are empty or a site's
    /// series disagree on frame count; propagates
    /// [`RoutingConfig::validate`] errors.
    pub fn new(
        config: RoutingConfig,
        arrivals: Vec<Vec<Energy>>,
        spot: Vec<Vec<f64>>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let first = arrivals.first().ok_or(SimError::SiteMismatch {
            site: 0,
            what: "workload needs at least one site",
        })?;
        let frames = first.len();
        if spot.len() != arrivals.len() {
            return Err(SimError::SiteMismatch {
                site: spot.len(),
                what: "spot-price roster length differs from arrival roster",
            });
        }
        for (i, (a, s)) in arrivals.iter().zip(&spot).enumerate() {
            if a.len() != frames || s.len() != frames {
                return Err(SimError::SiteMismatch {
                    site: i,
                    what: "workload series disagree on frame count",
                });
            }
        }
        let sites = arrivals.len();
        Ok(FleetWorkload {
            config,
            frames,
            arrivals,
            spot,
            queues: vec![Vec::new(); sites],
            totals: LoadTotals::default(),
            cursor: 0,
            admitted: false,
        })
    }

    /// Number of sites in the roster.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.arrivals.len()
    }

    /// Admits frame `frame`'s arrivals (interactive served immediately,
    /// deferrable queued with a horizon-capped life) and returns the
    /// workload view the dispatcher plans from.
    ///
    /// # Panics
    ///
    /// Panics if frames are admitted out of order or admitted twice
    /// without settling.
    pub fn frame_load(&mut self, frame: usize) -> LoadFrame {
        assert_eq!(frame, self.cursor, "frames must be admitted in order");
        assert!(!self.admitted, "frame {frame} admitted twice");
        self.admitted = true;
        let f = self.config.interactive_fraction;
        let sites = self.site_count();
        let mut record = LoadFrameRecord {
            frame,
            ..LoadFrameRecord::default()
        };
        let mut available = Vec::with_capacity(sites);
        let mut due = Vec::with_capacity(sites);
        let mut spot = Vec::with_capacity(sites);
        for i in 0..sites {
            let arrived = self.arrivals[i][frame];
            let price = self.spot[i][frame];
            record.arrived += arrived;
            let interactive = arrived * f;
            let deferrable = arrived - interactive;
            // Interactive work is latency-bound: served on arrival at
            // the frame-mean spot price, exactly as in the off baseline.
            record.served_spot += interactive;
            record.cost += dpss_units::Price::from_dollars_per_mwh(price) * interactive;
            if deferrable > Energy::ZERO {
                // Life is capped by both the age bound and the horizon:
                // nothing is ever due past the last frame, so the run
                // always ends with an empty queue.
                let life = self
                    .config
                    .max_queue_age
                    .min(self.frames.saturating_sub(1).saturating_sub(frame));
                self.queues[i].push(Cohort {
                    due: frame + life,
                    arrived: frame,
                    amount: deferrable,
                });
            }
            let avail: Energy = self.queues[i].iter().map(|c| c.amount).sum();
            let due_now: Energy = self.queues[i]
                .iter()
                .filter(|c| c.due <= frame)
                .map(|c| c.amount)
                .sum();
            available.push(avail);
            due.push(due_now);
            spot.push(price);
        }
        // Totals accumulate once, at settle time, from the final record.
        self.totals.frames.push(record);
        LoadFrame {
            frame,
            available,
            due,
            spot,
        }
    }

    /// Settles frame `frame`: applies the dispatcher's (clamped) plan,
    /// force-serves due work, runs the deferral rule on the leftover and
    /// ages the queues.
    ///
    /// Clamping makes any plan safe: flows are applied in roster order,
    /// each clamped to the donor's remaining queue, the per-link
    /// migration cap, link openness on `ic` (cross-site flows over
    /// closed links move nothing) and the host's remaining gross
    /// curtailment from `ex`.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not admitted via
    /// [`frame_load`](Self::frame_load) first, or if `ex` covers a
    /// different roster.
    pub fn settle(&mut self, frame: usize, ex: &FrameExchange, plan: &LoadPlan, ic: &Interconnect) {
        assert_eq!(frame, self.cursor, "frames must settle in order");
        assert!(self.admitted, "settle before frame_load");
        let sites = self.site_count();
        assert_eq!(ex.curtailed.len(), sites, "exchange roster mismatch");
        self.admitted = false;
        self.cursor += 1;

        // audit:allow(slice-index): record pushed by the paired frame_load above
        let mut record = self.totals.frames[frame];
        let mut host_budget: Vec<Energy> = ex.curtailed.clone();
        let mut link_budget: Vec<Energy> = vec![RoutingConfig::MIGRATION_CAP; sites * sites];
        let mut waits = WaitStats {
            max_wait: self.totals.max_wait_frames,
            wait_frames_mwh: 0.0,
            drained_mwh: 0.0,
        };

        // 1. Planned absorption/migration, in plan order (the dispatcher
        //    emits flows in a deterministic roster order).
        for flow in &plan.absorb {
            let (i, j) = (flow.from, flow.to);
            if i >= sites || j >= sites || flow.amount <= Energy::ZERO {
                continue;
            }
            let mut amount = flow.amount;
            if i != j {
                // Migration needs an open link and cap headroom.
                if ic.cap(i, j) <= Energy::ZERO {
                    continue;
                }
                // audit:allow(slice-index): i, j < sites checked above
                let budget = &mut link_budget[i * sites + j];
                amount = amount.min(*budget);
                *budget -= amount;
            }
            // audit:allow(slice-index): j < sites checked above
            amount = amount.min(host_budget[j]);
            let taken = drain_queue(&mut self.queues[i], amount, frame, &mut waits);
            host_budget[j] -= taken;
            if i == j {
                record.absorbed += taken;
            } else {
                record.migrated += taken;
            }
        }

        // 2. Force-serve due work, then release deferrable leftover when
        //    no strictly cheaper frame exists within its remaining life.
        for i in 0..sites {
            let price = self.spot[i][frame];
            let due: Energy = self.queues[i]
                .iter()
                .filter(|c| c.due <= frame)
                .map(|c| c.amount)
                .sum();
            let mut serve = drain_queue(&mut self.queues[i], due, frame, &mut waits);
            let release: Energy = self.queues[i]
                .iter()
                .filter(|c| {
                    // audit:allow(slice-index): cohort due frames never exceed the horizon by construction
                    !(frame + 1..=c.due).any(|k| self.spot[i][k] < price)
                })
                .map(|c| c.amount)
                .sum();
            serve += drain_queue(&mut self.queues[i], release, frame, &mut waits);
            record.served_spot += serve;
            record.cost += dpss_units::Price::from_dollars_per_mwh(price) * serve;
        }

        record.backlog = self.queues.iter().flatten().map(|c| c.amount).sum();
        // audit:allow(slice-index): record pushed by the paired frame_load above
        self.totals.frames[frame] = record;
        self.totals.arrived += record.arrived;
        self.totals.served_spot += record.served_spot;
        self.totals.absorbed += record.absorbed;
        self.totals.migrated += record.migrated;
        self.totals.cost += record.cost;
        self.totals.max_wait_frames = waits.max_wait;
        self.totals.wait_frames_mwh += waits.wait_frames_mwh;
        self.totals.queue_served_mwh += waits.drained_mwh;
    }

    /// Finishes the run and returns the totals.
    ///
    /// # Panics
    ///
    /// Panics if not every frame was settled.
    #[must_use]
    pub fn finish(mut self) -> LoadTotals {
        assert_eq!(self.cursor, self.frames, "not every frame settled");
        self.totals.final_backlog = self.queues.iter().flatten().map(|c| c.amount).sum();
        self.totals
    }

    /// The `--routing off` baseline over the same inputs: every arrival
    /// served on its arrival frame at that frame's mean spot price. A
    /// pure function of the input series — no queueing, no planning.
    #[must_use]
    pub fn serve_on_arrival(&self) -> LoadTotals {
        let mut totals = LoadTotals::default();
        for frame in 0..self.frames {
            let mut record = LoadFrameRecord {
                frame,
                ..LoadFrameRecord::default()
            };
            for i in 0..self.site_count() {
                let arrived = self.arrivals[i][frame];
                record.arrived += arrived;
                record.served_spot += arrived;
                record.cost +=
                    dpss_units::Price::from_dollars_per_mwh(self.spot[i][frame]) * arrived;
            }
            totals.arrived += record.arrived;
            totals.served_spot += record.served_spot;
            totals.cost += record.cost;
            totals.frames.push(record);
        }
        totals
    }
}

/// Realized-wait accounting folded out of [`drain_queue`]: the running
/// maximum plus the MWh-weighted wait mass and drained volume behind
/// [`LoadTotals::mean_wait_frames`].
struct WaitStats {
    max_wait: usize,
    wait_frames_mwh: f64,
    drained_mwh: f64,
}

/// Removes up to `amount` of work from `queue`, oldest due-date first
/// (ties broken by arrival order — the push order, which is frame
/// order). Returns what was actually taken and folds realized waits
/// into `waits`.
fn drain_queue(
    queue: &mut Vec<Cohort>,
    amount: Energy,
    frame: usize,
    waits: &mut WaitStats,
) -> Energy {
    if amount <= Energy::ZERO {
        return Energy::ZERO;
    }
    queue.sort_by_key(|c| (c.due, c.arrived));
    let mut left = amount;
    let mut taken = Energy::ZERO;
    for c in queue.iter_mut() {
        if left <= Energy::ZERO {
            break;
        }
        let take = c.amount.min(left);
        if take > Energy::ZERO {
            c.amount -= take;
            left -= take;
            taken += take;
            let waited = frame.saturating_sub(c.arrived);
            waits.max_wait = waits.max_wait.max(waited);
            // Coarse-frame counts stay tiny (a month is ~31), so the
            // integer→float conversion is exact.
            let frames = waited as f64;
            waits.wait_frames_mwh += (take * frames).mwh();
            waits.drained_mwh += take.mwh();
        }
    }
    queue.retain(|c| c.amount > Energy::ZERO);
    taken
}

/// Adapter: any [`FleetDispatcher`] runs in the routed loop with an
/// empty workload plan (no absorption or migration; the deferral rule
/// still applies). Useful for plumbing tests — production co-optimizers
/// implement [`RoutedDispatcher`] directly.
#[derive(Debug)]
pub struct UnroutedDispatcher<D>(pub D);

impl<D: FleetDispatcher> RoutedDispatcher for UnroutedDispatcher<D> {
    fn topology(&self) -> Option<&Interconnect> {
        self.0.topology()
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        self.0.direct(outlook)
    }

    fn settle_routed(
        &mut self,
        ex: &FrameExchange,
        _load: &LoadFrame,
    ) -> (FrameSettlement, LoadPlan) {
        (self.0.settle(ex), LoadPlan::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_workload(sites: usize, frames: usize, arrive: f64, price: f64) -> FleetWorkload {
        FleetWorkload::new(
            RoutingConfig::icdcs13(),
            vec![vec![Energy::from_mwh(arrive); frames]; sites],
            vec![vec![price; frames]; sites],
        )
        .unwrap()
    }

    fn silent_exchange(frame: usize, sites: usize) -> FrameExchange {
        FrameExchange {
            frame,
            curtailed: vec![Energy::ZERO; sites],
            rt_energy: vec![Energy::ZERO; sites],
            rt_price: vec![0.0; sites],
        }
    }

    #[test]
    fn routing_mode_parses_the_closed_roster() {
        for name in RoutingMode::NAMES {
            let mode = RoutingMode::parse(name).unwrap();
            assert_eq!(mode.to_string(), name);
        }
        let err = RoutingMode::parse("bogus").unwrap_err();
        assert_eq!(
            err,
            "unknown routing mode: bogus (expected off|co-optimized)"
        );
    }

    #[test]
    fn config_validates_ranges() {
        assert!(RoutingConfig::icdcs13().validate().is_ok());
        assert!(RoutingConfig::icdcs13()
            .with_interactive_fraction(1.5)
            .validate()
            .is_err());
        assert!(RoutingConfig::icdcs13()
            .with_interactive_fraction(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn conservation_holds_with_empty_plans() {
        let mut w = flat_workload(2, 4, 1.0, 50.0);
        let ic = Interconnect::decoupled(2).unwrap();
        for frame in 0..4 {
            let load = w.frame_load(frame);
            assert_eq!(load.available.len(), 2);
            w.settle(frame, &silent_exchange(frame, 2), &LoadPlan::default(), &ic);
        }
        let t = w.finish();
        assert_eq!(t.arrived, Energy::from_mwh(8.0));
        // Flat prices: the deferral rule finds no cheaper future frame,
        // so everything is served on arrival.
        assert!((t.served_spot - t.arrived).mwh().abs() < 1e-12);
        assert_eq!(t.absorbed, Energy::ZERO);
        assert_eq!(t.migrated, Energy::ZERO);
        assert_eq!(t.final_backlog, Energy::ZERO);
        // Per-frame conservation: arrived + prior backlog = settled + backlog.
        let mut prev = Energy::ZERO;
        for r in &t.frames {
            let lhs = r.arrived + prev;
            let rhs = r.served_spot + r.absorbed + r.migrated + r.backlog;
            assert!((lhs - rhs).mwh().abs() < 1e-12, "frame {}", r.frame);
            prev = r.backlog;
        }
    }

    #[test]
    fn deferral_waits_for_the_cheapest_frame_within_life() {
        // Prices fall for two frames then recover; age bound 2 lets the
        // deferrable share ride to the trough at frame 2, never further.
        let w0 = FleetWorkload::new(
            RoutingConfig::icdcs13().with_interactive_fraction(0.0),
            vec![vec![
                Energy::from_mwh(1.0),
                Energy::ZERO,
                Energy::ZERO,
                Energy::ZERO,
            ]],
            vec![vec![90.0, 50.0, 10.0, 70.0]],
        )
        .unwrap();
        let ic = Interconnect::decoupled(1).unwrap();
        let mut w = w0.clone();
        for frame in 0..4 {
            let _ = w.frame_load(frame);
            w.settle(frame, &silent_exchange(frame, 1), &LoadPlan::default(), &ic);
        }
        let t = w.finish();
        assert_eq!(t.arrived, Energy::from_mwh(1.0));
        assert!((t.served_spot.mwh() - 1.0).abs() < 1e-12);
        // Served at the trough: $10 for 1 MWh.
        assert!((t.cost.dollars() - 10.0).abs() < 1e-9, "{}", t.cost);
        assert_eq!(t.max_wait_frames, 2);
        // And cheaper than the serve-on-arrival baseline, structurally.
        assert!(t.cost < w0.serve_on_arrival().cost);
    }

    #[test]
    fn due_work_is_always_served_within_the_age_bound() {
        // Monotonically falling prices tempt infinite deferral; the age
        // bound forces service by frame `arrival + 2`.
        let mut w = FleetWorkload::new(
            RoutingConfig::icdcs13().with_interactive_fraction(0.0),
            vec![vec![Energy::from_mwh(1.0); 6]],
            vec![vec![100.0, 90.0, 80.0, 70.0, 60.0, 50.0]],
        )
        .unwrap();
        let ic = Interconnect::decoupled(1).unwrap();
        for frame in 0..6 {
            let _ = w.frame_load(frame);
            w.settle(frame, &silent_exchange(frame, 1), &LoadPlan::default(), &ic);
        }
        let t = w.finish();
        assert!(t.max_wait_frames <= 2);
        assert_eq!(t.final_backlog, Energy::ZERO);
        assert!((t.served_spot - t.arrived).mwh().abs() < 1e-12);
    }

    #[test]
    fn absorption_is_free_and_clamped_to_curtailment() {
        let mut w = FleetWorkload::new(
            RoutingConfig::icdcs13().with_interactive_fraction(0.0),
            vec![vec![Energy::from_mwh(2.0), Energy::ZERO]],
            vec![vec![50.0, 50.0]],
        )
        .unwrap();
        let ic = Interconnect::decoupled(1).unwrap();
        let _ = w.frame_load(0);
        // Plan asks for 5 MWh of absorption; only 1.5 MWh was curtailed.
        let ex = FrameExchange {
            frame: 0,
            curtailed: vec![Energy::from_mwh(1.5)],
            rt_energy: vec![Energy::ZERO],
            rt_price: vec![0.0],
        };
        let plan = LoadPlan {
            absorb: vec![LoadFlow {
                from: 0,
                to: 0,
                amount: Energy::from_mwh(5.0),
            }],
        };
        w.settle(0, &ex, &plan, &ic);
        let _ = w.frame_load(1);
        w.settle(1, &silent_exchange(1, 1), &LoadPlan::default(), &ic);
        let t = w.finish();
        assert!((t.absorbed.mwh() - 1.5).abs() < 1e-12);
        // The remaining 0.5 MWh was billed at $50 (flat prices: no defer).
        assert!((t.cost.dollars() - 0.5 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn migration_requires_an_open_link_and_respects_the_cap() {
        let arrivals = vec![
            vec![Energy::from_mwh(3.0), Energy::ZERO],
            vec![Energy::ZERO, Energy::ZERO],
        ];
        let spot = vec![vec![50.0, 50.0]; 2];
        let cfg = RoutingConfig::icdcs13().with_interactive_fraction(0.0);
        let plan = LoadPlan {
            absorb: vec![LoadFlow {
                from: 0,
                to: 1,
                amount: Energy::from_mwh(3.0),
            }],
        };
        let ex = FrameExchange {
            frame: 0,
            curtailed: vec![Energy::ZERO, Energy::from_mwh(5.0)],
            rt_energy: vec![Energy::ZERO; 2],
            rt_price: vec![0.0; 2],
        };
        let run = |ic: &Interconnect| -> LoadTotals {
            let mut w = FleetWorkload::new(cfg, arrivals.clone(), spot.clone()).unwrap();
            let _ = w.frame_load(0);
            w.settle(0, &ex, &plan, ic);
            let _ = w.frame_load(1);
            w.settle(1, &silent_exchange(1, 2), &LoadPlan::default(), ic);
            w.finish()
        };
        // Open mesh: migration happens, clamped to the 1 MWh link cap.
        let open = run(&Interconnect::uniform(2, Energy::from_mwh(9.0)).unwrap());
        assert!((open.migrated.mwh() - 1.0).abs() < 1e-12);
        // Decoupled topology: the same plan moves nothing.
        let closed = run(&Interconnect::decoupled(2).unwrap());
        assert_eq!(closed.migrated, Energy::ZERO);
        assert!(closed.cost > open.cost);
    }

    #[test]
    fn totals_default_is_inert() {
        assert!(LoadTotals::default().is_inert());
        let t = LoadTotals {
            arrived: Energy::from_mwh(1.0),
            ..LoadTotals::default()
        };
        assert!(!t.is_inert());
    }

    #[test]
    fn rejects_misshapen_rosters() {
        assert!(FleetWorkload::new(RoutingConfig::icdcs13(), Vec::new(), Vec::new()).is_err());
        assert!(FleetWorkload::new(
            RoutingConfig::icdcs13(),
            vec![vec![Energy::ZERO; 3]],
            vec![vec![0.0; 2]],
        )
        .is_err());
        assert!(FleetWorkload::new(
            RoutingConfig::icdcs13(),
            vec![vec![Energy::ZERO; 3]],
            vec![vec![0.0; 3], vec![0.0; 3]],
        )
        .is_err());
    }
}

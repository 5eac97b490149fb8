//! Frame-synchronous fleet dispatch: the types that close the loop from
//! interconnect planning back to site control.
//!
//! The post-hoc and planned settlement modes only *settle* — they route
//! realized curtailment after every site has already dispatched, so the
//! plan never changes what a site does. Coordinated dispatch runs the
//! fleet in lockstep over coarse frames
//! ([`MultiSiteEngine::run_with`](crate::MultiSiteEngine::run_with)):
//! between frames a [`FleetDispatcher`] sees the fleet's
//! [`FrameOutlook`] (forecast curtailment, forecast real-time need and
//! price, procurable grid slack, battery headroom — all causal, built
//! from the previous frame's realization and the current battery state)
//! and hands every site a [`FrameDirective`] before its controller
//! commits the frame's long-term purchase. A directive can tell a site
//! to *buy-to-export*: procure extra energy at its local long-term
//! price because a neighbour's delivered real-time price (after line
//! loss and wheeling) exceeds that cost.
//!
//! The trait is deliberately settlement-shaped so `dpss-core`'s
//! `FleetPlanner` can implement all three modes: [`Interconnect`]
//! implements it too (greedy settlement, no directives), which is what
//! [`MultiSiteEngine::run`](crate::MultiSiteEngine::run) uses.

use dpss_units::{Energy, Price};
use serde::{Deserialize, Serialize};

use crate::{FrameExchange, FrameSettlement, Interconnect};

/// What a fleet dispatcher tells one site before a coarse frame runs.
///
/// All quantities are totals over the coming frame. A default directive
/// is inert: controllers that receive it behave exactly as if no
/// directive had arrived.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameDirective {
    /// Which coarse frame the directive covers. Controllers must ignore
    /// a directive whose frame does not match the observation they are
    /// planning.
    pub frame: usize,
    /// Extra energy the site should procure beyond its own needs,
    /// destined for export (the *buy-to-export* order). Includes the
    /// battery top-off: the plant charges surplus before curtailing it,
    /// so the planner adds the current headroom to keep the planned
    /// waste — and hence the export — intact.
    pub procure_for_export: Energy,
    /// Total energy the dispatch plan expects this site to send this
    /// frame (its export quota, before line losses).
    pub export_quota: Energy,
    /// Delivered energy the plan expects to arrive from neighbours
    /// (after line losses) — the import expectation.
    pub import_expectation: Energy,
    /// Effective marginal value of this site's best planned export
    /// route, in $/MWh *sent*: the recipient's forecast real-time price
    /// after loss and wheeling (`p̂_rt·(1−loss) − wheel`). Zero when the
    /// plan routes nothing from this site. Controllers compare it to
    /// their local procurement cost before acting.
    pub export_value: f64,
}

impl FrameDirective {
    /// An inert directive for `frame` (nothing to procure, no exports or
    /// imports planned).
    #[must_use]
    pub fn inert(frame: usize) -> Self {
        FrameDirective {
            frame,
            ..FrameDirective::default()
        }
    }

    /// Whether the directive asks for anything at all.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.procure_for_export <= Energy::ZERO
            && self.export_quota <= Energy::ZERO
            && self.import_expectation <= Energy::ZERO
    }

    /// The buy-to-export top-off a controller should add to the frame's
    /// long-term purchase, after re-checking the directive's economics
    /// against the market's *actual* quote: the directed procure amount
    /// when the directive covers `frame` and its delivered export value
    /// beats the site's current procurement cost (observed long-term
    /// price plus waste penalty), zero otherwise. The planner worked
    /// from a forecast; this one gate is the shared safety check every
    /// directive-consuming controller applies before committing money.
    #[must_use]
    pub fn economic_top_off(&self, frame: usize, price_lt: Price, waste_price: Price) -> Energy {
        if self.frame != frame || self.procure_for_export <= Energy::ZERO {
            return Energy::ZERO;
        }
        let local_cost = price_lt.dollars_per_mwh() + waste_price.dollars_per_mwh();
        if self.export_value > local_cost {
            self.procure_for_export
        } else {
            Energy::ZERO
        }
    }
}

/// One site's causal forecast of the coming frame, as the fleet loop
/// sees it between frames: the previous frame's realization plus the
/// site's current battery state. Frame 0 has no history and forecasts
/// zeros, so dispatch never acts on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteOutlook {
    /// Forecast curtailment (the previous frame's realized waste) — the
    /// export budget the site is expected to have for free.
    pub expected_surplus: Energy,
    /// Forecast displaceable real-time purchases (the previous frame's
    /// realized `g_rt` total).
    pub expected_need: Energy,
    /// Forecast frame-average realized real-time price, $/MWh (zero when
    /// the site bought nothing last frame).
    pub expected_price: f64,
    /// Grid slack the site could still procure this frame: the frame's
    /// interconnect budget minus the previous frame's realized draw.
    pub export_headroom: Energy,
    /// Grid-side charge the battery currently accepts in one slot. The
    /// plant charges surplus before curtailing, so a buy-to-export order
    /// must top the battery off before planned waste materializes.
    pub battery_headroom: Energy,
    /// The coming frame's observed long-term price plus the waste
    /// penalty, $/MWh: what one MWh of deliberately curtailed export
    /// energy costs this site to procure.
    pub procure_cost: f64,
    /// Deferrable workload queued at the site entering this frame (IT
    /// energy). Zero everywhere outside routed runs
    /// ([`MultiSiteEngine::run_routed`](crate::MultiSiteEngine::run_routed)):
    /// energy-only dispatchers can ignore it.
    pub load_backlog: Energy,
    /// The share of [`load_backlog`](Self::load_backlog) whose queue-age
    /// bound expires this frame — it will be served at spot if the plan
    /// does not absorb or migrate it. Zero outside routed runs.
    pub load_due: Energy,
}

/// The fleet-wide outlook a [`FleetDispatcher`] plans a coarse frame
/// from, one [`SiteOutlook`] per site in site-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutlook {
    /// The coarse frame about to run.
    pub frame: usize,
    /// Per-site outlooks, in site-index order.
    pub sites: Vec<SiteOutlook>,
}

/// A fleet dispatch policy: optionally directs sites between frames,
/// and settles each frame's realized exchange.
///
/// [`MultiSiteEngine::run_with`](crate::MultiSiteEngine::run_with) calls
/// [`direct`](Self::direct) before every coarse frame (unless the
/// topology is silent) and [`settle`](Self::settle) after it. Both must
/// be deterministic functions of the dispatcher's own history and their
/// arguments — the fleet determinism suite holds implementations to
/// that.
pub trait FleetDispatcher {
    /// The topology this dispatcher plans and settles over, when it has
    /// one (the default `None` opts out of validation).
    /// [`MultiSiteEngine::run_with`](crate::MultiSiteEngine::run_with)
    /// rejects a dispatcher whose topology differs from the fleet's
    /// instead of silently settling every frame under the wrong lines.
    fn topology(&self) -> Option<&Interconnect> {
        None
    }

    /// Plans directives for the coming frame. Returning an empty vector
    /// (the default) means "no directives": site controllers are left
    /// alone, which is exactly the post-hoc and planned modes. A
    /// non-empty return must carry one directive per site.
    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        let _ = outlook;
        Vec::new()
    }

    /// Settles one realized frame exchange.
    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement;
}

/// A borrowed dispatcher dispatches like the dispatcher itself, so a
/// `&mut dyn FleetDispatcher` fits the
/// [`UnroutedDispatcher`](crate::UnroutedDispatcher) adapter.
impl<D: FleetDispatcher + ?Sized> FleetDispatcher for &mut D {
    fn topology(&self) -> Option<&Interconnect> {
        (**self).topology()
    }

    fn direct(&mut self, outlook: &FrameOutlook) -> Vec<FrameDirective> {
        (**self).direct(outlook)
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        (**self).settle(ex)
    }
}

/// The greedy post-hoc fold as a dispatcher: no directives, settle with
/// [`Interconnect::settle_greedy`]. This is what
/// [`MultiSiteEngine::run`](crate::MultiSiteEngine::run) dispatches
/// with.
impl FleetDispatcher for Interconnect {
    fn topology(&self) -> Option<&Interconnect> {
        Some(self)
    }

    fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
        self.settle_greedy(ex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_directives_ask_for_nothing() {
        let d = FrameDirective::inert(7);
        assert_eq!(d.frame, 7);
        assert!(d.is_inert());
        let busy = FrameDirective {
            export_quota: Energy::from_mwh(1.0),
            ..FrameDirective::inert(7)
        };
        assert!(!busy.is_inert());
    }

    #[test]
    fn economic_top_off_gates_on_frame_and_value() {
        let d = FrameDirective {
            frame: 2,
            procure_for_export: Energy::from_mwh(1.5),
            export_quota: Energy::from_mwh(2.0),
            import_expectation: Energy::ZERO,
            export_value: 60.0,
        };
        let lt = Price::from_dollars_per_mwh(30.0);
        let waste = Price::from_dollars_per_mwh(1.0);
        // Value clears p_lt + waste: the full procure amount.
        assert_eq!(d.economic_top_off(2, lt, waste), Energy::from_mwh(1.5));
        // Wrong frame: nothing.
        assert_eq!(d.economic_top_off(3, lt, waste), Energy::ZERO);
        // Market moved above the plan's value: nothing.
        assert_eq!(
            d.economic_top_off(2, Price::from_dollars_per_mwh(60.0), waste),
            Energy::ZERO
        );
        // Inert directives never procure.
        assert_eq!(
            FrameDirective::inert(2).economic_top_off(2, lt, waste),
            Energy::ZERO
        );
    }

    #[test]
    fn interconnect_dispatches_greedily_without_directives() {
        let mut ic = Interconnect::pooled(2, Energy::from_mwh(5.0)).unwrap();
        let outlook = FrameOutlook {
            frame: 0,
            sites: Vec::new(),
        };
        assert!(ic.direct(&outlook).is_empty());
        let ex = FrameExchange {
            frame: 0,
            curtailed: vec![Energy::from_mwh(2.0), Energy::ZERO],
            rt_energy: vec![Energy::ZERO, Energy::from_mwh(1.0)],
            rt_price: vec![0.0, 50.0],
        };
        assert_eq!(FleetDispatcher::settle(&mut ic, &ex), ic.settle_greedy(&ex));
    }
}

//! Multi-datacenter composition: N per-site [`Engine`]s sharing a
//! calendar, coupled through an [`Interconnect`] topology.
//!
//! Each site is a full DPSS plant running its own traces and controller;
//! the only cross-site physics is the inter-site transfer settlement
//! applied per coarse frame over the configured [`Interconnect`]: energy
//! one site curtailed (`W(τ)`) may displace real-time purchases at
//! another site, bounded by directed per-pair caps (plus an optional
//! fleet-pooled cap), shrunk by line losses and billed per MWh sent at
//! the line's wheeling price.
//!
//! Every fleet settles in one place: the lockstep frame body
//! [`FleetRun::step_frame`]. After each coarse frame it reads every
//! site's [`FrameTotals`](crate::FrameTotals) into a [`FrameExchange`],
//! in site-index order, and hands it to a [`FleetDispatcher`]: the
//! topology itself settles greedily ([`Interconnect::settle_greedy`]),
//! `dpss-core`'s `FleetPlanner` solves the frame's export flows as a
//! linear program and, coordinating, also directs the sites between
//! frames. The fleet needs only each site's last-frame totals and
//! running report, never its slot history, and its aggregates are
//! byte-identical no matter on how many threads the sites step.

// `MultiSiteEngine::new` rejects empty rosters and mismatched calendars,
// so `sites[0]` exists and every site shares one validated clock; frame
// slot ranges derive from that clock.
// audit:allow-file(slice-index): roster is non-empty and calendars match by construction; slot ranges derive from the shared validated clock

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dpss_traces::ScenarioPack;
use dpss_units::{Energy, Money, SlotClock};

use crate::metrics::average_price;
use crate::{
    Controller, Engine, EngineRun, EngineRunState, FleetDispatcher, FleetWorkload, FrameDirective,
    FrameExchange, FrameOutlook, FrameSettlement, Interconnect, LoadFrame, LoadTotals,
    RoutedDispatcher, RoutingConfig, RunReport, SimError, SimParams, SiteOutlook,
    UnroutedDispatcher,
};

/// N per-site [`Engine`]s plus the interconnect topology they settle over.
///
/// # Examples
///
/// ```
/// use dpss_sim::{Controller, Interconnect, MultiSiteEngine, SimParams};
/// use dpss_traces::ScenarioPack;
/// use dpss_units::{Energy, SlotClock};
/// # use dpss_sim::{FrameDecision, FrameObservation, SlotDecision, SlotObservation, SystemView};
/// # struct Eager;
/// # impl Controller for Eager {
/// #     fn name(&self) -> &str { "eager" }
/// #     fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
/// #         FrameDecision::default()
/// #     }
/// #     fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
/// #         SlotDecision {
/// #             purchase_rt: (obs.demand_ds + view.queue_backlog + obs.demand_dt - obs.renewable)
/// #                 .positive_part(),
/// #             serve_fraction: 1.0,
/// #         }
/// #     }
/// # }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = SlotClock::new(2, 24, 1.0).unwrap();
/// let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
/// let multi = MultiSiteEngine::from_pack(SimParams::icdcs13(), &pack, clock, 42, 0, 3)?
///     .with_interconnect(Interconnect::uniform(3, Energy::from_mwh(1.0))?)?;
/// let mut ctls: Vec<Box<dyn Controller>> =
///     (0..3).map(|_| Box::new(Eager) as Box<dyn Controller>).collect();
/// let fleet = multi.run(&mut ctls)?;
/// assert_eq!(fleet.site_count(), 3);
/// assert!(fleet.total_cost() <= fleet.cost_before_transfers());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiSiteEngine {
    sites: Vec<Arc<Engine>>,
    interconnect: Arc<Interconnect>,
    threads: usize,
}

impl MultiSiteEngine {
    /// Composes per-site engines into a fleet. All sites must share one
    /// calendar. The fleet starts decoupled ([`Interconnect::decoupled`]).
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if `sites` is empty or a site's
    /// calendar differs from site 0's, or a site is a
    /// [stream](Engine::stream) engine (the fleet outlook and workload
    /// ledger read the whole calendar's traces).
    pub fn new(sites: Vec<Engine>) -> Result<Self, SimError> {
        let first = sites.first().ok_or(SimError::SiteMismatch {
            site: 0,
            what: "fleet needs at least one site",
        })?;
        let clock = first.clock();
        for (i, site) in sites.iter().enumerate() {
            // A stream site's truth is a window, not the calendar.
            if site.truth().clock != clock {
                return Err(SimError::SiteMismatch {
                    site: i,
                    what: "calendar differs from site 0's or is held only as a stream window",
                });
            }
        }
        let interconnect = Arc::new(Interconnect::decoupled(sites.len())?);
        Ok(MultiSiteEngine {
            sites: sites.into_iter().map(Arc::new).collect(),
            interconnect,
            threads: 1,
        })
    }

    /// The fleet of one scenario-pack variant: site `s` runs the traces
    /// [`ScenarioPack::generate_site`] draws for it on `clock`, under
    /// `params`. The fleet starts decoupled, like [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and engine validation failures;
    /// [`SimError::SiteMismatch`] if `sites == 0`.
    pub fn from_pack(
        params: SimParams,
        pack: &ScenarioPack,
        clock: SlotClock,
        seed: u64,
        variant: usize,
        sites: usize,
    ) -> Result<Self, SimError> {
        let engines = (0..sites)
            .map(|s| Engine::new(params, pack.generate_site(&clock, seed, variant, s)?))
            .collect::<Result<Vec<_>, _>>()?;
        MultiSiteEngine::new(engines)
    }

    /// Sets the worker-thread budget for stepping sites within a coarse
    /// frame. `1` (the default) steps sites inline on the caller's
    /// thread; `0` resolves to the machine's available parallelism.
    ///
    /// Thread count never changes results: sites do not interact within
    /// a frame, directives are delivered and exchanges settled serially
    /// at the frame barrier, and per-site state lives with its site — so
    /// every aggregate is byte-identical to the serial run at any thread
    /// count (the determinism suite pins this at fleet scale).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        self
    }

    /// The configured worker-thread budget (≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Replaces the interconnect topology.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if the topology spans a different
    /// number of sites than the fleet roster.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Result<Self, SimError> {
        if interconnect.sites() != self.sites.len() {
            return Err(SimError::SiteMismatch {
                site: interconnect.sites(),
                what: "interconnect spans a different number of sites than the fleet",
            });
        }
        self.interconnect = Arc::new(interconnect);
        Ok(self)
    }

    /// The per-site engines, in site-index order. Fleet runs share them
    /// ([`begin`](Self::begin) copies no traces).
    #[must_use]
    pub fn sites(&self) -> &[Arc<Engine>] {
        &self.sites
    }

    /// Number of sites in the fleet.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The configured interconnect topology.
    #[must_use]
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Runs one controller per site and settles every frame greedily
    /// ([`Interconnect::settle_greedy`]): [`run_with`](Self::run_with)
    /// with the fleet's own topology as the dispatcher.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if the controller roster length does not
    /// match the site roster; propagates per-site run failures.
    pub fn run(
        &self,
        controllers: &mut [Box<dyn Controller>],
    ) -> Result<MultiSiteReport, SimError> {
        let mut greedy = (*self.interconnect).clone();
        self.run_with(controllers, &mut greedy)
    }

    /// The frame-synchronous dispatch loop: [`begin`](Self::begin), then
    /// [`FleetRun::step_frame`] for every coarse frame — `dispatcher`
    /// directs the sites between frames and settles each frame's
    /// realized exchange — then [`FleetRun::finish`].
    ///
    /// With a dispatcher that never directs (the topology itself, or a
    /// planner without coordination) every site runs exactly as it would
    /// alone and only the settlement differs — the post-hoc and planned
    /// modes; with a coordinating dispatcher the directives feed the flow
    /// plan back into the sites' physical dispatch.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if the controller roster length does
    /// not match the site roster, the dispatcher's declared topology
    /// differs from the fleet's interconnect, or the dispatcher returns
    /// a directive roster of the wrong length; propagates per-site step
    /// failures.
    pub fn run_with(
        &self,
        controllers: &mut [Box<dyn Controller>],
        dispatcher: &mut dyn FleetDispatcher,
    ) -> Result<MultiSiteReport, SimError> {
        self.check_topology(dispatcher.topology())?;
        let mut run = self.begin()?;
        let mut dispatcher = UnroutedDispatcher(dispatcher);
        while !run.is_done() {
            run.step_frame(controllers, &mut dispatcher)?;
        }
        run.finish()
    }

    /// The co-optimized dispatch loop: [`run_with`](Self::run_with) with
    /// the fleet's workload ledger ([`workload_ledger`](Self::workload_ledger))
    /// stepping in lockstep inside [`FleetRun::step_frame`]. Energy-only
    /// dispatchers ignore the ledger's outlook annotation, so the energy
    /// half of the run is byte-identical to `run_with` with the same
    /// inner dispatcher; the report carries the workload totals in
    /// [`MultiSiteReport::load`].
    ///
    /// # Errors
    ///
    /// Everything [`run_with`](Self::run_with) rejects, plus invalid
    /// [`RoutingConfig`]s.
    pub fn run_routed(
        &self,
        controllers: &mut [Box<dyn Controller>],
        dispatcher: &mut dyn RoutedDispatcher,
        config: RoutingConfig,
    ) -> Result<MultiSiteReport, SimError> {
        self.check_topology(dispatcher.topology())?;
        let workload = self.workload_ledger(config)?;
        let mut run = self.begin()?;
        run.workload = Some(workload);
        while !run.is_done() {
            run.step_frame(controllers, dispatcher)?;
        }
        run.finish()
    }

    fn check_topology(&self, topology: Option<&Interconnect>) -> Result<(), SimError> {
        if let Some(topology) = topology {
            if topology != &*self.interconnect {
                return Err(SimError::SiteMismatch {
                    site: topology.sites(),
                    what: "dispatcher topology differs from the fleet's interconnect",
                });
            }
        }
        Ok(())
    }

    /// Starts a frame-synchronous fleet run without a workload ledger:
    /// one [`EngineRun`] per site, sharing the fleet's engines and
    /// topology (no traces are copied).
    ///
    /// # Errors
    ///
    /// Propagates per-site [`Engine::begin`] failures.
    pub fn begin(&self) -> Result<FleetRun, SimError> {
        let runs = self
            .sites
            .iter()
            .map(Engine::begin)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.fleet_run(runs, FrameSettlement::default()))
    }

    /// Reinstates a checkpointed ledger-free fleet run: one
    /// [`EngineRunState`] per site plus the settlement totals so far.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if the state roster differs from the
    /// site roster; [`SimError::InvalidState`] if the sites disagree on
    /// the next frame, plus every per-site [`Engine::resume`] rejection.
    pub fn resume(
        &self,
        states: Vec<EngineRunState>,
        settled: FrameSettlement,
    ) -> Result<FleetRun, SimError> {
        if states.len() != self.sites.len() {
            return Err(SimError::SiteMismatch {
                site: states.len(),
                what: "run-state roster length differs from site roster",
            });
        }
        if states.iter().any(|s| s.next_frame != states[0].next_frame) {
            return Err(SimError::InvalidState {
                what: "fleet sites disagree on the next frame",
            });
        }
        let runs = self
            .sites
            .iter()
            .zip(states)
            .map(|(site, state)| site.resume(state))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.fleet_run(runs, settled))
    }

    fn fleet_run(&self, runs: Vec<EngineRun>, settled: FrameSettlement) -> FleetRun {
        FleetRun {
            fleet: self.clone(),
            next_frame: runs[0].frames_completed(),
            runs,
            settled,
            workload: None,
            failed: false,
        }
    }

    /// The fleet's workload ledger, built from each site's truth traces:
    /// per-frame arrival totals (summed over the frame's fine slots;
    /// zeros for sites whose traces carry no arrival stream) and
    /// frame-mean real-time prices. This is exactly the ledger
    /// [`run_routed`](Self::run_routed) steps — exposed so harnesses can
    /// compute the serve-on-arrival baseline
    /// ([`FleetWorkload::serve_on_arrival`]) a routing-off run would be
    /// billed for, over identical inputs.
    ///
    /// # Errors
    ///
    /// Propagates [`RoutingConfig::validate`] errors.
    pub fn workload_ledger(&self, config: RoutingConfig) -> Result<FleetWorkload, SimError> {
        let clock = self.sites[0].clock();
        let t = clock.slots_per_frame();
        let arrivals: Vec<Vec<Energy>> = self
            .sites
            .iter()
            .map(|site| {
                (0..clock.frames())
                    .map(|k| match &site.truth().arrivals {
                        Some(a) => a[k * t..(k + 1) * t].iter().copied().sum(),
                        None => Energy::ZERO,
                    })
                    .collect()
            })
            .collect();
        let spot: Vec<Vec<f64>> = self
            .sites
            .iter()
            .map(|site| {
                (0..clock.frames())
                    .map(|k| {
                        site.truth().price_rt[k * t..(k + 1) * t]
                            .iter()
                            .map(|p| p.dollars_per_mwh())
                            .sum::<f64>()
                            / t as f64
                    })
                    .collect()
            })
            .collect();
        FleetWorkload::new(config, arrivals, spot)
    }

    /// The fleet's causal outlook for coarse frame `frame`, built from
    /// the sites' in-flight runs: frame `frame − 1`'s realization
    /// ([`EngineRun::last_frame`]: curtailment, real-time need, grid
    /// draw), the running real-time price from each site's report, its
    /// current battery headroom and the coming frame's *observed*
    /// long-term price. Frame 0 forecasts zeros. This is what
    /// [`FleetRun::step_frame`] directs from; public so custom harnesses
    /// can drive the lockstep loop by hand — the determinism suite does,
    /// to prove within-frame site order is immaterial.
    ///
    /// # Panics
    ///
    /// Panics if `runs` does not cover the site roster or has not
    /// completed exactly the frames before `frame`.
    #[must_use]
    pub fn outlook_at(&self, frame: usize, runs: &[EngineRun]) -> FrameOutlook {
        assert_eq!(runs.len(), self.sites.len(), "run roster mismatch");
        let clock = self.sites[0].clock();
        let t = clock.slots_per_frame();
        let sites = self
            .sites
            .iter()
            .zip(runs)
            .map(|(site, run)| {
                assert_eq!(
                    run.frames_completed(),
                    frame,
                    "outlook for frame {frame} needs exactly the previous frames stepped"
                );
                let params = site.params();
                let frame_budget = params.grid_slot_cap(clock.slot_hours()) * t as f64;
                let procure_cost = site.observed_traces().price_lt[frame].dollars_per_mwh()
                    + params.waste_price.dollars_per_mwh();
                if frame == 0 {
                    return SiteOutlook {
                        expected_surplus: Energy::ZERO,
                        expected_need: Energy::ZERO,
                        expected_price: 0.0,
                        export_headroom: Energy::ZERO,
                        battery_headroom: run.battery_headroom(),
                        procure_cost,
                        load_backlog: Energy::ZERO,
                        load_due: Energy::ZERO,
                    };
                }
                let prev = run.last_frame();
                let report = run.report();
                SiteOutlook {
                    expected_surplus: prev.waste,
                    expected_need: prev.energy_rt,
                    // Price forecast: the realized average over *all* past
                    // frames, not just the last one — real-time spikes are
                    // short and mean-reverting, so chasing the previous
                    // frame's price buys high after every spike, while the
                    // running average prices the regime the settlement will
                    // actually book savings at.
                    expected_price: average_price(report.energy_rt, report.cost_rt),
                    export_headroom: (frame_budget - prev.grid_draw).positive_part(),
                    battery_headroom: run.battery_headroom(),
                    procure_cost,
                    load_backlog: Energy::ZERO,
                    load_due: Energy::ZERO,
                }
            })
            .collect();
        FrameOutlook { frame, sites }
    }

    /// The realized [`FrameExchange`] of coarse frame `frame`, read from
    /// the sites' in-flight runs ([`EngineRun::last_frame`]) in site-index
    /// order — what [`FleetRun::step_frame`] settles.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if a run's last completed frame is not
    /// `frame`.
    pub fn exchange_at(&self, frame: usize, runs: &[EngineRun]) -> Result<FrameExchange, SimError> {
        let mut ex = FrameExchange {
            frame,
            curtailed: Vec::with_capacity(runs.len()),
            rt_energy: Vec::with_capacity(runs.len()),
            rt_price: Vec::with_capacity(runs.len()),
        };
        for (i, run) in runs.iter().enumerate() {
            if run.frames_completed() != frame + 1 {
                return Err(SimError::SiteMismatch {
                    site: i,
                    what: "run's last completed frame is not the requested one",
                });
            }
            let totals = run.last_frame();
            ex.curtailed.push(totals.waste);
            ex.rt_energy.push(totals.energy_rt);
            ex.rt_price.push(totals.rt_price());
        }
        Ok(ex)
    }
}

/// An in-flight fleet run: one [`EngineRun`] per site, the settlement
/// totals so far, the workload ledger (routed runs only) and the frame
/// counter. Produced by [`MultiSiteEngine::begin`] or
/// [`resume`](MultiSiteEngine::resume); it owns everything it steps, so a
/// long-lived caller (the serve daemon) can hold one across requests.
#[derive(Debug, Clone)]
pub struct FleetRun {
    fleet: MultiSiteEngine,
    runs: Vec<EngineRun>,
    settled: FrameSettlement,
    workload: Option<FleetWorkload>,
    next_frame: usize,
    /// Set when a frame step failed part-way: some sites (or the ledger)
    /// are mid-frame, so the run must not be stepped again.
    failed: bool,
}

impl FleetRun {
    /// Coarse frames completed so far (also the next frame to step).
    #[must_use]
    pub fn frames_completed(&self) -> usize {
        self.next_frame
    }

    /// Whether every coarse frame of the calendar has been stepped.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_frame >= self.fleet.sites[0].clock().frames()
    }

    /// The per-site runs, in site-index order.
    #[must_use]
    pub fn runs(&self) -> &[EngineRun] {
        &self.runs
    }

    /// The settlement accumulated over the frames stepped so far.
    #[must_use]
    pub fn settled(&self) -> FrameSettlement {
        self.settled
    }

    /// Steps every site through the next coarse frame — the fleet's one
    /// frame body. Per coarse frame `k`:
    ///
    /// 1. a routed run's ledger admits frame `k`'s arrivals
    ///    ([`FleetWorkload::frame_load`]);
    /// 2. the dispatcher sees the fleet's [`FrameOutlook`]
    ///    ([`MultiSiteEngine::outlook_at`], annotated with each site's
    ///    workload availability and due total on routed runs) and returns
    ///    directives — one per site, or none at all — which each site's
    ///    controller receives ([`Controller::receive_directive`]);
    /// 3. every site steps the frame ([`EngineRun::step_frame`]) — inline
    ///    in site-index order, or over the fleet's
    ///    [`with_threads`](MultiSiteEngine::with_threads) budget (sites do
    ///    not interact within a frame, so the aggregates are
    ///    byte-identical at any thread count);
    /// 4. the realized [`FrameExchange`] is settled
    ///    ([`RoutedDispatcher::settle_routed`]) and a routed run's ledger
    ///    applies the workload plan ([`FleetWorkload::settle`]).
    ///
    /// A silent topology skips step 2 and the energy settlement, but a
    /// routed run's ledger still steps every frame (local absorption
    /// needs no interconnect). A run without a ledger offers the
    /// dispatcher an empty [`LoadFrame`]: energy-only dispatchers step
    /// through [`UnroutedDispatcher`], which ignores it.
    ///
    /// Returns the directives delivered before the frame (empty when none
    /// were issued); a no-op once the run [`is_done`](Self::is_done).
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if the controller or directive roster
    /// length differs from the site roster; propagates per-site step
    /// failures, after which the run refuses further steps with
    /// [`SimError::InvalidState`].
    pub fn step_frame(
        &mut self,
        controllers: &mut [Box<dyn Controller>],
        dispatcher: &mut dyn RoutedDispatcher,
    ) -> Result<Vec<FrameDirective>, SimError> {
        if controllers.len() != self.runs.len() {
            return Err(SimError::SiteMismatch {
                site: controllers.len(),
                what: "controller roster length differs from site roster",
            });
        }
        if self.failed {
            return Err(SimError::InvalidState {
                what: "an earlier fleet frame step failed part-way through the frame",
            });
        }
        if self.is_done() {
            return Ok(Vec::new());
        }
        self.failed = true;
        let directives = self.step_sites_and_settle(controllers, dispatcher)?;
        self.failed = false;
        self.next_frame += 1;
        Ok(directives)
    }

    fn step_sites_and_settle(
        &mut self,
        controllers: &mut [Box<dyn Controller>],
        dispatcher: &mut dyn RoutedDispatcher,
    ) -> Result<Vec<FrameDirective>, SimError> {
        let frame = self.next_frame;
        let silent = self.fleet.interconnect.is_silent();
        let load = match &mut self.workload {
            Some(workload) => workload.frame_load(frame),
            None => LoadFrame {
                frame,
                available: Vec::new(),
                due: Vec::new(),
                spot: Vec::new(),
            },
        };
        let mut directives = Vec::new();
        if !silent {
            let mut outlook = self.fleet.outlook_at(frame, &self.runs);
            for (site, (avail, due)) in outlook
                .sites
                .iter_mut()
                .zip(load.available.iter().zip(&load.due))
            {
                site.load_backlog = *avail;
                site.load_due = *due;
            }
            directives = dispatcher.direct(&outlook);
            if !directives.is_empty() {
                if directives.len() != self.runs.len() {
                    return Err(SimError::SiteMismatch {
                        site: directives.len(),
                        what: "directive roster length differs from site roster",
                    });
                }
                for (ctl, directive) in controllers.iter_mut().zip(&directives) {
                    ctl.receive_directive(directive);
                }
            }
        }
        step_sites(&mut self.runs, controllers, self.fleet.threads)?;
        if silent && self.workload.is_none() {
            return Ok(directives);
        }
        let ex = self.fleet.exchange_at(frame, &self.runs)?;
        let (s, plan) = dispatcher.settle_routed(&ex, &load);
        if !silent {
            self.settled.sent += s.sent;
            self.settled.delivered += s.delivered;
            self.settled.savings += s.savings;
            self.settled.wheeling += s.wheeling;
        }
        if let Some(workload) = &mut self.workload {
            workload.settle(frame, &ex, &plan, &self.fleet.interconnect);
        }
        Ok(directives)
    }

    /// Seals every site's run and aggregates the fleet report (with the
    /// workload totals on routed runs).
    ///
    /// # Errors
    ///
    /// [`SimError::RunIncomplete`] unless every coarse frame has been
    /// stepped.
    pub fn finish(self) -> Result<MultiSiteReport, SimError> {
        let reports = self
            .runs
            .into_iter()
            .map(EngineRun::finish)
            .collect::<Result<Vec<_>, _>>()?;
        let clock = self.fleet.sites[0].clock();
        Ok(MultiSiteReport {
            frames: clock.frames(),
            slots: clock.total_slots(),
            energy_transferred: self.settled.sent,
            energy_delivered: self.settled.delivered,
            transfer_savings: self.settled.savings,
            wheeling_cost: self.settled.wheeling,
            load: self.workload.map(FleetWorkload::finish).unwrap_or_default(),
            sites: reports,
        })
    }
}

/// Steps every site through one coarse frame, fanning the sites out over
/// `threads` scoped workers claiming site indices from a shared atomic
/// counter (the `ExperimentRunner` pattern). Each `(run, controller)`
/// pair is owned by exactly one worker at a time, sites share no mutable
/// state, and errors are collected per site and propagated in site-index
/// order — so the outcome (including which error surfaces) is
/// byte-identical to the inline serial loop at any thread count.
fn step_sites(
    runs: &mut [EngineRun],
    controllers: &mut [Box<dyn Controller>],
    threads: usize,
) -> Result<(), SimError> {
    let n = runs.len();
    let workers = threads.min(n).max(1);
    if workers == 1 {
        for (run, ctl) in runs.iter_mut().zip(controllers.iter_mut()) {
            run.step_frame(ctl.as_mut())?;
        }
        return Ok(());
    }
    let next = AtomicUsize::new(0);
    let cells: Vec<Mutex<(&mut EngineRun, &mut Box<dyn Controller>)>> = runs
        .iter_mut()
        .zip(controllers.iter_mut())
        .map(Mutex::new)
        .collect();
    let slots: Vec<Mutex<Option<Result<(), SimError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // audit:allow(panic-unwrap): a poisoned cell means a sibling worker already panicked
                let mut cell = cells[i].lock().expect("site cell poisoned");
                let (run, ctl) = &mut *cell;
                let out = run.step_frame(ctl.as_mut());
                // audit:allow(panic-unwrap): a poisoned slot means a sibling worker already panicked
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    for (i, slot) in slots.into_iter().enumerate() {
        slot.into_inner()
            // audit:allow(panic-unwrap): a poisoned slot means a worker already panicked
            .expect("result slot poisoned")
            // audit:allow(panic-explicit): the claim loop covers 0..n, so an empty slot is a scheduler bug
            .unwrap_or_else(|| panic!("site {i} was not stepped"))?;
    }
    Ok(())
}

/// Aggregated result of one fleet run: per-site [`RunReport`]s plus the
/// interconnect settlement.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSiteReport {
    /// Per-site reports, in site-index order.
    pub sites: Vec<RunReport>,
    /// Coarse frames in the shared calendar.
    pub frames: usize,
    /// Fine slots in the shared calendar (per site).
    pub slots: usize,
    /// Total energy sent by donors over the horizon (before line losses).
    pub energy_transferred: Energy,
    /// Total energy delivered to recipients (after line losses).
    pub energy_delivered: Energy,
    /// Real-time purchase cost displaced by the delivered energy.
    pub transfer_savings: Money,
    /// Wheeling charges on the energy sent, billed to the fleet row.
    pub wheeling_cost: Money,
    /// Workload-routing totals. [`LoadTotals::default`] (all zeros, and
    /// [`LoadTotals::is_inert`]) for every run that did not go through
    /// [`MultiSiteEngine::run_routed`] — the request layer adds nothing
    /// to non-routed reports.
    pub load: LoadTotals,
}

impl MultiSiteReport {
    /// Number of sites.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Energy lost on the lines (sent − delivered).
    #[must_use]
    pub fn energy_lost(&self) -> Energy {
        self.energy_transferred - self.energy_delivered
    }

    /// Fleet cost with the sites fully decoupled (sum of site totals).
    #[must_use]
    pub fn cost_before_transfers(&self) -> Money {
        self.sites.iter().map(RunReport::total_cost).sum()
    }

    /// Fleet cost after the interconnect settlement: the decoupled sum,
    /// minus the displaced real-time cost, plus the wheeling bill, plus
    /// the workload bill (zero for non-routed runs).
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.cost_before_transfers() - self.transfer_savings + self.wheeling_cost + self.load.cost
    }

    /// Fleet cost per fine slot of the shared calendar.
    #[must_use]
    pub fn time_average_cost(&self) -> Money {
        self.total_cost() / self.slots as f64
    }

    /// Total curtailed energy across the fleet (before transfers).
    #[must_use]
    pub fn total_energy_wasted(&self) -> Energy {
        self.sites.iter().map(|r| r.energy_wasted).sum()
    }

    /// Served-energy-weighted mean delay-tolerant service delay (slots).
    #[must_use]
    pub fn average_delay_slots(&self) -> f64 {
        let served: f64 = self.sites.iter().map(|r| r.served_dt.mwh()).sum();
        if served <= 0.0 {
            return 0.0;
        }
        self.sites
            .iter()
            .map(|r| r.average_delay_slots * r.served_dt.mwh())
            .sum::<f64>()
            / served
    }

    /// One-line fleet summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} sites: ${:.2} total (${:.2} saved by {:.2} MWh sent, \
             {:.2} MWh lost, ${:.2} wheeling), ${:.4}/slot, delay {:.2} slots",
            self.site_count(),
            self.total_cost().dollars(),
            self.transfer_savings.dollars(),
            self.energy_transferred.mwh(),
            self.energy_lost().mwh(),
            self.wheeling_cost.dollars(),
            self.time_average_cost().dollars(),
            self.average_delay_slots(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameDecision, FrameObservation, SlotDecision, SlotObservation, SystemView};
    use dpss_units::Price;

    /// Serves everything eagerly from the real-time market.
    struct Eager;
    impl Controller for Eager {
        fn name(&self) -> &str {
            "eager"
        }
        fn plan_frame(&mut self, _: &FrameObservation, _: &SystemView) -> FrameDecision {
            FrameDecision::default()
        }
        fn plan_slot(&mut self, obs: &SlotObservation, view: &SystemView) -> SlotDecision {
            SlotDecision {
                purchase_rt: (obs.demand_ds + view.queue_backlog + obs.demand_dt - obs.renewable)
                    .positive_part(),
                serve_fraction: 1.0,
            }
        }
    }

    fn fleet(sites: usize, cap: f64) -> MultiSiteEngine {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
        MultiSiteEngine::from_pack(SimParams::icdcs13(), &pack, clock, 42, 0, sites)
            .unwrap()
            .with_interconnect(Interconnect::pooled(sites, Energy::from_mwh(cap)).unwrap())
            .unwrap()
    }

    fn eager_boxes(n: usize) -> Vec<Box<dyn Controller>> {
        (0..n)
            .map(|_| Box::new(Eager) as Box<dyn Controller>)
            .collect()
    }

    #[test]
    fn rejects_empty_and_mismatched_fleets() {
        assert!(matches!(
            MultiSiteEngine::new(Vec::new()),
            Err(SimError::SiteMismatch { site: 0, .. })
        ));
        let pack = ScenarioPack::builtin("seasonal-calendar").unwrap();
        let clock = SlotClock::new(2, 24, 1.0).unwrap();
        assert!(matches!(
            MultiSiteEngine::from_pack(SimParams::icdcs13(), &pack, clock, 42, 0, 0),
            Err(SimError::SiteMismatch { site: 0, .. })
        ));
        let a = Engine::new(
            SimParams::icdcs13(),
            dpss_traces::Scenario::icdcs13()
                .generate(&SlotClock::new(2, 24, 1.0).unwrap(), 1)
                .unwrap(),
        )
        .unwrap();
        let b = Engine::new(
            SimParams::icdcs13(),
            dpss_traces::Scenario::icdcs13()
                .generate(&SlotClock::new(3, 24, 1.0).unwrap(), 1)
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            MultiSiteEngine::new(vec![a, b]),
            Err(SimError::SiteMismatch { site: 1, .. })
        ));
        assert!(Interconnect::pooled(1, Energy::from_mwh(-1.0)).is_err());
        // A topology for the wrong roster size is rejected.
        assert!(matches!(
            fleet(2, 0.0).with_interconnect(Interconnect::decoupled(3).unwrap()),
            Err(SimError::SiteMismatch { site: 3, .. })
        ));
    }

    #[test]
    fn run_rejects_wrong_controller_roster() {
        let multi = fleet(2, 0.0);
        assert!(matches!(
            multi.run(&mut eager_boxes(3)),
            Err(SimError::SiteMismatch { site: 3, .. })
        ));
    }

    #[test]
    fn run_with_rejects_mismatched_dispatcher_topology() {
        // A dispatcher that declares a topology must declare the
        // fleet's — settling frames under different lines than the
        // report records would be silently wrong.
        let multi = fleet(2, 1.0);
        let mut wrong_cap = Interconnect::pooled(2, Energy::from_mwh(9.0)).unwrap();
        assert!(matches!(
            multi.run_with(&mut eager_boxes(2), &mut wrong_cap),
            Err(SimError::SiteMismatch { site: 2, .. })
        ));
        let mut wrong_sites = Interconnect::pooled(3, Energy::from_mwh(1.0)).unwrap();
        assert!(matches!(
            multi.run_with(&mut eager_boxes(2), &mut wrong_sites),
            Err(SimError::SiteMismatch { site: 3, .. })
        ));
        // The fleet's own topology passes the guard.
        let mut right = multi.interconnect().clone();
        assert!(multi.run_with(&mut eager_boxes(2), &mut right).is_ok());
    }

    /// Two sites on the flash-crowd variant of the traffic-wave pack —
    /// traces that carry a request-arrival stream.
    fn routed_fleet(sites: usize, cap: f64) -> MultiSiteEngine {
        let clock = SlotClock::new(3, 24, 1.0).unwrap();
        let pack = ScenarioPack::builtin("traffic-wave").unwrap();
        MultiSiteEngine::from_pack(SimParams::icdcs13(), &pack, clock, 42, 2, sites)
            .unwrap()
            .with_interconnect(Interconnect::pooled(sites, Energy::from_mwh(cap)).unwrap())
            .unwrap()
    }

    #[test]
    fn run_routed_conserves_load_and_leaves_the_energy_side_untouched() {
        let multi = routed_fleet(2, 1.0);
        let baseline = multi.run(&mut eager_boxes(2)).unwrap();
        assert!(baseline.load.is_inert(), "non-routed runs carry no load");
        let mut routed = crate::UnroutedDispatcher(multi.interconnect().clone());
        let report = multi
            .run_routed(&mut eager_boxes(2), &mut routed, RoutingConfig::icdcs13())
            .unwrap();
        // Energy side: the adapter settles greedily exactly like run(),
        // and the request layer must not perturb it.
        assert_eq!(report.sites, baseline.sites);
        assert_eq!(report.energy_transferred, baseline.energy_transferred);
        assert_eq!(report.transfer_savings, baseline.transfer_savings);
        // Load side: work arrived, conserved, bounded and fully drained.
        let load = &report.load;
        assert!(load.arrived > Energy::ZERO, "traffic-wave traces arrive");
        let settled = load.served_spot + load.absorbed + load.migrated + load.final_backlog;
        assert!((load.arrived - settled).mwh().abs() < 1e-9);
        assert_eq!(load.final_backlog, Energy::ZERO);
        assert!(load.max_wait_frames <= RoutingConfig::icdcs13().max_queue_age);
        assert_eq!(load.frames.len(), 3);
        // The workload bill lands in the fleet total.
        assert_eq!(
            report.total_cost(),
            baseline.total_cost() + load.cost,
            "total cost = energy total + workload bill"
        );
    }

    #[test]
    fn run_routed_validates_rosters_and_config() {
        let multi = routed_fleet(2, 1.0);
        let mut d = crate::UnroutedDispatcher(multi.interconnect().clone());
        assert!(matches!(
            multi.run_routed(&mut eager_boxes(3), &mut d, RoutingConfig::icdcs13()),
            Err(SimError::SiteMismatch { site: 3, .. })
        ));
        assert!(matches!(
            multi.run_routed(
                &mut eager_boxes(2),
                &mut d,
                RoutingConfig::icdcs13().with_interactive_fraction(7.0),
            ),
            Err(SimError::InvalidParameter { .. })
        ));
        // A mismatched dispatcher topology is rejected like run_with's.
        let mut wrong = crate::UnroutedDispatcher(Interconnect::pooled(3, Energy::ZERO).unwrap());
        assert!(matches!(
            multi.run_routed(&mut eager_boxes(2), &mut wrong, RoutingConfig::icdcs13()),
            Err(SimError::SiteMismatch { site: 3, .. })
        ));
    }

    #[test]
    fn zero_cap_decouples_and_positive_cap_only_saves() {
        let multi = fleet(3, 0.0);
        let decoupled = multi.run(&mut eager_boxes(3)).unwrap();
        assert_eq!(decoupled.energy_transferred, Energy::ZERO);
        assert_eq!(decoupled.transfer_savings, Money::ZERO);
        assert_eq!(decoupled.total_cost(), decoupled.cost_before_transfers());

        let coupled = fleet(3, 2.0).run(&mut eager_boxes(3)).unwrap();
        // Same sites, same runs: the lossless free settlement can only
        // reduce cost.
        assert_eq!(
            coupled.cost_before_transfers(),
            decoupled.cost_before_transfers()
        );
        assert!(coupled.total_cost() <= decoupled.total_cost());
        // Per-frame cap bounds the total transfer.
        assert!(coupled.energy_transferred.mwh() <= 2.0 * coupled.frames as f64 + 1e-9);
    }

    #[test]
    fn transfers_are_bounded_by_fleet_waste() {
        let report = fleet(3, 1e6).run(&mut eager_boxes(3)).unwrap();
        assert!(report.energy_transferred <= report.total_energy_wasted());
        assert!(report.transfer_savings.dollars() >= 0.0);
    }

    #[test]
    fn single_site_fleets_never_transfer_to_themselves() {
        // Transfers are strictly inter-site: one site with an unbounded
        // cap must settle nothing, even when it both curtails and buys
        // real-time energy within the same frame.
        let report = fleet(1, 1e6).run(&mut eager_boxes(1)).unwrap();
        assert!(report.total_energy_wasted() > Energy::ZERO, "test premise");
        assert_eq!(report.energy_transferred, Energy::ZERO);
        assert_eq!(report.transfer_savings, Money::ZERO);
        assert_eq!(report.total_cost(), report.cost_before_transfers());
    }

    #[test]
    fn lossy_lines_deliver_less_and_wheeling_charges_the_fleet() {
        let lossless = fleet(3, 2.0).run(&mut eager_boxes(3)).unwrap();
        assert!(lossless.energy_transferred > Energy::ZERO, "test premise");
        assert_eq!(lossless.energy_lost(), Energy::ZERO);
        assert_eq!(lossless.wheeling_cost, Money::ZERO);

        let lossy_ic = Interconnect::pooled(3, Energy::from_mwh(2.0))
            .unwrap()
            .with_uniform_loss(0.25)
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(1.5))
            .unwrap();
        let lossy = fleet(3, 0.0)
            .with_interconnect(lossy_ic)
            .unwrap()
            .run(&mut eager_boxes(3))
            .unwrap();
        // delivered = sent × (1 − loss), exactly.
        let expected = lossy.energy_transferred.mwh() * 0.75;
        assert!(
            (lossy.energy_delivered.mwh() - expected).abs() < 1e-9,
            "delivered {} vs sent {}",
            lossy.energy_delivered,
            lossy.energy_transferred
        );
        assert!(
            (lossy.wheeling_cost.dollars() - lossy.energy_transferred.mwh() * 1.5).abs() < 1e-9
        );
        // Per-site physics identical; only the settlement differs.
        assert_eq!(
            lossy.cost_before_transfers(),
            lossless.cost_before_transfers()
        );
        assert!(lossy.transfer_savings <= lossless.transfer_savings);
        // Economics guard: settling never costs more than decoupling.
        assert!(lossy.total_cost() <= lossy.cost_before_transfers());
    }

    #[test]
    fn run_with_settles_every_frame_through_the_dispatcher() {
        /// Records the frames it settles and moves nothing.
        struct Silent(Vec<usize>);
        impl FleetDispatcher for Silent {
            fn settle(&mut self, ex: &FrameExchange) -> FrameSettlement {
                assert_eq!(ex.curtailed.len(), 2);
                self.0.push(ex.frame);
                FrameSettlement::default()
            }
        }
        let multi = fleet(2, 1.0);
        let mut silent = Silent(Vec::new());
        let report = multi.run_with(&mut eager_boxes(2), &mut silent).unwrap();
        assert_eq!(silent.0, vec![0, 1, 2]);
        assert_eq!(report.energy_transferred, Energy::ZERO);
        assert_eq!(report.total_cost(), report.cost_before_transfers());
    }

    #[test]
    fn report_aggregates_and_summary() {
        let report = fleet(2, 1.0).run(&mut eager_boxes(2)).unwrap();
        assert_eq!(report.site_count(), 2);
        assert_eq!(report.frames, 3);
        assert_eq!(report.slots, 72);
        let per_slot = report.time_average_cost().dollars();
        assert!(per_slot > 0.0);
        assert!(report.average_delay_slots() > 0.0);
        let s = report.summary();
        assert!(s.contains("2 sites"), "{s}");
    }
}

//! The inter-site transmission topology: per-pair directed transfer
//! caps, multiplicative line losses and per-MWh wheeling prices.
//!
//! [`Interconnect`] replaces the old single fleet-pooled `transfer_cap`
//! knob of [`MultiSiteEngine`](crate::MultiSiteEngine) with real (if
//! stylized) physics: energy *sent* from site `i` to site `j` is capped
//! per coarse frame by a directed pair cap, arrives multiplied by
//! `1 − loss(i, j)`, and pays a wheeling price per MWh sent. An optional
//! fleet-pooled cap on top bounds the total energy moved per frame — the
//! legacy knob is exactly a pooled topology with lossless, free links.
//!
//! Three dispatch modes consume the topology:
//!
//! * [`Interconnect::settle_greedy`] — the *post-hoc* mode: per frame,
//!   realized curtailment is matched to the most expensive realized
//!   real-time purchases elsewhere in the fleet, link by link, in a
//!   deterministic fold (donors in site order, recipients by descending
//!   frame-average price). Bookkeeping, not control: no flow is planned,
//!   only settled after the fact.
//! * `dpss-core`'s `FleetPlanner` — the *planned* mode: a per-frame
//!   linear program over the same [`FrameExchange`] chooses export flows
//!   jointly across all links (bounded by the pair caps), which with
//!   per-pair caps, losses or wheeling prices can beat the greedy fold.
//! * The same planner with coordination enabled — the *coordinated*
//!   mode: between frames of a lockstep
//!   [`MultiSiteEngine::run_with`](crate::MultiSiteEngine::run_with)
//!   fleet run it also plans *prospective* flows and hands each site a
//!   [`FrameDirective`](crate::FrameDirective) (buy-to-export), closing
//!   the loop from settlement back to physical dispatch.
//!
//! Both settle the same per-frame exchange, so their results are directly
//! comparable and the physics property suite
//! (`crates/sim/tests/interconnect_physics.rs`) pins conservation, loss
//! monotonicity and the decoupling identity for both.

// Site and pair indices are validated once by the topology constructor
// (`add_pair` rejects out-of-range sites) and the per-pair vectors are
// sized from that same roster, so later lookups are in bounds.
// audit:allow-file(slice-index): site/pair indices are validated by the topology constructor that sized the vectors

use dpss_units::{Energy, Money, Price};

use crate::SimError;

/// Above this many open links, [`Interconnect::describe`] switches from
/// the link-by-link spell-out to a compact fleet-scale summary (counts
/// plus min..max ranges). Every published small-topology title has at
/// most this many links, so their wording is unaffected.
pub const DESCRIBE_LINK_LIMIT: usize = 12;

/// Directed inter-site transmission topology for a fleet of `sites`
/// datacenters: per-pair frame caps, losses and wheeling prices, plus an
/// optional fleet-pooled per-frame cap.
///
/// # Examples
///
/// ```
/// use dpss_sim::Interconnect;
/// use dpss_units::{Energy, Price};
///
/// # fn main() -> Result<(), dpss_sim::SimError> {
/// let ic = Interconnect::uniform(3, Energy::from_mwh(1.5))?
///     .with_uniform_loss(0.05)?
///     .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))?
///     .with_link(0, 2, Energy::ZERO)?; // sever one directed line
/// assert_eq!(ic.cap(0, 2), Energy::ZERO);
/// assert_eq!(ic.cap(2, 0), Energy::from_mwh(1.5));
/// assert!((ic.loss(1, 0) - 0.05).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    sites: usize,
    /// Directed pair caps (energy sent per frame), row-major `from × to`;
    /// the diagonal is unused and held at zero.
    cap: Vec<Energy>,
    /// Multiplicative line losses in `[0, 1)`, same layout.
    loss: Vec<f64>,
    /// Wheeling price per MWh *sent*, same layout.
    wheel: Vec<Price>,
    /// Optional per-frame cap schedules, same layout: when set for a
    /// link, frame `k` uses `schedule[k % len]` instead of the static
    /// cap (maintenance windows, congestion pricing).
    schedule: Vec<Option<Vec<Energy>>>,
    /// Optional fleet-pooled cap on total energy sent per frame.
    pool_cap: Option<Energy>,
}

impl Interconnect {
    fn filled(sites: usize, cap: Energy, pool_cap: Option<Energy>) -> Result<Self, SimError> {
        if sites == 0 {
            return Err(SimError::SiteMismatch {
                site: 0,
                what: "an interconnect needs at least one site",
            });
        }
        validate_cap(cap)?;
        let mut ic = Interconnect {
            sites,
            cap: vec![cap; sites * sites],
            loss: vec![0.0; sites * sites],
            wheel: vec![Price::from_dollars_per_mwh(0.0); sites * sites],
            schedule: vec![None; sites * sites],
            pool_cap,
        };
        for s in 0..sites {
            ic.cap[s * sites + s] = Energy::ZERO;
        }
        Ok(ic)
    }

    /// A topology with no lines at all: every settlement is empty and the
    /// fleet behaves exactly like independent sites.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if `sites == 0`.
    pub fn decoupled(sites: usize) -> Result<Self, SimError> {
        Interconnect::filled(sites, Energy::ZERO, None)
    }

    /// The legacy knob as a topology: lossless, free links between every
    /// pair, with both each pair and the fleet pool capped at `cap` per
    /// frame. Settling this greedily is bit-identical to the old single
    /// `transfer_cap` fold.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if `sites == 0`;
    /// [`SimError::InvalidParameter`] for a non-finite or negative cap.
    pub fn pooled(sites: usize, cap: Energy) -> Result<Self, SimError> {
        Interconnect::filled(sites, cap, Some(cap))
    }

    /// Every ordered pair gets its own directed line with `pair_cap` per
    /// frame; no fleet-pooled cap.
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if `sites == 0`;
    /// [`SimError::InvalidParameter`] for a non-finite or negative cap.
    pub fn uniform(sites: usize, pair_cap: Energy) -> Result<Self, SimError> {
        Interconnect::filled(sites, pair_cap, None)
    }

    /// A bidirectional ring: site `i` is linked to its calendar
    /// neighbours `(i + 1) mod n` and `(i − 1) mod n` only, each directed
    /// line capped at `pair_cap` per frame. With fewer than three sites
    /// this degenerates to the full mesh (two sites have only one pair).
    ///
    /// # Errors
    ///
    /// [`SimError::SiteMismatch`] if `sites == 0`;
    /// [`SimError::InvalidParameter`] for a non-finite or negative cap.
    pub fn ring(sites: usize, pair_cap: Energy) -> Result<Self, SimError> {
        validate_cap(pair_cap)?;
        let mut ic = Interconnect::decoupled(sites)?;
        if sites >= 2 {
            for i in 0..sites {
                let next = (i + 1) % sites;
                ic = ic.with_link(i, next, pair_cap)?;
                ic = ic.with_link(next, i, pair_cap)?;
            }
        }
        Ok(ic)
    }

    /// Sets the directed cap of the `from → to` line.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for a bad cap or a diagonal /
    /// out-of-range pair.
    pub fn with_link(mut self, from: usize, to: usize, cap: Energy) -> Result<Self, SimError> {
        validate_cap(cap)?;
        let k = self.pair_index(from, to)?;
        self.cap[k] = cap;
        Ok(self)
    }

    /// Sets the multiplicative loss of the `from → to` line
    /// (`delivered = sent × (1 − loss)`).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] unless `0 ≤ loss < 1` and the pair
    /// is a real directed line.
    pub fn with_loss(mut self, from: usize, to: usize, loss: f64) -> Result<Self, SimError> {
        validate_loss(loss)?;
        let k = self.pair_index(from, to)?;
        self.loss[k] = loss;
        Ok(self)
    }

    /// Sets the per-MWh-sent wheeling price of the `from → to` line.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for a non-finite or negative price
    /// or a bad pair.
    pub fn with_wheeling(mut self, from: usize, to: usize, price: Price) -> Result<Self, SimError> {
        validate_wheel(price)?;
        let k = self.pair_index(from, to)?;
        self.wheel[k] = price;
        Ok(self)
    }

    /// Sets the same loss on every line.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] unless `0 ≤ loss < 1`.
    pub fn with_uniform_loss(mut self, loss: f64) -> Result<Self, SimError> {
        validate_loss(loss)?;
        for l in &mut self.loss {
            *l = loss;
        }
        Ok(self)
    }

    /// Sets the same wheeling price on every line.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for a non-finite or negative price.
    pub fn with_uniform_wheeling(mut self, price: Price) -> Result<Self, SimError> {
        validate_wheel(price)?;
        for w in &mut self.wheel {
            *w = price;
        }
        Ok(self)
    }

    /// Replaces the fleet-pooled per-frame cap (`None` removes it).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for a non-finite or negative cap.
    pub fn with_pool_cap(mut self, cap: Option<Energy>) -> Result<Self, SimError> {
        if let Some(c) = cap {
            validate_cap(c)?;
        }
        self.pool_cap = cap;
        Ok(self)
    }

    /// Gives the `from → to` line a per-frame cap schedule: frame `k`
    /// is capped at `caps[k % caps.len()]` (the schedule cycles), which
    /// overrides the static cap — maintenance windows and congestion
    /// pricing as cheap per-frame bound edits. An all-equal schedule
    /// settles bit-identically to the equivalent static cap.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for an empty schedule, a
    /// non-finite or negative entry, or a diagonal / out-of-range pair.
    pub fn with_cap_schedule(
        mut self,
        from: usize,
        to: usize,
        caps: Vec<Energy>,
    ) -> Result<Self, SimError> {
        if caps.is_empty() {
            return Err(SimError::InvalidParameter {
                what: "interconnect cap schedule",
                requirement: "must contain at least one frame cap",
            });
        }
        for &c in &caps {
            validate_cap(c)?;
        }
        let k = self.pair_index(from, to)?;
        self.schedule[k] = Some(caps);
        Ok(self)
    }

    /// Number of sites the topology spans.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Static directed cap of the `from → to` line (zero for the
    /// diagonal). When the link carries a cap schedule this is only the
    /// template value — use [`cap_at`](Self::cap_at) for the cap that
    /// actually binds a given frame.
    ///
    /// # Panics
    ///
    /// Panics if a site index is out of range.
    #[must_use]
    pub fn cap(&self, from: usize, to: usize) -> Energy {
        assert!(from < self.sites && to < self.sites, "site out of range");
        self.cap[from * self.sites + to]
    }

    /// Directed cap of the `from → to` line *for frame `frame`*: the
    /// schedule entry `frame % len` when the link is scheduled, the
    /// static cap otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a site index is out of range.
    #[must_use]
    pub fn cap_at(&self, from: usize, to: usize, frame: usize) -> Energy {
        assert!(from < self.sites && to < self.sites, "site out of range");
        let k = from * self.sites + to;
        match &self.schedule[k] {
            Some(caps) => caps[frame % caps.len()],
            None => self.cap[k],
        }
    }

    /// The largest cap the `from → to` line can ever carry: the
    /// schedule's maximum when scheduled, the static cap otherwise.
    /// This is what decides whether a link belongs to
    /// [`open_links`](Self::open_links).
    ///
    /// # Panics
    ///
    /// Panics if a site index is out of range.
    #[must_use]
    pub fn cap_ceiling(&self, from: usize, to: usize) -> Energy {
        assert!(from < self.sites && to < self.sites, "site out of range");
        self.ceiling_of(from * self.sites + to)
    }

    fn ceiling_of(&self, k: usize) -> Energy {
        match &self.schedule[k] {
            Some(caps) => caps.iter().fold(Energy::ZERO, |a, &c| a.max(c)),
            None => self.cap[k],
        }
    }

    /// Multiplicative loss of the `from → to` line.
    ///
    /// # Panics
    ///
    /// Panics if a site index is out of range.
    #[must_use]
    pub fn loss(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.sites && to < self.sites, "site out of range");
        self.loss[from * self.sites + to]
    }

    /// Wheeling price of the `from → to` line, per MWh sent.
    ///
    /// # Panics
    ///
    /// Panics if a site index is out of range.
    #[must_use]
    pub fn wheeling(&self, from: usize, to: usize) -> Price {
        assert!(from < self.sites && to < self.sites, "site out of range");
        self.wheel[from * self.sites + to]
    }

    /// The fleet-pooled per-frame cap, if any.
    #[must_use]
    pub fn pool_cap(&self) -> Option<Energy> {
        self.pool_cap
    }

    /// Whether no energy can ever move: every pair cap (including every
    /// schedule entry) is zero, or the pool cap is zero, or there is
    /// only one site.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        self.sites < 2
            || self.pool_cap == Some(Energy::ZERO)
            || (0..self.cap.len()).all(|k| self.ceiling_of(k) <= Energy::ZERO)
    }

    /// The ordered pairs with a usable line (cap ceiling `> 0`, i.e. the
    /// static cap, or any schedule entry, is positive), in row-major
    /// (donor-major) order — the deterministic link roster both
    /// settlement modes iterate.
    pub fn open_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.sites;
        (0..n * n).filter_map(move |k| {
            let (i, j) = (k / n, k % n);
            (i != j && self.ceiling_of(k) > Energy::ZERO).then_some((i, j))
        })
    }

    /// One-line human description, used in table titles. A pooled legacy
    /// topology renders exactly as the old knob did; a uniform mesh gets
    /// one compact line; anything mixed (per-link caps, losses, wheeling
    /// or schedules) is spelled out link by link in sorted (row-major)
    /// order, so sweep table titles are deterministic and reviewable.
    #[must_use]
    pub fn describe(&self) -> String {
        let no_schedules = self.schedule.iter().all(Option::is_none);
        let lossless = self.loss.iter().all(|&l| l == 0.0);
        let free = self.wheel.iter().all(|&w| w.dollars_per_mwh() == 0.0);
        if no_schedules {
            if let Some(pool) = self.pool_cap {
                let pooled_caps = (0..self.sites * self.sites).all(|k| {
                    let (i, j) = (k / self.sites, k % self.sites);
                    self.cap[k] == if i == j { Energy::ZERO } else { pool }
                });
                if lossless && free && pooled_caps {
                    return format!("cap {} MWh/frame", pool.mwh());
                }
            }
        }
        let links: Vec<(usize, usize)> = self.open_links().collect();
        if links.is_empty() {
            return "severed (no open links)".to_owned();
        }
        let pool_suffix = match self.pool_cap {
            Some(p) => format!(", pool cap {} MWh/frame", p.mwh()),
            None => String::new(),
        };
        // Uniform mesh: every ordered pair open with one shared
        // (cap, loss, wheeling) triple and no schedule.
        let (i0, j0) = links[0];
        let full_mesh = links.len() == self.sites * (self.sites - 1);
        let shared = no_schedules
            && links.iter().all(|&(i, j)| {
                self.cap(i, j) == self.cap(i0, j0)
                    && self.loss(i, j) == self.loss(i0, j0)
                    && self.wheeling(i, j) == self.wheeling(i0, j0)
            });
        if full_mesh && shared {
            return format!(
                "mesh cap {} MWh/frame{}{}{}",
                self.cap(i0, j0).mwh(),
                describe_loss(self.loss(i0, j0)),
                describe_wheel(self.wheeling(i0, j0)),
                pool_suffix,
            );
        }
        // Fleet-scale topologies (a 100-site ring has 200 open links)
        // summarize instead of spelling every link out: link-by-link
        // titles stop being reviewable long before that, and table titles
        // should stay one line. Small topologies keep the exact per-link
        // wording below, byte for byte.
        if links.len() > DESCRIBE_LINK_LIMIT {
            return self.describe_summary(&links, &pool_suffix);
        }
        let per_link: Vec<String> = links
            .iter()
            .map(|&(i, j)| {
                let k = i * self.sites + j;
                let cap = match &self.schedule[k] {
                    Some(caps) => {
                        let lo = caps
                            .iter()
                            .fold(Energy::from_mwh(f64::MAX), |a, &c| a.min(c));
                        let hi = self.ceiling_of(k);
                        format!(
                            "cap {}..{} MWh/frame ({}-frame sched)",
                            lo.mwh(),
                            hi.mwh(),
                            caps.len()
                        )
                    }
                    None => format!("cap {} MWh/frame", self.cap[k].mwh()),
                };
                format!(
                    "{i}->{j} {cap}{}{}",
                    describe_loss(self.loss[k]),
                    describe_wheel(self.wheel[k]),
                )
            })
            .collect();
        format!("links {}{}", per_link.join("; "), pool_suffix)
    }

    /// The compact fleet-scale description: counts and min..max ranges
    /// over the open links instead of one clause per link. Deterministic
    /// (ranges fold over the row-major roster) and always one short line
    /// regardless of fleet size.
    fn describe_summary(&self, links: &[(usize, usize)], pool_suffix: &str) -> String {
        let range = |vals: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for v in vals {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi)
        };
        let fmt_range = |(lo, hi): (f64, f64)| {
            if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}..{hi}")
            }
        };
        let k_of = |&(i, j): &(usize, usize)| i * self.sites + j;
        let caps = fmt_range(range(
            &mut links.iter().map(|l| self.ceiling_of(k_of(l)).mwh()),
        ));
        let scheduled = links
            .iter()
            .filter(|l| self.schedule[k_of(l)].is_some())
            .count();
        let sched_note = match scheduled {
            0 => String::new(),
            s => format!(" ({s} scheduled)"),
        };
        let (loss_lo, loss_hi) = range(&mut links.iter().map(|l| self.loss[k_of(l)]));
        let loss = if loss_hi == 0.0 {
            String::new()
        } else {
            format!(" loss {}", fmt_range((loss_lo, loss_hi)))
        };
        let (wheel_lo, wheel_hi) =
            range(&mut links.iter().map(|l| self.wheel[k_of(l)].dollars_per_mwh()));
        let wheel = if wheel_hi == 0.0 {
            String::new()
        } else {
            format!(" wheel ${}/MWh", fmt_range((wheel_lo, wheel_hi)))
        };
        format!(
            "{} sites, {} links, cap {caps} MWh/frame{sched_note}{loss}{wheel}{pool_suffix}",
            self.sites,
            links.len(),
        )
    }

    /// The post-hoc greedy settlement of one frame's exchange: donated
    /// curtailment displaces the most expensive realized real-time
    /// purchases first (ties by site index), donors drawn in site order,
    /// respecting pair caps, the pool cap and per-link economics (a link
    /// whose delivered value does not cover its wheeling price moves
    /// nothing). Pure arithmetic — no RNG, no scheduling dependence.
    ///
    /// # Panics
    ///
    /// Panics if the exchange's site rosters do not match the topology.
    #[must_use]
    pub fn settle_greedy(&self, ex: &FrameExchange) -> FrameSettlement {
        let n = self.sites;
        assert!(
            ex.curtailed.len() == n && ex.rt_energy.len() == n && ex.rt_price.len() == n,
            "exchange covers a different site roster than the topology"
        );
        let mut out = FrameSettlement::default();
        if self.is_silent() {
            return out;
        }
        let mut donors = ex.curtailed.clone();
        // Per-frame caps: a scheduled link binds at its entry for this
        // exchange's frame, everything else at the static cap.
        let mut pair_left: Vec<Energy> = (0..n * n)
            .map(|k| match &self.schedule[k] {
                Some(caps) => caps[ex.frame % caps.len()],
                None => self.cap[k],
            })
            .collect();
        let mut pool_left = self.pool_cap.unwrap_or(Energy::from_mwh(f64::INFINITY));
        // (site, displaceable rt energy, frame-average rt price $/MWh),
        // most expensive first, ties by site index.
        let mut recipients: Vec<(usize, Energy, f64)> = (0..n)
            .filter(|&s| ex.rt_energy[s] > Energy::ZERO)
            .map(|s| (s, ex.rt_energy[s], ex.rt_price[s]))
            .collect();
        recipients.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        for (r_site, mut need, price) in recipients {
            for (d_site, avail) in donors.iter_mut().enumerate() {
                if d_site == r_site {
                    continue;
                }
                let k = d_site * n + r_site;
                let loss = self.loss[k];
                let wheel = self.wheel[k].dollars_per_mwh();
                // Per-link economics: moving energy must save money.
                if price * (1.0 - loss) - wheel <= 0.0 {
                    continue;
                }
                let sent_for_need = Energy::from_mwh(need.mwh() / (1.0 - loss));
                let sent = (*avail).min(pair_left[k]).min(pool_left).min(sent_for_need);
                if sent <= Energy::ZERO {
                    continue;
                }
                let delivered = sent * (1.0 - loss);
                *avail -= sent;
                pair_left[k] -= sent;
                pool_left -= sent;
                need -= delivered;
                out.sent += sent;
                out.delivered += delivered;
                out.savings += Money::from_dollars(delivered.mwh() * price);
                out.wheeling += Money::from_dollars(sent.mwh() * wheel);
            }
            if pool_left <= Energy::ZERO {
                break;
            }
        }
        out
    }
    fn pair_index(&self, from: usize, to: usize) -> Result<usize, SimError> {
        if from >= self.sites || to >= self.sites {
            return Err(SimError::InvalidParameter {
                what: "interconnect pair",
                requirement: "site indices must be within the fleet roster",
            });
        }
        if from == to {
            return Err(SimError::InvalidParameter {
                what: "interconnect pair",
                requirement: "lines connect two distinct sites",
            });
        }
        Ok(from * self.sites + to)
    }
}

fn describe_loss(loss: f64) -> String {
    if loss == 0.0 {
        String::new()
    } else {
        format!(" loss {loss}")
    }
}

fn describe_wheel(wheel: Price) -> String {
    if wheel.dollars_per_mwh() == 0.0 {
        String::new()
    } else {
        format!(" wheel ${}/MWh", wheel.dollars_per_mwh())
    }
}

fn validate_cap(cap: Energy) -> Result<(), SimError> {
    if cap.is_finite() && cap.mwh() >= 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidParameter {
            what: "interconnect cap",
            requirement: "must be finite and non-negative",
        })
    }
}

fn validate_loss(loss: f64) -> Result<(), SimError> {
    if loss.is_finite() && (0.0..1.0).contains(&loss) {
        Ok(())
    } else {
        Err(SimError::InvalidParameter {
            what: "interconnect loss",
            requirement: "must be in [0, 1)",
        })
    }
}

fn validate_wheel(price: Price) -> Result<(), SimError> {
    if price.is_finite() && price.dollars_per_mwh() >= 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidParameter {
            what: "interconnect wheeling price",
            requirement: "must be finite and non-negative",
        })
    }
}

/// One coarse frame's settle-able quantities, extracted from the per-site
/// reports: what each site curtailed (its export budget) and what it
/// bought in the real-time market (its displaceable imports), with the
/// frame-average realized real-time price.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameExchange {
    /// Which coarse frame.
    pub frame: usize,
    /// Curtailed energy per site — the donors' budgets.
    pub curtailed: Vec<Energy>,
    /// Real-time energy purchased per site — the displaceable need.
    pub rt_energy: Vec<Energy>,
    /// Frame-average realized real-time price per site in $/MWh
    /// (zero when the site bought nothing).
    pub rt_price: Vec<f64>,
}

/// What one frame's settlement moved and what it was worth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameSettlement {
    /// Energy sent by donors (before line losses).
    pub sent: Energy,
    /// Energy delivered to recipients (after line losses).
    pub delivered: Energy,
    /// Real-time purchase cost displaced by the delivered energy.
    pub savings: Money,
    /// Wheeling charges on the energy sent.
    pub wheeling: Money,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(curtailed: &[f64], rt: &[f64], price: &[f64]) -> FrameExchange {
        FrameExchange {
            frame: 0,
            curtailed: curtailed.iter().map(|&e| Energy::from_mwh(e)).collect(),
            rt_energy: rt.iter().map(|&e| Energy::from_mwh(e)).collect(),
            rt_price: price.to_vec(),
        }
    }

    #[test]
    fn constructors_validate() {
        assert!(Interconnect::decoupled(0).is_err());
        assert!(Interconnect::pooled(2, Energy::from_mwh(-1.0)).is_err());
        assert!(Interconnect::uniform(2, Energy::from_mwh(f64::NAN)).is_err());
        let ic = Interconnect::uniform(3, Energy::from_mwh(1.0)).unwrap();
        assert!(ic.clone().with_link(0, 0, Energy::ZERO).is_err());
        assert!(ic.clone().with_link(0, 3, Energy::ZERO).is_err());
        assert!(ic.clone().with_loss(0, 1, 1.0).is_err());
        assert!(ic.clone().with_loss(0, 1, -0.1).is_err());
        assert!(ic
            .clone()
            .with_wheeling(0, 1, Price::from_dollars_per_mwh(-2.0))
            .is_err());
        assert!(ic
            .with_pool_cap(Some(Energy::from_mwh(f64::INFINITY)))
            .is_err());
    }

    #[test]
    fn silence_and_link_roster() {
        assert!(Interconnect::decoupled(3).unwrap().is_silent());
        assert!(Interconnect::pooled(1, Energy::from_mwh(5.0))
            .unwrap()
            .is_silent());
        assert!(Interconnect::pooled(3, Energy::ZERO).unwrap().is_silent());
        let ic = Interconnect::decoupled(3)
            .unwrap()
            .with_link(2, 0, Energy::from_mwh(1.0))
            .unwrap();
        assert!(!ic.is_silent());
        assert_eq!(ic.open_links().collect::<Vec<_>>(), vec![(2, 0)]);
        let full = Interconnect::uniform(3, Energy::from_mwh(1.0)).unwrap();
        assert_eq!(full.open_links().count(), 6);
    }

    #[test]
    fn describe_matches_legacy_for_pooled() {
        let ic = Interconnect::pooled(3, Energy::from_mwh(2.0)).unwrap();
        assert_eq!(ic.describe(), "cap 2 MWh/frame");
        let lossy = ic.with_uniform_loss(0.1).unwrap();
        assert_eq!(
            lossy.describe(),
            "mesh cap 2 MWh/frame loss 0.1, pool cap 2 MWh/frame"
        );
    }

    #[test]
    fn describe_spells_out_mixed_meshes_link_by_link() {
        // The old wording collapsed mixed topologies into one "<=" line;
        // now every open link is listed in sorted (row-major) order so
        // sweep table titles are stable and reviewable.
        let ic = Interconnect::decoupled(3)
            .unwrap()
            .with_link(2, 0, Energy::from_mwh(1.5))
            .unwrap()
            .with_link(0, 1, Energy::from_mwh(0.5))
            .unwrap()
            .with_loss(0, 1, 0.05)
            .unwrap()
            .with_wheeling(2, 0, Price::from_dollars_per_mwh(2.0))
            .unwrap();
        assert_eq!(
            ic.describe(),
            "links 0->1 cap 0.5 MWh/frame loss 0.05; 2->0 cap 1.5 MWh/frame wheel $2/MWh"
        );
        assert_eq!(
            Interconnect::decoupled(4).unwrap().describe(),
            "severed (no open links)"
        );
        let sched = Interconnect::decoupled(2)
            .unwrap()
            .with_cap_schedule(
                0,
                1,
                vec![Energy::from_mwh(1.0), Energy::ZERO, Energy::from_mwh(3.0)],
            )
            .unwrap();
        assert_eq!(
            sched.describe(),
            "links 0->1 cap 0..3 MWh/frame (3-frame sched)"
        );
        // The uniform compact form still names the mesh in one line.
        let mesh = Interconnect::uniform(3, Energy::from_mwh(1.0))
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
            .unwrap();
        assert_eq!(mesh.describe(), "mesh cap 1 MWh/frame wheel $2/MWh");
    }

    #[test]
    fn describe_summarizes_fleet_scale_topologies() {
        // Above DESCRIBE_LINK_LIMIT open links the title compacts to
        // counts and ranges — a 100-site ring stays one reviewable line.
        let ring = Interconnect::ring(100, Energy::from_mwh(1.0))
            .unwrap()
            .with_uniform_loss(0.05)
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))
            .unwrap();
        assert_eq!(
            ring.describe(),
            "100 sites, 200 links, cap 1 MWh/frame loss 0.05 wheel $2/MWh"
        );
        // Mixed caps, schedules and losses render as min..max ranges and
        // a scheduled-link count.
        let mixed = Interconnect::ring(7, Energy::from_mwh(1.0))
            .unwrap()
            .with_link(0, 1, Energy::from_mwh(2.5))
            .unwrap()
            .with_loss(1, 2, 0.1)
            .unwrap()
            .with_cap_schedule(2, 3, vec![Energy::from_mwh(0.5), Energy::from_mwh(4.0)])
            .unwrap();
        assert_eq!(
            mixed.describe(),
            "7 sites, 14 links, cap 1..4 MWh/frame (1 scheduled) loss 0..0.1"
        );
    }

    #[test]
    fn describe_keeps_link_by_link_wording_at_the_limit() {
        // A 4-site ring with one perturbed cap has 8 open links — at or
        // below the limit the exact per-link wording is preserved.
        let ic = Interconnect::ring(4, Energy::from_mwh(1.0))
            .unwrap()
            .with_link(0, 1, Energy::from_mwh(2.0))
            .unwrap();
        let d = ic.describe();
        assert!(
            d.starts_with("links 0->1 cap 2 MWh/frame; 0->3 cap 1 MWh/frame;"),
            "{d}"
        );
        assert_eq!(ic.open_links().count(), 8);
    }

    #[test]
    fn ring_links_only_neighbours() {
        let ic = Interconnect::ring(4, Energy::from_mwh(1.0)).unwrap();
        let links: Vec<(usize, usize)> = ic.open_links().collect();
        assert_eq!(
            links,
            vec![
                (0, 1),
                (0, 3),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 0),
                (3, 2)
            ]
        );
        assert_eq!(ic.cap(0, 2), Energy::ZERO);
        // Degenerate rosters still construct.
        assert!(Interconnect::ring(1, Energy::from_mwh(1.0))
            .unwrap()
            .is_silent());
        assert_eq!(
            Interconnect::ring(2, Energy::from_mwh(1.0))
                .unwrap()
                .open_links()
                .count(),
            2
        );
        assert!(Interconnect::ring(0, Energy::from_mwh(1.0)).is_err());
        assert!(Interconnect::ring(3, Energy::from_mwh(-1.0)).is_err());
    }

    #[test]
    fn cap_schedules_cycle_and_validate() {
        let ic = Interconnect::decoupled(2)
            .unwrap()
            .with_cap_schedule(0, 1, vec![Energy::from_mwh(2.0), Energy::ZERO])
            .unwrap();
        assert_eq!(ic.cap_at(0, 1, 0), Energy::from_mwh(2.0));
        assert_eq!(ic.cap_at(0, 1, 1), Energy::ZERO);
        assert_eq!(ic.cap_at(0, 1, 2), Energy::from_mwh(2.0), "cycles");
        assert_eq!(ic.cap_ceiling(0, 1), Energy::from_mwh(2.0));
        // The schedule overrides the static cap, which stays the
        // template value.
        assert_eq!(ic.cap(0, 1), Energy::ZERO);
        assert!(
            !ic.is_silent(),
            "a schedule with a positive entry opens the link"
        );
        assert_eq!(ic.open_links().collect::<Vec<_>>(), vec![(0, 1)]);
        // Frame 1 is a maintenance window: the greedy settlement moves
        // nothing there but settles frame 0 normally.
        let mut ex = exchange(&[3.0, 0.0], &[0.0, 2.0], &[0.0, 60.0]);
        let open = ic.settle_greedy(&ex);
        assert!((open.sent.mwh() - 2.0).abs() < 1e-12);
        ex.frame = 1;
        assert_eq!(ic.settle_greedy(&ex), FrameSettlement::default());

        let base = Interconnect::decoupled(2).unwrap();
        assert!(base.clone().with_cap_schedule(0, 1, vec![]).is_err());
        assert!(base
            .clone()
            .with_cap_schedule(0, 0, vec![Energy::from_mwh(1.0)])
            .is_err());
        assert!(base
            .with_cap_schedule(0, 1, vec![Energy::from_mwh(-1.0)])
            .is_err());
    }

    #[test]
    fn greedy_prefers_expensive_recipients_and_respects_caps() {
        let ic = Interconnect::pooled(3, Energy::from_mwh(2.0)).unwrap();
        // Site 0 curtails 3 MWh; site 1 pays $80, site 2 pays $40.
        let ex = exchange(&[3.0, 0.0, 0.0], &[0.0, 1.5, 2.0], &[0.0, 80.0, 40.0]);
        let s = ic.settle_greedy(&ex);
        // 1.5 MWh to site 1 first, then 0.5 MWh (pool remainder) to site 2.
        assert!((s.sent.mwh() - 2.0).abs() < 1e-12);
        assert_eq!(s.sent, s.delivered);
        assert!((s.savings.dollars() - (1.5 * 80.0 + 0.5 * 40.0)).abs() < 1e-9);
        assert_eq!(s.wheeling, Money::ZERO);
    }

    #[test]
    fn losses_shrink_delivery_and_wheeling_bills_the_sender() {
        let ic = Interconnect::uniform(2, Energy::from_mwh(10.0))
            .unwrap()
            .with_uniform_loss(0.2)
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(5.0))
            .unwrap();
        let ex = exchange(&[4.0, 0.0], &[0.0, 2.0], &[0.0, 50.0]);
        let s = ic.settle_greedy(&ex);
        // Need 2 delivered → 2.5 sent; donor has 4, caps allow it.
        assert!((s.sent.mwh() - 2.5).abs() < 1e-12);
        assert!((s.delivered.mwh() - 2.0).abs() < 1e-12);
        assert!((s.savings.dollars() - 100.0).abs() < 1e-9);
        assert!((s.wheeling.dollars() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn uneconomic_links_move_nothing() {
        // Delivered value 50 × 0.5 = $25 < $30 wheeling: the link is shut.
        let ic = Interconnect::uniform(2, Energy::from_mwh(10.0))
            .unwrap()
            .with_uniform_loss(0.5)
            .unwrap()
            .with_uniform_wheeling(Price::from_dollars_per_mwh(30.0))
            .unwrap();
        let ex = exchange(&[4.0, 0.0], &[0.0, 2.0], &[0.0, 50.0]);
        assert_eq!(ic.settle_greedy(&ex), FrameSettlement::default());
    }

    #[test]
    fn pair_caps_bind_per_directed_line() {
        let ic = Interconnect::decoupled(3)
            .unwrap()
            .with_link(0, 2, Energy::from_mwh(0.5))
            .unwrap()
            .with_link(1, 2, Energy::from_mwh(0.25))
            .unwrap();
        let ex = exchange(&[5.0, 5.0, 0.0], &[0.0, 0.0, 3.0], &[0.0, 0.0, 60.0]);
        let s = ic.settle_greedy(&ex);
        assert!((s.sent.mwh() - 0.75).abs() < 1e-12);
        assert!((s.savings.dollars() - 0.75 * 60.0).abs() < 1e-9);
    }

    #[test]
    fn settlement_is_strictly_inter_site() {
        // One site both curtails and buys: nothing may move to itself.
        let ic = Interconnect::pooled(2, Energy::from_mwh(10.0)).unwrap();
        let ex = exchange(&[3.0, 0.0], &[2.0, 0.0], &[55.0, 0.0]);
        assert_eq!(ic.settle_greedy(&ex), FrameSettlement::default());
    }
}

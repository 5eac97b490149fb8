use dpss_units::Energy;

use crate::CoreError;

/// Which grid markets the controller may use (the Fig. 7 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MarketMode {
    /// Long-term-ahead plus real-time purchasing (the paper's "TM" case).
    #[default]
    TwoMarkets,
    /// Real-time purchasing only (the paper's "RTM" case): `g_bef(t) ≡ 0`.
    RealTimeOnly,
}

/// Which per-slot objective the real-time balancing step **P5** minimizes.
///
/// The conference text's printed P3/P5 coefficients contain sign typos:
/// they do not match the drift-plus-penalty bound of Eqs. (2)(12)(15).
/// Both interpretations are implemented so the difference can be measured
/// (`dpss-bench`'s `ablation_report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum P5Objective {
    /// The drift-plus-penalty bound derived from Eqs. (2)(12)(15):
    /// `V·(g_rt·p_rt + n·Cb + w_pen·W) − (Q+Y)·s_dt + X·(ηc·brc − ηd·bdc)`.
    #[default]
    Derived,
    /// The P5 expression exactly as printed in the paper:
    /// `g_rt·[V·p_rt − Q − Y] + γ·[Q² − Q·Y] + V·n·Cb + V·W
    ///  + (Q+X+Y)·(brc − bdc)`.
    PaperLiteral,
}

/// How the long-term purchasing step **P4** bounds its buy (ablation).
///
/// The default is [`P4Variant::WasteAware`]: the printed P4 buys the full
/// interconnect (`T·Pgrid`) whenever the weight `V·p_lt − Q − Y` turns
/// negative, which on realistic traces over-buys far beyond what the
/// frame can absorb and burns the surplus as waste (`dpss-bench`'s
/// `ablation_report` quantifies this). The waste-aware cap keeps the
/// trigger semantics but never buys more than the frame's projected
/// absorption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum P4Variant {
    /// Exactly the paper's P4: when the weight `V·p_lt − Q − Y` is
    /// negative, buy up to the interconnect limit.
    PaperLiteral,
    /// Caps the buy at the frame's projected absorption (expected net
    /// demand + backlog + battery headroom), avoiding deliberate waste
    /// when queues are long (default).
    #[default]
    WasteAware,
}

/// Tunables of the [`SmartDpss`](crate::SmartDpss) controller.
///
/// # Examples
///
/// ```
/// use dpss_core::SmartDpssConfig;
///
/// // Paper defaults: V = 1, ε = 0.5, two markets.
/// let c = SmartDpssConfig::icdcs13();
/// c.validate().unwrap();
/// // The Fig. 6(a) sweep varies V.
/// let aggressive = SmartDpssConfig::icdcs13().with_v(5.0);
/// assert_eq!(aggressive.v, 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartDpssConfig {
    /// The cost–delay trade-off parameter `V > 0`: larger values weigh cost
    /// more heavily, pushing time-average cost within `O(1/V)` of optimal
    /// at the price of `O(V)` delay (Theorem 2).
    pub v: f64,
    /// The ε-persistent-queue growth rate (Eq. (12)), in MWh per slot:
    /// larger ε serves the backlog sooner (less delay, more cost — Fig. 7).
    pub epsilon: f64,
    /// Market structure.
    pub market: MarketMode,
    /// P5 objective interpretation (ablation).
    pub p5_objective: P5Objective,
    /// P4 purchase-cap variant (ablation).
    pub p4_variant: P4Variant,
    /// The per-slot bound `Ddtmax` on delay-tolerant arrivals, used by the
    /// `Umax`/`X(t)` shift (Eq. (14)) and the Theorem 2 bounds. Must match
    /// the demand model feeding the simulation.
    pub ddt_max: Energy,
    /// Route P4/P5 through the `dpss-lp` simplex instead of the exact
    /// closed-form solver. Produces identical decisions (asserted in
    /// tests); mainly useful for cross-validation and benchmarks.
    pub use_lp_solver: bool,
}

impl SmartDpssConfig {
    /// Paper defaults (§VI-A): `V = 1`, `ε = 0.5`, two markets, derived P5
    /// objective, waste-aware P4, `Ddtmax` from the default demand model.
    #[must_use]
    pub fn icdcs13() -> Self {
        SmartDpssConfig {
            v: 1.0,
            epsilon: 0.5,
            market: MarketMode::default(),
            p5_objective: P5Objective::default(),
            p4_variant: P4Variant::default(),
            ddt_max: dpss_traces::paper_ddt_max(),
            use_lp_solver: false,
        }
    }

    /// Sets the cost–delay parameter `V`.
    #[must_use]
    pub fn with_v(mut self, v: f64) -> Self {
        self.v = v;
        self
    }

    /// Sets the delay-control parameter `ε`.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the market structure.
    #[must_use]
    pub fn with_market(mut self, market: MarketMode) -> Self {
        self.market = market;
        self
    }

    /// Sets the P5 objective interpretation.
    #[must_use]
    pub fn with_p5_objective(mut self, objective: P5Objective) -> Self {
        self.p5_objective = objective;
        self
    }

    /// Sets the P4 purchase-cap variant.
    #[must_use]
    pub fn with_p4_variant(mut self, variant: P4Variant) -> Self {
        self.p4_variant = variant;
        self
    }

    /// Sets `Ddtmax`.
    #[must_use]
    pub fn with_ddt_max(mut self, ddt_max: Energy) -> Self {
        self.ddt_max = ddt_max;
        self
    }

    /// Enables or disables the LP-backed subproblem solver.
    #[must_use]
    pub fn with_lp_solver(mut self, use_lp: bool) -> Self {
        self.use_lp_solver = use_lp;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] describing the first violated rule.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.v.is_finite() && self.v > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: "v",
                requirement: "must be finite and positive",
            });
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: "epsilon",
                requirement: "must be finite and positive",
            });
        }
        if !(self.ddt_max.is_finite() && self.ddt_max.mwh() >= 0.0) {
            return Err(CoreError::InvalidConfig {
                what: "ddt_max",
                requirement: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

impl Default for SmartDpssConfig {
    fn default() -> Self {
        SmartDpssConfig::icdcs13()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SmartDpssConfig::icdcs13();
        assert_eq!(c.v, 1.0);
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.market, MarketMode::TwoMarkets);
        assert_eq!(c.p5_objective, P5Objective::Derived);
        assert_eq!(c.p4_variant, P4Variant::WasteAware);
        assert!(!c.use_lp_solver);
        c.validate().unwrap();
        assert_eq!(SmartDpssConfig::default(), c);
    }

    #[test]
    fn builder_setters() {
        let c = SmartDpssConfig::icdcs13()
            .with_v(0.05)
            .with_epsilon(2.0)
            .with_market(MarketMode::RealTimeOnly)
            .with_p5_objective(P5Objective::PaperLiteral)
            .with_p4_variant(P4Variant::WasteAware)
            .with_ddt_max(Energy::from_mwh(1.0))
            .with_lp_solver(true);
        assert_eq!(c.v, 0.05);
        assert_eq!(c.epsilon, 2.0);
        assert_eq!(c.market, MarketMode::RealTimeOnly);
        assert_eq!(c.p5_objective, P5Objective::PaperLiteral);
        assert_eq!(c.p4_variant, P4Variant::WasteAware);
        assert_eq!(c.ddt_max, Energy::from_mwh(1.0));
        assert!(c.use_lp_solver);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(SmartDpssConfig::icdcs13().with_v(0.0).validate().is_err());
        assert!(SmartDpssConfig::icdcs13()
            .with_v(f64::NAN)
            .validate()
            .is_err());
        assert!(SmartDpssConfig::icdcs13()
            .with_epsilon(-1.0)
            .validate()
            .is_err());
        assert!(SmartDpssConfig::icdcs13()
            .with_ddt_max(Energy::from_mwh(-1.0))
            .validate()
            .is_err());
    }
}

//! Internal deterministic randomness helpers.
//!
//! `rand` 0.8 ships only uniform sampling without the `rand_distr` add-on;
//! the handful of distributions the generators need (gaussian, Poisson,
//! exponential) are small enough to implement here, keeping the dependency
//! footprint to the allowed list.

use rand::Rng;

/// Derives an independent sub-seed from a master seed and a component tag
/// (splitmix64 finalizer — full avalanche, so per-component streams are
/// decorrelated).
pub(crate) fn subseed(master: u64, tag: u64) -> u64 {
    splitmix64(master ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

use crate::seed::splitmix64;

/// Standard gaussian via Box–Muller (one value per call; simple and fast
/// enough for trace generation).
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Poisson sample via Knuth's product method; adequate for the small rates
/// (λ ≲ 20) used by batch-arrival generation. `limit` is the caller's
/// `exp(−λ)`, so a rate that repeats pays for its `exp` once.
pub(crate) fn poisson<R: Rng>(rng: &mut R, lambda: f64, limit: f64) -> u64 {
    debug_assert!(lambda >= 0.0, "lambda must be non-negative");
    debug_assert_eq!(
        limit.to_bits(),
        (-lambda).exp().to_bits(),
        "limit is exp(-lambda)"
    );
    if lambda <= 0.0 {
        return 0;
    }
    let mut product: f64 = 1.0;
    let mut count = 0u64;
    loop {
        product *= rng.gen::<f64>();
        if product <= limit {
            return count;
        }
        count += 1;
        if count > 10_000 {
            // Numerical guard for absurd λ; callers validate upstream.
            return count;
        }
    }
}

/// Exponential sample with the given mean (inverse-CDF method).
pub(crate) fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean >= 0.0, "mean must be non-negative");
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen::<f64>();
    -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
}

/// First-order autoregressive gaussian process holding its own state:
/// `x ← ρ·x + √(1−ρ²)·σ·ε`, stationary with variance σ².
#[derive(Debug, Clone)]
pub(crate) struct Ar1 {
    rho: f64,
    /// The innovation gain `√(1−ρ²)·σ`, multiplied in that order.
    gain: f64,
    state: f64,
}

impl Ar1 {
    pub(crate) fn new(rho: f64, sigma: f64) -> Self {
        debug_assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
        Ar1 {
            rho,
            gain: (1.0 - rho * rho).sqrt() * sigma,
            state: 0.0,
        }
    }

    pub(crate) fn next<R: Rng>(&mut self, rng: &mut R) -> f64 {
        let innovation = self.gain * gaussian(rng);
        self.state = self.rho * self.state + innovation;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn subseed_changes_with_tag_and_master() {
        assert_ne!(subseed(1, 0), subseed(1, 1));
        assert_ne!(subseed(1, 0), subseed(2, 0));
        assert_eq!(subseed(7, 3), subseed(7, 3), "deterministic");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(5);
        for &lambda in &[0.3f64, 2.0, 8.0] {
            let n = 20_000;
            let limit = (-lambda).exp();
            let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda, limit)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.1 + lambda * 0.05,
                "lambda {lambda}, mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0, 1.0), 0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 40_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.08, "mean {mean}");
        assert_eq!(exponential(&mut rng, 0.0), 0.0);
        assert!(exponential(&mut rng, 1.0) >= 0.0);
    }

    #[test]
    fn ar1_is_stationary_and_autocorrelated() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut ar = Ar1::new(0.8, 1.0);
        let n = 60_000;
        let xs: Vec<f64> = (0..n).map(|_| ar.next(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n as f64 - 1.0);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
        let rho_hat = lag1 / var;
        assert!((rho_hat - 0.8).abs() < 0.05, "rho {rho_hat}");
    }
}

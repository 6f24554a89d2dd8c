//! Service-time distributions with analytic moments.
//!
//! The paper's extended model allows *general* service-time distributions
//! (the G in M/G/1). These samplers back two things:
//!
//! * validation — brute-force single-server queue simulations whose
//!   measured latency is compared against Eq. 2 (see the crate tests);
//! * workload generation — batch-job durations and request service times in
//!   `pcs-workloads` / `pcs-sim`.
//!
//! All samplers draw from a caller-supplied [`rand::Rng`] so simulations
//! stay deterministic under a fixed seed. Moments are analytic, letting
//! tests compare measured against expected without estimation error.

use rand::Rng;

/// A positive service-time distribution with known moments.
pub trait ServiceDistribution {
    /// Draws one sample (seconds).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
    /// Analytic mean (seconds).
    fn mean(&self) -> f64;
    /// Analytic variance (seconds²).
    fn variance(&self) -> f64;
    /// Squared coefficient of variation `var/mean²`.
    fn scv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate (1/s).
    ///
    /// # Panics
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be finite and positive, got {rate}"
        );
        Exponential { rate }
    }

    /// Creates an exponential distribution with the given mean (s).
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be finite and positive, got {mean}"
        );
        Exponential { rate: 1.0 / mean }
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ServiceDistribution for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; 1-u avoids ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Deterministic (constant) service time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a constant distribution.
    ///
    /// # Panics
    /// Panics unless `value` is finite and non-negative.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "deterministic value must be finite and non-negative, got {value}"
        );
        Deterministic { value }
    }
}

impl ServiceDistribution for Deterministic {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
}

/// Uniform distribution on `[low, high]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high]`.
    ///
    /// # Panics
    /// Panics unless `0 <= low <= high` and both are finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low >= 0.0 && low <= high,
            "uniform bounds must satisfy 0 <= low <= high, got [{low}, {high}]"
        );
        Uniform { low, high }
    }
}

impl ServiceDistribution for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.low == self.high {
            return self.low;
        }
        rng.gen_range(self.low..self.high)
    }
    fn mean(&self) -> f64 {
        (self.low + self.high) / 2.0
    }
    fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }
}

/// Log-normal distribution parameterised by the underlying normal's
/// `mu`/`sigma`. Samples via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    /// Panics unless `sigma` is finite and non-negative and `mu` is finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "log-normal mu must be finite");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "log-normal sigma must be finite and non-negative, got {sigma}"
        );
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with a target *arithmetic* mean and SCV.
    ///
    /// Useful for building a service-time distribution with prescribed
    /// Eq. 2 inputs: `scv = exp(sigma²) − 1`.
    pub fn with_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "log-normal mean must be finite and positive, got {mean}"
        );
        assert!(
            scv.is_finite() && scv >= 0.0,
            "log-normal scv must be finite and non-negative, got {scv}"
        );
        let sigma2 = (1.0 + scv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draws a standard normal via Box–Muller.
    fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        standard_normal(rng)
    }
}

/// Draws one standard-normal variate via Box–Muller.
///
/// Shared by the log-normal sampler and by measurement-noise models in the
/// monitoring substrate.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

impl ServiceDistribution for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::Moments;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_moments<D: ServiceDistribution>(dist: &D, n: usize, tol: f64, name: &str) {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut m = Moments::new();
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(x >= 0.0, "{name}: sample must be non-negative");
            m.push(x);
        }
        let mean_err = (m.mean() - dist.mean()).abs() / dist.mean().max(1e-12);
        assert!(
            mean_err < tol,
            "{name}: sample mean {} vs analytic {} (err {mean_err:.4})",
            m.mean(),
            dist.mean()
        );
        if dist.variance() > 0.0 {
            let var_err = (m.variance() - dist.variance()).abs() / dist.variance();
            assert!(
                var_err < tol * 8.0,
                "{name}: sample var {} vs analytic {} (err {var_err:.4})",
                m.variance(),
                dist.variance()
            );
        }
    }

    #[test]
    fn exponential_moments() {
        check_moments(&Exponential::new(50.0), 200_000, 0.01, "exp");
        assert!((Exponential::with_mean(0.02).rate() - 50.0).abs() < 1e-12);
        assert!((Exponential::new(50.0).scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_moments() {
        let d = Deterministic::new(0.005);
        check_moments(&d, 100, 1e-12, "det");
        assert_eq!(d.scv(), 0.0);
    }

    #[test]
    fn uniform_moments() {
        check_moments(&Uniform::new(0.001, 0.009), 200_000, 0.01, "uniform");
        // Degenerate uniform behaves as constant.
        let u = Uniform::new(0.5, 0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(u.sample(&mut rng), 0.5);
    }

    #[test]
    fn lognormal_moments() {
        check_moments(&LogNormal::new(-5.0, 0.5), 300_000, 0.02, "lognormal");
    }

    #[test]
    fn lognormal_with_mean_scv_hits_targets() {
        let d = LogNormal::with_mean_scv(0.010, 1.5);
        assert!((d.mean() - 0.010).abs() / 0.010 < 1e-12);
        assert!((d.scv() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }
}

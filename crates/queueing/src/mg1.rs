//! The M/G/1 latency model of paper Eq. 2, with saturation handling.
//!
//! A component is modelled as a single server with Poisson request arrivals
//! (rate λ) and generally-distributed service times (mean x̄ = 1/µ, squared
//! coefficient of variation C²ₓ). Its expected latency (queueing delay plus
//! service) is the Pollaczek–Khinchine formula exactly as printed in the
//! paper:
//!
//! ```text
//! l = x̄ + λ(1 + C²ₓ) / (2µ²(1 − ρ)),       ρ = λ/µ
//! ```
//!
//! When C²ₓ = 1 (exponential service) this collapses to the M/M/1 form
//! `l = 1/(µ − λ)`, which the paper notes explicitly; [`Mm1`] provides it
//! directly and the unit tests assert the collapse.
//!
//! ## Saturation
//!
//! Eq. 2 diverges as ρ → 1 and is meaningless for ρ ≥ 1, but the scheduler
//! must still *rank* overloaded placements (a node at ρ = 2.5 is worse than
//! one at ρ = 1.1). [`Mg1::estimate`] continues the latency curve past
//! ρ* = [`Mg1::RHO_KNEE`] (0.995) with its first-order Taylor expansion,
//! keeping the estimate finite, continuous, and strictly monotone in ρ.

/// The result of evaluating the latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEstimate {
    /// Expected latency in seconds (service + queueing delay).
    pub latency: f64,
    /// Expected queueing delay alone, in seconds.
    pub wait: f64,
    /// Server utilisation ρ = λ/µ.
    pub utilization: f64,
    /// True if ρ reached the saturation knee [`Mg1::RHO_KNEE`] and the
    /// linear continuation was used.
    pub saturated: bool,
}

/// An M/G/1 queue parameterised per paper Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mg1 {
    /// Request arrival rate λ, in 1/second.
    pub arrival_rate: f64,
    /// Mean service time x̄, in seconds.
    pub mean_service: f64,
    /// Squared coefficient of variation of service time, C²ₓ.
    pub scv: f64,
}

impl Mg1 {
    /// Utilisation ρ* at which the exact P–K formula hands over to its
    /// linear continuation.
    pub const RHO_KNEE: f64 = 0.995;

    /// Creates the model.
    ///
    /// # Panics
    /// Panics on negative or non-finite parameters (programmer error:
    /// monitored rates and predicted service times are non-negative by
    /// construction).
    pub fn new(arrival_rate: f64, mean_service: f64, scv: f64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate >= 0.0,
            "arrival rate must be finite and non-negative, got {arrival_rate}"
        );
        assert!(
            mean_service.is_finite() && mean_service >= 0.0,
            "mean service time must be finite and non-negative, got {mean_service}"
        );
        assert!(
            scv.is_finite() && scv >= 0.0,
            "squared coefficient of variation must be finite and non-negative, got {scv}"
        );
        Mg1 {
            arrival_rate,
            mean_service,
            scv,
        }
    }

    /// Server utilisation ρ = λ·x̄.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.arrival_rate * self.mean_service
    }

    /// Expected latency (paper Eq. 2), continued linearly from
    /// [`RHO_KNEE`](Self::RHO_KNEE) on.
    pub fn estimate(&self) -> QueueEstimate {
        let rho = self.utilization();
        if self.mean_service == 0.0 {
            return QueueEstimate {
                latency: 0.0,
                wait: 0.0,
                utilization: 0.0,
                saturated: false,
            };
        }
        let (wait, saturated) = if rho < Self::RHO_KNEE {
            (self.pk_wait(rho), false)
        } else {
            // First-order continuation of the P–K wait beyond the knee:
            // W(ρ) ≈ W(ρ*) + W'(ρ*)·(ρ − ρ*), with
            // W(ρ) = ρ·x̄·(1+C²)/(2(1−ρ)) and W'(ρ) = x̄·(1+C²)/(2(1−ρ)²).
            let knee = Self::RHO_KNEE;
            let w_knee = self.pk_wait(knee);
            let slope = self.mean_service * (1.0 + self.scv) / (2.0 * (1.0 - knee) * (1.0 - knee));
            (w_knee + slope * (rho - knee), true)
        };
        QueueEstimate {
            latency: self.mean_service + wait,
            wait,
            utilization: rho,
            saturated,
        }
    }

    /// The exact Pollaczek–Khinchine waiting time for ρ < 1.
    ///
    /// Written as in the paper, `λ(1+C²ₓ)/(2µ²(1−ρ))`; with µ = 1/x̄ this is
    /// `λ·x̄²·(1+C²ₓ)/(2(1−ρ)) = ρ·x̄·(1+C²ₓ)/(2(1−ρ))`.
    #[inline]
    fn pk_wait(&self, rho: f64) -> f64 {
        let mu = 1.0 / self.mean_service;
        self.arrival_rate * (1.0 + self.scv) / (2.0 * mu * mu * (1.0 - rho))
    }
}

/// The M/M/1 special case the paper calls out: exponential service times
/// (C²ₓ = 1) give `l = 1/(µ − λ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1 {
    /// Request arrival rate λ, in 1/second.
    pub arrival_rate: f64,
    /// Service rate µ, in 1/second.
    pub service_rate: f64,
}

impl Mm1 {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics on non-finite or negative rates, or zero service rate.
    pub fn new(arrival_rate: f64, service_rate: f64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate >= 0.0,
            "arrival rate must be finite and non-negative"
        );
        assert!(
            service_rate.is_finite() && service_rate > 0.0,
            "service rate must be finite and positive"
        );
        Mm1 {
            arrival_rate,
            service_rate,
        }
    }

    /// Expected latency `1/(µ − λ)` for λ < µ; `None` if unstable.
    pub fn expected_latency(&self) -> Option<f64> {
        if self.arrival_rate < self.service_rate {
            Some(1.0 / (self.service_rate - self.arrival_rate))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_latency_is_service_time() {
        let q = Mg1::new(0.0, 0.010, 1.0);
        let est = q.estimate();
        assert!((est.latency - 0.010).abs() < 1e-15);
        assert_eq!(est.wait, 0.0);
        assert!(!est.saturated);
    }

    #[test]
    fn collapses_to_mm1_for_unit_scv() {
        // Paper: with C²ₓ = 1 the M/G/1 equals M/M/1, l = 1/(µ − λ).
        for (lambda, mu) in [(10.0, 100.0), (50.0, 100.0), (90.0, 100.0)] {
            let mg1 = Mg1::new(lambda, 1.0 / mu, 1.0).estimate();
            let mm1 = Mm1::new(lambda, mu).expected_latency().unwrap();
            assert!(
                (mg1.latency - mm1).abs() / mm1 < 1e-12,
                "λ={lambda} µ={mu}: mg1={} mm1={mm1}",
                mg1.latency
            );
        }
    }

    #[test]
    fn md1_halves_the_mm1_wait() {
        // Deterministic service (C²=0) has exactly half the M/M/1 wait.
        let lambda = 60.0;
        let mu = 100.0;
        let wait_mm1 = Mg1::new(lambda, 1.0 / mu, 1.0).estimate().wait;
        let wait_md1 = Mg1::new(lambda, 1.0 / mu, 0.0).estimate().wait;
        assert!((wait_md1 - wait_mm1 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_formula_verbatim() {
        // Direct evaluation of Eq. 2 for arbitrary parameters.
        let lambda = 120.0;
        let xbar = 0.004;
        let scv = 1.7;
        let mu = 1.0 / xbar;
        let rho = lambda / mu;
        let expected = xbar + lambda * (1.0 + scv) / (2.0 * mu * mu * (1.0 - rho));
        let got = Mg1::new(lambda, xbar, scv).estimate().latency;
        assert!((got - expected).abs() < 1e-15);
    }

    #[test]
    fn saturation_is_finite_continuous_and_monotone() {
        let xbar = 0.002;
        let mut prev = 0.0;
        for i in 0..400 {
            let rho = 0.90 + i as f64 * 0.005; // crosses the knee and 1.0
            let lambda = rho / xbar;
            let est = Mg1::new(lambda, xbar, 1.2).estimate();
            assert!(
                est.latency.is_finite(),
                "latency must stay finite at ρ={rho}"
            );
            assert!(
                est.latency > prev,
                "latency must be strictly monotone in ρ (ρ={rho})"
            );
            prev = est.latency;
        }
    }

    #[test]
    fn saturation_flag_set_past_knee() {
        let xbar = 0.002;
        let q = Mg1::new(0.9 / xbar, xbar, 1.0);
        assert!(!q.estimate().saturated);
        let q = Mg1::new(1.2 / xbar, xbar, 1.0);
        assert!(q.estimate().saturated);
    }

    #[test]
    fn continuation_is_continuous_at_knee() {
        let xbar = 0.002;
        let knee = Mg1::RHO_KNEE;
        let eps = 1e-9;
        let below = Mg1::new((knee - eps) / xbar, xbar, 1.3).estimate();
        let above = Mg1::new((knee + eps) / xbar, xbar, 1.3).estimate();
        assert!((below.latency - above.latency).abs() < 1e-6);
    }

    #[test]
    fn mm1_unstable_returns_none() {
        assert_eq!(Mm1::new(100.0, 100.0).expected_latency(), None);
        assert_eq!(Mm1::new(150.0, 100.0).expected_latency(), None);
    }

    #[test]
    fn higher_variability_means_higher_wait() {
        let base = Mg1::new(80.0, 0.01, 0.5).estimate().wait;
        let more = Mg1::new(80.0, 0.01, 2.0).estimate().wait;
        assert!(more > base);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn negative_lambda_panics() {
        let _ = Mg1::new(-1.0, 0.01, 1.0);
    }

    #[test]
    fn zero_service_time_is_zero_latency() {
        let est = Mg1::new(100.0, 0.0, 1.0).estimate();
        assert_eq!(est.latency, 0.0);
        assert_eq!(est.utilization, 0.0);
    }
}

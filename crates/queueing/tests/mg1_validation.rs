//! Validates the Pollaczek–Khinchine latency model (paper Eq. 2) against a
//! brute-force single-server FIFO queue simulation, and property-tests the
//! model's structural invariants.

use pcs_queueing::{Deterministic, Exponential, LogNormal, Mg1, Moments, ServiceDistribution};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Simulates an M/G/1 FIFO queue and returns the mean latency.
///
/// Lindley recursion: with Poisson arrivals (rate lambda) and iid service
/// times, the waiting time of customer n is
/// `W_{n+1} = max(0, W_n + S_n - A_{n+1})`.
fn simulate_mg1<D: ServiceDistribution>(
    lambda: f64,
    service: &D,
    customers: usize,
    seed: u64,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let interarrival = Exponential::new(lambda);
    let mut wait = 0.0_f64;
    let mut latencies = Moments::new();
    // Warm-up: discard the first 10% so the mean reflects steady state.
    let warmup = customers / 10;
    for i in 0..customers {
        let s = service.sample(&mut rng);
        if i >= warmup {
            latencies.push(wait + s);
        }
        let a = interarrival.sample(&mut rng);
        wait = (wait + s - a).max(0.0);
    }
    latencies.mean()
}

fn check_against_simulation<D: ServiceDistribution>(lambda: f64, service: &D, tol: f64) {
    let analytic = Mg1::new(lambda, service.mean(), service.scv())
        .estimate()
        .latency;
    let simulated = simulate_mg1(lambda, service, 400_000, 1234);
    let rel = (analytic - simulated).abs() / simulated;
    assert!(
        rel < tol,
        "λ={lambda}: analytic {analytic:.6} vs simulated {simulated:.6} (rel err {rel:.4})"
    );
}

#[test]
fn pk_matches_simulated_mm1() {
    // Exponential service: the M/M/1 case the paper highlights.
    check_against_simulation(50.0, &Exponential::with_mean(0.010), 0.05);
}

#[test]
fn pk_matches_simulated_md1() {
    // Deterministic service: SCV = 0.
    check_against_simulation(60.0, &Deterministic::new(0.010), 0.05);
}

#[test]
fn pk_matches_simulated_lognormal_queue() {
    // A "general" service time with SCV > 1, the regime that amplifies
    // tail latency in the paper's narrative.
    check_against_simulation(40.0, &LogNormal::with_mean_scv(0.010, 2.0), 0.06);
}

#[test]
fn pk_matches_simulation_across_loads() {
    for lambda in [10.0, 30.0, 60.0, 80.0] {
        check_against_simulation(lambda, &Exponential::with_mean(0.010), 0.06);
    }
}

proptest! {
    /// Latency is monotone non-decreasing in the arrival rate.
    #[test]
    fn latency_monotone_in_lambda(
        xbar in 0.0005_f64..0.05,
        scv in 0.0_f64..4.0,
        l1 in 0.0_f64..2000.0,
        l2 in 0.0_f64..2000.0,
    ) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let a = Mg1::new(lo, xbar, scv).estimate().latency;
        let b = Mg1::new(hi, xbar, scv).estimate().latency;
        prop_assert!(b >= a - 1e-12);
    }

    /// Latency is monotone non-decreasing in service-time variability.
    #[test]
    fn latency_monotone_in_scv(
        xbar in 0.0005_f64..0.05,
        lambda in 0.0_f64..500.0,
        s1 in 0.0_f64..4.0,
        s2 in 0.0_f64..4.0,
    ) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let a = Mg1::new(lambda, xbar, lo).estimate().latency;
        let b = Mg1::new(lambda, xbar, hi).estimate().latency;
        prop_assert!(b >= a - 1e-12);
    }

    /// The estimate is always finite and at least the bare service time.
    #[test]
    fn latency_finite_and_bounded_below(
        xbar in 0.0_f64..0.05,
        lambda in 0.0_f64..5000.0,
        scv in 0.0_f64..4.0,
    ) {
        let est = Mg1::new(lambda, xbar, scv).estimate();
        prop_assert!(est.latency.is_finite());
        prop_assert!(est.latency >= xbar - 1e-15);
        prop_assert!(est.wait >= 0.0);
    }

    /// For any service time and SCV the continuation stays monotone
    /// across the saturation knee.
    #[test]
    fn monotone_across_custom_knee(
        xbar in 0.001_f64..0.02,
        scv in 0.0_f64..3.0,
    ) {
        let knee = Mg1::RHO_KNEE;
        let mut prev = f64::NEG_INFINITY;
        for step in 0..50 {
            let rho = knee - 0.2 + step as f64 * 0.01; // sweeps across knee
            let lambda = rho / xbar;
            let est = Mg1::new(lambda, xbar, scv).estimate();
            prop_assert_eq!(est.saturated, est.utilization >= knee);
            prop_assert!(est.latency >= prev - 1e-12);
            prev = est.latency;
        }
    }
}

//! Property tests for the streaming P² quantile estimator: on random
//! unimodal streams its estimate must converge to the exact
//! [`percentile_sorted`] answer.
//!
//! The tolerance is a **rank band** rather than an absolute error: the
//! streaming estimate must land between the exact `q − δ` and `q + δ`
//! quantiles of the same stream. That phrasing is distribution-free, so
//! one property covers uniform, exponential and log-normal shapes without
//! per-distribution epsilon tuning.

use pcs_queueing::{percentile_sorted, P2Quantile};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Rank tolerance: the estimate must sit inside the exact
/// `[q - DELTA, q + DELTA]` quantile band.
const DELTA: f64 = 0.05;

/// Draws one observation of the selected unimodal shape.
fn draw(shape: u8, rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen();
    match shape {
        // Uniform [0, 1).
        0 => u,
        // Exponential(1) — the M/G/1 service-time staple.
        1 => -(1.0 - u).ln(),
        // Log-normal(0, 0.75): a skewed, heavy-ish latency-like tail.
        _ => {
            let v: f64 = rng.gen();
            let z = (-2.0 * (1.0 - u).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
            (0.75 * z).exp()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn p2_converges_to_exact_percentile(
        seed in 0u64..10_000,
        q_mil in 300u32..=950,
        n in 3_000usize..9_000,
        shape in 0u8..3,
    ) {
        let q = q_mil as f64 / 1000.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut estimator = P2Quantile::new(q);
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let x = draw(shape, &mut rng);
            estimator.push(x);
            samples.push(x);
        }
        samples.sort_by(|a, b| a.total_cmp(b));

        let estimate = estimator.estimate().unwrap();
        let lo = percentile_sorted(&samples, (q - DELTA).max(0.0)).unwrap();
        let hi = percentile_sorted(&samples, (q + DELTA).min(1.0)).unwrap();
        prop_assert!(
            (lo..=hi).contains(&estimate),
            "P2 estimate {estimate} for q={q} outside exact rank band [{lo}, {hi}] \
             (shape {shape}, n {n}, seed {seed})"
        );
        prop_assert_eq!(estimator.count(), n as u64);
    }

    /// The estimator never leaves the observed support: every estimate is
    /// bounded by the stream's min and max.
    #[test]
    fn p2_stays_inside_observed_support(
        seed in 0u64..10_000,
        q_mil in 100u32..=990,
        n in 6usize..400,
        shape in 0u8..3,
    ) {
        let q = q_mil as f64 / 1000.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut estimator = P2Quantile::new(q);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..n {
            let x = draw(shape, &mut rng);
            estimator.push(x);
            min = min.min(x);
            max = max.max(x);
            let estimate = estimator.estimate().unwrap();
            prop_assert!(
                (min..=max).contains(&estimate),
                "estimate {estimate} escaped observed support [{min}, {max}]"
            );
        }
    }
}

//! Property-based tests for the regression substrate.

use pcs_regression::{CombinedServiceTimeModel, PolynomialModel, SampleSet};
use pcs_types::ContentionVector;
use proptest::prelude::*;

proptest! {
    /// A degree-d fit recovers any degree-d polynomial exactly (relative to
    /// the target scale) when given well-spread inputs.
    #[test]
    fn exact_recovery_of_polynomials(
        c0 in -10.0_f64..10.0,
        c1 in -10.0_f64..10.0,
        c2 in -10.0_f64..10.0,
        n in 10usize..100,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let m = PolynomialModel::fit(&xs, &ys, 2, 0.0).unwrap();
        let scale = ys.iter().map(|y| y.abs()).fold(1.0, f64::max);
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((m.predict(x) - y).abs() < 1e-6 * scale,
                "at x={x}: {} vs {y}", m.predict(x));
        }
    }

    /// Fitting is invariant (up to fp noise) under sample permutation.
    #[test]
    fn fit_is_order_invariant(seed in 0u64..1000) {
        let n = 40usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + 2.0 * x + 0.3 * x * x).collect();
        // Deterministic pseudo-shuffle driven by the seed.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(2654435761).wrapping_add(i * 40503)) % n;
            idx.swap(i, j);
        }
        let xs2: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
        let ys2: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
        let m1 = PolynomialModel::fit(&xs, &ys, 2, 0.0).unwrap();
        let m2 = PolynomialModel::fit(&xs2, &ys2, 2, 0.0).unwrap();
        for &x in &xs {
            prop_assert!((m1.predict(x) - m2.predict(x)).abs() < 1e-7);
        }
    }

    /// Eq. 1: the combined prediction is a convex combination of the
    /// univariate predictions — always inside their envelope.
    #[test]
    fn combined_prediction_in_envelope(
        core in 0.0_f64..1.5,
        mpki in 0.0_f64..40.0,
        disk in 0.0_f64..1.5,
        net in 0.0_f64..1.5,
    ) {
        let mut set = SampleSet::new();
        for i in 0..60 {
            let t = i as f64 / 60.0;
            let u = ContentionVector::new(t, 30.0 * t, 0.8 * t, 0.5 * t);
            set.push(u, 4.0 + 6.0 * t + t * t);
        }
        let model = CombinedServiceTimeModel::train(&set, 2).unwrap();
        let u = ContentionVector::new(core, mpki, disk, net);
        let preds: Vec<f64> = model.models().iter().map(|m| m.predict(&u)).collect();
        let lo = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let c = model.predict(&u);
        prop_assert!(c >= lo - 1e-9 && c <= hi + 1e-9);
    }
}

/// The Eq. 1 weights are |Pearson| correlations: non-negative and at most
/// one (up to rounding).
#[test]
fn weights_non_negative() {
    let mut set = SampleSet::new();
    for i in 0..30 {
        let t = i as f64 / 30.0;
        set.push(ContentionVector::new(t, 5.0 * t, t * t, 0.1), 1.0 + t);
    }
    let model = CombinedServiceTimeModel::train(&set, 2).unwrap();
    for w in model.weights() {
        assert!(
            (0.0..=1.0 + 1e-12).contains(&w),
            "weight {w} outside [0, 1]"
        );
    }
}

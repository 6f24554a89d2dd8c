//! The paper's basic performance model (§IV-A).
//!
//! Step 1 trains one univariate regression `RG(U_sr)` per shared resource
//! and computes a relevance weight `w_sr` between that resource's
//! contention and the observed service time. Step 2 combines them (Eq. 1):
//!
//! ```text
//! RG_ST(U) = Σᵢ (w_srᵢ · RG(U_srᵢ)) / Σᵢ w_srᵢ
//! ```
//!
//! The paper does not pin down the relevance measure beyond "the relevance
//! (i.e. weight w_sr) between the contention information … and c's service
//! time"; this model reads it as the absolute Pearson correlation,
//! `w_sr = |pearson(U_sr, x)|`, and fits every `RG` with a ridge of 1e-6.

use crate::dataset::SampleSet;
use crate::metrics::pearson;
use crate::polynomial::PolynomialModel;
use pcs_types::{ContentionVector, PcsError, ResourceKind};

/// Ridge regularisation strength of every univariate `RG` fit (0 would
/// be ordinary least squares).
const RIDGE: f64 = 1e-6;

/// One fitted `RG(U_sr)` with its relevance weight.
#[derive(Debug, Clone)]
pub struct UnivariateResourceModel {
    /// Which shared resource this model reads.
    pub kind: ResourceKind,
    /// The fitted polynomial.
    pub poly: PolynomialModel,
    /// Relevance weight `w_sr = |pearson(U_sr, x)|` (non-negative).
    pub weight: f64,
}

impl UnivariateResourceModel {
    /// Predicts the service time from this resource's contention alone.
    pub fn predict(&self, u: &ContentionVector) -> f64 {
        self.poly.predict(u.get(self.kind))
    }
}

/// The combined service-time predictor `RG_ST(U)` of paper Eq. 1.
#[derive(Debug, Clone)]
pub struct CombinedServiceTimeModel {
    models: [UnivariateResourceModel; 4],
    /// Mean target on the training set; fallback prediction when every
    /// weight degenerates to zero.
    target_mean: f64,
}

impl CombinedServiceTimeModel {
    /// Trains the four univariate models, each a polynomial of `degree`,
    /// and their Eq. 1 weights.
    ///
    /// # Errors
    /// Returns [`PcsError::InsufficientData`] if there are fewer samples
    /// than any univariate fit needs (`degree + 1`), and propagates
    /// numerical failures from the solver.
    pub fn train(samples: &SampleSet, degree: usize) -> Result<Self, PcsError> {
        if samples.len() < degree + 1 {
            return Err(PcsError::InsufficientData {
                context: "combined service-time model",
                got: samples.len(),
                need: degree + 1,
            });
        }
        let targets = samples.targets();
        let target_mean = targets.iter().sum::<f64>() / targets.len() as f64;

        let mut built = Vec::with_capacity(4);
        for kind in ResourceKind::ALL {
            let (xs, ys) = samples.column(kind);
            let poly = PolynomialModel::fit(&xs, &ys, degree, RIDGE)?;
            let weight = pearson(&xs, &ys).abs();
            built.push(UnivariateResourceModel { kind, poly, weight });
        }
        let models: [UnivariateResourceModel; 4] =
            built.try_into().expect("exactly four resource models");
        Ok(CombinedServiceTimeModel {
            models,
            target_mean,
        })
    }

    /// Predicts the service time for a contention vector (paper Eq. 1).
    ///
    /// The result is a weighted average of the four univariate predictions,
    /// so it always lies within their min–max envelope. Falls back to the
    /// training-set mean if every weight is zero (pathological training
    /// data, e.g. constant targets).
    pub fn predict(&self, u: &ContentionVector) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for m in &self.models {
            num += m.weight * m.predict(u);
            den += m.weight;
        }
        if den < 1e-12 {
            self.target_mean
        } else {
            num / den
        }
    }

    /// Like [`predict`](Self::predict) but clamped below at zero — a
    /// service time can never be negative, yet an extrapolated polynomial
    /// can dip below zero far outside the training range.
    pub fn predict_clamped(&self, u: &ContentionVector) -> f64 {
        self.predict(u).max(0.0)
    }

    /// The four univariate models in canonical resource order.
    pub fn models(&self) -> &[UnivariateResourceModel; 4] {
        &self.models
    }

    /// The four Eq. 1 weights in canonical resource order.
    pub fn weights(&self) -> [f64; 4] {
        [
            self.models[0].weight,
            self.models[1].weight,
            self.models[2].weight,
            self.models[3].weight,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth where service time depends mostly on core usage, with
    /// mild cache influence: the kind of structure the monitors observe.
    fn synthetic_samples(n: usize) -> SampleSet {
        let mut set = SampleSet::new();
        for i in 0..n {
            let t = i as f64 / n as f64;
            // Correlated sweep: the co-runner ramps all resources together,
            // exactly like a batch job processing a growing input.
            let u = ContentionVector::new(0.1 + 0.8 * t, 20.0 * t, 0.3 * t, 0.2 * t);
            let x = 10.0 * (1.0 + 0.5 * u.core_usage + 0.01 * u.cache_mpki);
            set.push(u, x);
        }
        set
    }

    #[test]
    fn predicts_on_training_distribution() {
        let samples = synthetic_samples(60);
        let model = CombinedServiceTimeModel::train(&samples, 2).unwrap();
        for (u, x) in samples.iter() {
            let pred = model.predict(u);
            assert!(
                ((pred - x) / x).abs() < 0.02,
                "prediction {pred} too far from {x}"
            );
        }
    }

    #[test]
    fn prediction_is_within_univariate_envelope() {
        let samples = synthetic_samples(40);
        let model = CombinedServiceTimeModel::train(&samples, 2).unwrap();
        let u = ContentionVector::new(0.5, 10.0, 0.15, 0.1);
        let preds: Vec<f64> = model.models().iter().map(|m| m.predict(&u)).collect();
        let lo = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let combined = model.predict(&u);
        assert!(combined >= lo - 1e-9 && combined <= hi + 1e-9);
    }

    #[test]
    fn dominant_resource_gets_dominant_weight() {
        // Service time driven by disk alone while other dims vary randomly
        // (decorrelated via incommensurate strides).
        let mut set = SampleSet::new();
        for i in 0..200 {
            let disk = (i as f64 * 0.005) % 1.0;
            let noise1 = ((i * 7) % 13) as f64 / 13.0;
            let noise2 = ((i * 11) % 17) as f64 / 17.0;
            let u = ContentionVector::new(noise1, noise2 * 30.0, disk, noise1 * noise2);
            set.push(u, 5.0 + 20.0 * disk);
        }
        let model = CombinedServiceTimeModel::train(&set, 2).unwrap();
        let w = model.weights();
        let disk_w = w[ResourceKind::DiskBw.index()];
        for kind in [ResourceKind::Core, ResourceKind::Cache, ResourceKind::NetBw] {
            assert!(
                disk_w > w[kind.index()],
                "disk weight {disk_w} should dominate {} weight {}",
                kind,
                w[kind.index()]
            );
        }
    }

    #[test]
    fn constant_targets_fall_back_to_mean() {
        let mut set = SampleSet::new();
        for i in 0..20 {
            let t = i as f64 * 0.05;
            set.push(ContentionVector::new(t, t, t, t), 7.5);
        }
        let model = CombinedServiceTimeModel::train(&set, 2).unwrap();
        let pred = model.predict(&ContentionVector::new(0.9, 0.9, 0.9, 0.9));
        assert!((pred - 7.5).abs() < 1e-6);
    }

    #[test]
    fn insufficient_samples_error() {
        let mut set = SampleSet::new();
        set.push(ContentionVector::ZERO, 1.0);
        let err = CombinedServiceTimeModel::train(&set, 2).unwrap_err();
        assert!(matches!(err, PcsError::InsufficientData { .. }));
    }

    #[test]
    fn clamped_prediction_never_negative() {
        let samples = synthetic_samples(30);
        let model = CombinedServiceTimeModel::train(&samples, 2).unwrap();
        // Far outside the training range, raw extrapolation may go anywhere;
        // the clamped variant must stay non-negative.
        let extreme = ContentionVector::new(50.0, 5000.0, 50.0, 50.0);
        assert!(model.predict_clamped(&extreme) >= 0.0);
    }
}

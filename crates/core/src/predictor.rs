//! The performance predictor: Eq. 1 (service time) composed with Eq. 2
//! (M/G/1 latency).
//!
//! One regression model is trained per component *class* — paper §VI-D:
//! "only one out of all homogeneous components needs to be profiled" — and
//! shared by every component of that class. The predictor then maps a
//! component's monitored contention and arrival rate to an expected
//! latency.
//!
//! ## One prediction path
//!
//! Eq. 1 is evaluated once, on the interval's mean contention vector,
//! giving the mean service time x̄. Eq. 2 takes that x̄, the monitored
//! arrival rate, and the SCV of the component's monitored service-time
//! window, with the M/G/1 term continued linearly past the saturation
//! knee ([`pcs_queueing::Mg1::RHO_KNEE`]). One regression evaluation per
//! (class, node state) is what lets the 640×128 Figure 7 configuration
//! run in sub-second time, matching the paper's reported scalability.

use pcs_queueing::Mg1;
use pcs_regression::CombinedServiceTimeModel;
use pcs_types::{ContentionVector, PcsError};

/// The trained Eq. 1 models, one per component class.
#[derive(Debug, Clone)]
pub struct ClassModelSet {
    models: Vec<CombinedServiceTimeModel>,
}

impl ClassModelSet {
    /// Wraps per-class models (index = class index).
    pub fn new(models: Vec<CombinedServiceTimeModel>) -> Self {
        assert!(!models.is_empty(), "need at least one class model");
        ClassModelSet { models }
    }

    /// The model for a class.
    ///
    /// # Errors
    /// Returns [`PcsError::UnknownEntity`] for an out-of-range class.
    pub fn get(&self, class: usize) -> Result<&CombinedServiceTimeModel, PcsError> {
        self.models.get(class).ok_or(PcsError::UnknownEntity {
            kind: "component class",
            id: class as u32,
        })
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True if the set is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Predicts the mean service time for a class under a contention
    /// vector (Eq. 1), clamped to be non-negative.
    ///
    /// It depends only on `(class, node state)`, so callers evaluating many
    /// co-resident components against the same hypothetical node (the
    /// matrix's Table III rows) compute it once per class and finish each
    /// component with [`mg1_latency`]; the result is bit-identical to
    /// [`ClassModelSet::latency`].
    ///
    /// # Errors
    /// Unknown class index.
    pub fn service_time(&self, class: usize, u: &ContentionVector) -> Result<f64, PcsError> {
        Ok(self.get(class)?.predict_clamped(u))
    }

    /// Predicts a component's expected latency in seconds (Eq. 1 on the
    /// interval's mean contention `mean_u`, then Eq. 2 with the monitored
    /// arrival rate λ and service-time SCV).
    ///
    /// # Errors
    /// Unknown class index.
    pub fn latency(
        &self,
        class: usize,
        mean_u: &ContentionVector,
        arrival_rate: f64,
        scv: f64,
    ) -> Result<f64, PcsError> {
        let service_time = self.service_time(class, mean_u)?;
        Ok(mg1_latency(service_time, arrival_rate, scv))
    }
}

/// Eq. 2: the M/G/1 latency (seconds) of a component with predicted mean
/// service time `service_time`, arrival rate λ and service-time SCV, under
/// the default saturation knee.
pub fn mg1_latency(service_time: f64, arrival_rate: f64, scv: f64) -> f64 {
    Mg1::new(arrival_rate, service_time, scv).estimate().latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_regression::SampleSet;

    /// Trains a model on a linear ground truth x = 0.001·(1 + core usage).
    fn linear_models() -> ClassModelSet {
        let mut set = SampleSet::new();
        for i in 0..50 {
            let t = i as f64 / 50.0;
            let u = ContentionVector::new(t, 10.0 * t, 0.5 * t, 0.25 * t);
            set.push(u, 0.001 * (1.0 + t));
        }
        let model = CombinedServiceTimeModel::train(&set, 2).unwrap();
        ClassModelSet::new(vec![model])
    }

    #[test]
    fn service_time_tracks_contention() {
        let models = linear_models();
        let idle = models.service_time(0, &ContentionVector::ZERO).unwrap();
        let busy = models
            .service_time(0, &ContentionVector::new(0.8, 8.0, 0.4, 0.2))
            .unwrap();
        assert!(
            busy > idle,
            "contention must inflate predicted service time"
        );
        assert!((idle - 0.001).abs() < 1e-4);
    }

    #[test]
    fn latency_includes_queueing_delay() {
        let models = linear_models();
        let u = ContentionVector::new(0.5, 5.0, 0.25, 0.125);
        let service_time = models.service_time(0, &u).unwrap();
        let light = models.latency(0, &u, 10.0, 1.0).unwrap();
        let heavy = models.latency(0, &u, 500.0, 1.0).unwrap();
        assert!(heavy > light);
        assert!(light >= service_time);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let models = linear_models();
        assert!(matches!(
            models.service_time(9, &ContentionVector::ZERO),
            Err(PcsError::UnknownEntity { .. })
        ));
    }
}

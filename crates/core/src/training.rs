//! Training pipeline: from profiled samples to per-class models.
//!
//! Paper §IV-A: "The training samples are obtained from profiling runs or
//! historical running logs", and §VI-D: only one component per homogeneous
//! class needs profiling. This module turns one [`SampleSet`] per class
//! into a [`ClassModelSet`].

use crate::predictor::ClassModelSet;
use pcs_regression::{CombinedServiceTimeModel, SampleSet};
use pcs_types::PcsError;

/// Trains one Eq. 1 model per component class, in class order, each
/// univariate fit a polynomial of `degree`.
///
/// # Errors
/// Propagates [`PcsError::InsufficientData`] if any class has too few
/// samples.
pub fn train_class_models(
    class_samples: &[SampleSet],
    degree: usize,
) -> Result<ClassModelSet, PcsError> {
    assert!(
        !class_samples.is_empty(),
        "need samples for at least one class"
    );
    let models = class_samples
        .iter()
        .map(|samples| CombinedServiceTimeModel::train(samples, degree))
        .collect::<Result<_, _>>()?;
    Ok(ClassModelSet::new(models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_types::ContentionVector;

    fn class_set(slope: f64) -> SampleSet {
        let mut set = SampleSet::new();
        for i in 0..80 {
            let t = i as f64 / 80.0;
            let u = ContentionVector::new(t, 10.0 * t, 0.5 * t, 0.2 * t);
            set.push(u, 0.002 * (1.0 + slope * t));
        }
        set
    }

    #[test]
    fn trains_multiple_classes_in_order() {
        let sets = vec![class_set(0.5), class_set(1.5)];
        let models = train_class_models(&sets, 2).unwrap();
        assert_eq!(models.len(), 2);
        // Class 1 (steeper slope) predicts higher service time under load.
        let u = ContentionVector::new(0.8, 8.0, 0.4, 0.16);
        let x0 = models.get(0).unwrap().predict(&u);
        let x1 = models.get(1).unwrap().predict(&u);
        assert!(x1 > x0);
    }

    #[test]
    fn insufficient_class_data_errors() {
        let mut tiny = SampleSet::new();
        tiny.push(ContentionVector::ZERO, 0.001);
        let err = train_class_models(&[tiny], 2).unwrap_err();
        assert!(matches!(err, PcsError::InsufficientData { .. }));
    }
}

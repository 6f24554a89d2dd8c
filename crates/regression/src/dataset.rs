//! Training-sample management for the performance model.
//!
//! A [`SampleSet`] holds `(contention vector, observed service time)` pairs
//! gathered from profiling runs or historical logs (paper §IV-A: "The
//! training samples are obtained from profiling runs or historical running
//! logs"). Splits are deterministic (stride-based) so experiments are
//! reproducible without threading an RNG through training.

use pcs_types::ContentionVector;

/// A set of `(U, x)` training samples for one component class.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<(ContentionVector, f64)>,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
        }
    }

    /// Creates a sample set from pairs.
    pub fn from_pairs(pairs: Vec<(ContentionVector, f64)>) -> Self {
        SampleSet { samples: pairs }
    }

    /// Adds one `(contention, service time)` observation.
    ///
    /// # Panics
    /// Panics on non-finite or negative service times and invalid
    /// contention vectors — monitored data is non-negative by construction,
    /// so this guards programmer error.
    pub fn push(&mut self, contention: ContentionVector, service_time: f64) {
        assert!(
            service_time.is_finite() && service_time >= 0.0,
            "service time must be finite and non-negative, got {service_time}"
        );
        assert!(contention.is_valid(), "contention vector must be valid");
        self.samples.push((contention, service_time));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples are present.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(contention, service_time)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(ContentionVector, f64)> {
        self.samples.iter()
    }

    /// All target values.
    pub fn targets(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, y)| *y).collect()
    }

    /// Deterministic holdout split: every `1/holdout_fraction`-th sample
    /// (by stride) lands in the holdout set, the rest in the training set.
    /// `holdout_fraction` is clamped to `[0, 0.5]`.
    pub fn split_holdout(&self, holdout_fraction: f64) -> (SampleSet, SampleSet) {
        let frac = holdout_fraction.clamp(0.0, 0.5);
        if frac == 0.0 || self.samples.len() < 2 {
            return (self.clone(), SampleSet::new());
        }
        let stride = (1.0 / frac).round().max(2.0) as usize;
        let mut train = SampleSet::new();
        let mut holdout = SampleSet::new();
        for (i, pair) in self.samples.iter().enumerate() {
            if i % stride == stride - 1 {
                holdout.samples.push(*pair);
            } else {
                train.samples.push(*pair);
            }
        }
        (train, holdout)
    }

    /// Deterministic k-fold partition: fold `i` contains samples whose
    /// index ≡ i (mod k). Returns `(train, test)` pairs for each fold.
    ///
    /// # Panics
    /// Panics if `k < 2`.
    pub fn k_folds(&self, k: usize) -> Vec<(SampleSet, SampleSet)> {
        assert!(k >= 2, "k-fold cross-validation requires k >= 2");
        (0..k)
            .map(|fold| {
                let mut train = SampleSet::new();
                let mut test = SampleSet::new();
                for (i, pair) in self.samples.iter().enumerate() {
                    if i % k == fold {
                        test.samples.push(*pair);
                    } else {
                        train.samples.push(*pair);
                    }
                }
                (train, test)
            })
            .collect()
    }

    /// Extracts one resource dimension as a feature column together with
    /// the targets — the univariate view trained by `RG(U_sr)`.
    pub fn column(&self, kind: pcs_types::ResourceKind) -> (Vec<f64>, Vec<f64>) {
        let mut xs = Vec::with_capacity(self.samples.len());
        let mut ys = Vec::with_capacity(self.samples.len());
        for (u, y) in &self.samples {
            xs.push(u.get(kind));
            ys.push(*y);
        }
        (xs, ys)
    }
}

impl Extend<(ContentionVector, f64)> for SampleSet {
    fn extend<T: IntoIterator<Item = (ContentionVector, f64)>>(&mut self, iter: T) {
        for (u, y) in iter {
            self.push(u, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_types::ResourceKind;

    fn sample(i: usize) -> (ContentionVector, f64) {
        let v = i as f64;
        (
            ContentionVector::new(v * 0.1, v, v * 0.01, v * 0.02),
            v + 1.0,
        )
    }

    fn set(n: usize) -> SampleSet {
        SampleSet::from_pairs((0..n).map(sample).collect())
    }

    #[test]
    fn push_and_iterate() {
        let mut s = SampleSet::new();
        s.push(ContentionVector::ZERO, 1.0);
        s.push(ContentionVector::new(0.5, 1.0, 0.1, 0.1), 2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.targets(), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_service_time() {
        SampleSet::new().push(ContentionVector::ZERO, -1.0);
    }

    #[test]
    fn holdout_split_partitions_everything() {
        let s = set(20);
        let (train, holdout) = s.split_holdout(0.25);
        assert_eq!(train.len() + holdout.len(), 20);
        assert_eq!(holdout.len(), 5); // every 4th sample
    }

    #[test]
    fn zero_holdout_keeps_all_in_train() {
        let s = set(10);
        let (train, holdout) = s.split_holdout(0.0);
        assert_eq!(train.len(), 10);
        assert!(holdout.is_empty());
    }

    #[test]
    fn k_folds_cover_every_sample_exactly_once() {
        let s = set(23);
        let folds = s.k_folds(5);
        assert_eq!(folds.len(), 5);
        let total_test: usize = folds.iter().map(|(_, test)| test.len()).sum();
        assert_eq!(total_test, 23);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 23);
            assert!(!test.is_empty());
        }
    }

    #[test]
    fn column_extracts_the_right_dimension() {
        let s = set(5);
        let (xs, ys) = s.column(ResourceKind::Cache);
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ys, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}

//! Training-sample management for the performance model.
//!
//! A [`SampleSet`] holds `(contention vector, observed service time)` pairs
//! gathered from profiling runs or historical logs (paper §IV-A: "The
//! training samples are obtained from profiling runs or historical running
//! logs").

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
        let mut s = SampleSet::new();
        s.extend((0..n).map(sample));
        s
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
    fn column_extracts_the_right_dimension() {
        let s = set(5);
        let (xs, ys) = s.column(ResourceKind::Cache);
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ys, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}

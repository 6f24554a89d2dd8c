//! Streaming moment accumulation (Welford's algorithm).
//!
//! The extended performance model needs the mean and variance of a
//! component's (predicted) service time over a scheduling interval to feed
//! the Pollaczek–Khinchine formula. `Moments` accumulates them in one pass
//! with O(1) state and good numerical behaviour.

/// Streaming mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut m = Moments::new();
        for &v in values {
            m.push(v);
        }
        m
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel reduction),
    /// using the pairwise-combination form of Welford's update.
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0.0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n); 0.0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Squared coefficient of variation `C²ₓ = var(x)/x̄²` (paper Eq. 2).
    ///
    /// Returns 0.0 when the mean is zero or there are fewer than two
    /// samples, which degrades Eq. 2 gracefully to the M/D/1-like form.
    pub fn scv(&self) -> f64 {
        let mean = self.mean();
        if mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.variance() / (mean * mean)
        }
    }

    /// Smallest observation; `+inf` when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// True if no observations have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_variance(values: &[f64]) -> f64 {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n
    }

    #[test]
    fn matches_naive_computation() {
        let values = [4.0, 7.0, 13.0, 16.0];
        let m = Moments::from_slice(&values);
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 10.0).abs() < 1e-12);
        assert!((m.variance() - naive_variance(&values)).abs() < 1e-12);
        assert_eq!(m.min(), 4.0);
        assert_eq!(m.max(), 16.0);
    }

    #[test]
    fn empty_and_single_are_safe() {
        let empty = Moments::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);
        assert_eq!(empty.scv(), 0.0);
        assert!(empty.is_empty());

        let single = Moments::from_slice(&[5.0]);
        assert_eq!(single.mean(), 5.0);
        assert_eq!(single.variance(), 0.0);
    }

    #[test]
    fn scv_of_exponential_like_data() {
        // For values with std == mean, SCV should be 1.
        let m = Moments::from_slice(&[0.0, 2.0]); // mean 1, pop var 1
        assert!((m.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let (left, right) = all.split_at(37);
        let mut a = Moments::from_slice(left);
        let b = Moments::from_slice(right);
        a.merge(&b);
        let expected = Moments::from_slice(&all);
        assert_eq!(a.count(), expected.count());
        assert!((a.mean() - expected.mean()).abs() < 1e-9);
        assert!((a.variance() - expected.variance()).abs() < 1e-9);
        assert_eq!(a.min(), expected.min());
        assert_eq!(a.max(), expected.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let before = m;
        m.merge(&Moments::new());
        assert_eq!(m, before);

        let mut empty = Moments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}

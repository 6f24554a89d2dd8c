//! Percentile computation: exact quantiles over buffers and the streaming
//! P² estimator.
//!
//! Two consumers in the reproduction need quantiles:
//!
//! * the evaluation metrics (99th-percentile component latency, paper §VI-A)
//!   — computed exactly over all of a run's latency samples. The run's
//!   recorder (`pcs_monitor::LatencyRecorder`) keeps per-microsecond
//!   counts instead of a sample buffer, and reads the same ranks with the
//!   same interpolation as [`percentile_sorted`], which stays the
//!   reference its tests compare against;
//! * the reissue baselines RI-90/RI-99, which trigger a duplicate request
//!   once the first copy has been outstanding longer than the 90th/99th
//!   percentile of the *expected* latency for its request class — tracked
//!   online with the P² algorithm (Jain & Chlamtac, 1985) in O(1) space.

/// Exact quantile of a **sorted** slice using linear interpolation between
/// closest ranks (the "type 7" estimator used by numpy's default).
///
/// `q` is in `[0, 1]`. Returns `None` for an empty slice.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or the slice is not sorted (checked in
/// debug builds only).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires sorted input"
    );
    if sorted.is_empty() {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Streaming quantile estimation with the P² algorithm.
///
/// Maintains five markers whose heights approximate the quantile without
/// storing samples. Accuracy is good (typically within a few percent for
/// unimodal distributions) once a few hundred samples have been seen;
/// before five samples it falls back to exact computation.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Actual marker positions (1-based counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Initial buffer until five samples arrive.
    initial: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    /// Panics if `q` is not strictly inside `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "P² quantile must be strictly inside (0,1), got {q}"
        );
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            initial: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// The quantile this estimator tracks.
    #[inline]
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations seen.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.initial.push(value);
            self.initial.sort_by(|a, b| a.total_cmp(b));
            if self.count == 5 {
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Locate the cell containing the new observation and update extremes.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            // heights[k] <= value < heights[k+1]
            let mut cell = 0;
            for i in 0..4 {
                if value >= self.heights[i] && value < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust interior markers with parabolic (or linear) interpolation.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic prediction for marker `i` moved by `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback prediction for marker `i` moved by `d` (±1).
    fn linear(&self, i: usize, d: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        h[i] + d * (h[j] - h[i]) / (n[j] - n[i])
    }

    /// Current quantile estimate; `None` before any sample.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count <= 5 {
            return percentile_sorted(&self.initial, self.q);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 0.5), Some(3.0));
        assert_eq!(percentile_sorted(&v, 0.25), Some(2.0));
        // Interpolation between ranks.
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.75), Some(1.75));
    }

    #[test]
    fn exact_percentile_edge_cases() {
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn exact_percentile_rejects_bad_q() {
        let _ = percentile_sorted(&[1.0], 1.5);
    }

    #[test]
    fn p2_matches_exact_on_uniform() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut est = P2Quantile::new(0.9);
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            let x: f64 = rng.gen();
            est.push(x);
            samples.push(x);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let exact = percentile_sorted(&samples, 0.9).unwrap();
        let approx = est.estimate().unwrap();
        assert!(
            (approx - exact).abs() < 0.01,
            "P² estimate {approx} too far from exact {exact}"
        );
    }

    #[test]
    fn p2_matches_exact_on_exponential_tail() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut est = P2Quantile::new(0.99);
        let mut samples = Vec::new();
        for _ in 0..50_000 {
            let u: f64 = rng.gen();
            let x = -(1.0 - u).ln(); // Exp(1)
            est.push(x);
            samples.push(x);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let exact = percentile_sorted(&samples, 0.99).unwrap();
        let approx = est.estimate().unwrap();
        let rel = (approx - exact).abs() / exact;
        assert!(
            rel < 0.05,
            "P² 99th-pct estimate {approx} deviates {rel:.3} from exact {exact}"
        );
    }

    #[test]
    fn p2_small_counts_fall_back_to_exact() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.push(3.0);
        assert_eq!(est.estimate(), Some(3.0));
        est.push(1.0);
        est.push(2.0);
        assert_eq!(est.estimate(), Some(2.0));
    }

    #[test]
    fn p2_handles_constant_stream() {
        let mut est = P2Quantile::new(0.99);
        for _ in 0..1000 {
            est.push(4.2);
        }
        assert!((est.estimate().unwrap() - 4.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}

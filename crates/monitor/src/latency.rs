//! Latency recording and service-time windows.
//!
//! Two measurement duties (paper §VI-A "Metrics"):
//!
//! * **Evaluation metrics** — "the 99th percentile latency of individual
//!   components of all requests" and "the average overall service latency
//!   of all requests". [`LatencyRecorder`] counts every sample exactly,
//!   per whole microsecond, and summarises the counts.
//! * **Model inputs** — the M/G/1 formula needs each component's recent
//!   service-time mean and variance. [`ServiceTimeWindow`] keeps a bounded
//!   window of observed service times and exposes their moments.
//!
//! # Exact summaries from a histogram
//!
//! Simulated latencies are whole microseconds ([`SimDuration`]), and a
//! run's samples take few distinct values (a fig6 cell's million
//! samples hold a few thousand). The recorder therefore keeps a count
//! per microsecond below 2^16 µs (≈ 65.5 ms) and a raw
//! list of the rarer longer samples, which it sorts only when asked for
//! a summary. Memory stays fixed however long a run is.
//!
//! The summary is bit-identical to sorting every sample's
//! `as_secs_f64` value by `f64::total_cmp` and reading
//! [`percentile_sorted`](pcs_queueing::percentile_sorted) and
//! [`Moments::from_slice`] off the result.
//! Converting microseconds to seconds is monotone, so walking the
//! counts in ascending microseconds yields exactly that sorted sequence:
//! the mean is pushed through the same Welford accumulator in the same
//! order, and each percentile reads the same two ranks and applies the
//! same interpolation expression.

use pcs_queueing::Moments;
use pcs_types::SimDuration;

/// Summary statistics of a latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency (seconds).
    pub mean: f64,
    /// Median (seconds).
    pub p50: f64,
    /// 95th percentile (seconds).
    pub p95: f64,
    /// 99th percentile (seconds) — the paper's tail metric.
    pub p99: f64,
    /// Maximum (seconds).
    pub max: f64,
}

impl LatencySummary {
    /// A summary of an empty population (all zeros).
    pub const EMPTY: LatencySummary = LatencySummary {
        count: 0,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        max: 0.0,
    };
}

/// Latencies below this many microseconds are counted in the
/// recorder's dense array; longer ones are kept raw.
const DENSE_MICROS: u64 = 1 << 16;

/// The quantiles a [`LatencySummary`] reports.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Collects latency samples as exact per-microsecond counts and produces
/// exact summaries (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    /// `dense[us]` counts the samples of exactly `us` µs; empty until
    /// the first sample below [`DENSE_MICROS`] arrives.
    dense: Vec<u64>,
    /// Samples of [`DENSE_MICROS`] µs or more, in arrival order.
    long: Vec<u64>,
    /// Samples recorded.
    count: usize,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency.
    pub fn record(&mut self, latency: SimDuration) {
        let us = latency.as_micros();
        if us < DENSE_MICROS {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_MICROS as usize];
            }
            self.dense[us as usize] += 1;
        } else {
            self.long.push(us);
        }
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Computes exact summary statistics in one ascending walk over the
    /// counts, bit-identical to summarising the sorted samples.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::EMPTY;
        }
        // The two ranks and the weight `percentile_sorted` reads for
        // each quantile.
        let last = (self.count - 1) as f64;
        let ranks = QUANTILES.map(|q| {
            let pos = q * last;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            (lo, hi, pos - lo as f64)
        });
        let mut long = self.long.clone();
        long.sort_unstable();
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(us, &n)| (us as u64, n));
        let mut moments = Moments::new();
        let mut at = [(0.0, 0.0); 3];
        let mut seen = 0;
        let mut max = 0.0;
        for (us, n) in dense.chain(long.into_iter().map(|us| (us, 1))) {
            let secs = SimDuration::from_micros(us).as_secs_f64();
            let end = seen + n as usize;
            let holds = |rank: usize| rank >= seen && rank < end;
            for (&(lo, hi, _), (lo_val, hi_val)) in ranks.iter().zip(&mut at) {
                if holds(lo) {
                    *lo_val = secs;
                }
                if holds(hi) {
                    *hi_val = secs;
                }
            }
            for _ in 0..n {
                moments.push(secs);
            }
            seen = end;
            max = secs;
        }
        let [p50, p95, p99] = std::array::from_fn(|i| {
            let (lo_val, hi_val) = at[i];
            lo_val + (hi_val - lo_val) * ranks[i].2
        });
        LatencySummary {
            count: self.count,
            mean: moments.mean(),
            p50,
            p95,
            p99,
            max,
        }
    }
}

/// Cohort index ranges over an ascending-sorted latency population of
/// `count` samples: `(median_band, tail_band)`. The median band covers
/// the 45th–55th percentile ranks (at least one sample); the tail band
/// covers the slowest ~1% (at least one sample). `None` on an empty
/// population. On tiny populations the bands may overlap (a single
/// sample is both its own median and its own tail).
pub fn cohort_ranges(count: usize) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    if count == 0 {
        return None;
    }
    let tail_len = count.div_ceil(100);
    let tail = (count - tail_len)..count;
    let lo = count * 45 / 100;
    let hi = (count * 55 / 100).max(lo + 1);
    Some((lo..hi, tail))
}

/// A bounded sliding window of observed service times, exposing the
/// moments (x̄, var, C²ₓ) the extended performance model consumes.
#[derive(Debug, Clone)]
pub struct ServiceTimeWindow {
    capacity: usize,
    values: std::collections::VecDeque<f64>,
}

impl ServiceTimeWindow {
    /// Creates a window holding up to `capacity` recent observations.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "service-time window needs capacity");
        ServiceTimeWindow {
            capacity,
            values: std::collections::VecDeque::with_capacity(capacity),
        }
    }

    /// Records one observed service time (seconds).
    pub fn record(&mut self, service_secs: f64) {
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(service_secs);
    }

    /// Moments over the window's contents.
    pub fn moments(&self) -> Moments {
        let mut m = Moments::new();
        for &v in &self.values {
            m.push(v);
        }
        m
    }

    /// SCV over the window, falling back to `default_scv` until enough
    /// samples (≥ 8) have accumulated for a stable estimate.
    pub fn scv_or(&self, default_scv: f64) -> f64 {
        if self.values.len() < 8 {
            default_scv
        } else {
            self.moments().scv()
        }
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_population() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(SimDuration::from_secs(i));
        }
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 0.02);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(LatencyRecorder::new().summary(), LatencySummary::EMPTY);
    }

    #[test]
    fn record_duration_converts_to_seconds() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_millis(250));
        let s = r.summary();
        assert_eq!(s.count, 1);
        assert!((s.max - 0.25).abs() < 1e-12);
        assert_eq!(s.p50, s.max);
        assert_eq!(s.mean, s.max);
    }

    #[test]
    fn dense_records_never_grow_the_heap() {
        let heap_bytes = |r: &LatencyRecorder| 8 * (r.dense.capacity() + r.long.capacity());
        let mut r = LatencyRecorder::new();
        assert_eq!(
            heap_bytes(&r),
            0,
            "nothing is allocated before the first record"
        );
        r.record(SimDuration::ZERO);
        let after_first = heap_bytes(&r);
        assert_eq!(after_first, 8 << 16);
        for i in 0..10_000_000u64 {
            r.record(SimDuration::from_micros(i % DENSE_MICROS));
        }
        assert_eq!(heap_bytes(&r), after_first);
        assert_eq!(r.len(), 10_000_001);
    }

    #[test]
    fn cohort_ranges_cover_median_band_and_tail() {
        assert_eq!(cohort_ranges(0), None);
        // A single sample is both cohorts.
        assert_eq!(cohort_ranges(1), Some((0..1, 0..1)));
        // Two samples: the faster is the median, the slower the tail.
        assert_eq!(cohort_ranges(2), Some((0..1, 1..2)));
        let (median, tail) = cohort_ranges(100).unwrap();
        assert_eq!(median, 45..55);
        assert_eq!(tail, 99..100);
        let (median, tail) = cohort_ranges(250).unwrap();
        assert_eq!(median, 112..137);
        assert_eq!(tail, 247..250);
        // Bands always hold at least one sample and stay in bounds.
        for n in 1..400 {
            let (m, t) = cohort_ranges(n).unwrap();
            assert!(!m.is_empty() && m.end <= n, "{n}: {m:?}");
            assert!(!t.is_empty() && t.end == n, "{n}: {t:?}");
        }
    }

    #[test]
    fn window_is_bounded_and_sliding() {
        let mut w = ServiceTimeWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.record(v);
        }
        assert_eq!(w.len(), 3);
        // Oldest value (1.0) evicted: mean of 2,3,4.
        assert!((w.moments().mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn scv_falls_back_until_enough_samples() {
        let mut w = ServiceTimeWindow::new(100);
        for _ in 0..7 {
            w.record(1.0);
        }
        assert_eq!(w.scv_or(1.0), 1.0, "fallback below 8 samples");
        w.record(1.0);
        assert_eq!(w.scv_or(1.0), 0.0, "constant data has zero SCV");
    }
}

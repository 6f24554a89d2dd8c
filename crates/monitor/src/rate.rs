//! Arrival-rate estimation from request logs.
//!
//! The paper's monitor "obtains the request arrival rate by profiling
//! service's running logs" once per second. [`ArrivalRateEstimator`] keeps
//! a sliding window of recent arrival timestamps and reports the empirical
//! rate — the λ input of the M/G/1 model (paper Eq. 2).

use pcs_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sliding-window arrival-rate estimator.
#[derive(Debug, Clone)]
pub struct ArrivalRateEstimator {
    window: SimDuration,
    arrivals: VecDeque<SimTime>,
}

impl ArrivalRateEstimator {
    /// Creates an estimator with the given sliding-window length.
    ///
    /// # Panics
    /// Panics on a zero window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "rate-estimation window must be non-zero");
        ArrivalRateEstimator {
            window,
            arrivals: VecDeque::new(),
        }
    }

    /// Records one request arrival — a pure append on the hot path;
    /// out-of-window entries are evicted lazily by the (rare) reads.
    ///
    /// Arrivals must be recorded in non-decreasing time order (they come
    /// from a log); this is asserted in debug builds.
    pub fn record(&mut self, at: SimTime) {
        debug_assert!(
            self.arrivals.back().is_none_or(|&last| last <= at),
            "arrivals must be recorded in time order"
        );
        self.arrivals.push_back(at);
    }

    /// The estimated arrival rate (requests/second) at `now`, over the
    /// trailing window. Uses the full window as the denominator (not the
    /// observed span), so a quiet service correctly reports a low rate.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        let horizon = self.effective_horizon(now);
        if horizon <= 0.0 {
            return 0.0;
        }
        self.arrivals.len() as f64 / horizon
    }

    /// Evicts out-of-window arrivals without reading the rate. Callers
    /// that never consult [`ArrivalRateEstimator::rate`] (a run under a
    /// non-migrating scheduler) call this periodically so the lazily
    /// evicted log stays bounded.
    pub fn trim(&mut self, now: SimTime) {
        self.evict(now);
    }

    /// The configured window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Early in the run the trailing window extends before t=0; clamp the
    /// denominator to the elapsed time so start-up rates are not biased
    /// low.
    fn effective_horizon(&self, now: SimTime) -> f64 {
        let window_secs = self.window.as_secs_f64();
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            window_secs.min(elapsed)
        }
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.duration_since(SimTime::ZERO);
        while let Some(&front) = self.arrivals.front() {
            if front + self.window < SimTime::ZERO + cutoff {
                self.arrivals.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_estimates_true_rate() {
        let mut est = ArrivalRateEstimator::new(SimDuration::from_secs(10));
        // 100 req/s for 20 seconds.
        for i in 0..2000 {
            est.record(SimTime::from_millis(i * 10));
        }
        let rate = est.rate(SimTime::from_secs(20));
        assert!((rate - 100.0).abs() < 2.0, "estimated {rate}, want ~100");
    }

    #[test]
    fn old_arrivals_are_evicted() {
        let mut est = ArrivalRateEstimator::new(SimDuration::from_secs(5));
        for i in 0..100 {
            est.record(SimTime::from_millis(i * 10)); // burst in first second
        }
        // 100 s later the burst has left the window.
        assert_eq!(est.rate(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn startup_rates_use_elapsed_time() {
        let mut est = ArrivalRateEstimator::new(SimDuration::from_secs(60));
        // 50 arrivals in the first second; a 60 s denominator would report
        // ~0.8 req/s, the elapsed-time denominator reports ~50.
        for i in 0..50 {
            est.record(SimTime::from_millis(i * 20));
        }
        let rate = est.rate(SimTime::from_secs(1));
        assert!((rate - 50.0).abs() < 2.0, "estimated {rate}, want ~50");
    }

    #[test]
    fn zero_time_is_zero_rate() {
        let mut est = ArrivalRateEstimator::new(SimDuration::from_secs(10));
        assert_eq!(est.rate(SimTime::ZERO), 0.0);
    }

    #[test]
    fn rate_tracks_load_change() {
        let mut est = ArrivalRateEstimator::new(SimDuration::from_secs(2));
        // 10 req/s for 10 s …
        for i in 0..100 {
            est.record(SimTime::from_millis(i * 100));
        }
        // … then 200 req/s for 2 s.
        for i in 0..400 {
            est.record(SimTime::from_micros(10_000_000 + i * 5_000));
        }
        let rate = est.rate(SimTime::from_secs(12));
        assert!(
            (rate - 200.0).abs() < 10.0,
            "estimator must follow the new load, got {rate}"
        );
    }
}

//! Request reissue: RI-90 / RI-99 (paper refs \[14\], \[18\]).
//!
//! "A request is first sent to the most approximate component for
//! execution, and a replica of this request is sent if the first one is
//! not completed after a brief delay. The quickest replica is then used.
//! Two reissue policies, which send a secondary request after the first
//! has been executed for more than the 90th percentile or the 99th
//! percentile of the expected latency for this class of requests, were
//! tested."
//!
//! The expected-latency distribution per request class is tracked online
//! with streaming P² quantile estimators fed by completed (winning)
//! sub-request latencies. Until enough observations accumulate, no reissue
//! timer is armed (a cold estimator would fire wildly).

use pcs_queueing::P2Quantile;
use pcs_sim::DispatchPolicy;
use pcs_types::{ComponentId, SimDuration};
use rand::rngs::SmallRng;

/// Minimum observed latencies per class before reissue timers arm.
const MIN_OBSERVATIONS: u64 = 50;

/// The RI-p dispatch policy.
#[derive(Debug, Clone)]
pub struct ReissuePolicy {
    /// Reissue percentile in (0, 1), e.g. 0.90 or 0.99.
    percentile: f64,
    /// Per-class latency quantile estimators (grown on demand).
    estimators: Vec<P2Quantile>,
}

impl ReissuePolicy {
    /// Creates RI-p for a percentile in (0, 1).
    ///
    /// # Panics
    /// Panics if the percentile is not strictly inside (0, 1).
    pub fn new(percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile < 1.0,
            "reissue percentile must be in (0,1), got {percentile}"
        );
        ReissuePolicy {
            percentile,
            estimators: Vec::new(),
        }
    }

    fn estimator(&mut self, class: usize) -> &mut P2Quantile {
        while self.estimators.len() <= class {
            self.estimators.push(P2Quantile::new(self.percentile));
        }
        &mut self.estimators[class]
    }

    /// Observations recorded so far for a class (diagnostics).
    pub fn observations(&self, class: usize) -> u64 {
        self.estimators.get(class).map_or(0, |e| e.count())
    }
}

impl DispatchPolicy for ReissuePolicy {
    fn name(&self) -> &'static str {
        if (self.percentile - 0.90).abs() < 1e-9 {
            "RI-90"
        } else if (self.percentile - 0.99).abs() < 1e-9 {
            "RI-99"
        } else {
            "RI-p"
        }
    }

    fn replication(&self) -> usize {
        2 // a primary and one backup per partition
    }

    fn initial_targets(
        &mut self,
        replicas: &[ComponentId],
        _rng: &mut SmallRng,
        out: &mut Vec<ComponentId>,
    ) {
        // Paper: "a request is first sent to the most approximate
        // component" — the partition's own primary worker. Replica groups
        // overlap on the worker pool, so every worker is a primary for its
        // own partition; load stays balanced without randomisation.
        out.push(replicas[0]);
    }

    fn reissue_delay(&mut self, class: usize) -> Option<SimDuration> {
        let percentile = self.percentile;
        let est = self.estimator(class);
        if est.count() < MIN_OBSERVATIONS {
            return None;
        }
        est.estimate().map(|secs| {
            debug_assert!(percentile > 0.0);
            SimDuration::from_secs_f64(secs.max(0.0))
        })
    }

    fn observe_latency(&mut self, class: usize, latency: SimDuration) {
        self.estimator(class).push(latency.as_secs_f64());
    }

    fn cancel_on_start(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn primary_first_initial_dispatch() {
        let mut p = ReissuePolicy::new(0.90);
        let replicas = [ComponentId::new(3), ComponentId::new(8)];
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        p.initial_targets(&replicas, &mut rng, &mut out);
        assert_eq!(out, vec![ComponentId::new(3)], "primary gets the request");
        assert_eq!(p.replication(), 2);
        assert!(p.cancel_on_start());
    }

    #[test]
    fn cold_estimator_arms_no_timer() {
        let mut p = ReissuePolicy::new(0.90);
        assert!(p.reissue_delay(0).is_none());
        for _ in 0..(MIN_OBSERVATIONS - 1) {
            p.observe_latency(0, SimDuration::from_millis(2));
        }
        assert!(p.reissue_delay(0).is_none(), "one short of the minimum");
        p.observe_latency(0, SimDuration::from_millis(2));
        assert!(p.reissue_delay(0).is_some());
    }

    #[test]
    fn warm_delay_tracks_the_percentile() {
        let mut p = ReissuePolicy::new(0.90);
        // Uniform 1..=100 ms latencies: the 90th percentile is ~90 ms.
        for i in 0..2_000u64 {
            let ms = (i % 100) + 1;
            p.observe_latency(0, SimDuration::from_millis(ms));
        }
        let delay = p.reissue_delay(0).unwrap().as_secs_f64() * 1e3;
        assert!(
            (delay - 90.0).abs() < 8.0,
            "RI-90 delay {delay}ms should approximate the 90th percentile"
        );
    }

    #[test]
    fn ri99_waits_longer_than_ri90() {
        let mut p90 = ReissuePolicy::new(0.90);
        let mut p99 = ReissuePolicy::new(0.99);
        for i in 0..5_000u64 {
            let ms = (i % 100) + 1;
            p90.observe_latency(0, SimDuration::from_millis(ms));
            p99.observe_latency(0, SimDuration::from_millis(ms));
        }
        assert!(p99.reissue_delay(0).unwrap() > p90.reissue_delay(0).unwrap());
        assert_eq!(p90.name(), "RI-90");
        assert_eq!(p99.name(), "RI-99");
    }

    #[test]
    fn classes_are_tracked_independently() {
        let mut p = ReissuePolicy::new(0.90);
        for _ in 0..100 {
            p.observe_latency(0, SimDuration::from_millis(1));
            p.observe_latency(2, SimDuration::from_millis(50));
        }
        let d0 = p.reissue_delay(0).unwrap();
        let d2 = p.reissue_delay(2).unwrap();
        assert!(d2 > d0.saturating_mul(10));
        assert!(p.reissue_delay(1).is_none(), "class 1 never observed");
    }
}

//! Request redundancy: RED-k (paper refs \[11\], \[26\], \[27\]).
//!
//! "For each request, multiple replicas are created for parallel execution
//! and only the quickest replica is used. Two different redundancy
//! policies, which generate three or five replicas were tested."
//!
//! The policy fans every partition sub-request out to all `k` replica
//! instances simultaneously. Cancellation-on-start is enabled: when one
//! replica begins executing, messages (with network delay, handled by the
//! simulator) cancel the still-queued duplicates. The paper's two waste
//! sources arise naturally: simultaneous starts on idle replicas, and
//! cancels that cross in flight.

use pcs_sim::DispatchPolicy;
use pcs_types::{ComponentId, SimDuration};
use rand::rngs::SmallRng;

/// The RED-k dispatch policy.
#[derive(Debug, Clone, Copy)]
pub struct RedundancyPolicy {
    k: usize,
}

impl RedundancyPolicy {
    /// Creates RED-k.
    ///
    /// # Panics
    /// Panics unless `k >= 2` (k = 1 is just Basic).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "redundancy needs at least two replicas, got {k}");
        RedundancyPolicy { k }
    }
}

impl DispatchPolicy for RedundancyPolicy {
    fn name(&self) -> &'static str {
        match self.k {
            2 => "RED-2",
            3 => "RED-3",
            4 => "RED-4",
            5 => "RED-5",
            _ => "RED-k",
        }
    }

    fn replication(&self) -> usize {
        self.k
    }

    fn initial_targets(
        &mut self,
        replicas: &[ComponentId],
        _rng: &mut SmallRng,
        out: &mut Vec<ComponentId>,
    ) {
        // Narrow stages (fewer workers than k) yield smaller groups.
        debug_assert!(replicas.len() <= self.k, "group larger than k");
        out.extend_from_slice(replicas);
    }

    fn reissue_delay(&mut self, _class: usize) -> Option<SimDuration> {
        None
    }

    fn reissues(&self) -> bool {
        false
    }

    fn observe_latency(&mut self, _class: usize, _latency: SimDuration) {}

    fn cancel_on_start(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fans_out_to_all_replicas() {
        let mut p = RedundancyPolicy::new(3);
        let replicas = [
            ComponentId::new(1),
            ComponentId::new(2),
            ComponentId::new(3),
        ];
        let mut out = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        p.initial_targets(&replicas, &mut rng, &mut out);
        assert_eq!(out, replicas.to_vec());
        assert_eq!(p.replication(), 3);
        assert_eq!(p.name(), "RED-3");
        assert!(p.cancel_on_start());
        assert!(p.reissue_delay(0).is_none());
    }

    #[test]
    fn red5_is_five_way() {
        let p = RedundancyPolicy::new(5);
        assert_eq!(p.replication(), 5);
        assert_eq!(p.name(), "RED-5");
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn k1_rejected() {
        let _ = RedundancyPolicy::new(1);
    }
}

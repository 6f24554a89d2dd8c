//! `PCS-H<cap>`: the two-level hierarchical PCS variant (paper §VI-D).
//!
//! Dispatches like Basic and migrates like PCS, but the controller runs
//! in hierarchical mode: components are grouped by the rack of their
//! current host and scheduled rack by rack with the bounded greedy
//! (level 1 walks racks, level 2 optimises within a rack's group, capped
//! at `cap` components per greedy run). Inputs, the per-interval matrix
//! build and the evacuation pass are flat PCS's; only the greedy differs.
//! Initial placement is rack-aware (rack-striped anti-affinity) so
//! replica groups start on distinct racks.

use super::{TechniqueEnv, TechniqueSpec};
use crate::controller::PcsController;
use pcs_core::SchedulerConfig;
use pcs_sim::{BasicPolicy, DispatchPolicy, PlacementStrategy, SchedulerHook};

/// Largest accepted per-group cap. The paper suggests groups of "640
/// components or less"; 1024 leaves headroom for ablations above that
/// point while still bounding a single greedy run.
pub const MAX_GROUP_CAP: usize = 1024;

/// The group cap the bare `hier` alias selects.
pub const DEFAULT_GROUP_CAP: usize = 64;

/// `PCS-H<cap>`: hierarchical rack-aware PCS.
#[derive(Debug, Clone, Copy)]
pub struct HierPcsSpec {
    cap: usize,
}

impl HierPcsSpec {
    /// Creates PCS-H with the given per-group component cap.
    ///
    /// # Panics
    /// Panics unless `1 <= cap <= MAX_GROUP_CAP`.
    pub fn new(cap: usize) -> Self {
        assert!(
            (1..=MAX_GROUP_CAP).contains(&cap),
            "PCS-H group cap must be in 1..={MAX_GROUP_CAP}, got {cap}"
        );
        HierPcsSpec { cap }
    }
}

impl TechniqueSpec for HierPcsSpec {
    fn name(&self) -> String {
        format!("PCS-H{}", self.cap)
    }

    fn description(&self) -> String {
        format!(
            "hierarchical rack-aware PCS, rack-grouped greedy of <= {} components",
            self.cap
        )
    }

    fn replication(&self) -> usize {
        1
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(BasicPolicy)
    }

    fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(
            PcsController::new(
                env.models.clone(),
                SchedulerConfig {
                    epsilon_secs: env.epsilon_secs,
                    ..SchedulerConfig::PAPER
                },
            )
            .with_hierarchical(self.cap),
        )
    }

    fn placement(&self) -> Option<PlacementStrategy> {
        Some(PlacementStrategy::RackAware)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_render_the_cap() {
        assert_eq!(HierPcsSpec::new(64).name(), "PCS-H64");
        assert_eq!(HierPcsSpec::new(640).name(), "PCS-H640");
    }

    #[test]
    fn replication_matches_policy() {
        let spec = HierPcsSpec::new(64);
        assert_eq!(spec.replication(), spec.make_policy().replication());
        assert_eq!(spec.placement(), Some(PlacementStrategy::RackAware));
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn zero_cap_is_rejected() {
        let _ = HierPcsSpec::new(0);
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn oversized_cap_is_rejected() {
        let _ = HierPcsSpec::new(1025);
    }
}

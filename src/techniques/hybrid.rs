//! PCS variants from the ROADMAP: the redundancy hybrid and the
//! migration-budgeted frontier point.
//!
//! Both are pure registry specs — combinations of the existing policy and
//! hook factories, needing nothing new in the simulator:
//!
//! * `pcs+red<k>` dispatches like RED-k (k parallel replicas, quickest
//!   wins, queued duplicates cancelled) *and* runs the predictive
//!   controller. Redundancy absorbs the stragglers that strike between
//!   scheduling intervals; migration removes the structural ones.
//! * `pcs-b<n>` is plain PCS with [`SchedulerConfig::max_migrations`]
//!   capped at `n` per interval, charting the gain/churn frontier (how
//!   much of the latency win survives when migrations are rationed).

use super::{TechniqueEnv, TechniqueSpec};
use crate::controller::PcsController;
use pcs_baselines::RedundancyPolicy;
use pcs_core::SchedulerConfig;
use pcs_sim::{BasicPolicy, DispatchPolicy, SchedulerHook};

/// `PCS+RED<k>`: predictive migration under RED-k request redundancy.
#[derive(Debug, Clone, Copy)]
pub struct HybridRedSpec {
    k: usize,
}

impl HybridRedSpec {
    /// Creates the hybrid for `k` parallel replicas.
    ///
    /// # Panics
    /// Panics unless `2 <= k <= 8` (the simulator's replica-group cap).
    pub fn new(k: usize) -> Self {
        assert!((2..=8).contains(&k), "PCS+RED<k> needs k in 2..=8, got {k}");
        HybridRedSpec { k }
    }
}

impl TechniqueSpec for HybridRedSpec {
    fn name(&self) -> String {
        format!("PCS+RED{}", self.k)
    }

    fn description(&self) -> String {
        format!(
            "predictive migration under RED-{} request redundancy (hybrid)",
            self.k
        )
    }

    fn replication(&self) -> usize {
        self.k
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(RedundancyPolicy::new(self.k))
    }

    fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(PcsController::new(
            env.models.clone(),
            SchedulerConfig {
                epsilon_secs: env.epsilon_secs,
                ..SchedulerConfig::PAPER
            },
        ))
    }
}

/// The budget cap's upper bound: beyond the simulator's largest
/// deployments a bigger budget is indistinguishable from `None`.
pub const MAX_MIGRATION_BUDGET: usize = 64;

/// `PCS-B<n>`: PCS rationed to at most `n` migrations per interval.
#[derive(Debug, Clone, Copy)]
pub struct BudgetedPcsSpec {
    budget: usize,
}

impl BudgetedPcsSpec {
    /// Creates the budgeted variant allowing `budget` migrations per
    /// scheduling interval.
    ///
    /// # Panics
    /// Panics unless `1 <= budget <= MAX_MIGRATION_BUDGET`.
    pub fn new(budget: usize) -> Self {
        assert!(
            (1..=MAX_MIGRATION_BUDGET).contains(&budget),
            "PCS-B<n> needs a budget in 1..={MAX_MIGRATION_BUDGET}, got {budget}"
        );
        BudgetedPcsSpec { budget }
    }
}

impl TechniqueSpec for BudgetedPcsSpec {
    fn name(&self) -> String {
        format!("PCS-B{}", self.budget)
    }

    fn description(&self) -> String {
        format!(
            "budgeted PCS: at most {} migration{} per interval (gain/churn frontier)",
            self.budget,
            if self.budget == 1 { "" } else { "s" }
        )
    }

    fn replication(&self) -> usize {
        1
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(BasicPolicy)
    }

    fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(PcsController::new(
            env.models.clone(),
            SchedulerConfig {
                epsilon_secs: env.epsilon_secs,
                max_migrations: Some(self.budget),
                ..SchedulerConfig::PAPER
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_the_cli_tokens() {
        assert_eq!(HybridRedSpec::new(2).name(), "PCS+RED2");
        assert_eq!(HybridRedSpec::new(5).name(), "PCS+RED5");
        assert_eq!(BudgetedPcsSpec::new(1).name(), "PCS-B1");
        assert_eq!(BudgetedPcsSpec::new(16).name(), "PCS-B16");
    }

    #[test]
    fn replication_matches_the_dispatch_policy() {
        for k in [2, 3, 8] {
            let spec = HybridRedSpec::new(k);
            assert_eq!(spec.replication(), spec.make_policy().replication());
        }
        let budgeted = BudgetedPcsSpec::new(4);
        assert_eq!(budgeted.replication(), budgeted.make_policy().replication());
    }

    #[test]
    #[should_panic(expected = "2..=8")]
    fn hybrid_rejects_k1() {
        let _ = HybridRedSpec::new(1);
    }

    #[test]
    #[should_panic(expected = "1..=")]
    fn budget_zero_is_rejected() {
        let _ = BudgetedPcsSpec::new(0);
    }
}

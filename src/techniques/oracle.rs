//! `Oracle`: the PCS controller fed the simulator's exact per-node
//! demand instead of the noisy sampled windows.
//!
//! PCS's gap to perfection has two sources: the monitoring/regression
//! pipeline (sampling noise, staleness, model error) and the scheduling
//! algorithm itself (greedy search, migration latency, the ε threshold).
//! The oracle removes the first source only — same Algorithm 1, same
//! matrix, but node demand comes from
//! [`pcs_sim::SchedulerContext::ground_truth_demand`] — so the remaining
//! gap to PCS is an upper bound on what better prediction could buy.

use super::{TechniqueEnv, TechniqueSpec};
use crate::controller::PcsController;
use pcs_core::SchedulerConfig;
use pcs_sim::{BasicPolicy, DispatchPolicy, SchedulerHook};

/// The `Oracle` technique: PCS with perfect demand monitoring.
#[derive(Debug, Clone, Copy)]
pub struct OracleSpec;

impl TechniqueSpec for OracleSpec {
    fn name(&self) -> String {
        "Oracle".into()
    }

    fn description(&self) -> String {
        "PCS fed the simulator's exact node demand (prediction upper bound)".into()
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
            .with_ground_truth(),
        )
    }
}

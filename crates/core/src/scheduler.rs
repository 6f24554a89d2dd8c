//! Algorithm 1: the greedy component-level scheduling loop.
//!
//! At each scheduling interval:
//!
//! 1. construct the performance matrix `L` from monitored information
//!    (line 2 — done by [`PerformanceMatrix::build`]);
//! 2. start with every component as a migration candidate (line 3);
//! 3. repeatedly pick the entry with the largest predicted reduction in
//!    overall latency, breaking ties by the migrant's own latency
//!    reduction (lines 6–7);
//! 4. if that best reduction exceeds the migration threshold ε, accept the
//!    migration, remove the component from the candidate set, and update
//!    the matrix per Algorithm 2 (lines 9–13);
//! 5. stop when no candidate clears ε or the candidate set empties.
//!
//! The threshold exists to throttle non-beneficial migrations: the paper
//! sets ε = 5 ms as 5 % of the 100 ms acceptable overall latency, after
//! measuring that migrating 10–20 components completes within 3 seconds.

use crate::inputs::MatrixInputs;
use crate::matrix::{MatrixConfig, PerformanceMatrix};
use crate::predictor::ClassModelSet;
use pcs_types::{ComponentId, NodeId};
use std::time::{Duration, Instant};

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Migration threshold ε, in seconds (paper: 5 ms).
    pub epsilon_secs: f64,
    /// Optional hard cap on migrations per interval (`None` = the paper's
    /// natural bound of one migration per component).
    pub max_migrations: Option<usize>,
    /// Rebuild the whole matrix after every accepted migration instead of
    /// running Algorithm 2's incremental update — the naïve alternative
    /// the paper's complexity analysis argues against. Exposed for the
    /// `ablation-rebuild` scenario.
    pub full_rebuild: bool,
}

impl SchedulerConfig {
    /// The paper's configuration: ε = 5 ms, no extra cap.
    pub const PAPER: SchedulerConfig = SchedulerConfig {
        epsilon_secs: 0.005,
        max_migrations: None,
        full_rebuild: false,
    };
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::PAPER
    }
}

/// One accepted migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationDecision {
    /// The straggling component being migrated (`c_cmax`).
    pub component: ComponentId,
    /// Where it was hosted (`n_Origin`).
    pub from: NodeId,
    /// Where it goes (`n_Destination`).
    pub to: NodeId,
    /// Predicted overall-latency reduction at decision time (seconds).
    pub predicted_gain: f64,
    /// Predicted reduction of the component's own latency (seconds).
    pub predicted_self_gain: f64,
}

/// The result of one scheduling interval.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Accepted migrations, in decision order.
    pub decisions: Vec<MigrationDecision>,
    /// Final component→node allocation (`A` of Algorithm 1 line 16).
    pub final_allocation: Vec<NodeId>,
    /// Predicted overall latency before any migration (seconds).
    pub predicted_before: f64,
    /// Predicted overall latency after all accepted migrations (seconds).
    pub predicted_after: f64,
    /// Greedy iterations executed (including the final rejected probe).
    pub iterations: usize,
    /// Wall-clock time of matrix construction ("analysis time", Fig. 7).
    pub analysis_time: Duration,
    /// Wall-clock time of the greedy search + matrix updates ("searching
    /// time", Fig. 7).
    pub search_time: Duration,
}

impl ScheduleOutcome {
    /// Total predicted improvement (seconds).
    pub fn predicted_improvement(&self) -> f64 {
        self.predicted_before - self.predicted_after
    }
}

/// The component-level scheduler (paper Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ComponentScheduler {
    config: SchedulerConfig,
}

impl ComponentScheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    /// Panics on a negative or non-finite ε.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(
            config.epsilon_secs.is_finite() && config.epsilon_secs >= 0.0,
            "migration threshold must be finite and non-negative"
        );
        ComponentScheduler { config }
    }

    /// The configured parameters.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Builds the matrix from monitored inputs and runs one scheduling
    /// interval.
    pub fn schedule(
        &self,
        inputs: &MatrixInputs,
        models: &ClassModelSet,
        matrix_config: MatrixConfig,
    ) -> ScheduleOutcome {
        let mut matrix = PerformanceMatrix::build(inputs, models, matrix_config);
        self.run(&mut matrix)
    }

    /// Runs the greedy loop on an already-built matrix (Algorithm 1 lines
    /// 3–16). The matrix is left in its post-migration state, so callers
    /// can inspect predicted latencies under the new allocation.
    pub fn run(&self, matrix: &mut PerformanceMatrix) -> ScheduleOutcome {
        let m = matrix.component_count();
        self.run_masked(matrix, &mut vec![true; m], 0)
    }

    /// [`ComponentScheduler::run`] with an explicit initial candidate set
    /// and a count of migrations already spent this interval against
    /// [`SchedulerConfig::max_migrations`]. A liveness-aware controller
    /// uses this after its evacuation pass: evacuated components leave the
    /// candidate set (Algorithm 1 removes migrated components) and their
    /// moves consume the interval's budget.
    ///
    /// The mask is borrowed, not owned, so a grouped caller (the
    /// hierarchical scheduler) can reuse one allocation across many group
    /// runs. On return, the bits of accepted migrants are cleared; the
    /// caller's other bits are left as the greedy last saw them.
    ///
    /// # Panics
    /// Panics if `candidates` does not have one entry per component.
    pub fn run_masked(
        &self,
        matrix: &mut PerformanceMatrix,
        candidates: &mut [bool],
        prior_migrations: usize,
    ) -> ScheduleOutcome {
        assert_eq!(
            candidates.len(),
            matrix.component_count(),
            "one candidate flag per component"
        );
        let analysis_time = matrix.build_time();
        let search_start = Instant::now();
        // Line 3: C[Nc] = {c1, …, cm} (minus the caller's exclusions).
        let mut remaining = candidates.iter().filter(|&&c| c).count();
        let mut decisions = Vec::new();
        let predicted_before = matrix.overall_latency();
        let mut iterations = 0usize;

        // Line 5: loop while candidates remain and the best gain clears ε.
        while remaining > 0 {
            if let Some(cap) = self.config.max_migrations {
                if prior_migrations + decisions.len() >= cap {
                    break;
                }
            }
            iterations += 1;
            // Lines 6–8: best entry with self-gain tie-break.
            let Some(best) = matrix.best_candidate(candidates) else {
                break;
            };
            // Line 9: threshold test (strictly greater, as in the paper).
            if best.gain <= self.config.epsilon_secs {
                break;
            }
            // Lines 10–13: accept, remove from candidates, UpdateMatrix.
            candidates[best.component.index()] = false;
            remaining -= 1;
            let from = matrix.apply_migration(best.component, best.destination, candidates);
            if self.config.full_rebuild {
                matrix.rebuild_entries();
            }
            decisions.push(MigrationDecision {
                component: best.component,
                from,
                to: best.destination,
                predicted_gain: best.gain,
                predicted_self_gain: best.self_gain,
            });
        }

        ScheduleOutcome {
            decisions,
            final_allocation: matrix.allocation().to_vec(),
            predicted_before,
            predicted_after: matrix.overall_latency(),
            iterations,
            analysis_time,
            search_time: search_start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ComponentInput, NodeInput};
    use pcs_regression::{CombinedServiceTimeModel, SampleSet, TrainingConfig};
    use pcs_types::{ContentionVector, NodeCapacity, ResourceVector};

    fn linear_models() -> ClassModelSet {
        let mut set = SampleSet::new();
        for i in 0..60 {
            let t = i as f64 / 30.0; // core usage 0..2
            set.push(ContentionVector::new(t, 0.0, 0.0, 0.0), 0.001 * (1.0 + t));
        }
        ClassModelSet::new(vec![CombinedServiceTimeModel::train(
            &set,
            TrainingConfig::default(),
        )
        .unwrap()])
    }

    /// `loads[n]` = external core demand on node n; `placement[i]` = node
    /// of component i; all components in one stage, λ=0.
    fn inputs(loads: &[f64], placement: &[usize]) -> MatrixInputs {
        let nodes = loads
            .iter()
            .enumerate()
            .map(|(i, &cores)| NodeInput {
                id: NodeId::from_index(i),
                capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                demand: ResourceVector::new(cores, 0.0, 0.0, 0.0),
                samples: vec![],
            })
            .collect();
        let components = placement
            .iter()
            .enumerate()
            .map(|(i, &n)| ComponentInput {
                id: ComponentId::from_index(i),
                class: 0,
                stage: 0,
                node: NodeId::from_index(n),
                demand: ResourceVector::new(0.5, 0.0, 0.0, 0.0),
                arrival_rate: 0.0,
                scv: 1.0,
            })
            .collect();
        MatrixInputs {
            nodes,
            components,
            stage_count: 1,
        }
    }

    #[test]
    fn migrates_straggler_off_hot_node() {
        let models = linear_models();
        // Node 0 heavily loaded, nodes 1-2 idle; both components on node 0.
        let inputs = inputs(&[9.0, 0.0, 0.0], &[0, 0]);
        let scheduler = ComponentScheduler::new(SchedulerConfig {
            epsilon_secs: 1e-6,
            max_migrations: None,
            full_rebuild: false,
        });
        let outcome = scheduler.schedule(&inputs, &models, MatrixConfig::default());
        assert!(!outcome.decisions.is_empty(), "must migrate something");
        assert!(outcome.predicted_after < outcome.predicted_before);
        // No component may be migrated twice in one interval.
        let mut seen = std::collections::HashSet::new();
        for d in &outcome.decisions {
            assert!(seen.insert(d.component), "component migrated twice");
            assert!(d.predicted_gain > 1e-6);
            assert_ne!(d.from, d.to);
        }
    }

    #[test]
    fn high_threshold_blocks_all_migrations() {
        let models = linear_models();
        let inputs = inputs(&[9.0, 0.0], &[0, 0]);
        let scheduler = ComponentScheduler::new(SchedulerConfig {
            epsilon_secs: 10.0, // absurdly high
            max_migrations: None,
            full_rebuild: false,
        });
        let outcome = scheduler.schedule(&inputs, &models, MatrixConfig::default());
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.predicted_before, outcome.predicted_after);
    }

    #[test]
    fn balanced_cluster_needs_no_migration() {
        let models = linear_models();
        // Identical nodes, identical loads: every gain is ~0.
        let inputs = inputs(&[4.0, 4.0, 4.0], &[0, 1, 2]);
        let scheduler = ComponentScheduler::new(SchedulerConfig::PAPER);
        let outcome = scheduler.schedule(&inputs, &models, MatrixConfig::default());
        assert!(outcome.decisions.is_empty());
    }

    #[test]
    fn predicted_latency_never_increases_along_greedy_sequence() {
        let models = linear_models();
        let inputs = inputs(&[10.0, 6.0, 0.0, 2.0], &[0, 0, 1, 1]);
        let mut matrix = PerformanceMatrix::build(&inputs, &models, MatrixConfig::default());
        let before = matrix.overall_latency();
        let scheduler = ComponentScheduler::new(SchedulerConfig {
            epsilon_secs: 0.00001,
            max_migrations: None,
            full_rebuild: false,
        });
        let outcome = scheduler.run(&mut matrix);
        // Each accepted gain is positive, so the end-to-end prediction
        // must not be worse than the start.
        assert!(outcome.predicted_after <= before + 1e-12);
    }

    #[test]
    fn max_migrations_cap_is_honoured() {
        let models = linear_models();
        let inputs = inputs(&[10.0, 9.0, 0.0, 0.0], &[0, 0, 1, 1]);
        let scheduler = ComponentScheduler::new(SchedulerConfig {
            epsilon_secs: 0.00001,
            max_migrations: Some(1),
            full_rebuild: false,
        });
        let outcome = scheduler.schedule(&inputs, &models, MatrixConfig::default());
        assert!(outcome.decisions.len() <= 1);
    }

    #[test]
    fn run_masked_respects_exclusions_and_prior_budget() {
        let models = linear_models();
        let inputs = inputs(&[10.0, 9.0, 0.0, 0.0], &[0, 0, 1, 1]);
        let scheduler = ComponentScheduler::new(SchedulerConfig {
            epsilon_secs: 0.00001,
            max_migrations: Some(2),
            full_rebuild: false,
        });
        // Components 0 and 1 are masked out: nothing movable remains on
        // the hot nodes, so the greedy finds no worthwhile move.
        let mut matrix = PerformanceMatrix::build(&inputs, &models, MatrixConfig::default());
        let outcome = scheduler.run_masked(&mut matrix, &mut [false, false, true, true], 0);
        assert!(outcome.decisions.is_empty());

        // A prior spend of 2 exhausts the interval budget outright.
        let mut matrix = PerformanceMatrix::build(&inputs, &models, MatrixConfig::default());
        let outcome = scheduler.run_masked(&mut matrix, &mut [true; 4], 2);
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.iterations, 0);

        // With one prior migration, at most one more is accepted.
        let mut matrix = PerformanceMatrix::build(&inputs, &models, MatrixConfig::default());
        let outcome = scheduler.run_masked(&mut matrix, &mut [true; 4], 1);
        assert!(outcome.decisions.len() <= 1);
    }

    #[test]
    fn outcome_reports_timing() {
        let models = linear_models();
        let inputs = inputs(&[9.0, 0.0], &[0, 0]);
        let scheduler = ComponentScheduler::new(SchedulerConfig::PAPER);
        let outcome = scheduler.schedule(&inputs, &models, MatrixConfig::default());
        // Timings exist (may be tiny, but measured).
        assert!(outcome.analysis_time.as_nanos() > 0);
        assert!(outcome.iterations >= 1);
    }
}

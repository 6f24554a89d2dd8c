//! Hierarchical scheduling for very large services (paper §VI-D).
//!
//! *"For services with more components, the scheduler could apply a
//! hierarchical strategy that divides the components into small groups of
//! 640 components or less and finds the appropriate component-node
//! allocation between groups and then within groups. The scheduling
//! overhead therefore can remain low even with a large number of
//! components."*
//!
//! [`HierarchicalScheduler`] implements that strategy over the one greedy
//! implementation, [`ComponentScheduler::run_masked`]: the performance
//! matrix is built once over the whole cluster, then the flat greedy runs
//! per group (each group's components as the candidate set), with matrix
//! state carried across groups. Later groups see earlier groups'
//! migrations only in part. The allocation, node demands, base latencies
//! and stage maxima are current, and each accepted move is applied to
//! them. But Algorithm 2 refreshes only the running group's rows, so a
//! later group's rows still hold the entries of the build (or of the
//! controller's evacuation moves), even in the columns an earlier group
//! touched. Because every group run *is* `run_masked`, the grouped
//! scheduler inherits everything the flat path has — liveness
//! saturation, budget accounting against prior migrations (the
//! controller's evacuation pass), and candidate exclusions — instead of
//! duplicating the loop.
//!
//! Groups are supplied by the caller ([`HierarchicalScheduler::run_grouped`]),
//! e.g. components grouped by the *rack* of their current host (the
//! RackSched-style two-level shape: level 1 walks racks, level 2 is the
//! bounded greedy within each rack's group). Oversized groups are
//! transparently split into `group_cap` chunks, so one group of every
//! component is the paper's plain grouping: contiguous id ranges of at
//! most `group_cap` (components of one class are numbered together, so
//! ranges align with homogeneous blocks).
//!
//! The per-iteration scan drops from O(m·k) to O(cap·k), bounding the
//! search at O(m·cap·k) instead of O(m²·k). One candidate mask is reused
//! across all groups (a single O(m) allocation per run, not one per
//! group).

use crate::matrix::PerformanceMatrix;
use crate::scheduler::{ComponentScheduler, MigrationDecision, ScheduleOutcome, SchedulerConfig};
use std::time::Instant;

/// Greedy scheduling over component groups of bounded size.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalScheduler {
    config: SchedulerConfig,
    group_cap: usize,
}

impl HierarchicalScheduler {
    /// Creates a hierarchical scheduler with the given per-group cap
    /// (paper suggestion: 640).
    ///
    /// # Panics
    /// Panics on a zero cap or invalid scheduler config.
    pub fn new(config: SchedulerConfig, group_cap: usize) -> Self {
        assert!(group_cap > 0, "group cap must be positive");
        // Reuse ComponentScheduler's validation.
        let _ = ComponentScheduler::new(config);
        HierarchicalScheduler { config, group_cap }
    }

    /// The per-group component cap.
    pub fn group_cap(&self) -> usize {
        self.group_cap
    }

    /// Runs the grouped greedy loops with caller-defined groups (e.g.
    /// rack-aligned), an `allowed` mask of components that may migrate at
    /// all (the controller masks out in-flight migrants and already
    /// evacuated orphans), and a count of migrations already spent this
    /// interval against [`SchedulerConfig::max_migrations`].
    ///
    /// Groups larger than `group_cap` are split into cap-sized chunks in
    /// the given order. Once the migration budget is exhausted, remaining
    /// groups are skipped outright — no per-group setup work is spent on
    /// runs that could not accept anything.
    ///
    /// # Panics
    /// Panics if `allowed` does not have one entry per component, or if a
    /// component index is out of range or listed in more than one group
    /// (a component may migrate at most once per interval; overlapping
    /// groups would break that).
    pub fn run_grouped(
        &self,
        matrix: &mut PerformanceMatrix,
        groups: &[Vec<usize>],
        allowed: &[bool],
        prior_migrations: usize,
    ) -> ScheduleOutcome {
        let m = matrix.component_count();
        assert_eq!(allowed.len(), m, "one allowed flag per component");
        let analysis_time = matrix.build_time();
        let search_start = Instant::now();
        let predicted_before = matrix.overall_latency();
        let scheduler = ComponentScheduler::new(self.config);
        let mut decisions: Vec<MigrationDecision> = Vec::new();
        let mut iterations = 0usize;
        // One mask for every group run, plus a membership check that no
        // component can be offered to the greedy twice.
        let mut mask = vec![false; m];
        let mut seen = vec![false; m];

        'groups: for group in groups {
            for chunk in group.chunks(self.group_cap) {
                if let Some(cap) = self.config.max_migrations {
                    if prior_migrations + decisions.len() >= cap {
                        break 'groups;
                    }
                }
                for &i in chunk {
                    assert!(i < m, "group member {i} out of range");
                    assert!(!seen[i], "component {i} listed in more than one group");
                    seen[i] = true;
                    mask[i] = allowed[i];
                }
                let outcome =
                    scheduler.run_masked(matrix, &mut mask, prior_migrations + decisions.len());
                iterations += outcome.iterations;
                decisions.extend(outcome.decisions);
                for &i in chunk {
                    mask[i] = false;
                }
            }
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
    use crate::predictor::ClassModelSet;
    use crate::MatrixInputs;
    use pcs_regression::{CombinedServiceTimeModel, SampleSet};
    use pcs_types::{ComponentId, ContentionVector, NodeCapacity, NodeId, ResourceVector};

    fn linear_models() -> ClassModelSet {
        let mut set = SampleSet::new();
        for i in 0..60 {
            let t = i as f64 / 30.0;
            set.push(ContentionVector::new(t, 0.0, 0.0, 0.0), 0.001 * (1.0 + t));
        }
        ClassModelSet::new(vec![CombinedServiceTimeModel::train(&set, 2).unwrap()])
    }

    fn inputs(m: usize, k: usize) -> MatrixInputs {
        let mut nodes: Vec<NodeInput> = (0..k)
            .map(|j| NodeInput {
                id: NodeId::from_index(j),
                capacity: NodeCapacity::XEON_E5645,
                demand: ResourceVector::new((j % 5) as f64 * 2.0, 0.0, 0.0, 0.0),
            })
            .collect();
        let components = (0..m)
            .map(|i| {
                let node = NodeId::from_index(i % k);
                let demand = ResourceVector::new(0.7, 0.0, 0.0, 0.0);
                nodes[node.index()].demand += demand;
                ComponentInput {
                    id: ComponentId::from_index(i),
                    class: 0,
                    stage: 0,
                    node,
                    demand,
                    arrival_rate: 50.0,
                    scv: 1.0,
                }
            })
            .collect();
        MatrixInputs {
            nodes,
            components,
            stage_count: 1,
        }
    }

    /// Builds the matrix and schedules one group of every component (the
    /// contiguous `group_cap` chunks of the paper's plain grouping).
    fn schedule_all(
        hier: HierarchicalScheduler,
        inputs: &MatrixInputs,
        models: &ClassModelSet,
    ) -> ScheduleOutcome {
        let mut matrix = PerformanceMatrix::build(inputs, models);
        let m = matrix.component_count();
        hier.run_grouped(&mut matrix, &[(0..m).collect()], &vec![true; m], 0)
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig {
            epsilon_secs: 1e-6,
            ..SchedulerConfig::PAPER
        }
    }

    #[test]
    fn matches_flat_scheduler_when_under_cap() {
        let models = linear_models();
        let inputs = inputs(12, 6);
        let flat = ComponentScheduler::new(config()).schedule(&inputs, &models);
        let hier = schedule_all(HierarchicalScheduler::new(config(), 64), &inputs, &models);
        assert_eq!(flat.decisions, hier.decisions);
        assert_eq!(flat.final_allocation, hier.final_allocation);
    }

    #[test]
    fn matches_flat_scheduler_with_a_saturated_node() {
        // The fault case: node 2's demand is saturated the way the
        // controller saturates a *dead* node, so the flat greedy routes
        // everything away from it. The hierarchical path is the same
        // greedy, so its decisions must be identical — including never
        // targeting the saturated node.
        let models = linear_models();
        let mut inputs = inputs(18, 6);
        inputs.nodes[2].demand = ResourceVector::new(192.0, 400.0, 3200.0, 2000.0);
        let flat = ComponentScheduler::new(config()).schedule(&inputs, &models);
        let hier = schedule_all(HierarchicalScheduler::new(config(), 64), &inputs, &models);
        assert_eq!(flat.decisions, hier.decisions);
        assert_eq!(flat.final_allocation, hier.final_allocation);
        assert!(!flat.decisions.is_empty(), "the hot cluster must migrate");
        for d in &flat.decisions {
            assert_ne!(d.to, NodeId::from_index(2), "never target the dead node");
        }
    }

    #[test]
    fn grouped_scheduling_still_improves() {
        let models = linear_models();
        let inputs = inputs(48, 8);
        let hier = schedule_all(HierarchicalScheduler::new(config(), 16), &inputs, &models);
        assert!(
            !hier.decisions.is_empty(),
            "imbalanced cluster must trigger migrations"
        );
        assert!(hier.predicted_after <= hier.predicted_before);
        // No component migrates twice even across groups.
        let mut seen = std::collections::HashSet::new();
        for d in &hier.decisions {
            assert!(seen.insert(d.component));
        }
    }

    #[test]
    fn groups_partition_the_candidate_space() {
        // With cap 10 over 25 components, decisions happen in group order:
        // ids 0..10, then 10..20, then 20..25.
        let models = linear_models();
        let inputs = inputs(25, 5);
        let hier = schedule_all(HierarchicalScheduler::new(config(), 10), &inputs, &models);
        let mut last_group = 0;
        for d in &hier.decisions {
            let group = d.component.index() / 10;
            assert!(
                group >= last_group,
                "group order violated: {:?}",
                hier.decisions
            );
            last_group = group;
        }
    }

    #[test]
    fn explicit_groups_respect_order_and_exclusions() {
        // Rack-style interleaved groups: evens then odds. Decisions must
        // follow group order, and disallowed components must never move.
        let models = linear_models();
        let inputs = inputs(20, 4);
        let evens: Vec<usize> = (0..20).step_by(2).collect();
        let odds: Vec<usize> = (1..20).step_by(2).collect();
        let mut allowed = vec![true; 20];
        allowed[0] = false;
        allowed[7] = false;
        let mut matrix = PerformanceMatrix::build(&inputs, &models);
        let hier = HierarchicalScheduler::new(config(), 64);
        let outcome = hier.run_grouped(&mut matrix, &[evens, odds], &allowed, 0);
        let mut seen_odd = false;
        for d in &outcome.decisions {
            assert!(allowed[d.component.index()], "excluded component moved");
            if d.component.index() % 2 == 1 {
                seen_odd = true;
            } else {
                assert!(!seen_odd, "even-group decision after the odd group");
            }
        }
    }

    #[test]
    fn exhausted_budget_stops_the_group_walk() {
        // Prior migrations already at the cap: no group may schedule (or
        // even probe) anything.
        let models = linear_models();
        let inputs = inputs(30, 5);
        let cfg = SchedulerConfig {
            epsilon_secs: 1e-6,
            max_migrations: Some(2),
            ..SchedulerConfig::PAPER
        };
        let mut matrix = PerformanceMatrix::build(&inputs, &models);
        let hier = HierarchicalScheduler::new(cfg, 10);
        let outcome = hier.run_grouped(&mut matrix, &[(0..30).collect::<Vec<_>>()], &[true; 30], 2);
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.iterations, 0);

        // And a budget that runs out mid-walk caps the total.
        let mut matrix = PerformanceMatrix::build(&inputs, &models);
        let outcome = hier.run_grouped(&mut matrix, &[(0..30).collect()], &[true; 30], 0);
        assert!(outcome.decisions.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "more than one group")]
    fn overlapping_groups_are_rejected() {
        let models = linear_models();
        let inputs = inputs(6, 3);
        let mut matrix = PerformanceMatrix::build(&inputs, &models);
        let hier = HierarchicalScheduler::new(config(), 4);
        let _ = hier.run_grouped(&mut matrix, &[vec![0, 1, 2], vec![2, 3]], &[true; 6], 0);
    }

    #[test]
    fn hierarchical_is_cheaper_at_scale() {
        // Not a strict timing assertion (CI noise), but the iteration count
        // bound must hold: each group runs at most `cap` accepting
        // iterations plus one rejecting probe.
        let models = linear_models();
        let inputs = inputs(200, 20);
        let cap = 25;
        let hier = schedule_all(HierarchicalScheduler::new(config(), cap), &inputs, &models);
        let groups = 200usize.div_ceil(cap);
        assert!(hier.iterations <= groups * (cap + 1));
    }
}

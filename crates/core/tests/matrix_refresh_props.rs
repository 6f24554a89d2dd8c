//! Property suite for incremental matrix maintenance: across randomised
//! sequences of demand drift, arrival-rate churn, component migrations
//! and node faults, [`PerformanceMatrix::refresh`] must leave the matrix
//! **bit-identical** to a from-scratch `build` over the same inputs —
//! not approximately equal. This is the guarantee that lets the
//! hierarchical controller carry one matrix across intervals (refreshing
//! only dirty rows/columns) while the flat rebuild path stays the
//! reference semantics, in the same style as the `percentile_unsorted`
//! parity properties that gated PR 5's summary-path optimisation.

use pcs_core::{
    ClassModelSet, ComponentInput, MatrixConfig, MatrixInputs, NodeInput, PerformanceMatrix,
    PredictionMode,
};
use pcs_regression::{CombinedServiceTimeModel, SampleSet, TrainingConfig};
use pcs_types::{ComponentId, ContentionVector, NodeCapacity, NodeId, ResourceVector};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Two classes with distinct contention responses so co-resident memo
/// sharing is exercised across class boundaries.
fn models() -> ClassModelSet {
    let mut classes = Vec::new();
    for (base, slope) in [(0.001, 1.0), (0.0005, 2.2)] {
        let mut set = SampleSet::new();
        for i in 0..60 {
            let t = i as f64 / 60.0 * 2.0;
            set.push(
                ContentionVector::new(t, 0.0, 0.0, 0.0),
                base * (1.0 + slope * t),
            );
        }
        classes.push(CombinedServiceTimeModel::train(&set, TrainingConfig::default()).unwrap());
    }
    ClassModelSet::new(classes)
}

fn random_demand(rng: &mut SmallRng) -> ResourceVector {
    let cores: f64 = rng.gen::<f64>() * 8.0;
    ResourceVector::new(cores, 0.0, rng.gen::<f64>() * 30.0, rng.gen::<f64>() * 20.0)
}

fn random_samples(rng: &mut SmallRng, demand: &ResourceVector) -> Vec<ContentionVector> {
    (0..4)
        .map(|_| {
            let jitter = 0.8 + 0.4 * rng.gen::<f64>();
            ContentionVector::new(
                (demand.cores / 12.0 * jitter).min(4.0),
                0.0,
                (demand.disk_mbps / 200.0 * jitter).min(4.0),
                (demand.net_mbps / 125.0 * jitter).min(4.0),
            )
        })
        .collect()
}

/// A fresh cluster: `k` nodes, `m` components round-robined over nodes,
/// stages assigned cyclically so none is empty.
fn initial_inputs(
    rng: &mut SmallRng,
    m: usize,
    k: usize,
    stage_count: usize,
    per_sample: bool,
) -> MatrixInputs {
    let nodes = (0..k)
        .map(|j| {
            let demand = random_demand(rng);
            let samples = if per_sample {
                random_samples(rng, &demand)
            } else {
                Vec::new()
            };
            NodeInput {
                id: NodeId::from_index(j),
                capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                demand,
                samples,
            }
        })
        .collect();
    let components = (0..m)
        .map(|i| ComponentInput {
            id: ComponentId::from_index(i),
            class: i % 2,
            stage: i % stage_count,
            node: NodeId::from_index(rng.gen::<u64>() as usize % k),
            demand: ResourceVector::new(0.3 + 0.7 * rng.gen::<f64>(), 0.0, 2.0, 1.0),
            arrival_rate: 5.0 + 55.0 * rng.gen::<f64>(),
            scv: 0.5 + 1.5 * rng.gen::<f64>(),
        })
        .collect();
    MatrixInputs {
        nodes,
        components,
        stage_count,
    }
}

/// One interval's worth of monitored drift: demand wander, arrival-rate
/// churn, migrations, and the occasional saturating fault.
fn mutate(rng: &mut SmallRng, inputs: &mut MatrixInputs, per_sample: bool) {
    let k = inputs.nodes.len();
    for node in inputs.nodes.iter_mut() {
        if rng.gen::<f64>() < 0.4 {
            node.demand = random_demand(rng);
            if per_sample {
                node.samples = random_samples(rng, &node.demand);
            }
        }
    }
    // A fault shows up to the scheduler as a node pinned at saturating
    // demand (the controller's dead-node contention override).
    if rng.gen::<f64>() < 0.3 {
        let victim = rng.gen::<u64>() as usize % k;
        inputs.nodes[victim].demand = ResourceVector::new(48.0, 0.0, 800.0, 500.0);
        if per_sample {
            inputs.nodes[victim].samples = random_samples(rng, &inputs.nodes[victim].demand);
        }
    }
    for comp in inputs.components.iter_mut() {
        if rng.gen::<f64>() < 0.3 {
            comp.arrival_rate = 5.0 + 55.0 * rng.gen::<f64>();
        }
        if rng.gen::<f64>() < 0.15 {
            comp.scv = 0.5 + 1.5 * rng.gen::<f64>();
        }
        if k > 1 && rng.gen::<f64>() < 0.2 {
            let hop = 1 + rng.gen::<u64>() as usize % (k - 1);
            comp.node = NodeId::from_index((comp.node.index() + hop) % k);
        }
    }
}

fn assert_bit_identical(carried: &PerformanceMatrix, rebuilt: &PerformanceMatrix, step: usize) {
    assert_eq!(
        carried.overall_latency().to_bits(),
        rebuilt.overall_latency().to_bits(),
        "overall latency diverged at step {step}"
    );
    for i in 0..carried.component_count() {
        let ci = ComponentId::from_index(i);
        assert_eq!(
            carried.component_latency(ci).to_bits(),
            rebuilt.component_latency(ci).to_bits(),
            "base latency of component {i} diverged at step {step}"
        );
        for j in 0..carried.node_count() {
            let jn = NodeId::from_index(j);
            assert_eq!(
                carried.gain(ci, jn).to_bits(),
                rebuilt.gain(ci, jn).to_bits(),
                "gain ({i}, {j}) diverged at step {step}"
            );
            assert_eq!(
                carried.self_gain(ci, jn).to_bits(),
                rebuilt.self_gain(ci, jn).to_bits(),
                "self-gain ({i}, {j}) diverged at step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The carried matrix, refreshed interval after interval, never
    /// drifts a single bit from a from-scratch rebuild.
    #[test]
    fn refresh_is_bit_identical_to_rebuild(
        seed in 0u64..10_000,
        k in 2usize..6,
        comps_per_node in 1usize..4,
        stage_count in 1usize..4,
        steps in 1usize..5,
        per_sample_flag in 0u8..2,
    ) {
        let per_sample = per_sample_flag == 1;
        let mode = if per_sample {
            PredictionMode::PerSample
        } else {
            PredictionMode::MeanContention
        };
        let config = MatrixConfig { mode, ..MatrixConfig::default() };
        let models = models();
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (k * comps_per_node).max(stage_count);
        let mut inputs = initial_inputs(&mut rng, m, k, stage_count, per_sample);
        let mut carried = PerformanceMatrix::build(&inputs, &models, config);
        for step in 0..steps {
            mutate(&mut rng, &mut inputs, per_sample);
            let stats = carried.refresh(&inputs);
            prop_assert_eq!(stats.entries_total, m * k);
            prop_assert!(stats.entries_recomputed <= stats.entries_total);
            let rebuilt = PerformanceMatrix::build(&inputs, &models, config);
            assert_bit_identical(&carried, &rebuilt, step);
        }
    }

    /// A refresh that must re-evaluate every entry of a matrix large
    /// enough for the row-parallel rebuild (past 32,768 entries, so it
    /// splits across the available cores) still equals a fresh `build`.
    #[test]
    fn parallel_refresh_fallback_is_bit_identical_to_rebuild(
        seed in 0u64..10_000,
        extra_rows in 0usize..40,
        per_sample_flag in 0u8..2,
    ) {
        let per_sample = per_sample_flag == 1;
        let mode = if per_sample {
            PredictionMode::PerSample
        } else {
            PredictionMode::MeanContention
        };
        let config = MatrixConfig { mode, ..MatrixConfig::default() };
        let models = models();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (m, k) = (400 + extra_rows, 90);
        let mut inputs = initial_inputs(&mut rng, m, k, 3, per_sample);
        let mut carried = PerformanceMatrix::build(&inputs, &models, config);
        mutate(&mut rng, &mut inputs, per_sample);
        let stats = carried.refresh(&inputs);
        prop_assert_eq!(stats.entries_recomputed, stats.entries_total);
        let rebuilt = PerformanceMatrix::build(&inputs, &models, config);
        assert_bit_identical(&carried, &rebuilt, 0);
    }

    /// A quiet interval (identical monitored inputs) is free: nothing is
    /// re-predicted, nothing re-evaluated, and the matrix is untouched.
    #[test]
    fn refresh_of_identical_inputs_is_free(
        seed in 0u64..10_000,
        k in 2usize..5,
        stage_count in 1usize..3,
    ) {
        let models = models();
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (k * 2).max(stage_count);
        let inputs = initial_inputs(&mut rng, m, k, stage_count, false);
        let mut carried = PerformanceMatrix::build(&inputs, &models, MatrixConfig::default());
        let reference = PerformanceMatrix::build(&inputs, &models, MatrixConfig::default());
        let stats = carried.refresh(&inputs);
        prop_assert_eq!(stats.latencies_recomputed, 0);
        prop_assert_eq!(stats.entries_recomputed, 0);
        prop_assert_eq!(stats.nodes_changed, 0);
        assert_bit_identical(&carried, &reference, 0);
    }
}

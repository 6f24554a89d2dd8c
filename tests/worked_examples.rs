//! Worked-example tests mirroring the paper's Figures 3 and 4.
//!
//! The figures' concrete millisecond values are illustrative (the paper
//! does not publish the underlying contention data), so these tests assert
//! the *semantics* the figures demonstrate: Eq. 5's matrix entry as the
//! overall-latency delta, Table III's four contention-update cases, the
//! self-gain tie-break of Algorithm 1 line 7, and the column/row update
//! pattern of Algorithm 2.

use pcs_core::{
    ClassModelSet, ComponentInput, ComponentScheduler, MatrixInputs, NodeInput, PerformanceMatrix,
    SchedulerConfig,
};
use pcs_regression::{CombinedServiceTimeModel, SampleSet};
use pcs_types::{ComponentId, ContentionVector, NodeCapacity, NodeId, ResourceVector};

/// Service time exactly 1 ms · (1 + core usage), so every latency below is
/// analytically checkable.
fn linear_models() -> ClassModelSet {
    let mut set = SampleSet::new();
    for i in 0..60 {
        let t = i as f64 / 30.0;
        set.push(ContentionVector::new(t, 0.0, 0.0, 0.0), 0.001 * (1.0 + t));
    }
    ClassModelSet::new(vec![CombinedServiceTimeModel::train(&set, 2).unwrap()])
}

/// Figure 3's shape: three stages, stage 2 parallelised into two
/// components; λ = 0 so latencies are pure service times.
fn figure3_inputs() -> MatrixInputs {
    let node_loads = [6.0, 4.0, 2.0, 0.0];
    let placement = [0usize, 1, 2, 1]; // c0@n0, c1@n1, c2@n2, c3@n1
    let stages = [0usize, 1, 1, 2];
    MatrixInputs {
        nodes: node_loads
            .iter()
            .enumerate()
            .map(|(j, &cores)| NodeInput {
                id: NodeId::from_index(j),
                capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                demand: ResourceVector::new(cores, 0.0, 0.0, 0.0),
            })
            .collect(),
        components: placement
            .iter()
            .zip(stages)
            .enumerate()
            .map(|(i, (&node, stage))| ComponentInput {
                id: ComponentId::from_index(i),
                class: 0,
                stage,
                node: NodeId::from_index(node),
                demand: ResourceVector::new(1.2, 0.0, 0.0, 0.0),
                arrival_rate: 0.0,
                scv: 1.0,
            })
            .collect(),
        stage_count: 3,
    }
}

/// Expected latency of a component under the linear model, given the
/// node's monitored aggregate demand in cores. `NodeInput::demand` is the
/// full node-level aggregate (it already includes every resident program,
/// exactly what `/proc`-style monitoring reports), so no component demand
/// is added here.
fn expected_ms(aggregate_cores: f64) -> f64 {
    1.0 + aggregate_cores / 12.0
}

#[test]
fn figure3_matrix_entry_is_overall_delta() {
    let models = linear_models();
    let m = PerformanceMatrix::build(&figure3_inputs(), &models);

    // Baseline latencies follow each node's monitored aggregate.
    let l_c0 = expected_ms(6.0); // n0
    let l_c1 = expected_ms(4.0); // n1
    let l_c2 = expected_ms(2.0); // n2
    let l_c3 = expected_ms(4.0); // n1
    assert!((m.component_latency(ComponentId::new(1)) * 1e3 - l_c1).abs() < 0.02);

    // Overall = stage0 (c0) + max(c1, c2) + stage2 (c3), per Eq. 3–4.
    let expected_overall = l_c0 + l_c1.max(l_c2) + l_c3;
    assert!(
        (m.overall_latency() * 1e3 - expected_overall).abs() < 0.05,
        "overall {:.3} vs expected {expected_overall:.3}",
        m.overall_latency() * 1e3
    );

    // Eq. 5 / Table III for migrating c1 (stage-1 max) to the idle n3:
    //  - c1 experiences n3's pre-migration aggregate (0 cores): 1.0 ms;
    //  - c3 on the origin n1 sees U − U_c1 = (4 − 1.2) cores;
    //  - stage 1 max becomes c2's latency.
    let l_c1_new = expected_ms(0.0);
    let l_c3_new = expected_ms(4.0 - 1.2);
    let overall_after = l_c0 + l_c1_new.max(l_c2) + l_c3_new;
    let gain = m.gain(ComponentId::new(1), NodeId::new(3));
    assert!(
        (gain * 1e3 - (expected_overall - overall_after)).abs() < 0.05,
        "L[1][3] = {:.3} ms, expected {:.3} ms",
        gain * 1e3,
        expected_overall - overall_after
    );
}

#[test]
fn figure4_tie_breaks_by_self_gain() {
    // Figure 4: two destinations give the same overall reduction; the
    // algorithm picks the one that reduces the migrant's own latency more.
    // Construction: the migrant (c1, stage 1) is NOT the stage max (c2
    // is, from a hot node), so the overall gain of moving c1 comes only
    // from its origin co-resident c3 (stage 2) improving — identical for
    // every destination. Its own latency differs per destination.
    let node_loads = [6.0, 0.5, 3.0, 9.0];
    let placement = [0usize, 0, 3, 0]; // c0, c1, c3 on n0; c2 on n3 (hot)
    let stages = [0usize, 1, 1, 2];
    let inputs = MatrixInputs {
        nodes: node_loads
            .iter()
            .enumerate()
            .map(|(j, &cores)| NodeInput {
                id: NodeId::from_index(j),
                capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                demand: ResourceVector::new(cores, 0.0, 0.0, 0.0),
            })
            .collect(),
        components: placement
            .iter()
            .zip(stages)
            .enumerate()
            .map(|(i, (&node, stage))| ComponentInput {
                id: ComponentId::from_index(i),
                class: 0,
                stage,
                node: NodeId::from_index(node),
                demand: ResourceVector::new(1.0, 0.0, 0.0, 0.0),
                arrival_rate: 0.0,
                scv: 1.0,
            })
            .collect(),
        stage_count: 3,
    };
    let models = linear_models();
    let matrix = PerformanceMatrix::build(&inputs, &models);

    // Moving c1 to n1 or n2 has (nearly) the same overall gain…
    let g1 = matrix.gain(ComponentId::new(1), NodeId::new(1));
    let g2 = matrix.gain(ComponentId::new(1), NodeId::new(2));
    assert!(g1 > 0.0 && g2 > 0.0);
    assert!(
        (g1 - g2).abs() < 0.05 * g1.max(g2),
        "overall gains should tie: {g1} vs {g2}"
    );
    // …but n1 (0.5 cores) reduces c1's own latency more than n2 (3 cores).
    assert!(
        matrix.self_gain(ComponentId::new(1), NodeId::new(1))
            > matrix.self_gain(ComponentId::new(1), NodeId::new(2))
    );

    // The greedy therefore routes c1 to n1, exactly like Figure 4 routes
    // c2 to the node with the larger self-reduction.
    let best = matrix
        .best_candidate(
            &[false, true, false, false],
            SchedulerConfig::PAPER.tie_tolerance,
        )
        .unwrap();
    assert_eq!(best.component, ComponentId::new(1));
    assert_eq!(best.destination, NodeId::new(1));
}

#[test]
fn migration_threshold_stops_the_loop() {
    // Figure 4's closing observation: after the accepted migration, every
    // remaining entry is below ε = 5 ms and scheduling stops.
    let models = linear_models();
    let inputs = figure3_inputs();
    let scheduler = ComponentScheduler::new(SchedulerConfig {
        epsilon_secs: 0.005, // the paper's 5 ms — larger than any gain here
        ..SchedulerConfig::PAPER
    });
    let outcome = scheduler.schedule(&inputs, &models);
    assert!(outcome.decisions.is_empty());

    // With a micro-threshold the same state yields migrations.
    let eager = ComponentScheduler::new(SchedulerConfig {
        epsilon_secs: 1e-6,
        ..SchedulerConfig::PAPER
    });
    let outcome = eager.schedule(&inputs, &models);
    assert!(!outcome.decisions.is_empty());
    assert!(outcome.predicted_after < outcome.predicted_before);
}

#[test]
fn algorithm2_refreshes_touched_columns_and_rows() {
    let models = linear_models();
    let mut matrix = PerformanceMatrix::build(&figure3_inputs(), &models);
    // Accept the best migration for c1.
    let candidates = [true, true, true, true];
    let best = matrix
        .best_candidate(&candidates, SchedulerConfig::PAPER.tie_tolerance)
        .unwrap();
    let mut candidates = candidates;
    candidates[best.component.index()] = false;
    let origin = matrix.apply_migration(best.component, best.destination, &candidates);

    // Touched entries must equal a from-scratch recomputation.
    let mut rebuilt = matrix.clone();
    rebuilt.rebuild_entries();
    #[allow(clippy::needless_range_loop)]
    for i in 0..4 {
        let c = ComponentId::from_index(i);
        if !candidates[i] {
            continue; // removed row stays stale by design
        }
        for &node in &[origin, best.destination] {
            assert!(
                (matrix.gain(c, node) - rebuilt.gain(c, node)).abs() < 1e-12,
                "column entry ({i}, {node}) stale after UpdateMatrix"
            );
        }
        let home = matrix.allocation()[i];
        if home == origin || home == best.destination {
            for j in 0..4 {
                let n = NodeId::from_index(j);
                assert!(
                    (matrix.gain(c, n) - rebuilt.gain(c, n)).abs() < 1e-12,
                    "row entry ({i}, {j}) stale after UpdateMatrix"
                );
            }
        }
    }
}

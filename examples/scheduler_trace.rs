//! Scheduler trace: a small, readable walk through the paper's Figures 3
//! and 4 — the performance matrix, the greedy pick with its self-gain
//! tie-break, and the Algorithm 2 update after a migration.
//!
//! Run with: `cargo run --example scheduler_trace --release`

use pcs_core::{
    ClassModelSet, ComponentInput, ComponentScheduler, MatrixInputs, NodeInput, PerformanceMatrix,
    SchedulerConfig,
};
use pcs_regression::{CombinedServiceTimeModel, SampleSet};
use pcs_types::{ComponentId, ContentionVector, NodeCapacity, NodeId, ResourceVector};

/// A class whose service time is exactly 1 ms · (1 + core usage): easy to
/// follow by eye.
fn linear_models() -> ClassModelSet {
    let mut set = SampleSet::new();
    for i in 0..60 {
        let t = i as f64 / 30.0;
        set.push(ContentionVector::new(t, 0.0, 0.0, 0.0), 0.001 * (1.0 + t));
    }
    ClassModelSet::new(vec![CombinedServiceTimeModel::train(&set, 2).unwrap()])
}

fn main() {
    // Like the paper's Figure 3: a 3-stage service; stage 2 is
    // parallelised into two components (c1, c2 here). Four nodes with
    // different external load.
    let node_loads = [7.0, 5.0, 2.0, 0.0];
    let placement = [0usize, 0, 1, 2]; // c0..c3 on n0, n0, n1, n2
    let stages = [0usize, 1, 1, 2];

    let nodes: Vec<NodeInput> = node_loads
        .iter()
        .enumerate()
        .map(|(j, &cores)| NodeInput {
            id: NodeId::from_index(j),
            capacity: NodeCapacity::XEON_E5645,
            demand: ResourceVector::new(cores, 0.0, 0.0, 0.0),
        })
        .collect();
    let components: Vec<ComponentInput> = placement
        .iter()
        .zip(stages)
        .enumerate()
        .map(|(i, (&node, stage))| ComponentInput {
            id: ComponentId::from_index(i),
            class: 0,
            stage,
            node: NodeId::from_index(node),
            demand: ResourceVector::new(1.0, 0.0, 0.0, 0.0),
            arrival_rate: 100.0,
            scv: 1.0,
        })
        .collect();
    let inputs = MatrixInputs {
        nodes,
        components,
        stage_count: 3,
    };

    let models = linear_models();
    let matrix = PerformanceMatrix::build(&inputs, &models);

    println!("predicted component latencies (ms):");
    for i in 0..4 {
        let c = ComponentId::from_index(i);
        println!(
            "  c{i} (stage {}) on n{}: {:.3}",
            inputs.components[i].stage,
            matrix.allocation()[i].index(),
            matrix.component_latency(c) * 1e3
        );
    }
    println!(
        "predicted overall latency (Eq. 4): {:.3} ms\n",
        matrix.overall_latency() * 1e3
    );

    println!("performance matrix L[i][j] = predicted overall reduction (ms):");
    print!("{:>6}", "");
    for j in 0..4 {
        print!("{:>10}", format!("n{j}"));
    }
    println!();
    for i in 0..4 {
        print!("{:>6}", format!("c{i}"));
        for j in 0..4 {
            print!(
                "{:>10.3}",
                matrix.gain(ComponentId::from_index(i), NodeId::from_index(j)) * 1e3
            );
        }
        println!();
    }

    // Run the greedy loop and narrate each decision (Figure 4's loop).
    let scheduler = ComponentScheduler::new(SchedulerConfig {
        epsilon_secs: 1e-5,
        ..SchedulerConfig::PAPER
    });
    let mut matrix = PerformanceMatrix::build(&inputs, &models);
    let outcome = scheduler.run(&mut matrix);

    println!("\ngreedy loop (Algorithm 1):");
    for (step, d) in outcome.decisions.iter().enumerate() {
        println!(
            "  {}. migrate {} from {} to {}: overall gain {:.3} ms, own gain {:.3} ms",
            step + 1,
            d.component,
            d.from,
            d.to,
            d.predicted_gain * 1e3,
            d.predicted_self_gain * 1e3
        );
    }
    println!(
        "\npredicted overall latency: {:.3} ms -> {:.3} ms ({} iterations, analysis {:?}, search {:?})",
        outcome.predicted_before * 1e3,
        outcome.predicted_after * 1e3,
        outcome.iterations,
        outcome.analysis_time,
        outcome.search_time
    );
}

//! Quickstart: train the PCS predictor, run a small Nutch-like service
//! under batch-job churn with and without PCS scheduling, and compare.
//!
//! Run with: `cargo run --example quickstart --release`

use pcs::controller::PcsController;
use pcs_core::SchedulerConfig;
use pcs_sim::{BasicPolicy, NoopScheduler, SimConfig, Simulation};
use pcs_types::NodeCapacity;
use pcs_workloads::ServiceTopology;

fn main() {
    // A small search service: 1 segmenter → 16 searchers → 1 aggregator.
    let topology = ServiceTopology::nutch(16);

    // 1. Offline profiling: train one Eq. 1 regression per component
    //    class by co-locating a profiled component with catalog batch jobs
    //    (paper §IV-A / §VI-D: one profile per homogeneous class).
    println!("profiling component classes…");
    let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 7)
        .expect("profiling campaign");

    // 2. A cluster of 12 nodes with batch-job churn, serving 150 req/s.
    let mut config = SimConfig::paper_like(topology, 150.0, 7);
    config.node_count = 12;

    // 3. Baseline: no scheduling.
    let baseline = Simulation::new(
        config.clone(),
        Box::new(BasicPolicy),
        Box::new(NoopScheduler),
    )
    .run();

    // 4. PCS: predictive component-level scheduling every interval.
    let controller = PcsController::new(
        models,
        SchedulerConfig {
            epsilon_secs: 1e-6,
            ..SchedulerConfig::PAPER
        },
    );
    let pcs = Simulation::new(config, Box::new(BasicPolicy), Box::new(controller)).run();

    println!("\n              {:>12} {:>12}", "Basic", "PCS");
    println!(
        "p99 component {:>9.2} ms {:>9.2} ms",
        baseline.component_p99_ms(),
        pcs.component_p99_ms()
    );
    println!(
        "mean overall  {:>9.2} ms {:>9.2} ms",
        baseline.overall_mean_ms(),
        pcs.overall_mean_ms()
    );
    println!("migrations    {:>12} {:>12}", 0, pcs.stats.migrations);
    let tail_gain = 100.0 * (1.0 - pcs.component_latency.p99 / baseline.component_latency.p99);
    println!("\nPCS cut the component tail latency by {tail_gain:.1}%.");
}

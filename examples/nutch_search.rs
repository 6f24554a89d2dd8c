//! The paper's evaluation scenario end to end: the Nutch search engine
//! (100 searching workers on 30 nodes) under batch churn, comparing all
//! six techniques at one arrival rate.
//!
//! Run with: `cargo run --example nutch_search --release [rate] [seed]`

use pcs::controller::PcsController;
use pcs::experiments::fig6;
use pcs::techniques;
use pcs_sim::SimConfig;
use pcs_types::NodeCapacity;

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200.0);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(62015);

    let topology = fig6::topology(100);
    println!("training the PCS predictor (profiling campaign)…");
    let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, seed)
        .expect("profiling campaign");

    println!("running six techniques at {rate} req/s…\n");
    println!(
        "{:>8} {:>18} {:>18} {:>10} {:>10}",
        "tech", "p99 component ms", "mean overall ms", "wasted", "migrations"
    );
    let epsilon_secs = fig6::Fig6Config::default().epsilon_secs;
    for technique in techniques::paper_set() {
        let config = SimConfig::paper_like(fig6::topology(100), rate, fig6::rate_seed(seed, rate));
        let report = fig6::run_cell(&config, &technique, &models, epsilon_secs);
        println!(
            "{:>8} {:>18.2} {:>18.2} {:>10} {:>10}",
            technique.name(),
            report.component_p99_ms(),
            report.overall_mean_ms(),
            report.stats.wasted_executions,
            report.stats.migrations
        );
    }
    println!("\nExpected shape (paper Fig. 6): PCS smallest; redundancy helps at");
    println!("light load and collapses at heavy load (RED-5 worst); reissue sits");
    println!("between, with the conservative RI-99 degrading least.");
}

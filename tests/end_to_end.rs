//! End-to-end integration tests: the paper's qualitative claims, asserted
//! against full simulation runs. These are the load-bearing checks that
//! the reproduction actually reproduces.

use pcs::controller::PcsController;
use pcs::experiments::fig6;
use pcs::techniques::{self, Technique};
use pcs_core::ClassModelSet;
use pcs_sim::SimConfig;
use pcs_types::{NodeCapacity, SimDuration};

fn trained_models(seed: u64) -> ClassModelSet {
    let topology = fig6::topology(48);
    PcsController::train_for(&topology, NodeCapacity::XEON_E5645, seed).expect("profiling campaign")
}

fn cell(models: &ClassModelSet, technique: &Technique, rate: f64, seed: u64) -> pcs_sim::RunReport {
    let mut config = SimConfig::paper_like(fig6::topology(48), rate, seed);
    config.node_count = 16;
    config.horizon = SimDuration::from_secs(40);
    config.warmup = SimDuration::from_secs(8);
    let epsilon_secs = fig6::Fig6Config::default().epsilon_secs;
    fig6::run_cell(&config, technique, models, epsilon_secs)
}

#[test]
fn pcs_beats_basic_under_churn() {
    let models = trained_models(101);
    let seeds = [11u64, 23, 47];
    let mut basic_tail = 0.0;
    let mut pcs_tail = 0.0;
    let mut basic_overall = 0.0;
    let mut pcs_overall = 0.0;
    for &seed in &seeds {
        let basic = cell(&models, &techniques::basic(), 300.0, seed);
        let pcs = cell(&models, &techniques::pcs(), 300.0, seed);
        assert!(pcs.stats.migrations > 0, "PCS must act under churn");
        basic_tail += basic.component_latency.p99;
        pcs_tail += pcs.component_latency.p99;
        basic_overall += basic.overall_latency.mean;
        pcs_overall += pcs.overall_latency.mean;
    }
    assert!(
        pcs_tail < basic_tail,
        "PCS p99 {:.2}ms must beat Basic {:.2}ms (3-seed sum)",
        pcs_tail * 1e3,
        basic_tail * 1e3
    );
    assert!(
        pcs_overall < basic_overall,
        "PCS overall {:.2}ms must beat Basic {:.2}ms (3-seed sum)",
        pcs_overall * 1e3,
        basic_overall * 1e3
    );
}

#[test]
fn redundancy_crossover_helps_light_hurts_heavy() {
    // The paper's central observation about RED-k: some latency reduction
    // under light load, severe deterioration under heavy load.
    let models = trained_models(102);
    let light_basic = cell(&models, &techniques::basic(), 10.0, 5);
    let light_red = cell(&models, &techniques::red(3), 10.0, 5);
    assert!(
        light_red.overall_latency.mean < light_basic.overall_latency.mean * 1.1,
        "at light load RED-3 must be comparable or better: {:.2} vs {:.2} ms",
        light_red.overall_mean_ms(),
        light_basic.overall_mean_ms()
    );

    let heavy_basic = cell(&models, &techniques::basic(), 500.0, 5);
    let heavy_red5 = cell(&models, &techniques::red(5), 500.0, 5);
    assert!(
        heavy_red5.overall_latency.mean > heavy_basic.overall_latency.mean * 2.0,
        "at heavy load RED-5 must collapse: {:.2} vs {:.2} ms",
        heavy_red5.overall_mean_ms(),
        heavy_basic.overall_mean_ms()
    );
    assert!(
        heavy_red5.stats.wasted_executions > 0,
        "the collapse mechanism is wasted duplicate executions"
    );
}

#[test]
fn conservative_reissue_degrades_less_than_aggressive_redundancy() {
    // Paper: "this conservative reissue technique causes less performance
    // deterioration when load becomes heavier."
    let models = trained_models(103);
    let red5 = cell(&models, &techniques::red(5), 500.0, 9);
    let ri99 = cell(&models, &techniques::ri(99.0), 500.0, 9);
    assert!(
        ri99.overall_latency.mean < red5.overall_latency.mean,
        "RI-99 {:.2}ms must degrade less than RED-5 {:.2}ms at 500 req/s",
        ri99.overall_mean_ms(),
        red5.overall_mean_ms()
    );
    assert!(
        ri99.stats.reissues > 0,
        "RI-99 must actually reissue under heavy load"
    );
    assert!(
        ri99.stats.wasted_executions < red5.stats.wasted_executions / 4,
        "reissue wastes far fewer executions than 5-way redundancy"
    );
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let models = trained_models(104);
    let a = cell(&models, &techniques::pcs(), 200.0, 77);
    let b = cell(&models, &techniques::pcs(), 200.0, 77);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.component_latency.count, b.component_latency.count);
    assert!((a.component_latency.p99 - b.component_latency.p99).abs() < 1e-15);
    assert!((a.overall_latency.mean - b.overall_latency.mean).abs() < 1e-15);
}

#[test]
fn every_request_is_accounted_for() {
    let models = trained_models(105);
    for technique in [
        techniques::basic(),
        techniques::red(3),
        techniques::ri(90.0),
        techniques::pcs(),
    ] {
        let report = cell(&models, &technique, 100.0, 31);
        assert!(
            report.stats.requests_completed > 1000,
            "{}: too few completions",
            technique.name()
        );
        assert_eq!(
            report.stats.requests_censored,
            0,
            "{}: requests lost at this comfortable load",
            technique.name()
        );
    }
}

//! Reduction properties of the imperfect-information subsystems, end to
//! end through real simulations: every new dial, turned to its neutral
//! position, must vanish without a trace.
//!
//! * a straggler plan whose slowdown factor is exactly 1.0 leaves the
//!   simulated trajectory identical to the clean run (only the
//!   degrade/recover bookkeeping counters move);
//! * a configured-but-perfect [`FailureDetector`] produces a report
//!   identical to running with no detector at all, faults and all, with
//!   or without an autoscaler;
//! * `pcs-n0` (prediction noise with σ = 0) is identical to plain `pcs`.
//!
//! Each property holds across techniques, arrival rates and seeds —
//! proptest sweeps the cross product with full short simulations.

use pcs::controller::PcsController;
use pcs::experiments::fig6;
use pcs::techniques::{self, Technique};
use pcs_core::ClassModelSet;
use pcs_sim::{AutoscaleConfig, FailureDetector, FaultPlan, RunReport, SimConfig};
use pcs_types::{NodeCapacity, SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained model set shared by every case (the profiling campaign is
/// deterministic and technique-independent; retraining per case would
/// dominate the runtime).
fn models() -> &'static ClassModelSet {
    static MODELS: OnceLock<ClassModelSet> = OnceLock::new();
    MODELS.get_or_init(|| {
        PcsController::train_for(&fig6::topology(100), NodeCapacity::XEON_E5645, 62015)
            .expect("profiling campaign trains")
    })
}

/// A short fig6-style cell config (12 s horizon / 2 s warm-up).
fn short_config(rate: f64, seed: u64) -> (SimConfig, f64) {
    let grid = fig6::Fig6Config {
        seed,
        horizon_scale: 0.2,
        ..fig6::Fig6Config::default()
    };
    (fig6::cell_config(&grid, rate), grid.epsilon_secs)
}

fn run(config: &SimConfig, technique: &Technique, epsilon_secs: f64) -> RunReport {
    fig6::run_cell(config, technique, models(), epsilon_secs)
}

/// Field-by-field report equality for everything a trajectory determines
/// (the technique name is excluded so renamed aliases can compare).
fn assert_same_trajectory(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.measured_from, b.measured_from, "{what}: measured_from");
    assert_eq!(a.ended_at, b.ended_at, "{what}: ended_at");
    assert_eq!(
        a.component_latency, b.component_latency,
        "{what}: component latency"
    );
    assert_eq!(
        a.overall_latency, b.overall_latency,
        "{what}: overall latency"
    );
    assert_eq!(a.stats, b.stats, "{what}: technique stats");
    assert_eq!(a.faults, b.faults, "{what}: fault report");
    assert_eq!(a.autoscale, b.autoscale, "{what}: autoscale report");
}

fn technique_under_test(index: usize) -> Technique {
    [techniques::basic(), techniques::ll(), techniques::pcs()][index]
}

proptest! {
    // Every case runs two or three full (short) simulations; a small case
    // count keeps the suite fast while sweeping the cross product over
    // repeated runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A degrade whose factor is exactly 1.0 changes no service time and
    /// leaves the node's slowdown multiplier untouched, so the world
    /// treats it as idempotent: the counters never move, the straggler
    /// window never opens, and the full trajectory — distributions,
    /// counters, fault report — matches the clean run exactly. (Only the
    /// engine's raw event count sees the two scheduled no-ops.)
    #[test]
    fn unit_factor_stragglers_reduce_to_the_clean_run(
        tech in 0usize..3,
        rate in 60.0f64..140.0,
        seed in 1u64..1_000_000,
    ) {
        let technique = technique_under_test(tech);
        let (clean_config, epsilon) = short_config(rate, seed);
        let mut degraded_config = clean_config.clone();
        degraded_config.faults = FaultPlan::slow_node(
            4,
            seed,
            SimTime::from_secs(4),
            SimDuration::from_secs(5),
            1.0,
        );

        let clean = run(&clean_config, &technique, epsilon);
        let degraded = run(&degraded_config, &technique, epsilon);

        prop_assert!(clean.overall_latency.count > 0, "the cell must serve traffic");
        prop_assert_eq!(degraded.faults.stats.degrades, 0);
        prop_assert_eq!(degraded.faults.stats.recovers, 0);
        assert_eq!(clean.measured_from, degraded.measured_from);
        assert_eq!(clean.ended_at, degraded.ended_at);
        assert_eq!(clean.component_latency, degraded.component_latency);
        assert_eq!(clean.overall_latency, degraded.overall_latency);
        assert_eq!(clean.stats, degraded.stats);
        assert_eq!(clean.faults.stats, degraded.faults.stats);
        // The straggler window never opens (no effective degrade), so the
        // gray-window summary stays empty like the clean run's. The
        // pre/during/post split is the one place the plan's mere presence
        // shows: a non-empty plan routes completions into `pre_fault`,
        // while the clean run's phase summaries stay EMPTY — the split is
        // bookkeeping over the same completions, not a trajectory change.
        assert_eq!(clean.faults.degraded, degraded.faults.degraded);
        assert_eq!(
            degraded.faults.pre_fault.count,
            degraded.component_latency.count
        );
    }

    /// A perfect detector (zero latency, zero error rates) relays ground
    /// truth, so configuring it is identical to configuring none — even
    /// while a kill-restore outage exercises the liveness channel, and
    /// on autoscaled runs whose warming and draining nodes share it.
    #[test]
    fn a_perfect_detector_reduces_to_no_detector(
        tech in 0usize..3,
        rate in 60.0f64..140.0,
        seed in 1u64..1_000_000,
        elastic in (0u8..2).prop_map(|b| b == 1),
    ) {
        let technique = technique_under_test(tech);
        let (mut base, epsilon) = short_config(rate, seed);
        if elastic {
            base.autoscale = Some(AutoscaleConfig {
                target_utilization: 0.6,
                step: 1,
                cooldown: SimDuration::from_secs(2),
                cold_start: SimDuration::from_millis(500),
                min_nodes: base.node_count / 2,
                max_nodes: base.node_count,
                slo_p99_ms: 50.0,
            });
        }
        base.faults = FaultPlan::kill_restore(
            base.node_count,
            seed,
            SimTime::from_secs(4),
            SimDuration::from_secs(3),
        );
        let mut detected = base.clone();
        detected.detector = Some(FailureDetector::perfect());

        let plain = run(&base, &technique, epsilon);
        let observed = run(&detected, &technique, epsilon);
        prop_assert!(plain.faults.stats.kills > 0, "the outage must strike");
        prop_assert_eq!(elastic, plain.autoscale.node_seconds > 0.0);
        assert_same_trajectory(&plain, &observed, "perfect detector");
        prop_assert_eq!(plain.events_processed, observed.events_processed);
    }

    /// σ = 0 noise multiplies every demand estimate by exactly 1, so the
    /// `pcs-n0` technique reproduces plain `pcs` decision for decision.
    #[test]
    fn sigma_zero_noise_reduces_to_plain_pcs(
        rate in 60.0f64..140.0,
        seed in 1u64..1_000_000,
    ) {
        let (config, epsilon) = short_config(rate, seed);
        let plain = run(&config, &techniques::pcs(), epsilon);
        let noisy = run(&config, &techniques::pcs_noisy(0.0), epsilon);
        prop_assert!(plain.stats.requests_completed > 0);
        prop_assert_eq!(noisy.technique.as_str(), "PCS-N0");
        assert_same_trajectory(&plain, &noisy, "pcs-n0");
        prop_assert_eq!(plain.events_processed, noisy.events_processed);
    }
}

/// The reductions compose: the imperfect scenario's clean level (factor
/// 1.0 ⇒ no plan, perfect detector ⇒ none, σ = 0 ⇒ plain pcs) runs cells
/// that are bit-identical to a pristine fig6-style run. Fixed seed —
/// deterministic.
#[test]
fn the_clean_level_composes_all_three_reductions() {
    let (config, epsilon) = short_config(100.0, 62024);
    let pristine = run(&config, &techniques::pcs(), epsilon);

    let mut dialled = config.clone();
    dialled.faults = FaultPlan::none();
    dialled.detector = None;
    let clean_cell = run(&dialled, &techniques::pcs_noisy(0.0), epsilon);

    assert_same_trajectory(&pristine, &clean_cell, "clean level");
}

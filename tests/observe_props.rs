//! Acceptance properties of the observability layer, end to end through
//! real simulations: with a huge top-K (retain every timeline), each
//! retained critical path must telescope from arrival to completion and
//! sum **bit-exactly** (integer microseconds) to the recorded end-to-end
//! latency, the tail-vs-median attribution must be recomputable from the
//! timelines, and the time-series/audit streams must be well-formed —
//! across random techniques (Basic/LL/PCS, RED-k replication, RI-p
//! reissues) and random disruptions (one-shot kill, kill+restore,
//! autoscale warming/draining). The layer is also neutral: the same cell
//! with it off replays the identical trajectory.

use pcs::controller::PcsController;
use pcs::experiments::fig6;
use pcs::techniques::{self, TechniqueRef};
use pcs_core::ClassModelSet;
use pcs_sim::{AutoscaleConfig, FaultPlan, RunReport, SegmentKind};
use pcs_types::{NodeCapacity, SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained model set shared by every case: the profiling campaign is
/// deterministic and technique-independent, and retraining per proptest
/// case would dominate the runtime.
fn models() -> &'static ClassModelSet {
    static MODELS: OnceLock<ClassModelSet> = OnceLock::new();
    MODELS.get_or_init(|| {
        PcsController::train_for(&fig6::topology(100), NodeCapacity::XEON_E5645, 62015)
            .expect("profiling campaign trains")
    })
}

/// The disruption axis of the config space. Faults and autoscaling are
/// kept apart here, as in the scenario families (`failures` vs
/// `elastic`); both leave their mark on timelines and series rows.
#[derive(Debug, Clone, Copy)]
enum Disruption {
    None,
    OneShotKill,
    KillRestore,
    Autoscale,
}

/// Runs one short fig6-style cell; with `observe`, the observability layer
/// retains **every** measured timeline (`top_k` = `usize::MAX`).
fn run_observed(
    technique: &TechniqueRef,
    rate: f64,
    seed: u64,
    disruption: Disruption,
    observe: bool,
) -> RunReport {
    let grid = fig6::Fig6Config {
        seed,
        // 12 s horizon / 2 s warm-up: enough traffic for cohorts and
        // mechanism activity while keeping a proptest case sub-second.
        horizon_scale: 0.2,
        observe: observe.then_some(usize::MAX),
        ..fig6::Fig6Config::default()
    };
    let mut config = fig6::cell_config(&grid, rate);
    match disruption {
        Disruption::None => {}
        Disruption::OneShotKill => {
            config.faults = FaultPlan::one_shot(config.node_count, seed, SimTime::from_secs(4));
        }
        Disruption::KillRestore => {
            config.faults = FaultPlan::kill_restore(
                config.node_count,
                seed,
                SimTime::from_secs(4),
                SimDuration::from_secs(3),
            );
        }
        Disruption::Autoscale => {
            config.autoscale = Some(AutoscaleConfig {
                target_utilization: 0.55,
                step: 1,
                cooldown: SimDuration::from_secs(2),
                cold_start: SimDuration::from_millis(400),
                min_nodes: 8,
                max_nodes: config.node_count,
                slo_p99_ms: 20.0,
            });
        }
    }
    fig6::run_cell_with_epsilon(&config, technique.as_ref(), models(), grid.epsilon_secs)
}

/// The layer's structural invariants, checked against a finished report.
fn assert_observe_invariants(report: &RunReport, node_count: usize) {
    let obs = report.observe.as_ref().expect("observe section present");

    // The traced population is exactly the measured completions (warm-up
    // completions feed audit windows but are never retained), and a huge
    // top-K retains every one of them.
    assert_eq!(
        obs.requests_traced, report.overall_latency.count as u64,
        "traced population must match the latency recorder's"
    );
    assert_eq!(obs.timelines.len() as u64, obs.requests_traced);

    // Retention order: slowest first, ties by request id ascending.
    for pair in obs.timelines.windows(2) {
        assert!(
            (pair[1].total, pair[0].id) < (pair[0].total, pair[1].id),
            "timelines must be ordered by (latency desc, id asc)"
        );
    }

    for t in &obs.timelines {
        // The header is self-consistent …
        assert_eq!(t.total, t.completed - t.arrived);
        // … every segment is non-empty and they telescope from arrival
        // to completion with no gaps or overlaps …
        for s in &t.segments {
            assert!(s.end > s.start, "zero-length segments are never retained");
        }
        for pair in t.segments.windows(2) {
            assert_eq!(
                pair[0].end, pair[1].start,
                "request {}: segments must be contiguous",
                t.id
            );
        }
        match (t.segments.first(), t.segments.last()) {
            (Some(first), Some(last)) => {
                assert_eq!(first.start, t.arrived);
                assert_eq!(last.end, t.completed);
            }
            _ => assert!(
                t.total.is_zero(),
                "only a zero-latency request has no segments"
            ),
        }
        // … so the durations sum bit-exactly to the recorded latency.
        let sum: u64 = t.segments.iter().map(|s| s.duration().as_micros()).sum();
        assert_eq!(
            sum,
            t.total.as_micros(),
            "request {}: segments must sum to its end-to-end latency",
            t.id
        );
    }

    // With every timeline retained, the attribution is recomputable: the
    // cohort ranges come from the same helper the observer uses, over the
    // same ascending (latency, id) order, and each cohort's segment time
    // equals the sum of its members' totals (segments sum to totals).
    let mut ascending: Vec<_> = obs.timelines.iter().collect();
    ascending.sort_by(|a, b| a.total.cmp(&b.total).then(a.id.cmp(&b.id)));
    match pcs_monitor::cohort_ranges(ascending.len()) {
        None => assert_eq!(obs.attribution.tail_count, 0),
        Some((median_range, tail_range)) => {
            assert_eq!(obs.attribution.median_count, median_range.len());
            assert_eq!(obs.attribution.tail_count, tail_range.len());
            let micros = |r: &std::ops::Range<usize>| {
                ascending[r.clone()]
                    .iter()
                    .map(|t| t.total.as_micros())
                    .sum::<u64>()
            };
            assert_eq!(obs.attribution.tail_micros, micros(&tail_range));
            assert_eq!(obs.attribution.median_micros, micros(&median_range));
            // Blame buckets partition (a capped subset of) the tail time.
            let blamed: u64 = obs.attribution.blame.iter().map(|b| b.tail_micros).sum();
            assert!(blamed <= obs.attribution.tail_micros);
            for pair in obs.attribution.blame.windows(2) {
                assert!(
                    pair[0].tail_micros >= pair[1].tail_micros,
                    "blame must be ordered heaviest first"
                );
            }
        }
    }

    // Time-series rows are strictly time-ordered and sized to the fleet.
    for pair in obs.series.windows(2) {
        assert!(pair[0].at < pair[1].at);
    }
    for row in &obs.series {
        assert_eq!(row.node_utilization.len(), node_count);
        assert_eq!(row.node_queue_depth.len(), node_count);
        for &u in &row.node_utilization {
            assert!(u.is_finite() && u >= 0.0);
        }
    }

    // Audits carry the observer-assigned 1-based interval index, strictly
    // increasing, with finite predictions.
    for pair in obs.audits.windows(2) {
        assert!(pair[0].interval < pair[1].interval);
    }
    for audit in &obs.audits {
        assert!(audit.interval >= 1);
        assert!(audit.predicted_overall.is_finite());
        if let Some(delta) = audit.realized_delta {
            assert!(delta.is_finite());
        }
    }
}

proptest! {
    // Every case runs a full (short) discrete-event simulation; 24 cases
    // keep the test a few seconds while covering the whole config cross
    // product over repeated runs.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn critical_paths_sum_bit_exactly_across_random_configs(
        tech in 0usize..7,
        disruption in 0usize..4,
        rate in 50.0f64..150.0,
        seed in 1u64..1_000_000,
    ) {
        let disruption = [
            Disruption::None,
            Disruption::OneShotKill,
            Disruption::KillRestore,
            Disruption::Autoscale,
        ][disruption];
        let technique = match disruption {
            // Membership churn pairs with the elastic technique set
            // (replication groups do not resize mid-run).
            Disruption::Autoscale => {
                [techniques::basic(), techniques::ll(), techniques::pcs()][tech % 3].clone()
            }
            _ => [
                techniques::basic(),
                techniques::ll(),
                techniques::pcs(),
                techniques::red(2),
                techniques::red(3),
                techniques::ri(90.0),
                techniques::ri(99.0),
            ][tech].clone(),
        };
        let report = run_observed(&technique, rate, seed, disruption, true);
        prop_assert!(report.overall_latency.count > 0, "the cell must serve traffic");
        assert_observe_invariants(&report, 30);
        // The layer consumes no randomness and schedules no events, so
        // switching it off replays the identical trajectory.
        let plain = run_observed(&technique, rate, seed, disruption, false);
        prop_assert!(plain.observe.is_none());
        prop_assert_eq!(plain.events_processed, report.events_processed);
        prop_assert_eq!(plain.overall_latency.count, report.overall_latency.count);
        prop_assert_eq!(
            plain.component_p99_ms().to_bits(),
            report.component_p99_ms().to_bits()
        );
    }
}

/// Reissue waits reach the critical path: when an RI duplicate wins its
/// partition, the time before the duplicate even existed is attributed as
/// [`SegmentKind::ReissueWait`], not queueing. Fixed seed — deterministic.
#[test]
fn reissue_wait_segments_appear_under_aggressive_reissue() {
    let report = run_observed(&techniques::ri(90.0), 140.0, 7, Disruption::None, true);
    assert!(report.stats.reissues > 0, "RI-90 at 140 req/s must reissue");
    let obs = report.observe.as_ref().unwrap();
    let reissue_waits = obs
        .timelines
        .iter()
        .flat_map(|t| &t.segments)
        .filter(|s| s.kind == SegmentKind::ReissueWait)
        .count();
    assert!(
        reissue_waits > 0,
        "some winning duplicate must put its reissue wait on the critical path"
    );
    assert_observe_invariants(&report, 30);
}

/// A kill+restore leaves its mark on both streams: the series rows see
/// the node down, and segments recorded during the outage carry the
/// fault flag. Fixed seed — deterministic.
#[test]
fn faults_mark_series_rows_and_segment_flags() {
    let report = run_observed(&techniques::pcs(), 100.0, 11, Disruption::KillRestore, true);
    assert!(report.faults.stats.kills > 0);
    let obs = report.observe.as_ref().unwrap();
    assert!(
        obs.series.iter().any(|row| row.down_nodes > 0),
        "a monitor boundary must land inside the 3 s outage"
    );
    let flagged = obs
        .timelines
        .iter()
        .flat_map(|t| &t.segments)
        .any(|s| s.flags & pcs_sim::observe::FLAG_FAULT != 0);
    assert!(
        flagged,
        "segments recorded during the outage carry the fault flag"
    );
    assert_observe_invariants(&report, 30);
}

/// Autoscaling leaves its mark: some window shows warming or draining
/// nodes, and the window deltas pick up the scale actions. Fixed seed —
/// deterministic.
#[test]
fn autoscale_activity_reaches_the_time_series() {
    let report = run_observed(&techniques::pcs(), 60.0, 13, Disruption::Autoscale, true);
    let actions =
        report.autoscale.stats.scale_out_actions + report.autoscale.stats.scale_in_actions;
    assert!(actions > 0, "a 55% target at 60 req/s must consolidate");
    let obs = report.observe.as_ref().unwrap();
    assert!(
        obs.series
            .iter()
            .any(|row| row.warming_nodes > 0 || row.draining_nodes > 0),
        "some boundary must catch a node mid-transition"
    );
    let windowed: u64 = obs.series.iter().map(|row| row.autoscale_actions).sum();
    assert!(windowed > 0, "window deltas must pick up the scale actions");
    assert_observe_invariants(&report, 30);
}

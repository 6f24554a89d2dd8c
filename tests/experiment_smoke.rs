//! Fast smoke tests for the experiment pipeline: each figure driver runs
//! end to end on a tiny topology / short horizon so its code path is
//! exercised in the `#[test]` tier without the paper-scale budgets the
//! full scenarios use. These assert structure and sanity, not the
//! paper's numbers — `tests/end_to_end.rs` owns the qualitative claims.

use pcs::experiments::{fig5, fig6, fig7};
use pcs::techniques;
use pcs_sim::Simulation;

#[test]
fn fig5_pipeline_smoke() {
    // A fraction of the default sampling budget; enough for the
    // leave-one-out training to converge on every case.
    let result = fig5::run(fig5::Fig5Config {
        samples_per_point: 16,
        draws_per_sample: 10,
        measure_draws: 500,
        ..fig5::Fig5Config::default()
    });
    assert_eq!(result.cases.len(), 3 * 20 + 3 * 10, "full case grid");
    for case in &result.cases {
        assert!(
            case.predicted_ms.is_finite() && case.predicted_ms > 0.0,
            "bad prediction for {:?}@{}MB: {}",
            case.workload,
            case.input_mb,
            case.predicted_ms
        );
        assert!(case.actual_ms.is_finite() && case.actual_ms > 0.0);
        assert!(case.error_pct.is_finite() && case.error_pct >= 0.0);
    }
    assert!(result.mean_error_pct.is_finite());
    assert!(result.buckets[0] <= result.buckets[1] && result.buckets[1] <= result.buckets[2]);
}

#[test]
fn fig6_pipeline_smoke() {
    // One rate, three techniques (one from each family), a fifth of the
    // default horizon, a small searching pool.
    let cells = fig6::run_sweep(&fig6::Fig6Config {
        rates: vec![80.0],
        techniques: techniques::smoke_set(),
        search_vm_budget: 8,
        horizon_scale: 0.2,
        threads: 2,
        ..fig6::Fig6Config::default()
    });
    assert_eq!(cells.len(), 3);
    for cell in &cells {
        assert!(
            cell.report.stats.requests_completed > 100,
            "{}: too few completions ({})",
            cell.technique.name(),
            cell.report.stats.requests_completed
        );
        assert!(cell.report.overall_latency.mean > 0.0);
        assert!(cell.report.component_latency.p99 >= cell.report.component_latency.p50);
    }
    let headline = fig6::headline(&cells);
    assert!(headline.tail_reduction.is_finite());
    assert!(headline.overall_reduction.is_finite());
}

#[test]
fn fig7_pipeline_smoke() {
    // One small grid point instead of the paper's series up to 640×128.
    let point = fig7::measure_point(12, 4, 2, 7);
    assert_eq!((point.components, point.nodes), (12, 4));
    assert!(point.analysis_ms.is_finite() && point.analysis_ms >= 0.0);
    assert!(point.search_ms.is_finite() && point.search_ms >= 0.0);
    assert!(point.total_ms() >= point.analysis_ms);
    assert!(point.migrations > 0, "the greedy search must do real work");
}

#[test]
fn fig6_single_cell_is_deterministic() {
    // The sweep compares techniques on a common trace; that only means
    // anything if a cell re-run reproduces exactly. (Single-threaded
    // re-check of what the parallel sweep assumes.)
    let config = pcs_sim::SimConfig::paper_like(fig6::topology(8), 80.0, 2026);
    let run = |cfg: &pcs_sim::SimConfig| {
        let mut cfg = cfg.clone();
        cfg.horizon = cfg.horizon.mul_f64(0.2);
        cfg.warmup = cfg.warmup.mul_f64(0.2);
        Simulation::new(
            cfg,
            Box::new(pcs_sim::BasicPolicy),
            Box::new(pcs_sim::NoopScheduler),
        )
        .run()
    };
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        a.overall_latency.mean.to_bits(),
        b.overall_latency.mean.to_bits()
    );
}

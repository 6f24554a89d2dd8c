//! Fast smoke tests for the experiment pipeline: the fig5 and fig6
//! scenarios' `--smoke` plans run end to end through the sweep runner
//! (tiny sampling budgets, one rate, a fifth of the horizon, a small
//! searching pool), and one small fig7 point is timed. These assert
//! structure and sanity, not the paper's numbers — `tests/end_to_end.rs`
//! owns the qualitative claims.

use pcs::experiments::fig7;
use pcs::scenarios;
use pcs_harness::{run_sweep, Json, SweepOutcome, SweepParams};

/// Runs a scenario's `--smoke` plan at its default seed on two workers.
fn smoke(name: &str) -> SweepOutcome {
    let scenario = scenarios::find(name).expect("scenario registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        threads: 2,
        smoke: true,
        ..SweepParams::default()
    };
    run_sweep(&scenario.plan(&params).unwrap(), &params)
}

fn summary_f64(outcome: &SweepOutcome, name: &str) -> f64 {
    outcome
        .summary
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or_else(|| panic!("summary must carry `{name}`"))
}

#[test]
fn fig5_pipeline_smoke() {
    // A fraction of the default sampling budget; enough for the
    // leave-one-out training to converge on every case.
    let outcome = smoke("fig5");
    let mut cases = 0;
    for cell in &outcome.cells {
        let Some(Json::Array(rows)) = cell.value("case_errors") else {
            panic!("{}: case_errors must be an array", cell.label);
        };
        for row in rows {
            let field = |name: &str| row.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (input_mb, predicted_ms) = (field("input_mb"), field("predicted_ms"));
            assert!(
                predicted_ms.is_finite() && predicted_ms > 0.0,
                "bad prediction for {}@{input_mb}MB: {predicted_ms}",
                cell.label
            );
            let actual_ms = field("actual_ms");
            assert!(actual_ms.is_finite() && actual_ms > 0.0);
            let error_pct = field("error_pct");
            assert!(error_pct.is_finite() && error_pct >= 0.0);
            cases += 1;
        }
    }
    assert_eq!(cases, 3 * 20 + 3 * 10, "full case grid");
    assert_eq!(summary_f64(&outcome, "cases"), cases as f64);
    assert!(summary_f64(&outcome, "mean_error_pct").is_finite());
    let buckets =
        [3, 5, 8].map(|limit| summary_f64(&outcome, &format!("pct_cases_below_{limit}pct_error")));
    assert!(buckets[0] <= buckets[1] && buckets[1] <= buckets[2]);
}

#[test]
fn fig6_pipeline_smoke() {
    // One rate, three techniques (one from each family), a fifth of the
    // default horizon, a small searching pool.
    let outcome = smoke("fig6");
    assert_eq!(outcome.cells.len(), 3);
    for cell in &outcome.cells {
        let completed = cell.value_f64("requests_completed").unwrap_or(0.0);
        assert!(
            completed > 100.0,
            "{}: too few completions ({completed})",
            cell.label
        );
        assert!(cell.value_f64("mean_overall_ms").unwrap_or(0.0) > 0.0);
    }
    assert!(summary_f64(&outcome, "pcs_mean_tail_reduction_pct").is_finite());
    assert!(summary_f64(&outcome, "pcs_mean_overall_reduction_pct").is_finite());
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

//! Scenario registrations for the paper's Figures 5–7 and the §VI-C
//! headline view.

use super::{
    base_grid, kv, pcs_reduction_summary, technique_cell, technique_grid, train_models,
    COMPARISON_OVERRIDES,
};
use crate::experiments::{fig5, fig6, fig7};
use crate::techniques;
use pcs_harness::{CellPlan, CellResult, Json, Override, Scenario, SweepParams, SweepPlan};
use pcs_workloads::BatchWorkload;
use std::error::Error;

/// Figure 5: prediction accuracy of the performance model, one cell per
/// batch workload (the leave-one-out cases of a workload are a serial
/// unit; workloads fan out on the runner).
pub const FIG5: Scenario = Scenario {
    name: "fig5",
    description: "Figure 5: performance-model prediction errors across workloads and input sizes",
    default_seed: 20151511,
    // No simulated service runs here, so `--observe` would do nothing.
    overrides: &[],
    build: fig5_plan,
};

fn fig5_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let config = fig5::Fig5Config {
        seed: params.seed,
        ..fig5::Fig5Config::default()
    };
    let config = if params.smoke {
        fig5::Fig5Config {
            samples_per_point: 16,
            draws_per_sample: 10,
            measure_draws: 500,
            ..config
        }
    } else {
        config
    };
    let cells = BatchWorkload::ALL
        .into_iter()
        .map(|workload| CellPlan {
            label: workload.name().to_string(),
            params: vec![kv("workload", workload.name())],
            // Per-case RNG streams are derived inside from
            // (config.seed, workload, case); the runner seed is unused.
            run: Box::new(move |_cell_seed| {
                let cases = fig5::run_workload(workload, &config);
                let mean =
                    cases.iter().map(|c| c.error_pct).sum::<f64>() / cases.len().max(1) as f64;
                let case_rows = cases
                    .iter()
                    .map(|c| {
                        Json::object(vec![
                            kv("input_mb", c.input_mb),
                            kv("predicted_ms", c.predicted_ms),
                            kv("actual_ms", c.actual_ms),
                            kv("error_pct", c.error_pct),
                        ])
                    })
                    .collect();
                CellResult {
                    metrics: vec![
                        kv("cases", cases.len()),
                        kv("mean_error_pct", mean),
                        kv(
                            "max_error_pct",
                            cases.iter().map(|c| c.error_pct).fold(0.0, f64::max),
                        ),
                        ("case_errors".to_string(), Json::Array(case_rows)),
                    ],
                }
            }),
        })
        .collect();
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(|cells| {
            let errors: Vec<f64> = cells
                .iter()
                .flat_map(|cell| match cell.value("case_errors") {
                    Some(Json::Array(rows)) => rows
                        .iter()
                        .filter_map(|row| match row {
                            Json::Object(pairs) => pairs
                                .iter()
                                .find(|(k, _)| k == "error_pct")
                                .and_then(|(_, v)| v.as_f64()),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                })
                .collect();
            // Percentages throughout, like mean_error_pct and the
            // paper's own numbers (63.33% / 82.22% / 96.67%).
            let pct_below = |limit: f64| {
                100.0 * errors.iter().filter(|e| **e < limit).count() as f64
                    / errors.len().max(1) as f64
            };
            vec![
                kv("cases", errors.len()),
                kv("pct_cases_below_3pct_error", pct_below(3.0)),
                kv("pct_cases_below_5pct_error", pct_below(5.0)),
                kv("pct_cases_below_8pct_error", pct_below(8.0)),
                kv(
                    "mean_error_pct",
                    errors.iter().sum::<f64>() / errors.len().max(1) as f64,
                ),
            ]
        })),
        notes: vec![
            "paper: errors < 3% / 5% / 8% in 63.33% / 82.22% / 96.67% of cases; mean 2.68%"
                .to_string(),
        ],
    })
}

/// The Figure 6 grid, shared by [`FIG6`] and [`HEADLINE`]
/// (they differ only in their notes): rates outer, techniques inner, every
/// technique at a rate replaying one trace via [`fig6::rate_seed`], and the
/// §VI-C reductions in the summary.
fn fig6_plan(params: &SweepParams, note: &str) -> SweepPlan {
    let cfg = base_grid(params, &[10.0, 20.0, 50.0, 100.0, 200.0, 500.0]);
    let techniques = technique_grid(params, techniques::paper_set(), techniques::smoke_set());
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &technique in &techniques {
            let cfg = cfg.clone();
            cells.push(technique_cell(
                format!("{} @ {rate} req/s", technique.name()),
                vec![kv("rate", rate), kv("technique", technique.name())],
                technique,
                &models,
                cfg.epsilon_secs,
                move || fig6::cell_config(&cfg, rate),
                None,
            ));
        }
    }
    SweepPlan {
        cells,
        summarize: Some(Box::new(pcs_reduction_summary)),
        notes: vec![note.to_string()],
    }
}

/// Figure 6: six techniques at six arrival rates, plus the headline
/// reductions in the summary.
pub const FIG6: Scenario = Scenario {
    name: "fig6",
    description: "Figure 6: six techniques x six arrival rates on the shared batch-churn trace",
    default_seed: 62015,
    overrides: COMPARISON_OVERRIDES,
    build: |params| {
        Ok(fig6_plan(
            params,
            "paper headline: PCS cuts p99 component latency 67.05% and mean overall latency 64.16% vs redundancy/reissue",
        ))
    },
};

/// The §VI-C headline view: the fig6 grid with the per-technique
/// reduction table as the point of the run.
pub const HEADLINE: Scenario = Scenario {
    name: "headline",
    description: "Headline: PCS's latency reduction vs each technique, per rate (fig6 grid)",
    default_seed: 62015,
    overrides: COMPARISON_OVERRIDES,
    build: |params| Ok(fig6_plan(params, "paper: 67.05% tail, 64.16% overall")),
};

/// Figure 7: scheduling-algorithm scalability. Metrics are wall-clock
/// measurements — the one registered sweep whose JSON is *not*
/// byte-reproducible (cell structure and migration counts are).
pub const FIG7: Scenario = Scenario {
    name: "fig7",
    description:
        "Figure 7: scheduler scalability - analysis + search wall time vs components and nodes",
    default_seed: 72015,
    // Wall-clock metrics: no `--observe` (see `Scenario::overrides`).
    overrides: &[Override::Repeats],
    build: fig7_plan,
};

fn fig7_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let series = if params.smoke {
        vec![(12, 4), (24, 8)]
    } else {
        fig7::paper_series()
    };
    let repeats = params.repeats.unwrap_or(if params.smoke { 1 } else { 5 });
    let cells = series
        .into_iter()
        .map(|(m, k)| CellPlan {
            label: format!("{m} components / {k} nodes"),
            params: vec![kv("components", m), kv("nodes", k)],
            run: Box::new(move |cell_seed| {
                let point = fig7::measure_point(m, k, repeats, cell_seed);
                CellResult {
                    metrics: vec![
                        kv("analysis_ms", point.analysis_ms),
                        kv("search_ms", point.search_ms),
                        kv("total_ms", point.total_ms()),
                        kv("migrations", point.migrations),
                    ],
                }
            }),
        })
        .collect();
    Ok(SweepPlan {
        cells,
        summarize: None,
        notes: vec![
            "timings are wall-clock (not byte-reproducible); paper: 551 ms total at 640x128 on 2015 hardware".to_string(),
        ],
    })
}

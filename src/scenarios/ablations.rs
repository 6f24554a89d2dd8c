//! Scenario registrations for the design-choice ablations.

use super::{base_grid, kv, report_metrics, train_models, ABLATION_OVERRIDES};
use crate::controller::PcsController;
use crate::experiments::{fig6, fig7};
use pcs_core::{ClassModelSet, ComponentScheduler, SchedulerConfig};
use pcs_harness::{CellPlan, CellResult, Scenario, SweepParams, SweepPlan};
use pcs_sim::{BasicPolicy, Simulation};
use pcs_types::SimDuration;
use std::error::Error;
use std::sync::Arc;

/// Builds one PCS cell with a customised controller: shared plumbing for
/// the simulation-backed ablations (same trace per rate via
/// [`fig6::rate_seed`], controller knobs varied per cell). `models` is
/// trained once per plan and shared by every cell.
#[allow(clippy::too_many_arguments)]
fn pcs_cell(
    cfg: &fig6::Fig6Config,
    models: &Arc<ClassModelSet>,
    rate: f64,
    label: String,
    params: Vec<(String, pcs_harness::Json)>,
    scheduler: SchedulerConfig,
    scv_override: Option<f64>,
    interval: Option<SimDuration>,
) -> CellPlan {
    let models = models.clone();
    let cfg = cfg.clone();
    CellPlan {
        label,
        params,
        // Runner seed unused: cells at one rate share the rate-keyed seed.
        run: Box::new(move |_cell_seed| {
            let mut sim_config = fig6::cell_config(&cfg, rate);
            if let Some(interval) = interval {
                sim_config.scheduler_interval = interval;
            }
            let mut controller = PcsController::new((*models).clone(), scheduler);
            if let Some(scv) = scv_override {
                controller = controller.with_scv_override(scv);
            }
            let report =
                Simulation::new(sim_config, Box::new(BasicPolicy), Box::new(controller)).run();
            CellResult {
                metrics: report_metrics(&report),
            }
        }),
    }
}

/// Ablation: the migration threshold ε (paper §VI-C picks 5 ms; too high
/// blocks straggler evacuation, too low admits noise-driven churn).
pub const THRESHOLD: Scenario = Scenario {
    name: "ablation-threshold",
    description: "Ablation: migration threshold epsilon sweep for PCS",
    default_seed: 62015,
    overrides: ABLATION_OVERRIDES,
    build: threshold_plan,
};

fn threshold_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[50.0, 500.0]);
    let models = train_models(&cfg);
    let epsilons: &[f64] = if params.smoke {
        &[1e-6, 1e-3]
    } else {
        &[0.0, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3]
    };
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &eps in epsilons {
            cells.push(pcs_cell(
                &cfg,
                &models,
                rate,
                format!("eps={eps} @ {rate} req/s"),
                vec![kv("rate", rate), kv("epsilon_ms", eps * 1e3)],
                SchedulerConfig {
                    epsilon_secs: eps,
                    ..SchedulerConfig::PAPER
                },
                None,
                None,
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: None,
        notes: vec!["paper: eps = 5 ms against 3 s Storm redeployments".to_string()],
    })
}

/// Ablation: Algorithm 1's tie tolerance / self-gain tie-break.
pub const TIEBREAK: Scenario = Scenario {
    name: "ablation-tiebreak",
    description: "Ablation: Algorithm 1 tie tolerance / self-gain tie-break sweep",
    default_seed: 62015,
    overrides: ABLATION_OVERRIDES,
    build: tiebreak_plan,
};

fn tiebreak_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[50.0, 500.0]);
    let models = train_models(&cfg);
    let tolerances: &[f64] = if params.smoke {
        &[0.0, 0.25]
    } else {
        &[0.0, 0.1, 0.25, 0.5]
    };
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &tol in tolerances {
            cells.push(pcs_cell(
                &cfg,
                &models,
                rate,
                format!("tol={tol} @ {rate} req/s"),
                vec![kv("rate", rate), kv("tie_tolerance", tol)],
                SchedulerConfig {
                    epsilon_secs: 1e-6,
                    tie_tolerance: tol,
                    ..SchedulerConfig::PAPER
                },
                None,
                None,
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: None,
        notes: vec![
            "tolerance 0 leaves the self-gain rule inert; wider tolerances prefer true stragglers"
                .to_string(),
        ],
    })
}

/// Ablation: the Eq. 2 queueing term — M/G/1 with the observed SCV vs the
/// M/M/1 special case (SCV forced to 1).
pub const QUEUEING: Scenario = Scenario {
    name: "ablation-queueing",
    description: "Ablation: M/G/1 (observed SCV) vs M/M/1 (SCV = 1) latency term",
    default_seed: 62015,
    overrides: ABLATION_OVERRIDES,
    build: queueing_plan,
};

fn queueing_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[50.0, 200.0, 500.0]);
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for (label, scv_override) in [("M/G/1", None), ("M/M/1", Some(1.0))] {
            cells.push(pcs_cell(
                &cfg,
                &models,
                rate,
                format!("{label} @ {rate} req/s"),
                vec![kv("rate", rate), kv("queue_model", label)],
                SchedulerConfig {
                    epsilon_secs: 1e-6,
                    ..SchedulerConfig::PAPER
                },
                scv_override,
                None,
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: None,
        notes: vec![
            "paper Eq. 2 degenerates to M/M/1 when service times are exponential".to_string(),
        ],
    })
}

/// Ablation: the scheduling interval — reaction speed vs scheduling work.
pub const INTERVAL: Scenario = Scenario {
    name: "ablation-interval",
    description: "Ablation: scheduling-interval sweep for PCS",
    default_seed: 62015,
    overrides: ABLATION_OVERRIDES,
    build: interval_plan,
};

fn interval_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[200.0, 500.0]);
    let models = train_models(&cfg);
    let intervals_s: &[f64] = if params.smoke {
        &[2.0, 10.0]
    } else {
        &[1.0, 2.0, 5.0, 10.0, 20.0]
    };
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &interval in intervals_s {
            cells.push(pcs_cell(
                &cfg,
                &models,
                rate,
                format!("interval={interval}s @ {rate} req/s"),
                vec![kv("rate", rate), kv("interval_s", interval)],
                SchedulerConfig {
                    epsilon_secs: 1e-6,
                    ..SchedulerConfig::PAPER
                },
                None,
                Some(SimDuration::from_secs_f64(interval)),
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: None,
        notes: vec![
            "paper: 600 s interval against <= 3 s migrations; ratios preserved time-compressed"
                .to_string(),
        ],
    })
}

/// Ablation: Algorithm 2's incremental matrix maintenance vs a naïve full
/// rebuild after every accepted migration (wall-clock timings).
pub const REBUILD: Scenario = Scenario {
    name: "ablation-rebuild",
    description: "Ablation: Algorithm 2 incremental matrix update vs full rebuild (wall-clock)",
    default_seed: 99,
    // Wall-clock metrics (like fig7): no `--observe`.
    overrides: &[],
    build: rebuild_plan,
};

fn rebuild_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let sizes: &[(usize, usize)] = if params.smoke {
        &[(40, 8)]
    } else {
        &[(40, 8), (80, 16), (160, 32)]
    };
    let mut cells = Vec::new();
    for &(m, k) in sizes {
        for (label, full_rebuild) in [("incremental", false), ("full rebuild", true)] {
            let seed = params.seed;
            cells.push(CellPlan {
                label: format!("{label} at {m}x{k}"),
                params: vec![kv("components", m), kv("nodes", k), kv("variant", label)],
                // Both variants at a size share the same synthetic
                // state, so decisions are comparable; the runner seed
                // is unused for the same reason as the rate grids.
                run: Box::new(move |_cell_seed| {
                    let models = fig7::synthetic_models();
                    // Cap migrations so the quadratic full-rebuild
                    // variant stays measurable at the larger sizes.
                    let scheduler = ComponentScheduler::new(SchedulerConfig {
                        epsilon_secs: 0.0001,
                        max_migrations: Some(40),
                        full_rebuild,
                        ..SchedulerConfig::PAPER
                    });
                    let inputs = fig7::synthetic_inputs(
                        m,
                        k,
                        pcs_harness::seed::mix(seed, (m as u64) << 16 | k as u64),
                    );
                    let outcome = scheduler.schedule(&inputs, &models);
                    CellResult {
                        metrics: vec![
                            kv("search_ms", outcome.search_time.as_secs_f64() * 1e3),
                            kv("migrations", outcome.decisions.len()),
                            kv("predicted_gain_ms", outcome.predicted_improvement() * 1e3),
                        ],
                    }
                }),
            });
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: None,
        notes: vec![
            "timings are wall-clock; incremental and full rebuild should accept near-identical migration sets".to_string(),
        ],
    })
}

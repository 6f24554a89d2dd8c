//! The `imperfect` scenario family: graceful degradation under imperfect
//! information.
//!
//! Every other comparison hands the schedulers a clean world: exact
//! liveness, exact demand estimates, honest nodes. This family turns all
//! three dials at once and measures how gracefully each technique's tail
//! and request loss degrade:
//!
//! * **stragglers** — gray nodes keep accepting work with service times
//!   scaled by a factor ([`FaultKind::Degrade`]), so only latency betrays
//!   them;
//! * **noisy failure detection** — hooks see a [`FailureDetector`]'s
//!   *suspected* liveness (detection latency, false positives, false
//!   negatives) instead of ground truth;
//! * **prediction error** — the PCS cell runs the `pcs-n<σ>` technique,
//!   whose demand estimates carry seeded mean-one log-normal noise.
//!
//! The grid sweeps four monotone imperfection levels (clean → mild →
//! moderate → severe) over basic / ll / oracle / pcs. Every non-clean
//! level replays the same kill-restore outage, so detection quality is
//! what separates the techniques' request loss; the straggler plans use
//! [`FaultPlan::slow_node`] (mild) and [`FaultPlan::gray_rack`]
//! (moderate, severe) with rising slowdown factors. The summary pins the
//! per-technique degradation curve and the headline booleans: the PCS
//! tail degrades monotonically, and at the moderate level noisy PCS
//! still beats the reactive and blind baselines on both P99 and
//! requests lost.
//!
//! The clean level runs with no fault plan, no detector and σ = 0 — its
//! cells are byte-identical to the same techniques in a pristine world.

use super::{base_grid, kv, report_metrics, train_models};
use crate::experiments::fig6;
use crate::scenarios::failures::FAIL_NODE_COUNT;
use crate::techniques::{self, TechniqueRef};
use pcs_harness::{
    seed, CellOutcome, CellPlan, CellResult, Json, Scenario, SweepParams, SweepPlan,
};
use pcs_sim::{FailureDetector, FaultKind, FaultPlan, RunReport, SimConfig};
use pcs_types::{SimDuration, SimTime};

/// Straggler and kill victims come from the first four nodes, which all
/// host at least two components under anti-affine placement on the
/// 6-node cluster (shared with the failures family).
const VICTIM_POOL: usize = 4;

/// The gray rack's width at the moderate and severe levels.
const RACK_SIZE: usize = 2;

/// One imperfection level: how wrong each information channel is.
///
/// Every dial is monotone down the [`LEVELS`] table, so the measured
/// degradation curve has a single axis ("how imperfect") rather than a
/// cube of partial orderings.
struct Level {
    /// Registry name (`clean`, `mild`, …), also the cell coordinate.
    name: &'static str,
    /// Straggler service-time multiplier; 1.0 schedules no degrades.
    factor: f64,
    /// Detection latency as a fraction of the measured span (scales with
    /// `--smoke` like the outage timing does).
    latency_frac: f64,
    /// Detector false-positive rate (live node reported down).
    fp_rate: f64,
    /// Detector false-negative rate (dead node reported up).
    fn_rate: f64,
    /// Prediction-noise σ for the PCS cell (`pcs-n<σ>`).
    sigma: f64,
}

/// The four levels, pristine to hostile.
const LEVELS: [Level; 4] = [
    Level {
        name: "clean",
        factor: 1.0,
        latency_frac: 0.0,
        fp_rate: 0.0,
        fn_rate: 0.0,
        sigma: 0.0,
    },
    Level {
        name: "mild",
        factor: 1.5,
        latency_frac: 0.04,
        fp_rate: 0.002,
        fn_rate: 0.02,
        sigma: 0.1,
    },
    Level {
        name: "moderate",
        factor: 5.0,
        latency_frac: 0.10,
        fp_rate: 0.01,
        fn_rate: 0.05,
        sigma: 0.3,
    },
    Level {
        name: "severe",
        factor: 8.0,
        latency_frac: 0.40,
        fp_rate: 0.05,
        fn_rate: 0.25,
        sigma: 0.6,
    },
];

/// The `--smoke` shrink keeps the curve's endpoints meaningful: the
/// pristine baseline plus the level the headline booleans compare at.
const SMOKE_LEVELS: [&str; 2] = ["clean", "moderate"];

/// A level's effective imperfection after CLI overrides: each flag pins
/// one dial across *every* level so the remaining axes can be isolated
/// (`--fp-rate 0` sweeps latency and noise alone, and so on).
struct Effective {
    factor: f64,
    detector: Option<FailureDetector>,
    sigma: f64,
}

fn effective(level: &Level, params: &SweepParams, measured: SimDuration) -> Effective {
    let latency = params
        .detector_latency_secs
        .map(SimDuration::from_secs_f64)
        .unwrap_or_else(|| measured.mul_f64(level.latency_frac));
    let detector = FailureDetector {
        detection_latency: latency,
        false_positive_rate: params.fp_rate.unwrap_or(level.fp_rate),
        false_negative_rate: params.fn_rate.unwrap_or(level.fn_rate),
    };
    Effective {
        factor: level.factor,
        // A perfect detector is provably byte-identical to no detector;
        // configure `None` so the clean level's cells are plain runs.
        detector: (!detector.is_perfect()).then_some(detector),
        sigma: params.noise.unwrap_or(level.sigma),
    }
}

/// Builds one level's fault schedule: the shared kill-restore outage
/// (kill at 25% of the measured span, restore 35% later — the failures
/// family's timing) plus the level's straggler window (degrade 10% in,
/// recover 40% of the span later). Mild slows a single node; moderate
/// and severe gray out a whole rack, staggered inside one scheduling
/// interval. The clean level schedules nothing.
fn level_plan(level: &Level, plan_seed: u64, sim: &SimConfig) -> FaultPlan {
    if level.factor <= 1.0 {
        return FaultPlan::none();
    }
    let measured = sim.horizon - sim.warmup;
    let kill_at = SimTime::ZERO + sim.warmup + measured.mul_f64(0.25);
    let downtime = measured.mul_f64(0.35);
    let degrade_at = SimTime::ZERO + sim.warmup + measured.mul_f64(0.10);
    let window = measured.mul_f64(0.40);
    let straggler = if level.name == "mild" {
        FaultPlan::slow_node(VICTIM_POOL, plan_seed, degrade_at, window, level.factor)
    } else {
        FaultPlan::gray_rack(
            FAIL_NODE_COUNT,
            RACK_SIZE,
            plan_seed,
            degrade_at,
            sim.scheduler_interval.mul_f64(0.2),
            window,
            level.factor,
        )
    };
    let outage = FaultPlan::kill_restore(VICTIM_POOL, plan_seed, kill_at, downtime);
    FaultPlan::new(
        straggler
            .events()
            .iter()
            .chain(outage.events())
            .cloned()
            .collect(),
    )
}

/// The default technique set per level: the blind baseline, the reactive
/// evacuator, the perfect-information bound, and PCS fed the level's
/// noise (σ = 0 selects plain `pcs`, so the clean cell is the standard
/// technique).
fn level_set(sigma: f64, smoke: bool) -> Vec<TechniqueRef> {
    let pcs = if sigma > 0.0 {
        techniques::pcs_noisy(sigma)
    } else {
        techniques::pcs()
    };
    if smoke {
        vec![techniques::basic(), techniques::ll(), pcs]
    } else {
        vec![
            techniques::basic(),
            techniques::ll(),
            techniques::oracle(),
            pcs,
        ]
    }
}

/// The imperfect-information metrics appended to every cell.
fn imperfect_metrics(report: &RunReport) -> Vec<(String, Json)> {
    let f = &report.faults;
    vec![
        kv("kills", f.stats.kills),
        kv("degrades", f.stats.degrades),
        kv("recovers", f.stats.recovers),
        kv("requests_lost", f.stats.requests_lost),
        kv("failed_over", f.stats.failed_over),
        kv("p99_degraded_ms", f.degraded.p99 * 1e3),
    ]
}

/// True when the PCS family's tail never improves as the world worsens
/// (each level's P99 at least 95% of the previous level's — the pinned
/// tolerance absorbs benign noise without hiding a real regression).
fn monotone_within_tolerance(curve: &[f64]) -> bool {
    curve.windows(2).all(|w| w[1] >= w[0] * 0.95)
}

/// Cross-cell reduction: the per-technique degradation curve (level →
/// tail, requests lost) plus the headline booleans.
fn imperfect_summary(cells: &[CellOutcome]) -> Vec<(String, Json)> {
    let mut rows = Vec::new();
    let mut pcs_curve = Vec::new();
    let mut moderate: Vec<(String, f64, f64)> = Vec::new();
    for cell in cells {
        let Some(technique) = cell.value("technique").and_then(Json::as_str) else {
            continue;
        };
        let technique = technique.to_string();
        let level = cell
            .value("level")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let p99 = cell.value_f64("p99_component_ms").unwrap_or(f64::NAN);
        let lost = cell.value_f64("requests_lost").unwrap_or(f64::NAN);
        if technique == "PCS" || technique.starts_with("PCS-N") {
            pcs_curve.push(p99);
        }
        if level == "moderate" {
            moderate.push((technique.clone(), p99, lost));
        }
        rows.push(Json::object(vec![
            kv("level", level),
            kv("vs_technique", technique),
            kv("p99_component_ms", p99),
            kv("requests_lost", lost),
        ]));
    }
    // The headline comparison: at the moderate level, does PCS with noisy
    // inputs still beat the reactive and blind baselines on both axes?
    let at = |prefix: &str| {
        moderate
            .iter()
            .find(|(t, _, _)| t == prefix || t.starts_with(&format!("{prefix}-N")))
    };
    let beats = |baseline: &str| -> Json {
        match (at("PCS"), moderate.iter().find(|(t, _, _)| t == baseline)) {
            (Some((_, pcs_p99, pcs_lost)), Some((_, base_p99, base_lost))) => {
                Json::from(pcs_p99 <= base_p99 && pcs_lost <= base_lost)
            }
            _ => Json::Null,
        }
    };
    vec![
        (
            "pcs_monotone_tail".to_string(),
            Json::from(monotone_within_tolerance(&pcs_curve)),
        ),
        ("pcs_beats_ll_at_moderate".to_string(), beats("LL")),
        ("pcs_beats_basic_at_moderate".to_string(), beats("Basic")),
        ("degradation_by_cell".to_string(), Json::Array(rows)),
    ]
}

/// The scenario's grid: the base grid at 100 req/s with the horizon
/// doubled (tripled under `--smoke`, which also keeps the full rate and a
/// denser component pool).
fn grid(params: &SweepParams) -> fig6::Fig6Config {
    let mut cfg = base_grid(params, &[100.0]);
    // Mitigation needs room to pay off inside the straggler window:
    // double the family default horizon (the `--smoke` shrink is applied
    // first, so smoke runs stay CI-sized), like the rolling-restart
    // family does.
    cfg.horizon_scale *= if params.smoke { 3.0 } else { 2.0 };
    if params.smoke {
        // The smoke shrink would defeat the comparison itself: at 80
        // req/s the gray rack never saturates, and on the 10-component
        // grid LL's one-migration-per-interval handicap vanishes. Keep
        // the full grid's rate and a denser component pool (an explicit
        // `--rates` still wins).
        if params.rates.is_none() {
            cfg.rates = vec![100.0];
        }
        cfg.search_vm_budget = 24;
    }
    cfg
}

/// The scenario registration.
pub struct ImperfectScenario;

impl Scenario for ImperfectScenario {
    fn name(&self) -> &'static str {
        "imperfect"
    }

    fn description(&self) -> &'static str {
        "Graceful degradation under stragglers, noisy detection and prediction error"
    }

    fn default_seed(&self) -> u64 {
        62024
    }

    fn techniques_selectable(&self) -> bool {
        true
    }

    fn plan(&self, params: &SweepParams) -> SweepPlan {
        let cfg = grid(params);
        let models = train_models(&cfg);
        let mut cells = Vec::new();
        for &rate in &cfg.rates {
            for (level_index, level) in LEVELS.iter().enumerate() {
                if params.smoke && !SMOKE_LEVELS.contains(&level.name) {
                    continue;
                }
                // One outage + straggler window per (rate, level), shared
                // by every technique: the comparison replays an identical
                // trace, so only each technique's reaction differs. The
                // seed mixes the level's *global* index, so a smoke run's
                // moderate level replays the full grid's geometry.
                let plan_seed = seed::mix(fig6::rate_seed(cfg.seed, rate), level_index as u64);
                let mut sim_probe = fig6::cell_config(&cfg, rate);
                sim_probe.node_count = FAIL_NODE_COUNT;
                let eff = effective(level, params, sim_probe.horizon - sim_probe.warmup);
                let schedule = level_plan(level, plan_seed, &sim_probe);
                let victims: Vec<Json> = schedule
                    .events()
                    .iter()
                    .filter(|e| e.kind == FaultKind::Kill)
                    .map(|e| Json::from(e.node.index() as u64))
                    .collect();
                let detector_params: Vec<(String, Json)> = vec![
                    kv(
                        "detector_latency_secs",
                        eff.detector
                            .map(|d| d.detection_latency.as_secs_f64())
                            .unwrap_or(0.0),
                    ),
                    kv(
                        "fp_rate",
                        eff.detector.map(|d| d.false_positive_rate).unwrap_or(0.0),
                    ),
                    kv(
                        "fn_rate",
                        eff.detector.map(|d| d.false_negative_rate).unwrap_or(0.0),
                    ),
                ];
                let techniques = techniques::resolve(
                    params.techniques.as_deref(),
                    level_set(eff.sigma, params.smoke),
                );
                for technique in &techniques {
                    let models = models.clone();
                    let cfg = cfg.clone();
                    let technique = technique.clone();
                    let schedule = schedule.clone();
                    let detector = eff.detector;
                    let mut cell_params = vec![
                        kv("rate", rate),
                        kv("level", level.name.to_string()),
                        kv("technique", technique.name()),
                        kv("straggler_factor", eff.factor),
                        kv("noise_sigma", eff.sigma),
                    ];
                    cell_params.extend(detector_params.iter().cloned());
                    cell_params.push(("victims".to_string(), Json::Array(victims.clone())));
                    cells.push(CellPlan {
                        label: format!("{} @ {rate} req/s {}", technique.name(), level.name),
                        params: cell_params,
                        // Runner seed unused: techniques at one (rate,
                        // level) replay the same trace and plan.
                        run: Box::new(move |_cell_seed| {
                            let mut sim_config = fig6::cell_config(&cfg, rate);
                            sim_config.node_count = FAIL_NODE_COUNT;
                            sim_config.faults = schedule.clone();
                            sim_config.detector = detector;
                            let report = fig6::run_cell_with_epsilon(
                                &sim_config,
                                technique.as_ref(),
                                &models,
                                cfg.epsilon_secs,
                            );
                            let mut metrics = report_metrics(&report);
                            metrics.extend(imperfect_metrics(&report));
                            CellResult { metrics }
                        }),
                    });
                }
            }
        }
        SweepPlan {
            cells,
            summarize: Some(Box::new(imperfect_summary)),
            notes: vec![
                format!(
                    "6-node cluster; every non-clean level replays the failures-family \
                     kill-restore outage plus a straggler window (degrade 10% into the \
                     measured span for 40% of it; mild = one slow node, moderate/severe = \
                     a {RACK_SIZE}-node gray rack)"
                ),
                "the PCS cell at each level runs pcs-n<sigma> (seeded mean-one log-normal \
                 noise on its demand estimates); sigma 0 is byte-identical to plain pcs"
                    .to_string(),
                "--detector-latency/--fp-rate/--fn-rate/--noise pin one dial across all \
                 levels to isolate the remaining axes"
                    .to_string(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_monotone_in_every_dial() {
        for pair in LEVELS.windows(2) {
            assert!(pair[1].factor >= pair[0].factor);
            assert!(pair[1].latency_frac >= pair[0].latency_frac);
            assert!(pair[1].fp_rate >= pair[0].fp_rate);
            assert!(pair[1].fn_rate >= pair[0].fn_rate);
            assert!(pair[1].sigma >= pair[0].sigma);
        }
        assert!(LEVELS[0].factor == 1.0 && LEVELS[0].sigma == 0.0);
    }

    #[test]
    fn clean_level_configures_nothing() {
        let params = SweepParams::default();
        let eff = effective(&LEVELS[0], &params, SimDuration::from_secs(50));
        assert_eq!(eff.detector, None);
        assert_eq!(eff.sigma, 0.0);
        let probe = SimConfig::paper_like(crate::experiments::fig6::topology(8), 100.0, 7);
        assert!(level_plan(&LEVELS[0], 1, &probe).is_empty());
        // Non-clean levels schedule both the outage and the stragglers.
        let plan = level_plan(&LEVELS[2], 1, &probe);
        let kills = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Kill)
            .count();
        let degrades = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Degrade { .. }))
            .count();
        assert_eq!(kills, 1);
        assert_eq!(degrades, RACK_SIZE);
    }

    #[test]
    fn cli_flags_pin_a_dial_across_levels() {
        let params = SweepParams {
            fp_rate: Some(0.0),
            fn_rate: Some(0.0),
            detector_latency_secs: Some(1.5),
            noise: Some(0.1),
            ..SweepParams::default()
        };
        for level in &LEVELS {
            let eff = effective(level, &params, SimDuration::from_secs(50));
            let d = eff.detector.expect("1.5 s latency keeps a detector");
            assert_eq!(d.detection_latency, SimDuration::from_secs_f64(1.5));
            assert_eq!(d.false_positive_rate, 0.0);
            assert_eq!(eff.sigma, 0.1);
        }
    }

    #[test]
    fn monotone_tolerance_allows_small_dips_only() {
        assert!(monotone_within_tolerance(&[1.0, 1.5, 1.45, 2.0]));
        assert!(!monotone_within_tolerance(&[1.0, 1.5, 0.9]));
        assert!(monotone_within_tolerance(&[]));
    }

    #[test]
    fn summary_reports_curve_and_booleans() {
        let mk = |level: &str, technique: &str, p99: f64, lost: f64| CellOutcome {
            label: format!("{technique} {level}"),
            params: vec![kv("level", level.to_string()), kv("technique", technique)],
            metrics: vec![kv("p99_component_ms", p99), kv("requests_lost", lost)],
        };
        let cells = vec![
            mk("clean", "Basic", 5.0, 0.0),
            mk("clean", "LL", 4.0, 0.0),
            mk("clean", "PCS", 2.0, 0.0),
            mk("moderate", "Basic", 50.0, 40.0),
            mk("moderate", "LL", 20.0, 25.0),
            mk("moderate", "PCS-N0.75", 8.0, 10.0),
        ];
        let summary = imperfect_summary(&cells);
        assert_eq!(summary[0], ("pcs_monotone_tail".into(), Json::from(true)));
        assert_eq!(
            summary[1],
            ("pcs_beats_ll_at_moderate".into(), Json::from(true))
        );
        assert_eq!(
            summary[2],
            ("pcs_beats_basic_at_moderate".into(), Json::from(true))
        );
        let Json::Array(rows) = &summary[3].1 else {
            panic!("rows");
        };
        assert_eq!(rows.len(), 6);
    }
}

//! Scenario registrations: every experiment reachable through the `pcs`
//! CLI.
//!
//! A scenario wraps one evaluation grid — which cells exist, how a cell
//! runs, how the finished grid reduces to summary numbers — in one
//! [`pcs_harness::Scenario`] registry row, which also lists the `pcs run`
//! overrides its plan reads. The shared
//! [`pcs_harness::runner::run_sweep`] executes any of them work-stealing
//! in parallel with deterministic, index-addressed results, so a
//! registration here is all it takes to get `pcs run --scenario <name>`
//! with tables, JSON reports and `--smoke` CI coverage.
//!
//! | scenario | paper artefact / question |
//! |---|---|
//! | `fig5` | Figure 5 — prediction-error distribution |
//! | `fig6` | Figure 6 — six techniques × six arrival rates |
//! | `fig7` | Figure 7 — scheduler scalability (wall-clock) |
//! | `headline` | §VI-C headline reductions (fig6 grid, reduction view) |
//! | `ablation-threshold` | migration-threshold ε sweep |
//! | `ablation-tiebreak` | Algorithm 1 tie tolerance sweep |
//! | `ablation-queueing` | M/G/1 vs M/M/1 latency term |
//! | `ablation-interval` | scheduling-interval sweep |
//! | `ablation-rebuild` | Algorithm 2 incremental vs full rebuild |
//! | `diurnal` | techniques under sinusoidally modulated load |
//! | `hetero` | techniques on a mixed-capacity cluster |
//! | `mmpp` | techniques under bursty Markov-modulated arrivals |
//! | `failures` | techniques under node kill/restore faults |
//! | `failures-rolling` | techniques under a rolling-restart maintenance wave |
//! | `scale` | flat vs hierarchical PCS at 100/400/1000 nodes |
//! | `elastic` | autoscaling: node-hours at a fixed P99 SLO per technique |
//! | `imperfect` | graceful degradation under imperfect information |
//!
//! The comparison scenarios sweep the open technique registry
//! ([`crate::techniques`]); `--techniques <list>` overrides any of their
//! grids from the CLI. Every technique-comparison cell of every family is
//! built by `technique_cell`, the one place that runs a technique on a
//! cell's shared trace ([`crate::experiments::fig6::run_cell`]) and
//! renders its metrics.

pub mod ablations;
pub mod elastic;
pub mod extended;
pub mod failures;
pub mod figures;
pub mod imperfect;
pub mod scale;

use crate::controller::PcsController;
use crate::experiments::fig6::{self, Fig6Config};
use crate::techniques::{self, Technique};
use pcs_core::ClassModelSet;
use pcs_harness::{CellOutcome, CellPlan, CellResult, Json, Override, Scenario, SweepParams};
use pcs_sim::{FaultKind, FaultPlan, RunReport, SimConfig};
use pcs_types::{NodeCapacity, SimDuration};
use pcs_workloads::ArrivalPattern;
use std::sync::Arc;

/// Diurnal modulation depth: the rate swings ±70% around the base.
pub(crate) const DIURNAL_AMPLITUDE: f64 = 0.7;

/// The time-compressed day length of diurnal traffic (three full cycles
/// per 60 s horizon).
pub(crate) const DIURNAL_PERIOD_SECS: u64 = 20;

/// MMPP calm-state rate multiplier.
pub(crate) const MMPP_LOW: f64 = 0.25;

/// MMPP burst-state rate multiplier (`low + high = 2` keeps the long-run
/// mean at the base rate).
pub(crate) const MMPP_HIGH: f64 = 1.75;

/// MMPP mean dwell time in each state, time-compressed like the rest of
/// the paper-like setting: ~15 phase switches per 60 s horizon.
pub(crate) const MMPP_DWELL_SECS: u64 = 4;

/// The time-varying traffic shapes of the `diurnal`, `mmpp`, `elastic`
/// and `scale` scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Traffic {
    /// Sinusoidally modulated Poisson arrivals.
    Diurnal,
    /// Two-state Markov-modulated Poisson arrivals.
    Mmpp,
}

impl Traffic {
    /// The shape's report name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Traffic::Diurnal => "diurnal",
            Traffic::Mmpp => "mmpp",
        }
    }

    /// The arrival process of the shape.
    pub(crate) fn pattern(self) -> ArrivalPattern {
        match self {
            Traffic::Diurnal => ArrivalPattern::Diurnal {
                amplitude: DIURNAL_AMPLITUDE,
                period: SimDuration::from_secs(DIURNAL_PERIOD_SECS),
            },
            Traffic::Mmpp => ArrivalPattern::Mmpp {
                low: MMPP_LOW,
                high: MMPP_HIGH,
                mean_dwell: SimDuration::from_secs(MMPP_DWELL_SECS),
            },
        }
    }
}

/// Fault victims of the `failures` and `imperfect` families come from the
/// first four nodes, which all host at least two components under
/// anti-affine placement on the 6-node cluster.
pub(crate) const VICTIM_POOL: usize = 4;

/// Rack width of the correlated outage (`failures`) and the gray rack
/// (`imperfect`).
pub(crate) const RACK_SIZE: usize = 2;

/// The victims of a fault schedule, as cell-param provenance: the index
/// of every killed node, in schedule order.
pub(crate) fn kill_victims(plan: &FaultPlan) -> Vec<Json> {
    plan.events()
        .iter()
        .filter(|e| e.kind == FaultKind::Kill)
        .map(|e| Json::from(e.node.index() as u64))
        .collect()
}

/// The overrides every technique-comparison family reads: the rate
/// grid, the technique set and the observability layer.
pub(crate) const COMPARISON_OVERRIDES: &[Override] =
    &[Override::Rates, Override::Techniques, Override::Observe];

/// The overrides the simulated ablations read: their rate grids and the
/// observability layer (each sweeps its own knob, not techniques).
pub(crate) const ABLATION_OVERRIDES: &[Override] = &[Override::Rates, Override::Observe];

/// Every registered scenario, in display order.
pub fn registry() -> &'static [Scenario] {
    &[
        figures::FIG5,
        figures::FIG6,
        figures::FIG7,
        figures::HEADLINE,
        ablations::THRESHOLD,
        ablations::TIEBREAK,
        ablations::QUEUEING,
        ablations::INTERVAL,
        ablations::REBUILD,
        extended::DIURNAL,
        extended::HETERO,
        extended::MMPP,
        failures::FAILURES,
        failures::ROLLING_RESTART,
        scale::SCALE,
        elastic::ELASTIC,
        imperfect::IMPERFECT,
    ]
}

/// Looks a scenario up by registry name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    registry().iter().find(|s| s.name == name)
}

/// A `(name, value)` metric/param pair.
pub(crate) fn kv(name: &str, value: impl Into<Json>) -> (String, Json) {
    (name.to_string(), value.into())
}

/// The standard per-cell metrics of a simulation run. Observe-on runs
/// append the `observe` section (timelines, attribution, time-series,
/// audits); observe-off metrics keep their historical bytes.
pub(crate) fn report_metrics(report: &RunReport) -> Vec<(String, Json)> {
    let mut metrics = vec![
        kv("p99_component_ms", report.component_p99_ms()),
        kv("mean_overall_ms", report.overall_mean_ms()),
        kv("requests_completed", report.stats.requests_completed),
        kv("executions", report.stats.executions),
        kv("wasted_executions", report.stats.wasted_executions),
        kv("reissues", report.stats.reissues),
        kv("migrations", report.stats.migrations),
    ];
    if let Some(obs) = &report.observe {
        metrics.push(("observe".to_string(), crate::trace::observe_json(obs)));
    }
    metrics
}

/// A family's per-cell metrics beyond [`report_metrics`] (fault,
/// autoscaling, imperfect-information or scheduler-cost counters).
pub(crate) type ExtraMetrics = fn(&RunReport) -> Vec<(String, Json)>;

/// Builds one technique-comparison cell: runs `technique` on the
/// simulation config `sim_config` builds and reports [`report_metrics`]
/// followed by the family's `extra` metrics.
///
/// The runner-derived per-cell seed is deliberately unused: the
/// comparison property requires every technique in a comparison group
/// (one rate, plus the family's other trace coordinates) to replay the
/// same trace, so `sim_config` seeds the simulation from those
/// coordinates alone (e.g. [`fig6::rate_seed`]).
pub(crate) fn technique_cell(
    label: String,
    params: Vec<(String, Json)>,
    technique: Technique,
    models: &Arc<ClassModelSet>,
    epsilon_secs: f64,
    sim_config: impl Fn() -> SimConfig + Send + Sync + 'static,
    extra: Option<ExtraMetrics>,
) -> CellPlan {
    let models = models.clone();
    CellPlan {
        label,
        params,
        run: Box::new(move |_cell_seed| {
            let report = fig6::run_cell(&sim_config(), &technique, &models, epsilon_secs);
            let mut metrics = report_metrics(&report);
            if let Some(extra) = extra {
                metrics.extend(extra(&report));
            }
            CellResult { metrics }
        }),
    }
}

/// The shared grid defaults for simulation-backed scenarios: CLI params
/// applied over a [`Fig6Config`], with `--smoke` shrinking the searching
/// pool, the horizon and the rate grid to CI-sized budgets (an explicit
/// `--rates` still wins).
pub(crate) fn base_grid(params: &SweepParams, default_rates: &[f64]) -> Fig6Config {
    let mut cfg = Fig6Config {
        seed: params.seed,
        rates: default_rates.to_vec(),
        ..Fig6Config::default()
    };
    if params.smoke {
        cfg.search_vm_budget = 8;
        cfg.horizon_scale = 0.2;
        cfg.rates = vec![80.0];
    }
    if let Some(rates) = &params.rates {
        cfg.rates = rates.clone();
    }
    cfg.observe = params.observe;
    cfg
}

/// The technique set a sweep runs: the CLI's `--techniques` selection if
/// present (validated there), otherwise the scenario's full or `--smoke`
/// default from the shared registry sets.
pub(crate) fn technique_grid(
    params: &SweepParams,
    full: Vec<Technique>,
    smoke: Vec<Technique>,
) -> Vec<Technique> {
    let default_set = if params.smoke { smoke } else { full };
    techniques::resolve(params.techniques.as_deref(), default_set)
}

/// Trains the PCS class models for a grid's topology (shared by every
/// cell of a sweep, so this runs once in `plan`).
pub(crate) fn train_models(cfg: &Fig6Config) -> Arc<ClassModelSet> {
    let topology = fig6::topology(cfg.search_vm_budget);
    Arc::new(
        PcsController::train_for(&topology, NodeCapacity::XEON_E5645, cfg.seed)
            .expect("profiling campaign trains"),
    )
}

/// The cross-cell reduction shared by the comparison scenarios: for every
/// non-PCS cell, PCS's latency reduction at the same rate, plus the mean
/// over the redundancy/reissue techniques (the paper's §VI-C headline; if
/// the grid has no RED/RI cells the mean falls back to all non-PCS
/// techniques).
pub(crate) fn pcs_reduction_summary(cells: &[CellOutcome]) -> Vec<(String, Json)> {
    let pcs_at = |rate: f64| {
        cells.iter().find(|c| {
            c.value("technique").and_then(Json::as_str) == Some("PCS")
                && c.value_f64("rate") == Some(rate)
        })
    };
    let mut rows = Vec::new();
    let mut headline_tail = Vec::new();
    let mut headline_overall = Vec::new();
    let mut fallback_tail = Vec::new();
    let mut fallback_overall = Vec::new();
    for cell in cells {
        let Some(technique) = cell.value("technique").and_then(Json::as_str) else {
            continue;
        };
        if technique == "PCS" {
            continue;
        }
        let technique = technique.to_string();
        let Some(rate) = cell.value_f64("rate") else {
            continue;
        };
        let Some(pcs) = pcs_at(rate) else { continue };
        // A degenerate comparison cell (no completed requests, so a zero
        // or non-finite latency) contributes nothing rather than a clamped
        // near-infinite "reduction".
        let reduction = |metric: &str| -> Option<f64> {
            let other = cell.value_f64(metric)?;
            let pcs = pcs.value_f64(metric)?;
            (other > 0.0 && other.is_finite() && pcs.is_finite()).then_some(1.0 - pcs / other)
        };
        let tail = reduction("p99_component_ms");
        let overall = reduction("mean_overall_ms");
        if tail.is_none() && overall.is_none() {
            continue;
        }
        let is_headline = techniques::is_redundancy_or_reissue(&technique);
        if let Some(tail) = tail {
            if is_headline {
                headline_tail.push(tail);
            }
            fallback_tail.push(tail);
        }
        if let Some(overall) = overall {
            if is_headline {
                headline_overall.push(overall);
            }
            fallback_overall.push(overall);
        }
        let pct = |v: Option<f64>| v.map(|v| Json::Num(v * 100.0)).unwrap_or(Json::Null);
        rows.push(Json::object(vec![
            kv("rate", rate),
            kv("vs_technique", technique),
            ("tail_reduction_pct".to_string(), pct(tail)),
            ("overall_reduction_pct".to_string(), pct(overall)),
        ]));
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let (tail, overall) = if headline_tail.is_empty() {
        (mean(&fallback_tail), mean(&fallback_overall))
    } else {
        (mean(&headline_tail), mean(&headline_overall))
    };
    vec![
        kv("pcs_mean_tail_reduction_pct", tail * 100.0),
        kv("pcs_mean_overall_reduction_pct", overall * 100.0),
        ("pcs_reduction_per_cell".to_string(), Json::Array(rows)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 17);
        for name in &names {
            assert!(find(name).is_some(), "{name} must be findable");
            assert_eq!(names.iter().filter(|n| n == &name).count(), 1);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn exactly_the_technique_sweeps_accept_technique_selection() {
        // The CLI rejects `--techniques` on scenarios whose plan would
        // silently ignore it.
        let selectable: Vec<&str> = registry()
            .iter()
            .filter(|s| s.overrides.contains(&Override::Techniques))
            .map(|s| s.name)
            .collect();
        assert_eq!(
            selectable,
            vec![
                "fig6",
                "headline",
                "diurnal",
                "hetero",
                "mmpp",
                "failures",
                "failures-rolling",
                "scale",
                "elastic",
                "imperfect"
            ]
        );
    }

    /// Plans `scenario` in smoke mode with `set` applied to the defaults.
    fn smoke_plan(
        scenario: &Scenario,
        set: impl FnOnce(&mut SweepParams),
    ) -> Result<pcs_harness::SweepPlan, Box<dyn std::error::Error>> {
        let mut params = SweepParams {
            seed: scenario.default_seed,
            threads: 1,
            smoke: true,
            ..SweepParams::default()
        };
        set(&mut params);
        scenario.plan(&params)
    }

    #[test]
    fn overrides_plan_at_their_closed_bounds() {
        type Set = fn(&mut SweepParams);
        let elastic: [Set; 2] = [
            |p| p.target_util = Some(1.0),
            |p| p.cooldown_secs = Some(1e-6),
        ];
        let imperfect: [Set; 7] = [
            |p| p.fp_rate = Some(0.0),
            |p| p.fp_rate = Some(1.0),
            |p| p.fn_rate = Some(0.0),
            |p| p.fn_rate = Some(1.0),
            |p| p.detector_latency_secs = Some(0.0),
            |p| p.noise = Some(0.0),
            |p| p.noise = Some(techniques::MAX_NOISE_SIGMA),
        ];
        let scale: [Set; 3] = [
            |p| p.group_cap = Some(1),
            |p| p.group_cap = Some(techniques::MAX_GROUP_CAP),
            |p| p.sizes = Some(vec![scale::MIN_NODES, scale::MAX_NODES]),
        ];
        let fig7: [Set; 1] = [|p| p.repeats = Some(1)];
        let cases: [(Scenario, &[Set]); 4] = [
            (elastic::ELASTIC, &elastic),
            (imperfect::IMPERFECT, &imperfect),
            (scale::SCALE, &scale),
            (figures::FIG7, &fig7),
        ];
        for (scenario, sets) in &cases {
            for (i, set) in sets.iter().enumerate() {
                if let Err(err) = smoke_plan(scenario, set) {
                    panic!("{} bound #{i} must plan: {err}", scenario.name);
                }
            }
        }
        // Just outside the bounds, every plan refuses.
        let outside: [(Scenario, Set); 9] = [
            (elastic::ELASTIC, |p| p.target_util = Some(0.0)),
            (elastic::ELASTIC, |p| p.cooldown_secs = Some(4e-7)),
            (imperfect::IMPERFECT, |p| p.fp_rate = Some(1.01)),
            (imperfect::IMPERFECT, |p| p.fn_rate = Some(-0.01)),
            (imperfect::IMPERFECT, |p| {
                p.detector_latency_secs = Some(-1e-9)
            }),
            (imperfect::IMPERFECT, |p| p.noise = Some(4.0001)),
            (scale::SCALE, |p| p.group_cap = Some(0)),
            (scale::SCALE, |p| {
                p.group_cap = Some(techniques::MAX_GROUP_CAP + 1)
            }),
            (scale::SCALE, |p| p.sizes = Some(vec![scale::MIN_NODES - 1])),
        ];
        for (i, (scenario, set)) in outside.into_iter().enumerate() {
            assert!(smoke_plan(&scenario, set).is_err(), "outside case #{i}");
        }
    }

    #[test]
    fn elastic_cells_echo_the_autoscaler_overrides() {
        let plan = smoke_plan(&elastic::ELASTIC, |p| {
            p.target_util = Some(1.0);
            p.cooldown_secs = Some(1e-6);
        })
        .unwrap();
        assert!(!plan.cells.is_empty());
        for cell in &plan.cells {
            let param = |name: &str| {
                cell.params
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| v.as_f64())
            };
            assert_eq!(param("target_util"), Some(1.0), "{}", cell.label);
            assert_eq!(param("cooldown_s"), Some(1e-6), "{}", cell.label);
        }
    }

    /// Override values: every closed bound, just past each, signed
    /// zeros, non-finite values and extremes.
    const REALS: [f64; 16] = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        4e-7,
        1e-6,
        0.5,
        1.0,
        1.5,
        4.0,
        4.0001,
        1e13,
        1e300,
        f64::INFINITY,
        f64::MIN_POSITIVE,
    ];
    const COUNTS: [usize; 10] = [
        0,
        1,
        7,
        8,
        1024,
        1025,
        scale::MAX_NODES,
        scale::MAX_NODES + 1,
        usize::MAX / 9 + 1,
        usize::MAX,
    ];

    /// Every override dial of the plans the fuzz drives: the scenario
    /// that reads it and how a drawn real or count sets it.
    type Dial = (Scenario, fn(&mut SweepParams, f64, usize));
    const DIALS: [Dial; 9] = [
        (elastic::ELASTIC, |p, x, _| p.target_util = Some(x)),
        (elastic::ELASTIC, |p, x, _| p.cooldown_secs = Some(x)),
        (imperfect::IMPERFECT, |p, x, _| {
            p.detector_latency_secs = Some(x)
        }),
        (imperfect::IMPERFECT, |p, x, _| p.fp_rate = Some(x)),
        (imperfect::IMPERFECT, |p, x, _| p.fn_rate = Some(x)),
        (imperfect::IMPERFECT, |p, x, _| p.noise = Some(x)),
        (scale::SCALE, |p, _, n| p.group_cap = Some(n)),
        (scale::SCALE, |p, _, n| p.sizes = Some(vec![n])),
        (figures::FIG7, |p, _, n| p.repeats = Some(n)),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Whatever values reach a plan, it returns `Ok` or `Err` and
        /// never panics. Each dial's value is planned alone (so an
        /// earlier check cannot mask a later one) and, for the dials
        /// `mask` selects, together with the scenario's other dials.
        #[test]
        fn arbitrary_overrides_plan_or_fail_without_panicking(
            reals in proptest::collection::vec(0..REALS.len(), DIALS.len()),
            counts in proptest::collection::vec(0..COUNTS.len(), DIALS.len()),
            mask in proptest::collection::vec(0..2usize, DIALS.len()),
        ) {
            let set = |params: &mut SweepParams, i: usize| {
                (DIALS[i].1)(params, REALS[reals[i]], COUNTS[counts[i]])
            };
            let mut runs: Vec<(Scenario, Vec<usize>)> =
                (0..DIALS.len()).map(|i| (DIALS[i].0, vec![i])).collect();
            for scenario in [elastic::ELASTIC, imperfect::IMPERFECT, scale::SCALE] {
                let together = (0..DIALS.len())
                    .filter(|&i| mask[i] == 1 && DIALS[i].0.name == scenario.name)
                    .collect();
                runs.push((scenario, together));
            }
            for (scenario, dials) in runs {
                let mut params = SweepParams {
                    seed: scenario.default_seed,
                    threads: 1,
                    smoke: true,
                    ..SweepParams::default()
                };
                for &i in &dials {
                    set(&mut params, i);
                }
                let outcome = std::panic::catch_unwind(|| scenario.plan(&params).map(|_| ()));
                proptest::prop_assert!(
                    outcome.is_ok(),
                    "{} panicked on {:?}",
                    scenario.name,
                    params
                );
            }
        }
    }

    #[test]
    fn reduction_summary_math() {
        let mk = |technique: &str, p99: f64, mean: f64| CellOutcome {
            label: technique.into(),
            params: vec![kv("rate", 100.0), kv("technique", technique)],
            metrics: vec![kv("p99_component_ms", p99), kv("mean_overall_ms", mean)],
        };
        let cells = vec![mk("RED-3", 40.0, 80.0), mk("PCS", 10.0, 20.0)];
        let summary = pcs_reduction_summary(&cells);
        assert_eq!(summary[0].0, "pcs_mean_tail_reduction_pct");
        assert!((summary[0].1.as_f64().unwrap() - 75.0).abs() < 1e-9);
        assert!((summary[1].1.as_f64().unwrap() - 75.0).abs() < 1e-9);
        // Basic-only grids fall back to the non-PCS mean.
        let cells = vec![mk("Basic", 20.0, 40.0), mk("PCS", 10.0, 20.0)];
        let summary = pcs_reduction_summary(&cells);
        assert!((summary[0].1.as_f64().unwrap() - 50.0).abs() < 1e-9);
        // LL is not redundancy/reissue: beside a RED cell it stays out of
        // the headline mean, which is the RED-3 reduction alone (LL's row
        // is still reported).
        let cells = vec![
            mk("PCS", 10.0, 20.0),
            mk("RED-3", 40.0, 80.0),
            mk("LL", 20.0, 40.0),
        ];
        let summary = pcs_reduction_summary(&cells);
        assert!((summary[0].1.as_f64().unwrap() - 75.0).abs() < 1e-9);
        assert!((summary[1].1.as_f64().unwrap() - 75.0).abs() < 1e-9);
        let Json::Array(rows) = &summary[2].1 else {
            panic!("rows must be an array")
        };
        assert_eq!(rows.len(), 2);
        // A degenerate comparison cell (zero latency: nothing completed)
        // is skipped, not clamped into a near-infinite reduction.
        let cells = vec![mk("RED-3", 0.0, 0.0), mk("PCS", 10.0, 20.0)];
        let summary = pcs_reduction_summary(&cells);
        assert_eq!(summary[0].1.as_f64(), Some(0.0));
        assert_eq!(summary[1].1.as_f64(), Some(0.0));
        assert_eq!(summary[2].1, Json::Array(vec![]));
    }
}

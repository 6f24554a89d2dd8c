//! Cluster-scale scenario: tail quality and scheduler cost as the
//! cluster grows from 100 to 1000 nodes.
//!
//! The paper's testbed stops at 30 nodes and its scalability figure
//! (§VI-D, Figure 7) times the scheduler on synthetic inputs only. This
//! scenario closes the loop in-simulation: deep-chain and wide-fanout
//! services sized proportionally to the cluster run under diurnal and
//! bursty (MMPP) traffic at 100, 400 and 1000 nodes, comparing flat PCS
//! (full matrix rebuild + single global greedy, every interval) against
//! the two-level hierarchical variant `PCS-H` (rack-grouped greedy +
//! incremental matrix refresh). Every cell reports the usual quality
//! metrics *and* the scheduler's deterministic work counters
//! ([`pcs_sim::SchedulerCost`]) — `sched_entries_recomputed` versus
//! `sched_entries_total` is the per-interval matrix cost, and
//! `sched_greedy_iterations` the search cost, both safe to byte-pin
//! because they count events, never wall-clock.
//!
//! Flat PCS is dropped from the default grid at [`FLAT_PCS_MAX_NODES`]
//! and beyond: a full m×k rebuild per 2 s interval at 1000 components ×
//! 1000 nodes is exactly the regime the hierarchical scheduler exists to
//! avoid. `--techniques` (e.g. `--techniques pcs,pcs-h640`) overrides the
//! grid at every size; `--sizes` and `--group-cap` override the cluster
//! grid and the PCS-H group cap.

use super::{kv, report_metrics, train_models};
use crate::experiments::fig6::{self, Fig6Config};
use crate::techniques::{self, TechniqueRef};
use pcs_harness::{
    seed, CellOutcome, CellPlan, CellResult, Json, Scenario, SweepParams, SweepPlan,
};
use pcs_sim::SimConfig;
use pcs_types::SimDuration;
use pcs_workloads::{ArrivalPattern, ServiceTopology};

/// The default cluster-size grid (`--sizes` overrides it).
pub const DEFAULT_SIZES: [usize; 3] = [100, 400, 1000];

/// Smallest accepted cluster size: the deep-chain service needs one
/// component per stage of its `CHAIN_DEPTH`-deep pipeline, and the CLI
/// rejects `--sizes` entries below this as degenerate.
pub const MIN_NODES: usize = 8;

/// Node count of the `--smoke` grid: two racks, big enough for the
/// rack-grouped level-1 walk to be non-trivial, small enough for CI.
pub const SMOKE_NODES: usize = 40;

/// From this cluster size on, the default grid runs only `PCS-H` (flat
/// PCS's full per-interval rebuild is the cost this scenario measures
/// out of existence; it stays in the grid below the cutoff so the report
/// pins the crossover).
pub const FLAT_PCS_MAX_NODES: usize = 1000;

/// Nodes per rack (paper-like shallow racks: 1000 nodes → 50 racks).
const NODES_PER_RACK: usize = 20;

/// Stages of the deep-chain service.
const CHAIN_DEPTH: usize = 8;

/// Base request arrival rate (req/s). A request fans out to every
/// partition of every stage, so per-request work already scales with the
/// cluster; the rate stays moderate and fixed across sizes.
const BASE_RATE: f64 = 25.0;

/// Diurnal modulation depth / period (matches the `diurnal` scenario).
const DIURNAL_AMPLITUDE: f64 = 0.7;
const DIURNAL_PERIOD_SECS: u64 = 20;

/// MMPP calm/burst multipliers and dwell (matches the `mmpp` scenario).
const MMPP_LOW: f64 = 0.25;
const MMPP_HIGH: f64 = 1.75;
const MMPP_DWELL_SECS: u64 = 4;

/// The service shapes swept at every cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScaleService {
    /// `CHAIN_DEPTH` serial stages of `size / CHAIN_DEPTH` components
    /// each: stage maxima are narrow, so single migrations move the
    /// end-to-end latency — the scheduler-friendly shape.
    DeepChain,
    /// One router, a worker pool of 0.9·size, and `size / 20` mergers:
    /// one very wide stage whose max is statistically flat — the
    /// scheduler-hostile shape.
    WideFanout,
}

impl ScaleService {
    fn name(self) -> &'static str {
        match self {
            ScaleService::DeepChain => "deep-chain",
            ScaleService::WideFanout => "wide-fanout",
        }
    }

    fn topology(self, size: usize) -> ServiceTopology {
        match self {
            ScaleService::DeepChain => {
                ServiceTopology::deep_chain(CHAIN_DEPTH, (size / CHAIN_DEPTH).max(1))
            }
            ScaleService::WideFanout => {
                ServiceTopology::wide_fanout((size * 9 / 10).max(1), (size / 20).max(1))
            }
        }
    }
}

/// The traffic shapes swept at every cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScaleTraffic {
    Diurnal,
    Mmpp,
}

impl ScaleTraffic {
    fn name(self) -> &'static str {
        match self {
            ScaleTraffic::Diurnal => "diurnal",
            ScaleTraffic::Mmpp => "mmpp",
        }
    }

    fn pattern(self) -> ArrivalPattern {
        match self {
            ScaleTraffic::Diurnal => ArrivalPattern::Diurnal {
                amplitude: DIURNAL_AMPLITUDE,
                period: SimDuration::from_secs(DIURNAL_PERIOD_SECS),
            },
            ScaleTraffic::Mmpp => ArrivalPattern::Mmpp {
                low: MMPP_LOW,
                high: MMPP_HIGH,
                mean_dwell: SimDuration::from_secs(MMPP_DWELL_SECS),
            },
        }
    }
}

/// The simulation config of one scale cell: paper-like ratios, a cluster
/// of `size` nodes in `size / 20` racks, and a shortened horizon (the
/// grid is three cluster sizes × two services × two traffic shapes, so
/// each cell stays seconds of wall-clock even at 1000 nodes).
fn scale_config(
    size: usize,
    service: ScaleService,
    rate: f64,
    seed: u64,
    smoke: bool,
) -> SimConfig {
    let mut config = SimConfig::paper_like(service.topology(size), rate, seed);
    config.node_count = size;
    config.rack_count = (size / NODES_PER_RACK).max(1);
    let (horizon, warmup) = if smoke { (8, 2) } else { (30, 5) };
    config.horizon = SimDuration::from_secs(horizon);
    config.warmup = SimDuration::from_secs(warmup);
    config
}

/// The scheduler's deterministic work counters as cell metrics. Zeros
/// for hooks that do not track cost (e.g. a `--techniques basic` cell).
fn scheduler_cost_metrics(report: &pcs_sim::RunReport) -> Vec<(String, Json)> {
    let c = report.scheduler_cost.unwrap_or_default();
    let per_interval = if c.intervals == 0 {
        0.0
    } else {
        c.entries_recomputed as f64 / c.intervals as f64
    };
    vec![
        kv("sched_intervals", c.intervals),
        kv("sched_matrix_builds", c.matrix_builds),
        kv("sched_matrix_refreshes", c.matrix_refreshes),
        kv("sched_entries_recomputed", c.entries_recomputed),
        kv("sched_entries_total", c.entries_total),
        kv("sched_entries_per_interval", per_interval),
        kv("sched_greedy_iterations", c.greedy_iterations),
    ]
}

/// Cross-cell reduction: for every PCS-H cell, the flat-PCS cell on the
/// same trace (size, service, traffic, rate), with the tail-latency
/// delta and the matrix-work ratio. Sizes where flat PCS is absent (the
/// default grid at ≥ [`FLAT_PCS_MAX_NODES`]) report the hierarchical
/// cost alone.
fn scale_summary(cells: &[CellOutcome]) -> Vec<(String, Json)> {
    let technique = |c: &CellOutcome| {
        c.value("technique")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let same_trace = |a: &CellOutcome, b: &CellOutcome| {
        ["size", "service", "traffic", "rate"]
            .iter()
            .all(|k| a.value(k) == b.value(k))
    };
    let mut rows = Vec::new();
    let mut tail_deltas = Vec::new();
    let mut work_ratios = Vec::new();
    for cell in cells {
        if !technique(cell).starts_with("PCS-H") {
            continue;
        }
        let flat = cells
            .iter()
            .find(|c| technique(c) == "PCS" && same_trace(c, cell));
        let ratio = |metric: &str| -> Option<f64> {
            let hier = cell.value_f64(metric)?;
            let flat = flat?.value_f64(metric)?;
            (flat > 0.0 && flat.is_finite() && hier.is_finite()).then_some(hier / flat)
        };
        let tail_delta = ratio("p99_component_ms").map(|r| (r - 1.0) * 100.0);
        let work_ratio = ratio("sched_entries_recomputed").map(|r| r * 100.0);
        if let Some(d) = tail_delta {
            tail_deltas.push(d);
        }
        if let Some(w) = work_ratio {
            work_ratios.push(w);
        }
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        rows.push(Json::object(vec![
            (
                "size".to_string(),
                cell.value("size").cloned().unwrap_or(Json::Null),
            ),
            (
                "service".to_string(),
                cell.value("service").cloned().unwrap_or(Json::Null),
            ),
            (
                "traffic".to_string(),
                cell.value("traffic").cloned().unwrap_or(Json::Null),
            ),
            kv(
                "hier_entries_per_interval",
                cell.value_f64("sched_entries_per_interval").unwrap_or(0.0),
            ),
            ("tail_delta_vs_flat_pct".to_string(), opt(tail_delta)),
            ("matrix_work_vs_flat_pct".to_string(), opt(work_ratio)),
        ]));
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    vec![
        kv("hier_mean_tail_delta_pct", mean(&tail_deltas)),
        kv("hier_mean_matrix_work_pct", mean(&work_ratios)),
        ("hier_vs_flat_per_cell".to_string(), Json::Array(rows)),
    ]
}

/// The default technique column at one cluster size: flat PCS (below the
/// cutoff) against PCS-H with the sweep's group cap.
fn default_techniques(size: usize, cap: usize) -> Vec<TechniqueRef> {
    if size >= FLAT_PCS_MAX_NODES {
        vec![techniques::pcs_hier(cap)]
    } else {
        vec![techniques::pcs(), techniques::pcs_hier(cap)]
    }
}

/// Tail quality and per-interval scheduler cost from 100 to 1000 nodes.
pub struct ScaleScenario;

impl Scenario for ScaleScenario {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn description(&self) -> &'static str {
        "Flat vs hierarchical PCS at 100/400/1000 nodes: tail quality and scheduler cost"
    }

    fn default_seed(&self) -> u64 {
        62020
    }

    fn techniques_selectable(&self) -> bool {
        true
    }

    fn plan(&self, params: &SweepParams) -> SweepPlan {
        let mut cfg = Fig6Config {
            seed: params.seed,
            rates: vec![BASE_RATE],
            ..Fig6Config::default()
        };
        if params.smoke {
            cfg.search_vm_budget = 8;
        }
        if let Some(rates) = &params.rates {
            cfg.rates = rates.clone();
        }
        let cap = params.group_cap.unwrap_or(techniques::DEFAULT_GROUP_CAP);
        let sizes = params.sizes.clone().unwrap_or_else(|| {
            if params.smoke {
                vec![SMOKE_NODES]
            } else {
                DEFAULT_SIZES.to_vec()
            }
        });
        for &size in &sizes {
            assert!(
                size >= MIN_NODES,
                "scale cluster size must be >= {MIN_NODES}, got {size}"
            );
        }
        let traffics = if params.smoke {
            vec![ScaleTraffic::Diurnal]
        } else {
            vec![ScaleTraffic::Diurnal, ScaleTraffic::Mmpp]
        };
        let smoke = params.smoke;
        let observe = params.observe;
        // The class list is shared with the Nutch topology (both services
        // cycle the same component classes), so one profiling campaign
        // covers every cell.
        let models = train_models(&cfg);
        let mut cells = Vec::new();
        for &size in &sizes {
            for (service_idx, service) in [ScaleService::DeepChain, ScaleService::WideFanout]
                .into_iter()
                .enumerate()
            {
                for (traffic_idx, &traffic) in traffics.iter().enumerate() {
                    for &rate in &cfg.rates {
                        // One trace per (size, service, traffic, rate):
                        // techniques compete on identical arrivals/churn.
                        let trace_seed = seed::mix_f64(
                            seed::mix(
                                seed::mix(seed::mix(cfg.seed, size as u64), service_idx as u64),
                                traffic_idx as u64,
                            ),
                            rate,
                        );
                        let set = techniques::resolve(
                            params.techniques.as_deref(),
                            default_techniques(size, cap),
                        );
                        for technique in set {
                            let models = models.clone();
                            let epsilon_secs = cfg.epsilon_secs;
                            cells.push(CellPlan {
                                label: format!(
                                    "{} {} @ {size}n {}",
                                    technique.name(),
                                    service.name(),
                                    traffic.name()
                                ),
                                params: vec![
                                    kv("size", size as u64),
                                    kv("racks", (size / NODES_PER_RACK).max(1) as u64),
                                    kv("service", service.name()),
                                    kv("traffic", traffic.name()),
                                    kv("rate", rate),
                                    kv("technique", technique.name()),
                                ],
                                // Runner seed unused: cells in one trace
                                // group share `trace_seed` (see above).
                                run: Box::new(move |_cell_seed| {
                                    let mut sim_config =
                                        scale_config(size, service, rate, trace_seed, smoke);
                                    sim_config.arrival_pattern = traffic.pattern();
                                    sim_config.observe =
                                        observe.map(|top_k| pcs_sim::ObserveConfig { top_k });
                                    let report = fig6::run_cell_with_epsilon(
                                        &sim_config,
                                        technique.as_ref(),
                                        &models,
                                        epsilon_secs,
                                    );
                                    let mut metrics = report_metrics(&report);
                                    metrics.extend(scheduler_cost_metrics(&report));
                                    CellResult { metrics }
                                }),
                            });
                        }
                    }
                }
            }
        }
        SweepPlan {
            cells,
            summarize: Some(Box::new(scale_summary)),
            notes: vec![
                format!(
                    "default grid drops flat PCS at >= {FLAT_PCS_MAX_NODES} nodes; PCS-H{cap} runs everywhere (`--techniques pcs,hier` to force both)"
                ),
                "sched_* metrics are deterministic event counters (matrix entries, greedy iterations), never wall-clock — safe to pin byte-for-byte".to_string(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param<'a>(cell: &'a CellPlan, name: &str) -> Option<&'a Json> {
        cell.params.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    #[test]
    fn default_grid_drops_flat_pcs_at_the_cutoff() {
        let below: Vec<String> = default_techniques(400, 64)
            .iter()
            .map(|t| t.name())
            .collect();
        assert_eq!(below, vec!["PCS", "PCS-H64"]);
        let at: Vec<String> = default_techniques(1000, 96)
            .iter()
            .map(|t| t.name())
            .collect();
        assert_eq!(at, vec!["PCS-H96"]);
    }

    #[test]
    fn smoke_plan_is_small_and_trace_grouped() {
        let params = SweepParams {
            seed: 62020,
            smoke: true,
            ..SweepParams::default()
        };
        let plan = ScaleScenario.plan(&params);
        // 1 size × 2 services × 1 traffic × 2 techniques.
        assert_eq!(plan.cells.len(), 4);
        for cell in &plan.cells {
            assert_eq!(
                param(cell, "size").and_then(Json::as_f64),
                Some(SMOKE_NODES as f64)
            );
        }
    }

    #[test]
    fn sizes_and_group_cap_overrides_apply() {
        let params = SweepParams {
            seed: 1,
            smoke: true,
            sizes: Some(vec![16]),
            group_cap: Some(5),
            ..SweepParams::default()
        };
        let plan = ScaleScenario.plan(&params);
        assert_eq!(plan.cells.len(), 4);
        assert!(plan
            .cells
            .iter()
            .any(|c| param(c, "technique").and_then(Json::as_str) == Some("PCS-H5")));
    }

    #[test]
    #[should_panic(expected = "cluster size must be >= 8")]
    fn degenerate_sizes_are_rejected() {
        let params = SweepParams {
            sizes: Some(vec![4]),
            smoke: true,
            ..SweepParams::default()
        };
        let _ = ScaleScenario.plan(&params);
    }

    #[test]
    fn summary_compares_hier_to_flat_on_the_same_trace() {
        let mk = |technique: &str, size: u64, p99: f64, entries: f64| CellOutcome {
            label: technique.into(),
            params: vec![
                kv("size", size),
                kv("service", "deep-chain"),
                kv("traffic", "diurnal"),
                kv("rate", 25.0),
                kv("technique", technique),
            ],
            metrics: vec![
                kv("p99_component_ms", p99),
                kv("sched_entries_recomputed", entries),
                kv("sched_entries_per_interval", entries / 10.0),
            ],
        };
        let cells = vec![
            mk("PCS", 100, 10.0, 1000.0),
            mk("PCS-H64", 100, 10.5, 250.0),
            mk("PCS-H64", 1000, 20.0, 5000.0),
        ];
        let summary = scale_summary(&cells);
        assert_eq!(summary[0].0, "hier_mean_tail_delta_pct");
        assert!((summary[0].1.as_f64().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(summary[1].0, "hier_mean_matrix_work_pct");
        assert!((summary[1].1.as_f64().unwrap() - 25.0).abs() < 1e-9);
        // Two PCS-H rows; the 1000-node one has no flat partner.
        let Json::Array(rows) = &summary[2].1 else {
            panic!("rows must be an array")
        };
        assert_eq!(rows.len(), 2);
    }
}

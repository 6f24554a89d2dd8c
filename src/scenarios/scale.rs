//! Cluster-scale scenario: tail quality and scheduler cost as the
//! cluster grows from 100 to 1000 nodes.
//!
//! The paper's testbed stops at 30 nodes and its scalability figure
//! (§VI-D, Figure 7) times the scheduler on synthetic inputs only. This
//! scenario closes the loop in-simulation: deep-chain and wide-fanout
//! services sized proportionally to the cluster run under diurnal and
//! bursty (MMPP) traffic at 100, 400 and 1000 nodes, comparing flat PCS
//! (single global greedy) against the two-level hierarchical variant
//! `PCS-H` (rack-grouped bounded greedy) at every size. Both start from
//! the same placement, striped across the cluster's racks
//! ([`pcs_sim::placement::rack_striped`]), so only the greedy differs.
//! Both build the matrix every interval, and a build stores only its hot cross (the
//! rows and columns of the nodes hosting a stage maximum; see
//! [`pcs_core::matrix`]). Every cell reports the usual quality metrics
//! *and* the scheduler's deterministic work counters
//! ([`pcs_sim::SchedulerCost`]) — `sched_entries_total` is the matrix
//! size the builds covered (m·k per interval, not the entries a build
//! stores and evaluates) and `sched_greedy_iterations` the search cost,
//! both safe to byte-pin because they count events, never wall-clock.
//!
//! Flat PCS keeps up at every size. On a 2-CPU host, `pcs run --scenario
//! scale --techniques <t> --sizes <n> --threads 1` (4 cells, whole-process
//! wall time, default seed) took the times below. The 1000-node row is
//! the median of five runs from the shared placement; the larger rows
//! are single runs from before flat PCS started rack-striped.
//!
//! | nodes | flat PCS | `PCS-H64` | flat / `PCS-H64` |
//! |-------|----------|-----------|------------------|
//! | 1000  | 1.76 s   | 1.30 s    | 1.35             |
//! | 2000  | 5.02 s   | 3.76 s    | 1.34             |
//! | 4000  | 11.13 s  | 8.69 s    | 1.28             |
//! | 8000  | 30.05 s  | 25.89 s   | 1.16             |
//!
//! The event core dominates both, so the gap does not grow with size.
//! `--techniques` (e.g. `--techniques pcs,pcs-h640`) overrides the
//! grid; `--sizes` and `--group-cap` override the cluster grid and the
//! PCS-H group cap.

use super::{kv, technique_cell, train_models, Traffic};
use crate::experiments::fig6::Fig6Config;
use crate::techniques;
use pcs_harness::{seed, CellOutcome, Json, Override, Scenario, SweepParams, SweepPlan};
use pcs_sim::SimConfig;
use pcs_types::{ensure, SimDuration};
use pcs_workloads::ServiceTopology;
use std::error::Error;

/// The default cluster-size grid (`--sizes` overrides it).
pub const DEFAULT_SIZES: [usize; 3] = [100, 400, 1000];

/// Smallest accepted cluster size: the deep-chain service needs one
/// component per stage of its `CHAIN_DEPTH`-deep pipeline, and the CLI
/// rejects `--sizes` entries below this as degenerate.
pub const MIN_NODES: usize = 8;

/// Largest accepted cluster size: the wide-fanout service puts
/// `size * 9 / 10` workers in one stage, and a stage holds at most
/// `u16::MAX` partitions (the event queue's narrow partition field). The
/// CLI rejects `--sizes` entries above this, which also keeps `size * 9`
/// far from overflow.
pub const MAX_NODES: usize = (u16::MAX as usize * 10 + 9) / 9;

/// Node count of the `--smoke` grid: two racks, big enough for the
/// rack-grouped level-1 walk to be non-trivial, small enough for CI.
pub const SMOKE_NODES: usize = 40;

/// Nodes per rack (paper-like shallow racks: 1000 nodes → 50 racks).
const NODES_PER_RACK: usize = 20;

/// Stages of the deep-chain service.
const CHAIN_DEPTH: usize = 8;

/// Base request arrival rate (req/s). A request fans out to every
/// partition of every stage, so per-request work already scales with the
/// cluster; the rate stays moderate and fixed across sizes.
const BASE_RATE: f64 = 25.0;

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
        c.entries_total as f64 / c.intervals as f64
    };
    vec![
        kv("sched_intervals", c.intervals),
        kv("sched_matrix_builds", c.matrix_builds),
        kv("sched_entries_total", c.entries_total),
        kv("sched_entries_per_interval", per_interval),
        kv("sched_greedy_iterations", c.greedy_iterations),
    ]
}

/// Cross-cell reduction: for every PCS-H cell, the flat-PCS cell of the
/// same size, service, traffic and rate, with the tail-latency delta.
/// The two cells share a seed, not an arrival sequence: arrivals draw
/// from the same RNG as service times and monitoring, so different
/// scheduling decisions re-roll the rest of the trace. A PCS-H cell
/// without a flat twin (`--techniques` left flat PCS out) reports the
/// hierarchical cost alone.
fn scale_summary(cells: &[CellOutcome]) -> Vec<(String, Json)> {
    let technique = |c: &CellOutcome| {
        c.value("technique")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let same_cell = |a: &CellOutcome, b: &CellOutcome| {
        ["size", "service", "traffic", "rate"]
            .iter()
            .all(|k| a.value(k) == b.value(k))
    };
    let mut rows = Vec::new();
    let mut tail_deltas = Vec::new();
    for cell in cells {
        if !technique(cell).starts_with("PCS-H") {
            continue;
        }
        let flat = cells
            .iter()
            .find(|c| technique(c) == "PCS" && same_cell(c, cell));
        let ratio = |metric: &str| -> Option<f64> {
            let hier = cell.value_f64(metric)?;
            let flat = flat?.value_f64(metric)?;
            (flat > 0.0 && flat.is_finite() && hier.is_finite()).then_some(hier / flat)
        };
        let tail_delta = ratio("p99_component_ms").map(|r| (r - 1.0) * 100.0);
        if let Some(d) = tail_delta {
            tail_deltas.push(d);
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
        ("hier_vs_flat_per_cell".to_string(), Json::Array(rows)),
    ]
}

/// Tail quality and per-interval scheduler cost from 100 to 1000 nodes.
pub const SCALE: Scenario = Scenario {
    name: "scale",
    description: "Flat vs hierarchical PCS at 100/400/1000 nodes: tail quality and scheduler cost",
    default_seed: 62020,
    overrides: &[
        Override::Rates,
        Override::Techniques,
        Override::Sizes,
        Override::GroupCap,
        Override::Observe,
    ],
    build: scale_plan,
};

fn scale_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
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
    techniques::try_pcs_hier(cap)?;
    let sizes = params.sizes.clone().unwrap_or_else(|| {
        if params.smoke {
            vec![SMOKE_NODES]
        } else {
            DEFAULT_SIZES.to_vec()
        }
    });
    for &size in &sizes {
        ensure!(
            (MIN_NODES..=MAX_NODES).contains(&size),
            "sizes",
            "scale cluster size must be >= {MIN_NODES} and <= {MAX_NODES} nodes (the \
             wide-fanout service's worker stage holds at most {} partitions), got {size}",
            u16::MAX
        );
    }
    let traffics = if params.smoke {
        vec![Traffic::Diurnal]
    } else {
        vec![Traffic::Diurnal, Traffic::Mmpp]
    };
    let smoke = params.smoke;
    let observe = params.observe;
    // The class list is shared with the Nutch topology (both services
    // cycle the same component classes), so one profiling campaign
    // covers every cell.
    let models = train_models(&cfg);
    // The default column at every size: flat PCS against PCS-H.
    let techniques = techniques::resolve(
        params.techniques.as_deref(),
        vec![techniques::pcs(), techniques::pcs_hier(cap)],
    );
    let mut cells = Vec::new();
    for &size in &sizes {
        for (service_idx, service) in [ScaleService::DeepChain, ScaleService::WideFanout]
            .into_iter()
            .enumerate()
        {
            for (traffic_idx, &traffic) in traffics.iter().enumerate() {
                for &rate in &cfg.rates {
                    // One seed per (size, service, traffic, rate),
                    // shared by the techniques (see `scale_summary`).
                    let trace_seed = seed::mix_f64(
                        seed::mix(
                            seed::mix(seed::mix(cfg.seed, size as u64), service_idx as u64),
                            traffic_idx as u64,
                        ),
                        rate,
                    );
                    for &technique in &techniques {
                        cells.push(technique_cell(
                            format!(
                                "{} {} @ {size}n {}",
                                technique.name(),
                                service.name(),
                                traffic.name()
                            ),
                            vec![
                                kv("size", size as u64),
                                kv("racks", (size / NODES_PER_RACK).max(1) as u64),
                                kv("service", service.name()),
                                kv("traffic", traffic.name()),
                                kv("rate", rate),
                                kv("technique", technique.name()),
                            ],
                            technique,
                            &models,
                            cfg.epsilon_secs,
                            move || {
                                let mut sim_config =
                                    scale_config(size, service, rate, trace_seed, smoke);
                                sim_config.arrival_pattern = traffic.pattern();
                                sim_config.observe =
                                    observe.map(|top_k| pcs_sim::ObserveConfig { top_k });
                                sim_config
                            },
                            Some(scheduler_cost_metrics),
                        ));
                    }
                }
            }
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(scale_summary)),
        notes: vec![
            "sched_* metrics are deterministic event counters (matrix entries, greedy iterations), never wall-clock — safe to pin byte-for-byte".to_string(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_harness::CellPlan;

    fn param<'a>(cell: &'a CellPlan, name: &str) -> Option<&'a Json> {
        cell.params.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    #[test]
    fn default_grid_runs_flat_and_hier_pcs_at_every_size() {
        let params = SweepParams {
            seed: 1,
            smoke: true,
            sizes: Some(vec![100, 1000, 8000]),
            group_cap: Some(96),
            ..SweepParams::default()
        };
        let plan = SCALE.plan(&params).unwrap();
        for size in [100, 1000, 8000] {
            let names: Vec<&str> = plan
                .cells
                .iter()
                .filter(|c| param(c, "size").and_then(Json::as_f64) == Some(size as f64))
                .filter(|c| param(c, "service").and_then(Json::as_str) == Some("deep-chain"))
                .filter_map(|c| param(c, "technique").and_then(Json::as_str))
                .collect();
            assert_eq!(names, ["PCS", "PCS-H96"], "at {size} nodes");
        }
    }

    /// PCS improves on an initial provisioning (paper §III), so flat PCS
    /// and PCS-H must start from one layout: on the two-rack smoke
    /// cluster, built the way `fig6::run_cell` builds a cell.
    #[test]
    fn flat_and_hier_pcs_start_from_one_placement() {
        let cfg = Fig6Config {
            search_vm_budget: 8,
            ..Fig6Config::default()
        };
        let models = train_models(&cfg);
        let env = techniques::TechniqueEnv {
            models: &models,
            epsilon_secs: cfg.epsilon_secs,
        };
        for service in [ScaleService::DeepChain, ScaleService::WideFanout] {
            let config = scale_config(SMOKE_NODES, service, BASE_RATE, 1, true);
            assert_eq!(config.rack_count, 2);
            let placement = |technique: techniques::Technique| {
                let mut config = config.clone();
                config.deployment.replication = technique.replication();
                if let Some(placement) = technique.placement() {
                    config.placement = placement;
                }
                let policy = technique.make_policy();
                pcs_sim::Simulation::new(config, policy, technique.make_hook(&env)).placement()
            };
            assert_eq!(
                placement(techniques::pcs()),
                placement(techniques::pcs_hier(64)),
                "{}",
                service.name()
            );
        }
    }

    #[test]
    fn smoke_plan_is_small_and_trace_grouped() {
        let params = SweepParams {
            seed: 62020,
            smoke: true,
            ..SweepParams::default()
        };
        let plan = SCALE.plan(&params).unwrap();
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
        let plan = SCALE.plan(&params).unwrap();
        assert_eq!(plan.cells.len(), 4);
        assert!(plan
            .cells
            .iter()
            .any(|c| param(c, "technique").and_then(Json::as_str) == Some("PCS-H5")));
    }

    /// Panics with the plan's error, for `#[should_panic(expected = …)]`
    /// tests that match its text (a plan that succeeds does not panic).
    fn panic_with_error(params: &SweepParams) {
        if let Err(err) = SCALE.plan(params) {
            panic!("{err}");
        }
    }

    #[test]
    #[should_panic(expected = "cluster size must be >= 8")]
    fn degenerate_sizes_are_rejected() {
        let params = SweepParams {
            sizes: Some(vec![4]),
            smoke: true,
            ..SweepParams::default()
        };
        panic_with_error(&params);
    }

    #[test]
    fn max_nodes_is_the_widest_buildable_fanout() {
        let widest = |size| ScaleService::WideFanout.topology(size).stages()[1].count;
        assert_eq!(widest(MAX_NODES), u16::MAX as usize);
        assert_eq!(widest(MAX_NODES + 1), u16::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "<= 72817")]
    fn oversized_sizes_are_rejected() {
        let params = SweepParams {
            sizes: Some(vec![100, MAX_NODES + 1]),
            smoke: true,
            ..SweepParams::default()
        };
        panic_with_error(&params);
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
                kv("sched_entries_per_interval", entries / 10.0),
            ],
        };
        let cells = vec![
            mk("PCS", 100, 10.0, 1000.0),
            mk("PCS-H64", 100, 10.5, 1000.0),
            mk("PCS-H64", 1000, 20.0, 5000.0),
        ];
        let summary = scale_summary(&cells);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].0, "hier_mean_tail_delta_pct");
        assert!((summary[0].1.as_f64().unwrap() - 5.0).abs() < 1e-9);
        // Two PCS-H rows; the 1000-node one has no flat partner.
        let Json::Array(rows) = &summary[1].1 else {
            panic!("rows must be an array")
        };
        assert_eq!(rows.len(), 2);
        let delta = |row: &Json| row.get("tail_delta_vs_flat_pct").and_then(Json::as_f64);
        assert!((delta(&rows[0]).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(delta(&rows[1]), None);
        assert_eq!(
            rows[1]
                .get("hier_entries_per_interval")
                .and_then(Json::as_f64),
            Some(500.0)
        );
    }
}

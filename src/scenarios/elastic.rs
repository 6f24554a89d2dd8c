//! The `elastic` scenario family: autoscaler aggressiveness × traffic
//! shape, scored as node-hours at a fixed tail SLO.
//!
//! The paper's production pitch is not just a lower tail — it is running
//! the same SLO on *less* capacity. This family puts the deterministic
//! autoscaling subsystem ([`pcs_sim::autoscale`]) under time-varying
//! demand and asks, per technique: how many node-hours does the fleet
//! bill while the P99 component SLO holds? Scale-in only retires a node
//! once the scheduler hook has evacuated it, so the comparison doubles
//! as an elasticity test of the hooks themselves:
//!
//! * `basic` never migrates — drains never complete, so it pays the
//!   full fleet's node-hours no matter how idle the trough is;
//! * `ll` evacuates reactively, one component per scheduling interval —
//!   drains complete, slowly;
//! * `pcs` evacuates draining nodes in batches within one interval —
//!   the fleet tracks demand closely, which is the headline number:
//!   PCS holds the SLO on strictly fewer node-hours.
//!
//! Three aggressiveness presets (target utilisation × step × cooldown)
//! sweep the stability/cost trade; traffic is the diurnal sinusoid and
//! the bursty MMPP from the extended scenarios, both of which spend real
//! time below the mean where consolidation pays. Zero requests are lost
//! to scale-in by construction (queued work rides each migration), and
//! the summary pins that invariant.

use super::{base_grid, kv, report_metrics, technique_grid, train_models};
use crate::experiments::fig6;
use crate::techniques;
use pcs_harness::{CellOutcome, CellPlan, CellResult, Json, Scenario, SweepParams, SweepPlan};
use pcs_sim::{AutoscaleConfig, RunReport};
use pcs_types::SimDuration;
use pcs_workloads::ArrivalPattern;

/// Cluster size of the elastic sweep: twice the failures cluster, so
/// there is real capacity to shed — the fleet can halve and still hold
/// every component.
const ELASTIC_NODE_COUNT: usize = 12;

/// The floor of active nodes no preset drains below.
const ELASTIC_MIN_NODES: usize = 4;

/// Cold-start of a (re)joining node, in milliseconds: two monitor
/// windows of visible-but-warming delay before new capacity serves.
const ELASTIC_COLD_START_MS: f64 = 2000.0;

/// The fixed P99 component-latency SLO (milliseconds) every cell is
/// scored against — and the SLO the control loop itself defends.
const ELASTIC_SLO_P99_MS: f64 = 60.0;

/// Diurnal modulation depth (as in the `diurnal` scenario).
const DIURNAL_AMPLITUDE: f64 = 0.7;

/// The time-compressed day length of the diurnal traffic.
const DIURNAL_PERIOD_SECS: u64 = 20;

/// MMPP calm-state rate multiplier (as in the `mmpp` scenario).
const MMPP_LOW: f64 = 0.25;

/// MMPP burst-state rate multiplier.
const MMPP_HIGH: f64 = 1.75;

/// MMPP mean dwell time per state.
const MMPP_DWELL_SECS: u64 = 4;

/// One autoscaler aggressiveness preset: how hot the controller runs
/// the fleet, how many nodes move per action, and how long it waits
/// between actions.
struct Preset {
    name: &'static str,
    target_utilization: f64,
    step: usize,
    cooldown_secs: f64,
}

/// The aggressiveness grid: `gentle` consolidates cautiously (cool
/// target, long cooldown), `eager` chases the trough hard (hot target,
/// two nodes per action, short cooldown), `steady` sits between.
const PRESETS: [Preset; 3] = [
    Preset {
        name: "gentle",
        target_utilization: 0.40,
        step: 1,
        cooldown_secs: 8.0,
    },
    Preset {
        name: "steady",
        target_utilization: 0.55,
        step: 1,
        cooldown_secs: 4.0,
    },
    Preset {
        name: "eager",
        target_utilization: 0.70,
        step: 2,
        cooldown_secs: 2.0,
    },
];

/// The traffic shapes swept (fixed-rate Poisson never rewards
/// elasticity; both of these spend real time below the mean).
#[derive(Clone, Copy)]
enum Traffic {
    Diurnal,
    Mmpp,
}

impl Traffic {
    fn name(self) -> &'static str {
        match self {
            Traffic::Diurnal => "diurnal",
            Traffic::Mmpp => "mmpp",
        }
    }

    fn pattern(self) -> ArrivalPattern {
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

/// Builds one preset's autoscaler config, with the CLI's `--target-util`
/// and `--cooldown` overrides (already validated there) applied on top.
fn autoscale_config(preset: &Preset, params: &SweepParams) -> AutoscaleConfig {
    AutoscaleConfig {
        target_utilization: params.target_util.unwrap_or(preset.target_utilization),
        step: preset.step,
        cooldown: SimDuration::from_secs_f64(params.cooldown_secs.unwrap_or(preset.cooldown_secs)),
        cold_start: SimDuration::from_millis_f64(ELASTIC_COLD_START_MS),
        min_nodes: ELASTIC_MIN_NODES,
        max_nodes: ELASTIC_NODE_COUNT,
        slo_p99_ms: ELASTIC_SLO_P99_MS,
    }
}

/// The elastic sweep's technique set: the no-op, reactive and
/// predictive evacuators (same in full and `--smoke` — the comparison
/// *is* the evacuation capability).
fn elastic_set() -> Vec<techniques::TechniqueRef> {
    vec![techniques::basic(), techniques::ll(), techniques::pcs()]
}

/// The autoscaling metrics appended to every cell (fixed names/order).
fn autoscale_metrics(report: &RunReport) -> Vec<(String, Json)> {
    let a = &report.autoscale;
    vec![
        kv("node_hours", a.node_hours()),
        kv("scale_out_actions", a.stats.scale_out_actions),
        kv("scale_in_actions", a.stats.scale_in_actions),
        kv("cold_starts", a.stats.cold_starts_completed),
        kv("drains_completed", a.stats.drains_completed),
        kv("drains_cancelled", a.stats.drains_cancelled),
        kv("drain_mean_ms", a.drain_mean * 1e3),
        kv("drain_max_ms", a.drain_max * 1e3),
        kv("slo_violation_windows", a.slo_violation_windows),
        kv("measured_windows", a.measured_windows),
        kv("requests_lost", report.faults.stats.requests_lost),
        kv("slo_met", report.component_p99_ms() <= ELASTIC_SLO_P99_MS),
    ]
}

/// Cross-cell reduction: per technique, the cheapest fleet (minimum
/// node-hours) over all cells that still met the SLO — the family's
/// "node-hours at a fixed P99 SLO" score — plus the headline booleans
/// (PCS meets the SLO on strictly fewer node-hours than `ll`/`basic`;
/// a technique that never met the SLO scores null and loses) and the
/// zero-loss invariant.
fn elastic_summary(cells: &[CellOutcome]) -> Vec<(String, Json)> {
    // Insertion-ordered per-technique aggregation.
    let mut order: Vec<String> = Vec::new();
    let mut best: Vec<Option<f64>> = Vec::new();
    let mut met: Vec<u64> = Vec::new();
    let mut total: Vec<u64> = Vec::new();
    let mut lost = 0.0;
    for cell in cells {
        let Some(technique) = cell.value("technique").and_then(Json::as_str) else {
            continue;
        };
        let idx = match order.iter().position(|t| t == technique) {
            Some(i) => i,
            None => {
                order.push(technique.to_string());
                best.push(None);
                met.push(0);
                total.push(0);
                order.len() - 1
            }
        };
        total[idx] += 1;
        lost += cell.value_f64("requests_lost").unwrap_or(0.0);
        let slo_met = cell.value("slo_met") == Some(&Json::Bool(true));
        if !slo_met {
            continue;
        }
        met[idx] += 1;
        if let Some(hours) = cell.value_f64("node_hours") {
            best[idx] = Some(best[idx].map_or(hours, |b: f64| b.min(hours)));
        }
    }
    let at_slo =
        |name: &str| -> Option<f64> { order.iter().position(|t| t == name).and_then(|i| best[i]) };
    let pcs = at_slo("PCS");
    // PCS must itself hold the SLO to win; a comparison technique that
    // never holds it cannot be cheaper at the SLO.
    let beats = |other: Option<f64>| match (pcs, other) {
        (Some(p), Some(o)) => p < o,
        (Some(_), None) => true,
        (None, _) => false,
    };
    let rows = order
        .iter()
        .enumerate()
        .map(|(i, technique)| {
            Json::object(vec![
                kv("technique", technique.clone()),
                (
                    "node_hours_at_slo".to_string(),
                    best[i].map(Json::Num).unwrap_or(Json::Null),
                ),
                kv("cells_meeting_slo", met[i]),
                kv("cells_total", total[i]),
            ])
        })
        .collect();
    vec![
        (
            "pcs_node_hours_at_slo".to_string(),
            pcs.map(Json::Num).unwrap_or(Json::Null),
        ),
        kv("pcs_cheaper_than_ll_at_slo", beats(at_slo("LL"))),
        kv("pcs_cheaper_than_basic_at_slo", beats(at_slo("Basic"))),
        kv("requests_lost_total", lost),
        ("node_hours_by_technique".to_string(), Json::Array(rows)),
    ]
}

/// The scenario registration.
pub struct ElasticScenario;

impl Scenario for ElasticScenario {
    fn name(&self) -> &'static str {
        "elastic"
    }

    fn description(&self) -> &'static str {
        "Autoscaler aggressiveness x traffic shape: node-hours at a fixed P99 SLO"
    }

    fn default_seed(&self) -> u64 {
        62022
    }

    fn techniques_selectable(&self) -> bool {
        true
    }

    fn plan(&self, params: &SweepParams) -> SweepPlan {
        let cfg = {
            let mut cfg = base_grid(params, &[100.0]);
            cfg.techniques = technique_grid(params, elastic_set(), elastic_set());
            cfg
        };
        let models = train_models(&cfg);
        // `--smoke` keeps one mid-grid preset and the diurnal trace.
        let presets: &[Preset] = if params.smoke {
            &PRESETS[1..2]
        } else {
            &PRESETS[..]
        };
        let traffic: &[Traffic] = if params.smoke {
            &[Traffic::Diurnal]
        } else {
            &[Traffic::Diurnal, Traffic::Mmpp]
        };
        let mut cells = Vec::new();
        for &rate in &cfg.rates {
            for shape in traffic {
                for preset in presets {
                    let autoscale = autoscale_config(preset, params);
                    for technique in &cfg.techniques {
                        let models = models.clone();
                        let cfg = cfg.clone();
                        let technique = technique.clone();
                        let shape = *shape;
                        cells.push(CellPlan {
                            label: format!(
                                "{} @ ~{rate} req/s {} {}",
                                technique.name(),
                                shape.name(),
                                preset.name
                            ),
                            params: vec![
                                kv("rate", rate),
                                kv("technique", technique.name()),
                                kv("traffic", shape.name()),
                                kv("preset", preset.name),
                                kv("target_util", autoscale.target_utilization),
                                kv("step", preset.step),
                                kv("cooldown_s", autoscale.cooldown.as_secs_f64()),
                            ],
                            // Runner seed unused: techniques at one
                            // (rate, traffic) replay the same trace, so
                            // fleet sizes are comparable cell to cell.
                            run: Box::new(move |_cell_seed| {
                                let mut sim_config = fig6::cell_config(&cfg, rate);
                                sim_config.node_count = ELASTIC_NODE_COUNT;
                                sim_config.arrival_pattern = shape.pattern();
                                sim_config.autoscale = Some(autoscale);
                                let report = fig6::run_cell_with_epsilon(
                                    &sim_config,
                                    technique.as_ref(),
                                    &models,
                                    cfg.epsilon_secs,
                                );
                                let mut metrics = report_metrics(&report);
                                metrics.extend(autoscale_metrics(&report));
                                CellResult { metrics }
                            }),
                        });
                    }
                }
            }
        }
        SweepPlan {
            cells,
            summarize: Some(Box::new(elastic_summary)),
            notes: vec![
                format!(
                    "{ELASTIC_NODE_COUNT}-node cluster, floor {ELASTIC_MIN_NODES}, cold start \
                     {ELASTIC_COLD_START_MS} ms; fleet starts fully provisioned and the \
                     autoscaler sheds what it can prove idle"
                ),
                format!(
                    "node_hours_at_slo = cheapest fleet over cells with p99 <= {ELASTIC_SLO_P99_MS} ms; \
                     null = the technique never met the SLO"
                ),
                "drains retire a node only once the scheduler hook evacuated it: basic never \
                 does (full-fleet cost), ll drains one component per interval, pcs in batches"
                    .to_string(),
            ],
        }
    }
}

//! The `failures` scenario family: node kill/restore dynamics over the
//! open technique registry.
//!
//! Nothing is less predictable than a node dying — and the paper's
//! blind baselines have no answer to it at all: a RED/RI replica group
//! absorbs a dead member, but an unreplicated component stays lost until
//! *some* scheduler re-places it. This family kills nodes mid-run and
//! measures, per technique, how fast the survivors are evacuated
//! (kill → last orphan re-placed), how many requests die on the floor,
//! and what the tail looks like before, during and after the outage.
//!
//! Three plans per sweep (all seeded per cell via `pcs_harness::seed`,
//! so every technique at a rate replays the identical outage):
//!
//! * `single-kill` — one node dies and never returns: the acid test for
//!   evacuation, since only migration can re-place the orphans;
//! * `kill-restore` — the node returns after a bounded downtime, so
//!   blind techniques "recover" exactly at the restore while
//!   migration-capable ones recover earlier;
//! * `cascade` — a two-node correlated rack outage in quick succession,
//!   restored together later.
//!
//! The cluster is deliberately compact (6 nodes) so every node hosts
//! several components: a reactive one-move-per-interval evacuator (`ll`)
//! visibly lags the PCS controller's batched evacuation, which is the
//! point of the comparison.

use super::{
    base_grid, kill_victims, kv, technique_cell, technique_grid, train_models,
    COMPARISON_OVERRIDES, RACK_SIZE, VICTIM_POOL,
};
use crate::experiments::fig6;
use crate::techniques;
use pcs_harness::{seed, CellOutcome, Json, Scenario, SweepParams, SweepPlan};
use pcs_sim::{FaultPlan, RunReport, SimConfig};
use pcs_types::SimTime;
use std::error::Error;

/// Node count of the failures cluster: small enough that every node
/// hosts at least two components in both the smoke and the full grid.
pub(crate) const FAIL_NODE_COUNT: usize = 6;

/// The fault patterns swept per rate.
const PLANS: [&str; 3] = ["single-kill", "kill-restore", "cascade"];

/// Builds one plan's fault schedule against a cell's simulation config.
/// Timing scales with the horizon so `--smoke` keeps the same shape:
/// kill at 25% of the measured span, restore 35% later, cascade kills
/// 0.4 s apart (inside one scheduling interval).
fn fault_plan(plan: &str, plan_seed: u64, sim: &SimConfig) -> FaultPlan {
    let measured = sim.horizon - sim.warmup;
    let kill_at = SimTime::ZERO + sim.warmup + measured.mul_f64(0.25);
    let downtime = measured.mul_f64(0.35);
    match plan {
        "single-kill" => FaultPlan::one_shot(VICTIM_POOL, plan_seed, kill_at),
        "kill-restore" => FaultPlan::kill_restore(VICTIM_POOL, plan_seed, kill_at, downtime),
        "cascade" => FaultPlan::correlated_rack(
            FAIL_NODE_COUNT,
            RACK_SIZE,
            plan_seed,
            kill_at,
            sim.scheduler_interval.mul_f64(0.2),
            Some(downtime),
        ),
        other => unreachable!("unknown fault plan `{other}`"),
    }
}

/// The failures sweep's default technique set: the paper's families plus
/// the reactive and oracle baselines (the acceptance comparison).
fn failures_set() -> Vec<techniques::Technique> {
    vec![
        techniques::basic(),
        techniques::red(3),
        techniques::ri(90.0),
        techniques::ll(),
        techniques::oracle(),
        techniques::pcs(),
    ]
}

/// The `--smoke` shrink: the no-op, reactive and predictive evacuators.
fn failures_smoke_set() -> Vec<techniques::Technique> {
    vec![techniques::basic(), techniques::ll(), techniques::pcs()]
}

/// The fault metrics appended to every cell (fixed names and order).
fn fault_metrics(report: &RunReport) -> Vec<(String, Json)> {
    let f = &report.faults;
    let ms = |s: &pcs_monitor::LatencySummary| s.p99 * 1e3;
    vec![
        kv("kills", f.stats.kills),
        kv("orphaned", f.stats.orphaned),
        kv("evacuated", f.stats.evacuated),
        kv("restored_in_place", f.stats.restored_in_place),
        kv("unresolved_orphans", f.unresolved_orphans),
        (
            "evacuation_ms".to_string(),
            f.evacuation_ms().map(Json::Num).unwrap_or(Json::Null),
        ),
        kv("requests_lost", f.stats.requests_lost),
        kv("failed_over", f.stats.failed_over),
        kv("p99_pre_ms", ms(&f.pre_fault)),
        kv("p99_during_ms", ms(&f.during_fault)),
        kv("p99_post_ms", ms(&f.post_fault)),
    ]
}

/// Cross-cell reduction: per plan, each technique's evacuation latency
/// and request loss side by side, plus the headline scalars — the worst
/// PCS evacuation versus the worst reactive (`LL`) one.
fn failures_summary(cells: &[CellOutcome]) -> Vec<(String, Json)> {
    let mut rows = Vec::new();
    let mut pcs_worst: Option<f64> = None;
    let mut ll_worst: Option<f64> = None;
    for cell in cells {
        let Some(technique) = cell.value("technique").and_then(Json::as_str) else {
            continue;
        };
        let technique = technique.to_string();
        let plan = cell
            .value("plan")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let evacuation = cell.value("evacuation_ms").cloned().unwrap_or(Json::Null);
        if let Some(ms) = evacuation.as_f64() {
            match technique.as_str() {
                "PCS" => pcs_worst = Some(pcs_worst.unwrap_or(0.0).max(ms)),
                "LL" => ll_worst = Some(ll_worst.unwrap_or(0.0).max(ms)),
                _ => {}
            }
        }
        rows.push(Json::object(vec![
            kv("plan", plan),
            kv("vs_technique", technique),
            ("evacuation_ms".to_string(), evacuation),
            (
                "unresolved_orphans".to_string(),
                cell.value("unresolved_orphans")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            (
                "requests_lost".to_string(),
                cell.value("requests_lost").cloned().unwrap_or(Json::Null),
            ),
        ]));
    }
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    vec![
        ("pcs_worst_evacuation_ms".to_string(), opt(pcs_worst)),
        ("ll_worst_evacuation_ms".to_string(), opt(ll_worst)),
        ("evacuation_by_cell".to_string(), Json::Array(rows)),
    ]
}

/// The rolling-restart maintenance wave over the failures cluster:
/// node `i` goes down at `start + i·period` and returns `downtime`
/// later, sweeping the whole cluster once. Timing fractions of the
/// measured span (so `--smoke` keeps the shape): the wave starts 5% in,
/// nodes restart every 15%, each stays down for 10% — longer than the
/// scheduling interval in the full grid, so migration-capable techniques
/// get to evacuate ahead of each restore while blind ones ride out every
/// outage.
fn rolling_plan(sim: &SimConfig) -> FaultPlan {
    let measured = sim.horizon - sim.warmup;
    FaultPlan::rolling_restart(
        FAIL_NODE_COUNT,
        SimTime::ZERO + sim.warmup + measured.mul_f64(0.05),
        measured.mul_f64(0.15),
        measured.mul_f64(0.10),
    )
}

/// The `failures-rolling` scenario: the ROADMAP's maintenance-wave
/// follow-up. One rolling restart across all six nodes over a long
/// horizon (twice the family default), per registry technique.
pub const ROLLING_RESTART: Scenario = Scenario {
    name: "failures-rolling",
    description: "Maintenance wave: rolling node restarts under load, long horizon",
    default_seed: 62020,
    overrides: COMPARISON_OVERRIDES,
    build: rolling_restart_plan,
};

fn rolling_restart_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let mut cfg = base_grid(params, &[100.0]);
    // A whole-cluster wave needs a long horizon: double the family
    // default (the `--smoke` shrink is applied first, so smoke runs
    // stay CI-sized).
    cfg.horizon_scale *= 2.0;
    let techniques = technique_grid(params, failures_set(), failures_smoke_set());
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        // One deterministic wave per rate, identical for every
        // technique ([`FaultPlan::rolling_restart`] draws nothing).
        let mut sim_probe = fig6::cell_config(&cfg, rate);
        sim_probe.node_count = FAIL_NODE_COUNT;
        let schedule = rolling_plan(&sim_probe);
        let victims = kill_victims(&schedule);
        for &technique in &techniques {
            let cfg = cfg.clone();
            let schedule = schedule.clone();
            cells.push(technique_cell(
                format!("{} @ {rate} req/s rolling-restart", technique.name()),
                vec![
                    kv("rate", rate),
                    kv("technique", technique.name()),
                    kv("plan", "rolling-restart".to_string()),
                    ("victims".to_string(), Json::Array(victims.clone())),
                ],
                technique,
                &models,
                cfg.epsilon_secs,
                move || {
                    let mut sim_config = fig6::cell_config(&cfg, rate);
                    sim_config.node_count = FAIL_NODE_COUNT;
                    sim_config.faults = schedule.clone();
                    sim_config
                },
                Some(fault_metrics),
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(failures_summary)),
        notes: vec![
            format!(
                "rolling restart over all {FAIL_NODE_COUNT} nodes: wave starts 5% into the \
                 measured span, one node every 15%, each down for 10%"
            ),
            "evacuation_ms = kill -> last orphan re-placed (migration or restore); null = never"
                .to_string(),
        ],
    })
}

/// The scenario registration.
pub const FAILURES: Scenario = Scenario {
    name: "failures",
    description: "Techniques under node kill/restore faults (evacuation latency, request loss)",
    default_seed: 62019,
    overrides: COMPARISON_OVERRIDES,
    build: failures_plan,
};

fn failures_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[100.0]);
    let techniques = technique_grid(params, failures_set(), failures_smoke_set());
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for (plan_index, plan) in PLANS.iter().enumerate() {
            // One outage per (rate, plan), shared by every technique:
            // the comparison is on an identical trace. The schedule
            // and its victims (cell-param provenance: which nodes
            // die, when) are resolved here, once, and cloned into
            // every technique's cell.
            let plan_seed = seed::mix(fig6::rate_seed(cfg.seed, rate), plan_index as u64);
            let mut sim_probe = fig6::cell_config(&cfg, rate);
            sim_probe.node_count = FAIL_NODE_COUNT;
            let schedule = fault_plan(plan, plan_seed, &sim_probe);
            let victims = kill_victims(&schedule);
            for &technique in &techniques {
                let cfg = cfg.clone();
                let schedule = schedule.clone();
                cells.push(technique_cell(
                    format!("{} @ {rate} req/s {plan}", technique.name()),
                    vec![
                        kv("rate", rate),
                        kv("technique", technique.name()),
                        kv("plan", plan.to_string()),
                        ("victims".to_string(), Json::Array(victims.clone())),
                    ],
                    technique,
                    &models,
                    cfg.epsilon_secs,
                    move || {
                        let mut sim_config = fig6::cell_config(&cfg, rate);
                        sim_config.node_count = FAIL_NODE_COUNT;
                        sim_config.faults = schedule.clone();
                        sim_config
                    },
                    Some(fault_metrics),
                ));
            }
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(failures_summary)),
        notes: vec![
            format!(
                "6-node cluster; kill at 25% of the measured span, restores 35% later; \
                 cascade = {RACK_SIZE}-node rack, kills one fifth of a scheduling interval apart"
            ),
            "evacuation_ms = kill -> last orphan re-placed (migration or restore); null = never"
                .to_string(),
        ],
    })
}

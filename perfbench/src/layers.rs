//! The benchmark's metrics: end-to-end ones from the bare rounds,
//! per-layer ones from the traced rounds. Host metrics and layers cover
//! every cell; the simulated end-to-end metrics cover the panel's.
//!
//! Layers, named after the modules they time from outside:
//! `training` (`PcsController::train_for`), `sim_setup`
//! (`Simulation::new`), `controller` (the hook's `on_interval`), `policy`
//! (the dispatch policy's per-sub-request calls), `sim` (the rest of
//! `Simulation::run`: event core, monitor tick, context and report
//! assembly), plus the deterministic counters of `core`
//! (`SchedulerCost`), `faults` and `autoscale` that the report carries.

use crate::workloads::{Cell, Role, Workload};
use crate::{median, yardstick, Round};
use pcs_sim::{RunReport, SchedulerCost};
use pcs_types::SimTime;
use std::time::Duration;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Node-hours a cell billed: the autoscaler's integral on elastic runs,
/// the whole fixed fleet for the whole run otherwise.
fn node_hours(report: &RunReport, node_count: usize) -> f64 {
    if report.autoscale.node_seconds > 0.0 {
        report.autoscale.node_hours()
    } else {
        node_count as f64 * report.ended_at.as_secs_f64() / 3600.0
    }
}

/// Seconds of the workload's runs at the yardstick's nominal speed: per
/// cell, the median over the rounds of its run in yardstick units, summed
/// over the cells, times [`yardstick::NOMINAL_S`]. Every round replays
/// identical work (the digests prove it), so what differs between rounds
/// and runs is the host.
pub fn scaled_wall_s(rounds: &[Round]) -> f64 {
    let cells = rounds.first().map_or(0, |r| r.cells.len());
    let units: f64 = (0..cells)
        .map(|i| median(&rounds.iter().map(|r| r.run_units(i)).collect::<Vec<_>>()))
        .sum();
    units * yardstick::NOMINAL_S
}

/// The end-to-end metrics of a run, from its bare rounds; `failed` of
/// the `attempted` cells failed a check in some round.
pub fn end_to_end(
    workload: &Workload,
    bare: &[Round],
    failed: u64,
    attempted: u64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let wall = scaled_wall_s(bare);
    let setups: Vec<f64> = bare.iter().map(Round::setup_units).collect();
    // Simulated metrics are deterministic: the first round stands for all
    // (the digest check proves the others identical). They come from the
    // panel's cells only.
    let panel: Vec<(&Cell, &RunReport)> = workload
        .cells
        .iter()
        .zip(&bare[0].cells)
        .filter(|(cell, _)| workload.on_panel(cell))
        .filter_map(|(cell, run)| run.report.as_ref().map(|r| (cell, r)))
        .collect();
    let completed: u64 = panel.iter().map(|(_, r)| r.stats.requests_completed).sum();
    let lost: u64 = panel
        .iter()
        .map(|(_, r)| r.faults.stats.requests_lost)
        .sum();
    // Per panel trace, `f` folded over the trace's PCS-family cells; the
    // median over the traces.
    let per_trace = |f: &dyn Fn(&Cell, &RunReport) -> f64, fold: fn(f64, f64) -> f64| {
        let values: Vec<f64> = workload
            .panel
            .iter()
            .map(|&trace| {
                panel
                    .iter()
                    .filter(|(cell, _)| cell.trace_seed == trace && cell.role == Role::Pcs)
                    .map(|(cell, r)| f(cell, r))
                    .fold(0.0, fold)
            })
            .collect();
        median(&values)
    };
    vec![
        metric("wall_s", "s", wall),
        metric(
            "events_per_s",
            "events/s",
            ratio(bare[0].events() as f64, wall),
        ),
        metric("setup_s", "s", median(&setups) * yardstick::NOMINAL_S),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric(
            "cells_ok_frac",
            "fraction",
            ratio((attempted - failed) as f64, attempted as f64),
        ),
        metric(
            "served_frac",
            "fraction",
            ratio(completed as f64, (completed + lost) as f64),
        ),
        metric(
            "pcs_p99_ms",
            "sim_ms",
            per_trace(&|_, r| r.component_p99_ms(), f64::max),
        ),
        metric(
            "pcs_overall_p99_ms",
            "sim_ms",
            per_trace(&|_, r| r.overall_latency.p99 * 1e3, f64::max),
        ),
        metric(
            "pcs_node_hours",
            "node-h",
            per_trace(&|cell, r| node_hours(r, cell.config.node_count), |a, b| {
                a + b
            }),
        ),
    ]
}

/// Layer totals over a subset of one traced round's cells.
#[derive(Default)]
struct Tally {
    run_ms: f64,
    controller_ms: f64,
    policy_ms: f64,
    sim_self_ms: f64,
    policy_calls: u64,
    calls: u64,
    call_ms: Vec<f64>,
    orders: u64,
    migrations: u64,
    events: u64,
    cost: SchedulerCost,
    executions: u64,
    wasted: u64,
    cancelled: u64,
    reissues: u64,
    lost: u64,
    evacuation_max_ms: f64,
    drain_max_ms: f64,
}

fn tally(workload: &Workload, round: &Round, keep: impl Fn(Role) -> bool) -> Tally {
    let trace = round.trace.as_ref().expect("a traced round");
    let run_spans = (0..trace.spans.len()).filter(|&i| trace.spans[i].layer == "sim");
    let mut t = Tally::default();
    for ((cell, run), span) in workload.cells.iter().zip(&round.cells).zip(run_spans) {
        let Some(report) = &run.report else { continue };
        if !keep(cell.role) {
            continue;
        }
        // The run span's children are its hook intervals; the policy's
        // calls happen inside it too but are aggregated, not spans.
        t.run_ms += ms(trace.spans[span].dur);
        t.controller_ms += ms(trace.spans[span].dur - trace.self_time(span));
        t.policy_ms += ms(run.policy.busy());
        t.sim_self_ms += ms(trace.self_time(span).saturating_sub(run.policy.busy()));
        t.policy_calls += run.policy.calls;
        t.calls += run.hook_calls.len() as u64;
        if run.hook_wants_context {
            t.call_ms.extend(run.hook_calls.iter().map(|c| ms(c.dur)));
        }
        let measured_from = SimTime::ZERO + cell.config.warmup;
        t.orders += run
            .hook_calls
            .iter()
            .filter(|c| c.at >= measured_from)
            .map(|c| c.orders as u64)
            .sum::<u64>();
        let s = &report.stats;
        t.migrations += s.migrations;
        t.events += report.events_processed;
        let c = report.scheduler_cost.unwrap_or_default();
        t.cost.intervals += c.intervals;
        t.cost.matrix_builds += c.matrix_builds;
        t.cost.matrix_refreshes += c.matrix_refreshes;
        t.cost.entries_recomputed += c.entries_recomputed;
        t.cost.entries_total += c.entries_total;
        t.cost.greedy_iterations += c.greedy_iterations;
        t.executions += s.executions;
        t.wasted += s.wasted_executions;
        t.cancelled += s.cancelled_duplicates;
        t.reissues += s.reissues;
        t.lost += report.faults.stats.requests_lost;
        t.evacuation_max_ms = t.evacuation_max_ms.max(report.faults.evacuation_max * 1e3);
        t.drain_max_ms = t.drain_max_ms.max(report.autoscale.drain_max * 1e3);
    }
    t
}

/// One traced round's per-layer metrics (everything but
/// `trace.overhead`, which compares rounds).
fn round_layers(workload: &Workload, round: &Round) -> Vec<Metric> {
    let trace = round.trace.as_ref().expect("a traced round");
    let t = tally(workload, round, |_| true);
    let mut out = vec![
        metric("training.ms", "ms", ms(trace.layer_self_time("training"))),
        metric("sim_setup.ms", "ms", ms(trace.layer_self_time("sim_setup"))),
        metric("controller.ms", "ms", t.controller_ms),
        metric(
            "controller.share",
            "fraction",
            ratio(t.controller_ms, t.run_ms),
        ),
        metric("controller.calls", "count", t.calls as f64),
        metric("controller.call_ms_p50", "ms", median(&t.call_ms)),
        metric("controller.orders", "count", t.orders as f64),
        metric(
            "controller.enacted_ratio",
            "fraction",
            ratio(t.migrations as f64, t.orders as f64),
        ),
        metric(
            "core.entries_recomputed",
            "count",
            t.cost.entries_recomputed as f64,
        ),
        metric("core.entries_total", "count", t.cost.entries_total as f64),
        metric(
            "core.entry_ratio",
            "fraction",
            ratio(
                t.cost.entries_recomputed as f64,
                t.cost.entries_total as f64,
            ),
        ),
        metric(
            "core.greedy_iterations",
            "count",
            t.cost.greedy_iterations as f64,
        ),
        metric("core.matrix_builds", "count", t.cost.matrix_builds as f64),
        metric(
            "core.matrix_refreshes",
            "count",
            t.cost.matrix_refreshes as f64,
        ),
        metric("sim.self_ms", "ms", t.sim_self_ms),
        metric("sim.share", "fraction", ratio(t.sim_self_ms, t.run_ms)),
        metric("sim.events", "count", t.events as f64),
        metric(
            "sim.ns_per_event",
            "ns",
            ratio(t.sim_self_ms * 1e6, t.events as f64),
        ),
        metric("policy.calls", "count", t.policy_calls as f64),
        metric("policy.ms", "ms", t.policy_ms),
        metric(
            "sim.wasted_ratio",
            "fraction",
            ratio(t.wasted as f64, t.executions as f64),
        ),
        metric("sim.cancelled_duplicates", "count", t.cancelled as f64),
        metric("sim.reissues", "count", t.reissues as f64),
        metric("faults.evacuation_max_ms", "sim_ms", t.evacuation_max_ms),
        metric("faults.requests_lost", "count", t.lost as f64),
        metric("autoscale.drain_max_ms", "sim_ms", t.drain_max_ms),
    ];
    for role in Role::ALL {
        let r = tally(workload, round, |cell_role| cell_role == role);
        let key = role.key();
        out.extend([
            metric(format!("run.ms.{key}"), "ms", r.run_ms),
            metric(format!("controller.ms.{key}"), "ms", r.controller_ms),
            metric(
                format!("controller.share.{key}"),
                "fraction",
                ratio(r.controller_ms, r.run_ms),
            ),
            metric(
                format!("sim.share.{key}"),
                "fraction",
                ratio(r.sim_self_ms, r.run_ms),
            ),
            metric(format!("policy.ms.{key}"), "ms", r.policy_ms),
        ]);
    }
    out
}

/// The per-layer metrics of a traced run: each the median over its
/// traced rounds, plus `trace.overhead`, the traced rounds' `wall_s`
/// over the bare rounds'.
pub fn per_layer(workload: &Workload, bare: &[Round], traced: &[Round]) -> Vec<Metric> {
    let per_round: Vec<Vec<Metric>> = traced.iter().map(|r| round_layers(workload, r)).collect();
    let mut out: Vec<Metric> = per_round[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = per_round.iter().map(|m| m[i].value).collect();
            metric(first.name.clone(), first.unit, median(&values))
        })
        .collect();
    out.push(metric(
        "trace.overhead",
        "ratio",
        ratio(scaled_wall_s(traced), scaled_wall_s(bare)),
    ));
    out
}

/// Per cell: median run and hook time over the traced rounds and the
/// hook's share, the table the scheduler-share baseline is read from.
pub fn share_table(workload: &Workload, traced: &[Round]) -> Vec<String> {
    workload
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let runs: Vec<f64> = traced.iter().map(|r| ms(r.cells[i].run)).collect();
            let hooks: Vec<f64> = traced
                .iter()
                .map(|r| {
                    r.cells[i]
                        .hook_calls
                        .iter()
                        .map(|c| ms(c.dur))
                        .fold(0.0, |a, b| a + b)
                })
                .collect();
            let (run, hook) = (median(&runs), median(&hooks));
            format!(
                "{} {:?} run_ms {run:.1} hook_ms {hook:.1} controller_share {:.3}",
                workload.name,
                cell.label,
                ratio(hook, run)
            )
        })
        .collect()
}

//! Output checks on a cell's report, and the trajectory digest.

use crate::workloads::Cell;
use pcs_sim::RunReport;

/// FNV-1a over the report's `Debug` rendering. Floats render in their
/// shortest round-trip form, so two runs share a digest exactly when
/// every reported number is bit-identical.
pub fn digest(report: &RunReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every check the report of `cell` fails, as readable messages; empty
/// when the output is correct.
pub fn failures(cell: &Cell, report: &RunReport) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failed.push(format!("{}: {what}", cell.label));
        }
    };
    let s = &report.stats;
    let f = &report.faults.stats;
    check(report.events_processed > 0, "no events processed");
    check(s.requests_completed > 0, "no request completed");
    check(
        report.overall_latency.count as u64 == s.requests_completed,
        "overall-latency samples differ from completed requests",
    );
    check(
        report.component_latency.count as u64 >= s.requests_completed,
        "fewer component samples than completed requests",
    );
    check(
        s.wasted_executions <= s.executions,
        "more wasted executions than executions",
    );
    check(
        f.evacuated + f.restored_in_place + report.faults.unresolved_orphans <= f.orphaned,
        "more orphans resolved than orphaned",
    );
    let a = &report.autoscale.stats;
    check(
        a.drains_completed + a.drains_cancelled <= a.drains_started,
        "more drains ended than started",
    );
    for (name, summary) in [
        ("component", &report.component_latency),
        ("overall", &report.overall_latency),
    ] {
        let values = [
            summary.mean,
            summary.p50,
            summary.p95,
            summary.p99,
            summary.max,
        ];
        check(
            values.iter().all(|v| v.is_finite() && *v > 0.0),
            &format!("{name} latency not finite and positive"),
        );
        check(
            summary.p50 <= summary.p95 && summary.p95 <= summary.p99 && summary.p99 <= summary.max,
            &format!("{name} latency percentiles out of order"),
        );
    }
    for (name, value) in [
        ("evacuation_max", report.faults.evacuation_max),
        ("node_seconds", report.autoscale.node_seconds),
        ("drain_max", report.autoscale.drain_max),
    ] {
        check(
            value.is_finite() && value >= 0.0,
            &format!("{name} not finite"),
        );
    }
    let config = &cell.config;
    if config.faults.is_empty() {
        check(f.requests_lost == 0, "requests lost without faults");
        check(
            f.kills == 0 && f.degrades == 0,
            "faults without a fault plan",
        );
    } else {
        check(
            f.kills == 1 && f.restores == 1,
            "the outage did not strike once",
        );
        check(
            f.degrades > 0 && f.recovers > 0,
            "the gray rack never degraded",
        );
    }
    if config.autoscale.is_some() {
        check(
            report.autoscale.node_seconds > 0.0,
            "the autoscaler billed nothing",
        );
    }
    check(
        report.scheduler_cost.is_some() == cell.technique.name().starts_with("PCS"),
        "scheduler cost present exactly for PCS-family hooks",
    );
    failed
}

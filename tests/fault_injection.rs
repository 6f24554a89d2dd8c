//! Acceptance properties of the fault-injection subsystem, end to end
//! through the `failures` scenario: liveness-aware techniques re-place
//! every orphan, the predictive controller evacuates strictly faster
//! than the reactive baseline, and blind techniques visibly bleed.

use pcs::scenarios;
use pcs_harness::{run_sweep, Json, SweepOutcome, SweepParams};

fn run_failures_smoke(techniques: &[&str]) -> SweepOutcome {
    let scenario = scenarios::find("failures").expect("failures registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        threads: 2,
        smoke: true,
        techniques: Some(techniques.iter().map(|t| t.to_string()).collect()),
        ..SweepParams::default()
    };
    run_sweep(&scenario.plan(&params).unwrap(), &params)
}

fn cell<'a>(
    outcome: &'a SweepOutcome,
    technique: &str,
    plan: &str,
) -> &'a pcs_harness::CellOutcome {
    outcome
        .cells
        .iter()
        .find(|c| {
            c.value("technique").and_then(Json::as_str) == Some(technique)
                && c.value("plan").and_then(Json::as_str) == Some(plan)
        })
        .unwrap_or_else(|| panic!("cell {technique}/{plan} missing"))
}

const PLANS: [&str; 3] = ["single-kill", "kill-restore", "cascade"];

/// The headline acceptance: on the default seed, PCS's evacuation
/// latency is strictly below the reactive baseline's wherever both are
/// defined, and its worst case beats LL's worst case outright.
#[test]
fn pcs_evacuates_strictly_faster_than_the_reactive_baseline() {
    let outcome = run_failures_smoke(&["ll", "pcs"]);
    let mut compared = 0;
    for plan in PLANS {
        let ll = cell(&outcome, "LL", plan).value_f64("evacuation_ms");
        let pcs = cell(&outcome, "PCS", plan).value_f64("evacuation_ms");
        if let (Some(ll), Some(pcs)) = (ll, pcs) {
            assert!(
                pcs < ll,
                "{plan}: PCS evacuation ({pcs} ms) must beat LL ({ll} ms)"
            );
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "at least two plans must yield a finite PCS-vs-LL comparison"
    );
    // The summary scalars agree.
    let scalar = |name: &str| {
        outcome
            .summary
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("{name} missing from the summary"))
    };
    assert!(scalar("pcs_worst_evacuation_ms") < scalar("ll_worst_evacuation_ms"));
}

/// Liveness-aware techniques leave no orphan behind in any plan; the
/// blind baseline leaves the single-kill victims stranded forever and
/// loses strictly more requests than the evacuating techniques.
#[test]
fn liveness_aware_techniques_replace_every_orphan() {
    let outcome = run_failures_smoke(&["basic", "ll", "pcs"]);
    for plan in PLANS {
        for technique in ["LL", "PCS"] {
            let c = cell(&outcome, technique, plan);
            assert_eq!(
                c.value_f64("unresolved_orphans"),
                Some(0.0),
                "{technique}/{plan}: every orphan must be re-placed"
            );
        }
    }
    let basic_single = cell(&outcome, "Basic", "single-kill");
    assert!(
        basic_single.value_f64("unresolved_orphans").unwrap() > 0.0,
        "Basic never re-places a dead node's components"
    );
    assert_eq!(
        basic_single.value("evacuation_ms"),
        Some(&Json::Null),
        "an unresolved evacuation has no latency"
    );
    // Request loss: the un-evacuated partition rejects every request
    // until the end of the run, so Basic bleeds strictly more than the
    // techniques that re-place it.
    let lost = |t: &str| {
        cell(&outcome, t, "single-kill")
            .value_f64("requests_lost")
            .unwrap()
    };
    assert!(lost("Basic") > lost("LL"), "evacuation must stem the loss");
    assert!(lost("Basic") > lost("PCS"));
}

/// Kill+restore: every technique recovers by the restore at the latest,
/// so evacuation latencies are finite everywhere and bounded by the
/// downtime; migration-capable techniques recover no later than Basic.
#[test]
fn restore_bounds_every_techniques_recovery() {
    let outcome = run_failures_smoke(&["basic", "ll", "pcs"]);
    let basic = cell(&outcome, "Basic", "kill-restore")
        .value_f64("evacuation_ms")
        .expect("the restore resolves Basic's orphans");
    for technique in ["LL", "PCS"] {
        let evac = cell(&outcome, technique, "kill-restore")
            .value_f64("evacuation_ms")
            .expect("finite evacuation under kill-restore");
        assert!(
            evac <= basic,
            "{technique} must recover no later than the restore ({evac} vs {basic} ms)"
        );
    }
}

//! Harness determinism: the acceptance property of the scenario runner.
//!
//! For a fixed seed, a scenario's rendered JSON report must be
//! byte-identical across repeated runs **and** across thread counts —
//! the work-stealing schedule may differ, the report may not. The two
//! extended scenarios (diurnal arrivals, heterogeneous capacities) are
//! the pinned examples: they exercise the widened simulation layer and
//! carry no wall-clock metrics.

use pcs::scenarios;
use pcs_harness::{run_sweep, SweepParams};

fn render(name: &str, threads: usize) -> String {
    let scenario = scenarios::find(name).expect("scenario registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        threads,
        smoke: true,
        ..SweepParams::default()
    };
    let plan = scenario.plan(&params).unwrap();
    run_sweep(&plan, &params).to_json(name, &params).render()
}

fn assert_reproducible(name: &str) {
    let single = render(name, 1);
    let parallel = render(name, 3);
    let parallel_again = render(name, 3);
    assert!(
        single.contains("\"cells\""),
        "{name}: report must contain cells"
    );
    assert_eq!(
        single.as_bytes(),
        parallel.as_bytes(),
        "{name}: report must not depend on the thread count"
    );
    assert_eq!(
        parallel.as_bytes(),
        parallel_again.as_bytes(),
        "{name}: repeated runs must reproduce the report byte for byte"
    );
}

#[test]
fn diurnal_report_is_byte_identical_across_runs_and_thread_counts() {
    assert_reproducible("diurnal");
}

#[test]
fn hetero_report_is_byte_identical_across_runs_and_thread_counts() {
    assert_reproducible("hetero");
}

#[test]
fn mmpp_report_is_byte_identical_across_runs_and_thread_counts() {
    assert_reproducible("mmpp");
}

#[test]
fn failures_report_is_byte_identical_across_runs_and_thread_counts() {
    assert_reproducible("failures");
}

#[test]
fn failures_rolling_report_is_byte_identical_across_runs_and_thread_counts() {
    assert_reproducible("failures-rolling");
}

/// FNV-1a 64 over the rendered report: a compact byte-exact pin.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The mmpp smoke report is pinned byte-identical across PRs, not just
/// within a run: any change to the MMPP sampling path, the technique
/// specs it sweeps (Basic/LL/PCS), the seed derivation or the JSON writer
/// shows up here as a hash change and must be deliberate.
#[test]
fn mmpp_smoke_report_bytes_are_pinned() {
    let report = render("mmpp", 2);
    assert_eq!(
        fnv1a(report.as_bytes()),
        0x9ca1_1c5d_61d9_260d,
        "mmpp smoke report bytes changed; if intentional, re-pin this hash"
    );
}

/// The failures smoke report is pinned byte-identical across PRs like
/// mmpp's: any change to the fault-injection path (kill/restore
/// mechanics, failover, evacuation accounting, the seeded fault-plan
/// generators, or the techniques it sweeps) shows up here as a hash
/// change and must be deliberate.
#[test]
fn failures_smoke_report_bytes_are_pinned() {
    let report = render("failures", 2);
    assert_eq!(
        fnv1a(report.as_bytes()),
        0x02a7_42a0_3588_2d04,
        "failures smoke report bytes changed; if intentional, re-pin this hash"
    );
}

/// Every remaining comparison family's default smoke report, pinned the
/// same way. These hashes were captured **before** the PR 5 hot-path
/// overhaul (request slab, tombstone cancellation, completion slots,
/// event-key packing, O(n) summaries, contention/service-profile
/// memoisation) and must survive it bit for bit: the optimisations are
/// only legal because they change no observable float, count or
/// ordering. `ablation-rebuild` and `fig7` report wall-clock and cannot
/// be pinned.
#[test]
fn default_smoke_reports_are_pinned_across_the_optimized_hot_path() {
    for (name, pinned) in [
        ("fig6", 0xb57d_6163_a91c_1547_u64),
        ("headline", 0xff9b_f9d5_0ec6_9c43),
        ("diurnal", 0xbe38_11fb_a538_fefe),
        ("hetero", 0x7b21_a286_3ee5_954c),
    ] {
        let report = render(name, 2);
        assert_eq!(
            fnv1a(report.as_bytes()),
            pinned,
            "{name} smoke report bytes changed; if intentional, re-pin this hash"
        );
    }
}

/// The predictor-accuracy figure and the four simulated ablations, pinned
/// the same way. They are the reports that Eq. 1's training, Eq. 2's
/// saturation knee and the monitor windows feed, so turning those
/// settings into constants must leave every hash here unchanged.
#[test]
fn model_layer_smoke_reports_are_pinned() {
    for (name, pinned) in [
        ("fig5", 0xe5c3_abd2_76ed_c7ae_u64),
        ("ablation-threshold", 0x727c_9221_8f33_b8c6),
        ("ablation-tiebreak", 0x71ce_d8e9_a1de_0aff),
        ("ablation-queueing", 0xb720_bfb6_f6bb_7750),
        ("ablation-interval", 0xa202_85e8_d9a7_64c1),
    ] {
        let hash = fnv1a(render(name, 2).as_bytes());
        assert_eq!(
            hash, pinned,
            "{name} smoke report bytes changed ({hash:#018x}); if intentional, re-pin this hash"
        );
    }
}

/// The new rolling-restart family, pinned from its first release. Any
/// change to `FaultPlan::rolling_restart`, the failures-family metrics
/// or the techniques it sweeps must re-pin deliberately.
#[test]
fn failures_rolling_smoke_report_bytes_are_pinned() {
    let report = render("failures-rolling", 2);
    assert_eq!(
        fnv1a(report.as_bytes()),
        0xa6fb_9a2b_d941_1982,
        "failures-rolling smoke report bytes changed; if intentional, re-pin this hash"
    );
}

/// The cluster-scale family: the smoke grid (40 nodes, two racks,
/// deep-chain and wide-fanout under diurnal arrivals, flat PCS vs
/// PCS-H64) covers the hierarchical controller's whole pipeline —
/// rack-striped placement, the per-interval matrix build, the rack-grouped
/// greedy, and the `sched_*` work counters, which are pinnable precisely
/// because they count events, not wall-clock.
///
/// Re-pinned once when PCS-H stopped carrying its matrix between
/// intervals: it now schedules on unsmoothed estimates, like flat PCS,
/// instead of freezing moves inside a 5% dead-band, and the report lost
/// the refresh counters and the matrix-work ratio.
///
/// Re-pinned once more when rack striping began to follow `rack_count`
/// for every technique: flat PCS used to start from node-order
/// round-robin and PCS-H from the rack-striped walk, so the two flat-PCS
/// cells (and the summary's tail deltas) moved; the PCS-H cells are
/// byte-equal.
#[test]
fn scale_smoke_report_bytes_are_pinned() {
    assert_reproducible("scale");
    let report = render("scale", 2);
    assert_eq!(
        fnv1a(report.as_bytes()),
        0xb089_70eb_5455_288c,
        "scale smoke report bytes changed; if intentional, re-pin this hash"
    );
}

/// The elastic-capacity family, pinned from its first release: the smoke
/// grid (12 nodes, `steady` autoscaler preset, diurnal arrivals,
/// Basic/LL/PCS) covers the whole autoscaling subsystem — warming and
/// draining membership, cold starts, drain retirement through the
/// evacuation pass, node-seconds accounting and the SLO-window counters,
/// all event-derived and thus pinnable.
#[test]
fn elastic_smoke_report_bytes_are_pinned() {
    assert_reproducible("elastic");
    let report = render("elastic", 2);
    assert_eq!(
        fnv1a(report.as_bytes()),
        0x938e_4e80_d04a_0870,
        "elastic smoke report bytes changed; if intentional, re-pin this hash"
    );
}

/// The imperfect-information family, pinned from its first release: the
/// smoke grid (6 nodes, clean + moderate levels, Basic/LL/PCS-N0.3)
/// covers all three new channels — the straggler gray rack
/// ([`FaultKind::Degrade`]), the noisy failure detector distorting hook
/// perception, and the seeded prediction noise on PCS's demand
/// estimates — plus the clean level's cells, which must stay
/// byte-identical to a pristine world.
#[test]
fn imperfect_smoke_report_bytes_are_pinned() {
    assert_reproducible("imperfect");
    let report = render("imperfect", 2);
    assert_eq!(
        fnv1a(report.as_bytes()),
        0xcfdd_31f8_7914_43e4,
        "imperfect smoke report bytes changed; if intentional, re-pin this hash"
    );
}

fn render_observed(name: &str, threads: usize, top_k: usize) -> String {
    let scenario = scenarios::find(name).expect("scenario registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        threads,
        smoke: true,
        observe: Some(top_k),
        ..SweepParams::default()
    };
    let plan = scenario.plan(&params).unwrap();
    run_sweep(&plan, &params).to_json(name, &params).render()
}

/// The observability layer's determinism contract, both directions: an
/// observe-on report is itself byte-reproducible across thread counts
/// and pinned across PRs (the timelines, blame buckets, series rows and
/// audits are all event-derived), while the observe-off pins above prove
/// the layer's *absence* still produces the historical bytes. The two
/// reports differ only by the `observe_override` provenance key and the
/// per-cell `observe` metrics; that switching the layer on leaves the
/// simulated trajectory itself unchanged is asserted in
/// `tests/observe_props.rs`.
#[test]
fn observed_fig6_smoke_report_is_thread_invariant_and_pinned() {
    let single = render_observed("fig6", 1, 3);
    let parallel = render_observed("fig6", 3, 3);
    assert_eq!(
        single.as_bytes(),
        parallel.as_bytes(),
        "observed fig6 report must not depend on the thread count"
    );
    assert!(
        single.contains("\"observe_override\":3") && single.contains("\"observe\":"),
        "report must carry the observe provenance and metrics"
    );
    assert_eq!(
        fnv1a(single.as_bytes()),
        0xd195_527c_eb5e_8cd5,
        "observed fig6 smoke report bytes changed; if intentional, re-pin this hash"
    );
}

/// The observed smoke reports of the two dense-node families. Their
/// decision audits print every enacted order's predicted Eq. 5 gain and
/// self-gain, so these pins lock the matrix's entry values where an
/// Eq. 4 what-if overrides dozens of co-residents, not just the moves
/// the greedy picked.
#[test]
fn observed_dense_smoke_reports_are_thread_invariant_and_pinned() {
    for (name, pin) in [
        ("elastic", 0xcfe3_f43c_a235_a81b_u64),
        ("imperfect", 0x1ed9_935f_9a90_14e5),
    ] {
        let single = render_observed(name, 1, 3);
        let parallel = render_observed(name, 3, 3);
        assert_eq!(
            single.as_bytes(),
            parallel.as_bytes(),
            "observed {name} report must not depend on the thread count"
        );
        assert!(
            single.contains("\"predicted_gain\"") && single.contains("\"predicted_self_gain\""),
            "{name}: the audits must carry the predicted gains"
        );
        let hash = fnv1a(single.as_bytes());
        assert_eq!(
            hash, pin,
            "observed {name} smoke report bytes changed ({hash:#018x}); if intentional, re-pin this hash"
        );
    }
}

#[test]
fn different_seeds_change_the_report() {
    let scenario = scenarios::find("diurnal").unwrap();
    let params_a = SweepParams {
        seed: 1,
        threads: 2,
        smoke: true,
        ..SweepParams::default()
    };
    let params_b = SweepParams {
        seed: 2,
        ..params_a.clone()
    };
    let a = run_sweep(&scenario.plan(&params_a).unwrap(), &params_a).to_json("diurnal", &params_a);
    let b = run_sweep(&scenario.plan(&params_b).unwrap(), &params_b).to_json("diurnal", &params_b);
    assert_ne!(a.render(), b.render());
}

/// Every registered technique through the fig6 smoke cell: one column
/// per `techniques::registry()` entry, so a change to any technique's
/// name, replication, dispatch policy, scheduler hook or placement shows
/// up here as a hash change.
#[test]
fn fig6_smoke_report_over_the_whole_registry_is_pinned() {
    let scenario = scenarios::find("fig6").expect("scenario registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        threads: 2,
        smoke: true,
        techniques: Some(
            pcs::techniques::registry()
                .iter()
                .map(|technique| technique.name())
                .collect(),
        ),
        ..SweepParams::default()
    };
    let report = run_sweep(&scenario.plan(&params).unwrap(), &params)
        .to_json("fig6", &params)
        .render();
    assert_eq!(
        fnv1a(report.as_bytes()),
        0x7c5d_0afd_9091_b69c,
        "fig6 whole-registry smoke report bytes changed; if intentional, re-pin this hash"
    );
}

//! CLI input validation: malformed grids are rejected up front with a
//! clear error instead of silently producing an empty (or crashing)
//! sweep. Drives the real `pcs` binary via `CARGO_BIN_EXE_pcs`.

use std::process::{Command, Output};

fn pcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcs"))
        .args(args)
        .output()
        .expect("pcs binary runs")
}

fn rejected_with(args: &[&str], needle: &str) {
    let out = pcs(args);
    assert!(!out.status.success(), "`pcs {}` must fail", args.join(" "));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "`pcs {}` stderr must mention `{needle}`:\n{stderr}",
        args.join(" ")
    );
}

#[test]
fn empty_rates_list_is_rejected() {
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", ""],
        "at least one rate",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", "  "],
        "at least one rate",
    );
}

#[test]
fn non_positive_and_malformed_rates_are_rejected() {
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", "0,50"],
        "finite and positive",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", "50,-3"],
        "finite and positive",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", "50,fast"],
        "--rates",
    );
}

#[test]
fn zero_repeats_is_rejected() {
    rejected_with(
        &["run", "--scenario", "fig7", "--repeats", "0"],
        "at least 1",
    );
}

#[test]
fn zero_threads_is_rejected() {
    // A zero-thread sweep would silently fall back to one worker; the
    // runner knob is validated up front like the grid knobs.
    rejected_with(
        &["run", "--scenario", "fig6", "--threads", "0"],
        "at least 1",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--threads", "two"],
        "--threads",
    );
}

#[test]
fn zero_group_cap_is_rejected() {
    rejected_with(
        &["run", "--scenario", "scale", "--group-cap", "0"],
        "1..=1024",
    );
    rejected_with(
        &["run", "--scenario", "scale", "--group-cap", "1025"],
        "1..=1024",
    );
    rejected_with(
        &["run", "--scenario", "scale", "--group-cap", "many"],
        "--group-cap",
    );
}

#[test]
fn degenerate_scale_sizes_are_rejected() {
    rejected_with(
        &["run", "--scenario", "scale", "--sizes", ""],
        "at least one cluster size",
    );
    rejected_with(
        &["run", "--scenario", "scale", "--sizes", "100,0"],
        "must be >= 8",
    );
    rejected_with(
        &["run", "--scenario", "scale", "--sizes", "100,4"],
        "must be >= 8",
    );
    rejected_with(
        &["run", "--scenario", "scale", "--sizes", "100,tiny"],
        "--sizes",
    );
}

#[test]
fn scale_knobs_are_rejected_on_other_scenarios() {
    // --sizes/--group-cap silently ignored by a scenario without a
    // cluster-size grid would poison report provenance, like a silently
    // ignored --techniques.
    rejected_with(
        &["run", "--scenario", "fig6", "--group-cap", "64"],
        "apply to: scale",
    );
    rejected_with(
        &["run", "--scenario", "diurnal", "--sizes", "100"],
        "apply to: scale",
    );
}

#[test]
fn out_of_range_autoscaler_knobs_are_rejected() {
    // The autoscaler's control-loop knobs are validated at parse time,
    // before any model training: a target utilisation outside (0, 1] or
    // a non-positive cooldown can never build a valid AutoscaleConfig.
    rejected_with(
        &["run", "--scenario", "elastic", "--target-util", "0"],
        "in (0, 1]",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--target-util", "1.5"],
        "in (0, 1]",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--target-util", "-0.3"],
        "in (0, 1]",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--target-util", "hot"],
        "--target-util",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--cooldown", "0"],
        "positive number of seconds",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--cooldown", "-2"],
        "positive number of seconds",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--cooldown", "inf"],
        "positive number of seconds",
    );
    // Positive, but below the simulator's 1 µs clock resolution.
    rejected_with(
        &[
            "run",
            "--scenario",
            "elastic",
            "--smoke",
            "--cooldown",
            "0.0000001",
        ],
        "positive number of seconds",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--cooldown", "soon"],
        "--cooldown",
    );
}

#[test]
fn autoscaler_knobs_are_rejected_on_non_elastic_scenarios() {
    // Only the elastic scenario routes the autoscaler knobs into its sim
    // configs; silently ignoring them elsewhere would claim an elastic
    // run that never happened.
    rejected_with(
        &["run", "--scenario", "fig6", "--target-util", "0.6"],
        "apply to: elastic",
    );
    rejected_with(
        &["run", "--scenario", "failures", "--cooldown", "4"],
        "apply to: elastic",
    );
}

#[test]
fn out_of_range_imperfect_knobs_are_rejected() {
    // The imperfect-information dials are validated at parse time: a
    // negative heartbeat timeout, an error rate outside [0, 1] or a
    // prediction-noise sigma outside 0..=MAX can never configure a valid
    // detector or noise wrapper.
    rejected_with(
        &["run", "--scenario", "imperfect", "--detector-latency", "-1"],
        "non-negative number of seconds",
    );
    rejected_with(
        &[
            "run",
            "--scenario",
            "imperfect",
            "--detector-latency",
            "inf",
        ],
        "non-negative number of seconds",
    );
    rejected_with(
        &[
            "run",
            "--scenario",
            "imperfect",
            "--detector-latency",
            "soon",
        ],
        "--detector-latency",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--fp-rate", "1.5"],
        "in [0, 1]",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--fp-rate", "-0.1"],
        "in [0, 1]",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--fn-rate", "2"],
        "in [0, 1]",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--fn-rate", "often"],
        "--fn-rate",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--noise", "-0.5"],
        "sigma must be in 0..=",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--noise", "9"],
        "sigma must be in 0..=",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--noise", "nan"],
        "sigma must be in 0..=",
    );
    rejected_with(
        &["run", "--scenario", "imperfect", "--noise", "lots"],
        "--noise",
    );
}

#[test]
fn imperfect_knobs_are_rejected_on_other_scenarios() {
    // Only the imperfect scenario routes the detector and noise dials
    // into its sim configs; silently ignoring them elsewhere would claim
    // an imperfect-information run that never happened.
    rejected_with(
        &["run", "--scenario", "fig6", "--detector-latency", "1"],
        "apply to: imperfect",
    );
    rejected_with(
        &["run", "--scenario", "failures", "--fp-rate", "0.01"],
        "apply to: imperfect",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--fn-rate", "0.05"],
        "apply to: imperfect",
    );
    rejected_with(
        &["run", "--scenario", "diurnal", "--noise", "0.3"],
        "apply to: imperfect",
    );
}

#[test]
fn noise_cannot_combine_with_a_technique_override() {
    // --noise works by swapping the default grid's PCS cell for
    // `pcs-n<sigma>`; a --techniques override replaces that grid, so the
    // flag would silently do nothing. The error points at the technique
    // spelling instead.
    rejected_with(
        &[
            "run",
            "--scenario",
            "imperfect",
            "--noise",
            "0.3",
            "--techniques",
            "basic,pcs",
        ],
        "pcs-n<sigma>",
    );
    // Flag order must not matter.
    rejected_with(
        &[
            "run",
            "--scenario",
            "imperfect",
            "--techniques",
            "basic,pcs",
            "--noise",
            "0.3",
        ],
        "cannot combine with --techniques",
    );
}

#[test]
fn observe_companion_flags_require_observe() {
    // --top-k and --trace-out configure the observability layer; without
    // --observe they would silently do nothing, so the CLI refuses.
    rejected_with(
        &["run", "--scenario", "fig6", "--top-k", "3"],
        "--top-k requires --observe",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--trace-out", "/tmp/t.json"],
        "--trace-out requires --observe",
    );
}

#[test]
fn zero_and_malformed_top_k_are_rejected() {
    rejected_with(
        &["run", "--scenario", "fig6", "--observe", "--top-k", "0"],
        "at least 1",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--observe", "--top-k", "lots"],
        "--top-k",
    );
}

#[test]
fn observe_is_rejected_on_wall_clock_scenarios() {
    // fig7 and ablation-rebuild report wall-clock timings; the layer is
    // zero-cost in simulated time but not in real time, so observe-on
    // runs would perturb exactly what they measure.
    rejected_with(
        &["run", "--scenario", "fig7", "--observe"],
        "does not support the observability layer",
    );
    rejected_with(
        &["run", "--scenario", "ablation-rebuild", "--observe"],
        "does not support the observability layer",
    );
    // fig5 runs no simulated service at all.
    rejected_with(
        &["run", "--scenario", "fig5", "--observe"],
        "does not support the observability layer",
    );
}

#[test]
fn unknown_technique_error_names_the_new_vocabulary() {
    let out = pcs(&[
        "run",
        "--scenario",
        "failures",
        "--techniques",
        "warp-drive",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for token in ["warp-drive", "pcs+red<k>", "pcs-b<n>"] {
        assert!(stderr.contains(token), "missing `{token}`:\n{stderr}");
    }
}

#[test]
fn list_techniques_includes_the_hybrid_and_budgeted_variants() {
    let out = pcs(&["list", "techniques"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["pcs+red2", "pcs-b1", "pcs-h64"] {
        assert!(stdout.contains(name), "missing `{name}`:\n{stdout}");
    }
}

#[test]
fn list_scenarios_includes_the_failures_and_scale_families() {
    let out = pcs(&["list", "scenarios"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["failures", "failures-rolling", "scale", "elastic"] {
        assert!(stdout.contains(name), "missing `{name}`:\n{stdout}");
    }
}

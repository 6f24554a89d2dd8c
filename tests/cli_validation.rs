//! CLI input validation: malformed grids are rejected up front with a
//! clear error instead of silently producing an empty (or crashing)
//! sweep, and no argv makes the parser panic. Drives the real `pcs`
//! binary via `CARGO_BIN_EXE_pcs`.

use pcs_harness::Override;
use proptest::prelude::*;
use std::ffi::OsString;
use std::process::{Command, Output};

fn pcs(args: &[&str]) -> Output {
    pcs_os(args.iter().map(OsString::from).collect())
}

fn pcs_os(args: Vec<OsString>) -> Output {
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
    // Finite, but the simulation would exhaust memory before reporting.
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", "1e308"],
        "at most 10000",
    );
    rejected_with(
        &["run", "--scenario", "fig6", "--rates", "50,10001"],
        "at most 10000",
    );
}

/// A repeated selection would run the same cells twice and count them
/// twice in every cross-cell summary (`red-3,red-3,ri-90,pcs` would
/// weigh RED-3 double in the headline mean). Repeats are judged on the
/// parsed value, so spellings of one technique, rate or size collide.
#[test]
fn duplicate_selections_exit_with_usage_error() {
    let cases: [(&[&str], &str); 6] = [
        (&["--techniques", "red-3,red-3,ri-90,pcs"], "more than once"),
        (&["--techniques", "ri-90,ri-90.0,pcs"], "`RI-90`"),
        (
            &["--techniques", "pcs,PCS"],
            "`PCS` is selected more than once",
        ),
        (&["--rates", "80,80.0"], "rate 80 is listed more than once"),
        (
            &["--rates", "50, 100,50"],
            "rate 50 is listed more than once",
        ),
        (&["--sizes", "40,40"], "size 40 is listed more than once"),
    ];
    for (flags, needle) in cases {
        let scenario = if flags[0] == "--sizes" {
            "scale"
        } else {
            "fig6"
        };
        let mut args = vec!["run", "--scenario", scenario, "--smoke"];
        args.extend_from_slice(flags);
        let out = pcs(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`pcs {}`:\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(needle),
            "`pcs {}` stderr must mention `{needle}`:\n{stderr}",
            args.join(" ")
        );
    }
}

/// An argument error, an unknown command or a non-UTF-8 argument prints
/// its reason and one line pointing to `pcs --help`, not the whole usage
/// text the reason would be buried under, and exits 2.
#[test]
fn argument_errors_print_the_reason_and_a_help_pointer() {
    let mut cases: Vec<(Vec<OsString>, &str)> = vec![
        (
            ["run", "--scenario", "fig6", "--smoke", "--rates", "80,80.0"]
                .map(OsString::from)
                .into(),
            "rate 80 is listed more than once",
        ),
        (vec!["launch".into()], "unknown command `launch`"),
        (
            ["run", "--scenario", "fig6", "--bogus"]
                .map(OsString::from)
                .into(),
            "unknown option `--bogus`",
        ),
        // Out of range: refused by the scenario's plan, before any model
        // trains (no "running scenario" line).
        (
            ["run", "--scenario", "elastic", "--target-util", "1.5"]
                .map(OsString::from)
                .into(),
            "must be in (0, 1], got 1.5",
        ),
        (
            [
                "run",
                "--scenario",
                "fig6",
                "--smoke",
                "--rates",
                "50",
                "--repeats",
                "3",
            ]
            .map(OsString::from)
            .into(),
            "--repeats applies to: fig7",
        ),
    ];
    if cfg!(unix) {
        cases.push((vec!["run".into(), not_utf8()], "is not valid UTF-8"));
    }
    for (argv, reason) in cases {
        let out = pcs_os(argv.clone());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`pcs {argv:?}`:\n{stderr}");
        let lines = stderr.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(
            lines <= 2,
            "`pcs {argv:?}` wrote {lines} stderr lines:\n{stderr}"
        );
        assert!(stderr.contains(reason), "`pcs {argv:?}`:\n{stderr}");
        assert!(stderr.contains("pcs --help"), "`pcs {argv:?}`:\n{stderr}");
    }
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
fn oversized_scale_sizes_are_rejected() {
    // The wide-fanout service puts 9/10 of the nodes in one stage, and a
    // stage holds at most u16::MAX partitions: such a size must fail at
    // parse time with exit 2, not panic in a sweep worker.
    let out = pcs(&["run", "--scenario", "scale", "--sizes", "100000", "--smoke"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("<= 72817 nodes"));
    rejected_with(
        &["run", "--scenario", "scale", "--sizes", "100,72818"],
        "<= 72817 nodes",
    );
    // `size * 9` would overflow here.
    rejected_with(
        &[
            "run",
            "--scenario",
            "scale",
            "--sizes",
            &usize::MAX.to_string(),
        ],
        "<= 72817 nodes",
    );
}

#[test]
fn scale_knobs_are_rejected_on_other_scenarios() {
    // --sizes/--group-cap silently ignored by a scenario without a
    // cluster-size grid would poison report provenance, like a silently
    // ignored --techniques.
    rejected_with(
        &["run", "--scenario", "fig6", "--group-cap", "64"],
        "--group-cap applies to: scale",
    );
    rejected_with(
        &["run", "--scenario", "diurnal", "--sizes", "100"],
        "--sizes applies to: scale",
    );
}

#[test]
fn out_of_range_autoscaler_knobs_are_rejected() {
    // The autoscaler's control-loop knobs are checked by
    // AutoscaleConfig::validate in the elastic plan, before any model
    // training: a target utilisation outside (0, 1] or a non-positive
    // cooldown can never build a valid AutoscaleConfig.
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
        "--target-util applies to: elastic",
    );
    rejected_with(
        &["run", "--scenario", "failures", "--cooldown", "4"],
        "--cooldown applies to: elastic",
    );
}

#[test]
fn out_of_range_imperfect_knobs_are_rejected() {
    // The imperfect-information dials are checked by the imperfect plan
    // before any model training: a negative heartbeat timeout, an error
    // rate outside [0, 1] or a prediction-noise sigma outside 0..=MAX can
    // never configure a valid detector or noise wrapper.
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
        "--detector-latency applies to: imperfect",
    );
    rejected_with(
        &["run", "--scenario", "failures", "--fp-rate", "0.01"],
        "--fp-rate applies to: imperfect",
    );
    rejected_with(
        &["run", "--scenario", "elastic", "--fn-rate", "0.05"],
        "--fn-rate applies to: imperfect",
    );
    rejected_with(
        &["run", "--scenario", "diurnal", "--noise", "0.3"],
        "--noise applies to: imperfect",
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
        "does not read --observe",
    );
    rejected_with(
        &["run", "--scenario", "ablation-rebuild", "--observe"],
        "does not read --observe",
    );
    // fig5 runs no simulated service at all.
    rejected_with(
        &["run", "--scenario", "fig5", "--observe"],
        "does not read --observe",
    );
}

/// A valid value for each override (`None` for a bare flag).
fn valid_value(o: Override) -> Option<&'static str> {
    match o {
        Override::Rates => Some("80"),
        Override::Repeats => Some("1"),
        Override::Techniques => Some("basic,pcs"),
        Override::Sizes => Some("40"),
        Override::GroupCap => Some("64"),
        Override::TargetUtil => Some("0.8"),
        Override::Cooldown => Some("2"),
        Override::DetectorLatency | Override::FpRate | Override::FnRate | Override::Noise => {
            Some("0")
        }
        Override::Observe => None,
    }
}

/// Every override a scenario's plan does not read is refused with exit 2,
/// naming the scenarios that do read it: a report would otherwise record
/// an override that changed nothing. Pairs a scenario accepts are never
/// run.
#[test]
fn every_undeclared_override_is_refused_with_its_readers_named() {
    let registry = pcs::scenarios::registry();
    for o in Override::ALL {
        let readers: Vec<&str> = registry
            .iter()
            .filter(|s| s.overrides.contains(&o))
            .map(|s| s.name)
            .collect();
        let needle = format!("{} applies to: {}", o.flag(), readers.join(", "));
        for scenario in registry.iter().filter(|s| !s.overrides.contains(&o)) {
            let mut args = vec!["run", "--scenario", scenario.name, "--smoke", o.flag()];
            args.extend(valid_value(o));
            let out = pcs(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "`pcs {}`:\n{stderr}",
                args.join(" ")
            );
            assert!(
                stderr.contains(&needle),
                "`pcs {}` stderr must name the readers `{needle}`:\n{stderr}",
                args.join(" ")
            );
        }
    }
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
    for token in ["warp-drive", "pcs-h<cap>", "pcs-n<sigma>"] {
        assert!(stderr.contains(token), "missing `{token}`:\n{stderr}");
    }
    for gone in ["pcs+red<k>", "pcs-b<n>"] {
        assert!(!stderr.contains(gone), "lists deleted `{gone}`:\n{stderr}");
    }
}

/// The hybrid `pcs+red<k>` and budgeted `pcs-b<n>` families are gone:
/// their tokens are argument errors that name the valid vocabulary.
#[test]
fn deleted_technique_families_exit_2() {
    for token in ["pcs+red2", "pcs-b1"] {
        let out = pcs(&[
            "run",
            "--scenario",
            "fig6",
            "--smoke",
            "--techniques",
            token,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{token}`:\n{stderr}");
        for valid in ["valid techniques", "red-<k>", "pcs-h<cap>"] {
            assert!(
                stderr.contains(valid),
                "`{token}`: missing `{valid}`:\n{stderr}"
            );
        }
    }
}

#[test]
fn list_techniques_includes_every_parameterised_family() {
    let out = pcs(&["list", "techniques"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["red-3", "ri-90", "pcs-h64", "pcs-n0.5"] {
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

/// Every option `pcs run` parses, except `--scenario`, which the fuzz
/// pins to an unregistered name.
const FLAGS: &[&str] = &[
    "--techniques",
    "--seed",
    "--threads",
    "--rates",
    "--repeats",
    "--sizes",
    "--group-cap",
    "--target-util",
    "--cooldown",
    "--detector-latency",
    "--fp-rate",
    "--fn-rate",
    "--noise",
    "--observe",
    "--top-k",
    "--trace-out",
    "--smoke",
    "--json",
    "--quiet",
];

/// Flag values: plausible ones, boundary numbers (`-0`, `u64::MAX` and
/// one past it, a literal past `f64`'s range, one past the largest
/// `--sizes` and `--rates` entries), non-numbers, lists and
/// non-ASCII text. A flag with no value, or followed by another flag,
/// covers the missing-value path.
const VALUES: &[&str] = &[
    "",
    " ",
    "-0",
    "0",
    "1",
    "-1",
    "0.5",
    "1e-7",
    "NaN",
    "inf",
    "-inf",
    "1e309",
    "18446744073709551615",
    "18446744073709551616",
    "72818",
    "10001",
    "1,2",
    ",",
    "8,,9",
    "basic,pcs",
    "red-3,ri-99.5",
    "pcs-n0.3",
    "pcs-h0",
    "é",
    "\u{1f600}",
    "ß,ü",
    "\t",
];

/// `pcs run --scenario <unregistered>` followed by up to eight flags,
/// each with a value from [`VALUES`], no value, or (on Unix) a value
/// that is not UTF-8.
fn hostile_argv() -> impl Strategy<Value = Vec<OsString>> {
    let item = (0..FLAGS.len(), 0..VALUES.len() + 2);
    proptest::collection::vec(item, 0..9).prop_map(|items| {
        let mut argv: Vec<OsString> = ["run", "--scenario", "no-such-scenario"]
            .map(OsString::from)
            .into();
        for (flag, value) in items {
            argv.push(FLAGS[flag].into());
            match VALUES.get(value) {
                Some(v) => argv.push(v.into()),
                None if value == VALUES.len() => {}
                None => argv.push(not_utf8()),
            }
        }
        argv
    })
}

#[cfg(unix)]
fn not_utf8() -> OsString {
    use std::os::unix::ffi::OsStringExt;
    OsString::from_vec(vec![b'1', 0xff, 0xfe])
}

#[cfg(not(unix))]
fn not_utf8() -> OsString {
    OsString::from("\u{fffd}")
}

proptest! {
    // Each case spawns one process, one after another.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The whole parser runs on every argv (the scenario lookup comes
    /// after it), and no simulation starts: every case must exit with
    /// the usage code 2, never a panic's 101 or a signal.
    #[test]
    fn hostile_argv_exits_with_usage_error(argv in hostile_argv()) {
        let out = pcs_os(argv.clone());
        prop_assert!(
            out.status.code() == Some(2),
            "`pcs {:?}` exited with {:?}; stderr:\n{}",
            argv,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

//! The technique registry's acceptance properties: exact name
//! round-trips (including property-tested family parameters), CLI-style
//! technique selection on sweep scenarios, and the new baselines actually
//! running in the extended scenarios.

use pcs::controller::PcsController;
use pcs::experiments::fig6;
use pcs::scenarios;
use pcs::techniques::{self, Technique, TechniqueEnv};
use pcs_harness::{run_sweep, Json, SweepParams};
use pcs_sim::PlacementStrategy;
use pcs_types::NodeCapacity;
use proptest::prelude::*;

/// Round-trip: the canonical name parses back to the same technique.
fn round_trips(technique: Technique) {
    let name = technique.name();
    let reparsed = techniques::parse(&name).unwrap_or_else(|e| panic!("{name} parses: {e}"));
    assert_eq!(reparsed, technique, "{name}");
    assert_eq!(reparsed.name(), name);
}

#[test]
fn every_registered_technique_round_trips() {
    for technique in techniques::registry() {
        round_trips(technique);
    }
    // The sets are drawn from the registry's vocabulary too.
    for set in [
        techniques::paper_set(),
        techniques::smoke_set(),
        techniques::extended_set(),
        techniques::extended_smoke_set(),
    ] {
        for technique in set {
            round_trips(technique);
        }
    }
}

/// Every registry entry and each family's boundary instances agree with
/// what they build: the declared replication is the dispatch policy's,
/// placement is overridden exactly for CAP (capacity-aware; PCS-H starts
/// from flat PCS's layout), and exactly the four PCS-controller families (PCS,
/// PCS-H, Oracle, PCS-N) build a hook that reports the controller's work
/// counters.
#[test]
fn every_technique_agrees_with_what_it_builds() {
    let models = PcsController::train_for(&fig6::topology(8), NodeCapacity::XEON_E5645, 62015)
        .expect("profiling campaign trains");
    let env = TechniqueEnv {
        models: &models,
        epsilon_secs: 1e-6,
    };
    let boundaries = [
        techniques::red(2),
        techniques::red(8),
        techniques::ri(0.01),
        techniques::ri(99.99),
        techniques::pcs_hier(1),
        techniques::pcs_hier(techniques::MAX_GROUP_CAP),
        techniques::pcs_noisy(0.0),
        techniques::pcs_noisy(techniques::MAX_NOISE_SIGMA),
    ];
    for technique in techniques::registry().into_iter().chain(boundaries) {
        let name = technique.name();
        assert_eq!(
            technique.replication(),
            technique.make_policy().replication(),
            "{name}: declared replication and dispatch policy must agree"
        );
        let placement = (name == "CAP").then_some(PlacementStrategy::CapacityAware);
        assert_eq!(technique.placement(), placement, "{name}: placement");
        let runs_pcs_controller = name.starts_with("PCS") || name == "Oracle";
        assert_eq!(
            technique.make_hook(&env).cost().is_some(),
            runs_pcs_controller,
            "{name}: hook kind"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn red_family_round_trips(k in 2usize..=8) {
        round_trips(techniques::red(k));
    }

    #[test]
    fn ri_family_round_trips(percent_centi in 1u32..=9999) {
        // Percentiles on a 0.01% grid across (0, 100): covers the paper's
        // 90/99, the ambiguous 99.5 vs 99.51 pair, and everything the CLI
        // can reasonably be handed.
        let percent = percent_centi as f64 / 100.0;
        round_trips(techniques::ri(percent));
    }

    #[test]
    fn pcs_noisy_family_round_trips(sigma_centi in 0u32..=400) {
        // Sigmas on a 0.01 grid across 0..=MAX_NOISE_SIGMA: covers the
        // imperfect levels' 0.1/0.3/0.6, the σ = 0 identity case and the
        // ceiling.
        let sigma = sigma_centi as f64 / 100.0;
        round_trips(techniques::pcs_noisy(sigma));
    }

    #[test]
    fn ri_integral_percents_render_integrally(percent in 1u32..=99) {
        // A CLI token like `ri-29` must name itself `RI-29`, never
        // `RI-28.999999999999996` (the fraction-unit regression).
        let technique = techniques::parse(&format!("ri-{percent}")).unwrap();
        prop_assert_eq!(technique.name(), format!("RI-{percent}"));
    }
}

#[test]
fn ri_display_disambiguates_close_percentiles() {
    // Regression: the old `{:.0}` rendering (of the equivalent fractions
    // 0.995 and 0.9951) collapsed both to "RI-100".
    let a = techniques::ri(99.5);
    let b = techniques::ri(99.51);
    assert_eq!(a.name(), "RI-99.5");
    assert_eq!(b.name(), "RI-99.51");
    round_trips(a);
    round_trips(b);
}

#[test]
fn pcs_noisy_display_renders_minimally() {
    // The sigma renders with no trailing zeros (the CLI token and the
    // display name must agree byte for byte for the round-trip).
    assert_eq!(techniques::pcs_noisy(0.0).name(), "PCS-N0");
    assert_eq!(techniques::pcs_noisy(0.3).name(), "PCS-N0.3");
    assert_eq!(techniques::pcs_noisy(1.0).name(), "PCS-N1");
    let parsed = techniques::parse("pcs-n0.25").unwrap();
    assert_eq!(parsed.name(), "PCS-N0.25");
    round_trips(parsed);
}

/// Regression: `pcs-n-0` passes the `0..=4` range check as negative zero
/// and must name plain PCS's σ = 0 variant, not a second `PCS-N-0`.
#[test]
fn negative_zero_noise_names_pcs_n0() {
    assert_eq!(techniques::parse("pcs-n-0").unwrap().name(), "PCS-N0");
    assert_eq!(techniques::pcs_noisy(-0.0).name(), "PCS-N0");
}

/// Every parameterised family's prefix, plus the bare names.
const PARSE_PREFIXES: [&str; 12] = [
    "pcs+red", "pcs-b", "pcs-h", "pcs-n", "red-", "ri-", "pcs", "basic", "hier", "ll", "oracle",
    "cap",
];

/// Characters the fuzzed suffixes draw from: numeral syntax (signs,
/// exponents, `inf`/`nan` letters), separators, whitespace and non-ASCII.
const SUFFIX_CHARS: [char; 20] = [
    '0', '1', '5', '9', '.', '-', '+', 'e', 'E', 'i', 'n', 'f', 'a', 'N', ',', ' ', '_', 'x', 'é',
    '∞',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse` never panics on a family prefix with an arbitrary suffix,
    /// and every accepted token's name parses back to the same name.
    #[test]
    fn parse_never_panics_and_accepted_names_round_trip(
        prefix in 0..PARSE_PREFIXES.len(),
        suffix in proptest::collection::vec(0..SUFFIX_CHARS.len(), 0..8),
    ) {
        let suffix: String = suffix.into_iter().map(|c| SUFFIX_CHARS[c]).collect();
        let token = format!("{}{suffix}", PARSE_PREFIXES[prefix]);
        if let Ok(technique) = techniques::parse(&token) {
            let name = technique.name();
            let reparsed = techniques::parse(&name);
            prop_assert!(reparsed.is_ok(), "{} (from {:?}) must parse", name, token);
            prop_assert_eq!(reparsed.unwrap().name(), name);
        }
    }
}

/// `--techniques basic,pcs` on fig6 must select exactly those columns, in
/// order, for every rate.
#[test]
fn fig6_technique_selection_controls_the_columns() {
    let scenario = scenarios::find("fig6").expect("fig6 registered");
    let params = SweepParams {
        seed: 1,
        smoke: true,
        techniques: Some(vec!["basic".to_string(), "pcs".to_string()]),
        ..SweepParams::default()
    };
    let plan = scenario.plan(&params).unwrap();
    let techniques_per_cell: Vec<&Json> = plan
        .cells
        .iter()
        .map(|cell| {
            cell.params
                .iter()
                .find(|(k, _)| k == "technique")
                .map(|(_, v)| v)
                .expect("fig6 cells carry a technique param")
        })
        .collect();
    // Smoke mode runs one rate; the technique axis is exactly basic,pcs.
    assert_eq!(
        techniques_per_cell,
        vec![&Json::from("Basic"), &Json::from("PCS")]
    );
}

#[test]
fn unknown_technique_names_are_rejected_with_the_vocabulary() {
    let error = techniques::parse_list("basic,warp-drive,pcs").unwrap_err();
    let message = error.to_string();
    assert!(message.contains("warp-drive"));
    assert!(message.contains("valid techniques"));
    assert!(message.contains("oracle"), "{message}");
}

#[test]
fn repeated_technique_names_are_rejected() {
    // Repeats are judged by canonical name, so case and spelling
    // variants of one technique collide too.
    for list in [
        "red-3,red-3",
        "pcs,PCS",
        "ri-90,ri-90.0,pcs",
        "basic,hier,pcs-h64",
    ] {
        let error = techniques::parse_list(list)
            .err()
            .unwrap_or_else(|| panic!("`{list}` repeats a technique"));
        assert!(error.reason.contains("more than once"), "{list}: {error}");
    }
    // Distinct family members are not repeats.
    let names: Vec<String> = techniques::parse_list("red-3,red-5,ri-90,ri-99.5,pcs")
        .unwrap()
        .iter()
        .map(|t| t.name())
        .collect();
    assert_eq!(names, ["RED-3", "RED-5", "RI-90", "RI-99.5", "PCS"]);
}

/// The new baselines run end to end in the extended scenarios: `ll` and
/// `oracle` in diurnal, `cap` in hetero, and their cells land in the
/// report with real measurements.
#[test]
fn new_baselines_run_in_diurnal_and_hetero() {
    let cases = [
        ("diurnal", vec!["ll".to_string(), "oracle".to_string()]),
        ("hetero", vec!["cap".to_string(), "pcs".to_string()]),
    ];
    for (name, selection) in cases {
        let scenario = scenarios::find(name).expect("scenario registered");
        let params = SweepParams {
            seed: scenario.default_seed,
            threads: 2,
            smoke: true,
            techniques: Some(selection.clone()),
            ..SweepParams::default()
        };
        let outcome = run_sweep(&scenario.plan(&params).unwrap(), &params);
        assert_eq!(
            outcome.cells.len(),
            selection.len(),
            "{name}: one cell per technique"
        );
        for (cell, wanted) in outcome.cells.iter().zip(&selection) {
            let technique = cell
                .value("technique")
                .and_then(Json::as_str)
                .expect("technique param");
            assert_eq!(
                technique.to_lowercase(),
                *wanted,
                "{name}: cells follow the selection order"
            );
            let completed = cell
                .value_f64("requests_completed")
                .expect("requests_completed metric");
            assert!(
                completed > 100.0,
                "{name}/{technique}: the cell must actually serve traffic ({completed})"
            );
        }
        // The selection is recorded in the report's provenance.
        let report = outcome.to_json(name, &params).render();
        assert!(
            report.contains("\"techniques_override\""),
            "{name}: report must record the technique selection"
        );
    }
}

/// The oracle must order at least as much scheduling activity as plain
/// PCS monitoring allows — it sees demand without noise, so on the same
/// trace it should act (the exact counts are scenario-dependent).
#[test]
fn oracle_and_ll_schedule_real_migrations_under_churn() {
    let scenario = scenarios::find("mmpp").expect("mmpp registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        threads: 2,
        smoke: true,
        techniques: Some(vec![
            "ll".to_string(),
            "oracle".to_string(),
            "pcs".to_string(),
        ]),
        ..SweepParams::default()
    };
    let outcome = run_sweep(&scenario.plan(&params).unwrap(), &params);
    for cell in &outcome.cells {
        let technique = cell.value("technique").and_then(Json::as_str).unwrap();
        let migrations = cell.value_f64("migrations").unwrap();
        assert!(
            migrations > 0.0,
            "{technique} must migrate under bursty churn"
        );
    }
}

//! Harness determinism: the acceptance property of the scenario runner.
//!
//! For a fixed seed, a scenario's rendered JSON report must be
//! byte-identical across runs **and** across thread counts — the
//! work-stealing schedule may differ, the report may not. Each row of the
//! table below renders one smoke report at 1 and at 3 threads and compares
//! both, byte for byte, with a committed golden file under `tests/golden/`:
//! the exact bytes `pcs run --smoke --threads 2 --json` writes (the
//! rendered report plus a trailing newline). On a mismatch the row names
//! the first differing key path and both values. Five extended families
//! are also re-rendered in process, without the golden file, at 1 and
//! twice at 2 threads.
//!
//! The pinned reports hold the reproduction of the paper's §VI results:
//! every comparison family's default smoke report, the predictor-accuracy
//! figure and the simulated ablations (`fig7` and `ablation-rebuild`
//! report wall-clock and cannot be pinned), the observed reports of fig6
//! and the two dense-node families, whose decision audits print every
//! enacted order's predicted Eq. 5 gain, and one fig6 report over the
//! whole technique registry. A change to any of them must be deliberate.
//!
//! Regenerate the golden files from a release build (`cargo build
//! --release`), one command per row kind:
//!
//! ```sh
//! P=./target/release/pcs
//! for s in fig6 headline diurnal hetero mmpp failures failures-rolling scale \
//!     elastic imperfect fig5 ablation-threshold ablation-tiebreak \
//!     ablation-queueing ablation-interval; do
//!   $P run --scenario $s --smoke --threads 2 --quiet --json tests/golden/$s.json
//! done
//! for s in fig6 elastic imperfect; do
//!   $P run --scenario $s --smoke --threads 2 --quiet --observe --top-k 3 \
//!     --json tests/golden/$s-observed.json
//! done
//! $P run --scenario fig6 --smoke --threads 2 --quiet \
//!   --techniques "$($P list techniques | awk '{print $1}' | paste -sd,)" \
//!   --json tests/golden/fig6-registry.json
//! ```
//!
//! and review a re-pin as the values that moved:
//!
//! ```sh
//! git diff --word-diff-regex='[^,:{}]+' tests/golden
//! ```

use pcs::scenarios;
use pcs_harness::{run_sweep, Json, SweepParams};

/// What a row adds to a scenario's default smoke parameters.
#[derive(Clone, Copy)]
enum Variant {
    /// The default smoke report.
    Plain,
    /// `--observe --top-k 3`: timelines, blame buckets, series and audits.
    Observed,
    /// `--techniques` over every `techniques::registry()` entry.
    Registry,
}

impl Variant {
    /// The row's golden file and the CLI command that regenerates it.
    fn golden(self, scenario: &str) -> (String, String) {
        let (suffix, flags) = match self {
            Variant::Plain => ("", ""),
            Variant::Observed => ("-observed", " --observe --top-k 3"),
            Variant::Registry => (
                "-registry",
                " --techniques \"$(./target/release/pcs list techniques | awk '{print $1}' | paste -sd,)\"",
            ),
        };
        let path = format!("tests/golden/{scenario}{suffix}.json");
        let command = format!(
            "./target/release/pcs run --scenario {scenario} --smoke --threads 2 --quiet{flags} --json {path}"
        );
        (path, command)
    }
}

fn render(scenario_name: &str, variant: Variant, threads: usize) -> String {
    let scenario = scenarios::find(scenario_name).expect("scenario registered");
    let mut params = SweepParams {
        seed: scenario.default_seed,
        threads,
        smoke: true,
        ..SweepParams::default()
    };
    match variant {
        Variant::Plain => {}
        Variant::Observed => params.observe = Some(3),
        Variant::Registry => {
            params.techniques = Some(
                pcs::techniques::registry()
                    .iter()
                    .map(|technique| technique.name())
                    .collect(),
            )
        }
    }
    let plan = scenario.plan(&params).unwrap();
    run_sweep(&plan, &params)
        .to_json(scenario_name, &params)
        .render()
}

/// Renders one row at 1 and at 3 threads and compares both with its golden
/// file; `needles` are substrings the golden text itself must carry.
fn check_golden(scenario: &str, variant: Variant, needles: &[&str]) {
    let (path, regenerate) = variant.golden(scenario);
    let golden = std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|err| {
            panic!("cannot read `{path}` ({err}); regenerate it:\n  {regenerate}")
        });
    for needle in ["\"cells\""].iter().chain(needles) {
        assert!(golden.contains(needle), "`{path}` must carry {needle}");
    }
    for threads in [1, 3] {
        let rendered = render(scenario, variant, threads) + "\n";
        if rendered != golden {
            panic!(
                "`{path}` does not match the {threads}-thread render: {}\n\
                 if the change is intended, regenerate it with\n  {regenerate}\n\
                 and review the moved values with\n  git diff --word-diff-regex='[^,:{{}}]+' tests/golden",
                describe_mismatch(&golden, &rendered)
            );
        }
    }
}

/// Names the first place two different report texts differ: a key path
/// with both values when both parse, else the first differing byte.
fn describe_mismatch(golden: &str, rendered: &str) -> String {
    if let (Ok(g), Ok(r)) = (Json::parse(golden), Json::parse(rendered)) {
        if let Some((path, g, r)) = first_difference("", &g, &r) {
            return format!("first difference at `{path}`: golden {g}, rendered {r}");
        }
    }
    let offset = golden
        .bytes()
        .zip(rendered.bytes())
        .position(|(g, r)| g != r)
        .unwrap_or(golden.len().min(rendered.len()));
    format!(
        "first differing byte at offset {offset} (golden {} bytes, rendered {})",
        golden.len(),
        rendered.len()
    )
}

/// The first key path (`cells[2].metrics.p99_component_ms`) at which two
/// documents differ, with the golden and the rendered value there.
fn first_difference(
    path: &str,
    golden: &Json,
    rendered: &Json,
) -> Option<(String, String, String)> {
    let (Some(g), Some(r)) = (children(path, golden), children(path, rendered)) else {
        return (golden != rendered).then(|| (path.to_string(), brief(golden), brief(rendered)));
    };
    (0..g.len().max(r.len())).find_map(|i| match (g.get(i), r.get(i)) {
        (Some((gp, gv)), Some((rp, rv))) if gp == rp => first_difference(gp, gv, rv),
        (ge, re) => {
            let (path, _) = ge.or(re).expect("i is below the longer length");
            let show = |entry: Option<&(String, &Json)>| match entry {
                None => "(absent)".to_string(),
                Some((p, v)) if p == path => brief(v),
                Some((p, v)) => format!("`{p}` = {}", brief(v)),
            };
            Some((path.clone(), show(ge), show(re)))
        }
    })
}

/// An array's or an object's entries, each with its own key path.
fn children<'a>(path: &str, value: &'a Json) -> Option<Vec<(String, &'a Json)>> {
    match value {
        Json::Array(items) => Some(
            items
                .iter()
                .enumerate()
                .map(|(i, item)| (format!("{path}[{i}]"), item))
                .collect(),
        ),
        Json::Object(pairs) => Some(
            pairs
                .iter()
                .map(|(key, item)| match path {
                    "" => (key.clone(), item),
                    _ => (format!("{path}.{key}"), item),
                })
                .collect(),
        ),
        _ => None,
    }
}

/// A value's JSON text, cut to one readable line.
fn brief(value: &Json) -> String {
    let text = value.render();
    match text.char_indices().nth(120) {
        Some((end, _)) => format!("{}…", &text[..end]),
        None => text,
    }
}

/// One `#[test]` per row, so the rows render in parallel.
macro_rules! golden_reports {
    ($($test:ident: $scenario:literal, $variant:ident $(, $needle:literal)*;)*) => {
        $(
            #[test]
            fn $test() {
                check_golden($scenario, Variant::$variant, &[$($needle),*]);
            }
        )*
    };
}

golden_reports! {
    fig6_smoke_report_bytes_are_pinned: "fig6", Plain;
    headline_smoke_report_bytes_are_pinned: "headline", Plain;
    diurnal_smoke_report_bytes_are_pinned: "diurnal", Plain;
    hetero_smoke_report_bytes_are_pinned: "hetero", Plain;
    mmpp_smoke_report_bytes_are_pinned: "mmpp", Plain;
    failures_smoke_report_bytes_are_pinned: "failures", Plain;
    failures_rolling_smoke_report_bytes_are_pinned: "failures-rolling", Plain;
    scale_smoke_report_bytes_are_pinned: "scale", Plain;
    elastic_smoke_report_bytes_are_pinned: "elastic", Plain;
    imperfect_smoke_report_bytes_are_pinned: "imperfect", Plain;
    fig5_smoke_report_bytes_are_pinned: "fig5", Plain;
    ablation_threshold_smoke_report_bytes_are_pinned: "ablation-threshold", Plain;
    ablation_tiebreak_smoke_report_bytes_are_pinned: "ablation-tiebreak", Plain;
    ablation_queueing_smoke_report_bytes_are_pinned: "ablation-queueing", Plain;
    ablation_interval_smoke_report_bytes_are_pinned: "ablation-interval", Plain;
    fig6_observed_smoke_report_bytes_are_pinned: "fig6", Observed, "\"observe_override\":3", "\"observe\":";
    elastic_observed_smoke_report_bytes_are_pinned: "elastic", Observed, "\"predicted_gain\"", "\"predicted_self_gain\"";
    imperfect_observed_smoke_report_bytes_are_pinned: "imperfect", Observed, "\"predicted_gain\"", "\"predicted_self_gain\"";
    fig6_registry_smoke_report_bytes_are_pinned: "fig6", Registry;
}

/// Renders a smoke report twice at 2 threads (the golden files' thread
/// count) and once at 1 and checks all three agree, without reading the
/// golden file: the property holds across a deliberate re-pin.
fn assert_reproducible(scenario: &str) {
    let single = render(scenario, Variant::Plain, 1);
    let parallel = render(scenario, Variant::Plain, 2);
    let parallel_again = render(scenario, Variant::Plain, 2);
    assert_eq!(
        single, parallel,
        "{scenario}: report must not depend on the thread count"
    );
    assert_eq!(
        parallel, parallel_again,
        "{scenario}: repeated runs must reproduce the report byte for byte"
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

#[test]
fn mismatch_names_the_key_path_and_both_values() {
    let golden = r#"{"scenario":"fig6","cells":[{"metrics":{"p99_ms":1.5}},{"metrics":{"p99_ms":2.25,"n":7}}]}"#;
    let rendered = r#"{"scenario":"fig6","cells":[{"metrics":{"p99_ms":1.5}},{"metrics":{"p99_ms":2.5,"n":7}}]}"#;
    assert_eq!(
        describe_mismatch(golden, rendered),
        "first difference at `cells[1].metrics.p99_ms`: golden 2.25, rendered 2.5"
    );
    let shorter = r#"{"scenario":"fig6","cells":[{"metrics":{"p99_ms":1.5}}]}"#;
    assert_eq!(
        describe_mismatch(golden, shorter),
        "first difference at `cells[1]`: golden {\"metrics\":{\"p99_ms\":2.25,\"n\":7}}, rendered (absent)"
    );
    assert_eq!(
        describe_mismatch(r#"{"a":{"x":1}}"#, r#"{"a":{"y":1}}"#),
        "first difference at `a.x`: golden 1, rendered `a.y` = 1"
    );
    assert!(describe_mismatch("{\"a\":1}", "{\"a\":1} ").contains("offset 7"));
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

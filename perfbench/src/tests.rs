//! The benchmark's own tests: the timing delegates change no byte of a
//! trajectory, the yardstick divides out a uniform slowdown, and every
//! workload prints exactly the metrics `BENCHMARK.json` names.

use crate::probe::PolicyTotals;
use crate::workloads::{self, Cell, Workload};
use crate::yardstick::Yardstick;
use crate::{layers, run_cell, run_round, CellRun, PcsController, Round};
use pcs::experiments::fig6::{self, Fig6Config};
use pcs::techniques;
use pcs_harness::Json;
use pcs_types::{NodeCapacity, SimDuration};
use std::time::Duration;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .expect("the list exists")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn printed(metrics: &[layers::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// A CI-sized fig6 cell: 8 searchers, a fifth of the horizon, 80 req/s.
fn small_cell(technique: techniques::TechniqueRef) -> Cell {
    let grid = Fig6Config {
        search_vm_budget: 8,
        horizon_scale: 0.2,
        ..Fig6Config::default()
    };
    workloads::cell("small", technique, fig6::cell_config(&grid, 80.0))
}

#[test]
fn timing_delegates_are_byte_identical_to_the_bare_hook_and_policy() {
    let models =
        PcsController::train_for(&fig6::topology(8), NodeCapacity::XEON_E5645, 62015).unwrap();
    for technique in [techniques::pcs(), techniques::red(3)] {
        let cell = small_cell(technique);
        let bare = run_cell(&cell, &models, 1e-6, false);
        let traced = run_cell(&cell, &models, 1e-6, true);
        assert!(bare.failures.is_empty(), "{:?}", bare.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(bare.digest(), traced.digest(), "{}", cell.label);
        assert_eq!(
            format!("{:?}", bare.report.as_ref().unwrap()),
            format!("{:?}", traced.report.as_ref().unwrap()),
        );
        // The delegates saw the calls they time.
        assert!(!traced.hook_calls.is_empty());
        assert!(traced.policy.calls > 0 && traced.policy.sampled > 0);
        assert!(bare.hook_calls.is_empty() && bare.policy.calls == 0);
    }
}

/// A round of two cells on a host `slowdown` times slower than the one
/// where they ran for 0.5 s and 1 s between yardstick costs of 40, 50 and
/// 60 ms.
fn timed_round(slowdown: f64) -> Round {
    let secs = |s: f64| Duration::from_secs_f64(s * slowdown);
    let cell = |run: f64| CellRun {
        report: None,
        failures: Vec::new(),
        setup: secs(0.002),
        run: secs(run),
        hook_wants_context: false,
        hook_calls: Vec::new(),
        policy: PolicyTotals::default(),
    };
    Round {
        train: secs(0.01),
        cells: vec![cell(0.5), cell(1.0)],
        yardstick: [0.04, 0.05, 0.06].map(|y| y * slowdown).to_vec(),
        trace: None,
    }
}

#[test]
fn a_uniform_slowdown_leaves_the_yardstick_times_unchanged() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
    let quick = timed_round(1.0);
    // Each cell over the mean of the yardstick costs around it.
    assert!(close(quick.run_units(0), 0.5 / 0.045));
    assert!(close(quick.run_units(1), 1.0 / 0.055));
    assert!(close(quick.setup_units(), 0.014 / 0.05));
    for slowdown in [0.8, 1.7] {
        let slow = timed_round(slowdown);
        assert!(close(slow.setup_units(), quick.setup_units()));
        assert!(close(
            layers::scaled_wall_s(&[slow]),
            layers::scaled_wall_s(&[timed_round(1.0)])
        ));
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    };
    let mut all = listed("end_to_end");
    all.extend(listed("per_layer"));
    for (name, unit) in &all {
        assert!(name_ok(name), "metric name {name:?}");
        assert!(unit_ok(unit), "unit {unit:?} of {name}");
        assert_eq!(
            all.iter().filter(|(n, _)| n == name).count(),
            1,
            "{name} twice"
        );
    }
}

#[test]
fn the_seed_adds_a_trace_and_leaves_the_panel_alone() {
    let rendered = |w: &Workload| -> Vec<String> {
        w.cells
            .iter()
            .filter(|c| w.on_panel(c))
            .map(|c| format!("{} {:?}", c.label, c.config))
            .collect()
    };
    for name in workloads::NAMES {
        let default = workloads::build(name, workloads::default_seed(name).unwrap()).unwrap();
        let panel = rendered(&default);
        assert_eq!(panel.len(), default.cells.len(), "{name}: only the panel");
        for seed in [1, 2] {
            let workload = workloads::build(name, seed).unwrap();
            assert_eq!(rendered(&workload), panel, "{name}: seed {seed}");
            let own = workload.cells.len() - panel.len();
            assert_eq!(
                own * workload.panel.len(),
                panel.len(),
                "{name}: one trace more"
            );
            assert!(workload.cells.iter().any(|c| c.trace_seed == seed));
        }
    }
}

/// A workload with every cell's horizon cut to a few seconds: the
/// metric set does not depend on run length.
fn shrunk(name: &str) -> Workload {
    let mut workload = workloads::build(name, workloads::default_seed(name).unwrap()).unwrap();
    for cell in &mut workload.cells {
        cell.config.horizon = SimDuration::from_secs(5);
        cell.config.warmup = SimDuration::from_secs(1);
    }
    workload
}

#[test]
fn every_named_metric_is_printed_on_every_workload() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    let mut yardstick = Yardstick::new();
    for name in workloads::NAMES {
        let workload = shrunk(name);
        let bare = vec![run_round(&workload, false, &mut yardstick)];
        let traced = vec![run_round(&workload, true, &mut yardstick)];
        let e2e = layers::end_to_end(&workload, &bare, 0, 1, 1.0);
        assert_eq!(printed(&e2e), end_to_end, "{name}: end-to-end metrics");
        let layer = layers::per_layer(&workload, &bare, &traced);
        assert_eq!(printed(&layer), per_layer, "{name}: per-layer metrics");
        assert!(
            e2e.iter().chain(&layer).all(|m| m.value.is_finite()),
            "{name}: every value finite"
        );
    }
}

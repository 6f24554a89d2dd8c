//! The `pcs bench` harness: the repo's performance trajectory,
//! machine-readable.
//!
//! Two complementary measurements, both emitted into one JSON report
//! (`BENCH_PR<N>.json` at the repo root is the per-PR convention):
//!
//! * **event-loop benches** — individual simulation cells run directly
//!   through [`fig6::run_cell_with_epsilon`], reporting wall-clock *and*
//!   the DES core's events/sec (from
//!   [`pcs_sim::RunReport::events_processed`]). The cells mirror the
//!   pinned scenario grids: the fig6 smoke grid (Basic/RED-2/PCS at
//!   80 req/s) and the failures smoke grid (Basic/LL/PCS under a
//!   single-kill outage), plus heavier full-grid cells outside `--smoke`.
//! * **scheduler-cost benches** — the per-interval cost of building the
//!   matrix and running the scheduler at growing cluster sizes (`m = k` =
//!   100, 400, 1000): the global greedy versus the `PCS-H` rack-grouped
//!   bounded greedy over an identical monitored-drift sequence. Reports
//!   wall-clock and the deterministic entries and greedy iterations.
//! * **elastic benches** — the elastic scenario's `steady`-preset
//!   diurnal cell per evacuation capability (Basic/LL/PCS), reporting
//!   wall-clock, events/sec and the deterministic node-hours each
//!   technique bills — the autoscaling subsystem's cost metric, pinned
//!   alongside its perf.
//! * **observability benches** — the pinned fig6 smoke PCS cell run
//!   with the observe layer off and on (same trace: instrumentation
//!   consumes no randomness and schedules no events), reporting both
//!   wall-clocks and the on/off overhead ratio. The off row is the
//!   regression sentinel for the layer's zero-cost-when-disabled claim.
//! * **scenario sweeps** — every registered scenario family, run through
//!   the real [`pcs_harness::run_sweep`] on smoke budgets, so a perf
//!   regression anywhere in the registry shows up as wall-clock.
//!
//! Each measurement repeats `repeats` times and keeps the **minimum**
//! wall-clock (the least-noise estimator for a deterministic
//! computation). Passing `--baseline <previous report>` embeds that
//! report's numbers and a per-entry speedup table, which is how a PR
//! demonstrates its win against the predecessor measured on the same
//! machine.
//!
//! Bench reports are intentionally **not** byte-reproducible (they carry
//! wall-clock); the scenario reports proper remain byte-pinned and are
//! untouched by benching.

use crate::experiments::fig6::{self, Fig6Config};
use crate::experiments::fig7;
use crate::scenarios::{self, base_grid, train_models};
use crate::techniques::{self, TechniqueRef};
use pcs_core::{
    ClassModelSet, ComponentInput, ComponentScheduler, HierarchicalScheduler, MatrixConfig,
    MatrixInputs, NodeInput, PerformanceMatrix, SchedulerConfig,
};
use pcs_harness::{run_sweep, Json, SweepParams};
use pcs_sim::SimConfig;
use pcs_types::{ComponentId, NodeCapacity, NodeId, ResourceVector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Report schema tag; bump when the layout changes incompatibly.
pub const SCHEMA: &str = "pcs-bench/1";

/// Knobs of one bench invocation.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// CI mode: fewer repeats, smoke-grid event-loop cells only.
    pub smoke: bool,
    /// Restrict the scenario-sweep section to these families.
    pub scenarios: Option<Vec<String>>,
    /// Measurement repeats per entry (the minimum wall-clock is kept).
    pub repeats: usize,
    /// Worker threads for the scenario sweeps.
    pub threads: usize,
    /// Free-form label recorded in the report (e.g. `PR5`).
    pub label: String,
    /// A previous bench report to compare against, already parsed.
    pub baseline: Option<Json>,
}

impl Default for BenchParams {
    fn default() -> Self {
        BenchParams {
            smoke: false,
            scenarios: None,
            repeats: 3,
            threads: SweepParams::default().threads,
            label: String::new(),
            baseline: None,
        }
    }
}

/// One event-loop bench cell: a single simulation run, timed.
struct EventLoopBench {
    name: String,
    rate: f64,
    config: SimConfig,
    technique: TechniqueRef,
    models: Arc<ClassModelSet>,
    epsilon_secs: f64,
}

/// The fig6 smoke grid exactly as the pinned `fig6 --smoke` report runs
/// it: Basic, RED-2 and PCS at 80 req/s on the 10-component topology.
fn fig6_smoke_benches() -> Vec<EventLoopBench> {
    let params = SweepParams {
        seed: 62015,
        smoke: true,
        ..SweepParams::default()
    };
    let cfg = base_grid(&params, &[10.0, 20.0, 50.0, 100.0, 200.0, 500.0]);
    grid_benches("fig6-smoke", &cfg, techniques::smoke_set(), |c| c.clone())
}

/// Heavier full-grid fig6 cells (outside `--smoke`): the paper topology
/// at 200 req/s under the four mechanism families.
fn fig6_full_benches() -> Vec<EventLoopBench> {
    let params = SweepParams {
        seed: 62015,
        ..SweepParams::default()
    };
    let cfg = base_grid(&params, &[200.0]);
    let set = vec![
        techniques::basic(),
        techniques::red(3),
        techniques::ri(90.0),
        techniques::pcs(),
    ];
    grid_benches("fig6-full", &cfg, set, |c| c.clone())
}

/// The failures smoke grid's single-kill column: Basic, LL and PCS at
/// 80 req/s on the compact 6-node cluster, replaying the same outage the
/// pinned `failures --smoke` report uses.
fn failures_smoke_benches() -> Vec<EventLoopBench> {
    let params = SweepParams {
        seed: 62019,
        smoke: true,
        ..SweepParams::default()
    };
    let cfg = base_grid(&params, &[100.0]);
    let set = vec![techniques::basic(), techniques::ll(), techniques::pcs()];
    grid_benches("failures-smoke", &cfg, set, |sim| {
        let mut sim = sim.clone();
        sim.node_count = scenarios::failures::FAIL_NODE_COUNT;
        sim.faults = scenarios::failures::fault_plan(
            "single-kill",
            pcs_harness::seed::mix(fig6::rate_seed(62019, sim.arrival_rate), 0),
            &sim,
        );
        sim
    })
}

/// Expands a grid config into one bench per (rate, technique) cell.
///
/// # Panics
/// Panics if the grid would produce two cells with the same name — the
/// `--baseline` speedup join is by name, so a multi-rate grid must put
/// the rate in the family label rather than alias silently.
fn grid_benches(
    family: &str,
    cfg: &Fig6Config,
    set: Vec<TechniqueRef>,
    adapt: impl Fn(&SimConfig) -> SimConfig,
) -> Vec<EventLoopBench> {
    let models = train_models(cfg);
    let mut out: Vec<EventLoopBench> = Vec::new();
    for &rate in &cfg.rates {
        for technique in &set {
            let sim = fig6::cell_config(cfg, rate);
            let name = format!("{family}/{}", technique.name());
            assert!(
                out.iter().all(|b| b.name != name),
                "duplicate bench name `{name}`: a multi-rate grid must encode the rate in the \
                 family label (names key the --baseline speedup join)"
            );
            out.push(EventLoopBench {
                name,
                rate,
                config: adapt(&sim),
                technique: technique.clone(),
                models: models.clone(),
                epsilon_secs: cfg.epsilon_secs,
            });
        }
    }
    out
}

/// Stages of the scheduler-cost synthetic service (deep-chain-like:
/// narrow stage maxima, so the greedy finds real migrations).
const SCHED_STAGES: usize = 8;

/// Scheduling intervals timed per scheduler-cost row.
const SCHED_INTERVALS: usize = 4;

/// Nodes per rack of the synthetic cluster (matches the `scale`
/// scenario's rack shape).
const SCHED_NODES_PER_RACK: usize = 20;

/// Group cap of the hierarchical rows (the `hier` registry default).
const SCHED_GROUP_CAP: usize = 64;

/// The synthetic cluster the scheduler-cost benches build a matrix over
/// every interval: `size` components packed on the first `size / 2`
/// nodes, the other half spare migration targets carrying only background
/// (batch) load. Between intervals a rotating handful of spare nodes'
/// background demand drifts ([`sched_drift`]), so each interval's build
/// and search see different inputs while topology and placements stay
/// fixed.
fn sched_inputs(size: usize, seed: u64) -> MatrixInputs {
    assert!(size >= 2);
    let mut rng = SmallRng::seed_from_u64(seed);
    let packed = size / 2;
    let capacity = NodeCapacity::XEON_E5645;
    let mut nodes: Vec<NodeInput> = (0..size)
        .map(|j| {
            let load: f64 = rng.gen::<f64>() * 4.0;
            NodeInput {
                id: NodeId::from_index(j),
                capacity,
                demand: ResourceVector::new(load, load * 2.0, load * 12.0, load * 6.0),
                samples: vec![],
            }
        })
        .collect();
    let components: Vec<ComponentInput> = (0..size)
        .map(|i| {
            let node = NodeId::from_index(i % packed);
            let demand = ResourceVector::new(0.8, 2.0, 6.0, 2.0);
            nodes[node.index()].demand += demand;
            ComponentInput {
                id: ComponentId::from_index(i),
                class: 0,
                stage: i % SCHED_STAGES,
                node,
                demand,
                arrival_rate: 50.0,
                scv: 1.0,
            }
        })
        .collect();
    MatrixInputs {
        nodes,
        components,
        stage_count: SCHED_STAGES,
    }
}

/// Interval `t`'s monitored drift: ~10% of the spare nodes (rotating
/// with `t`) report a new background demand.
fn sched_drift(inputs: &mut MatrixInputs, t: usize) {
    let size = inputs.nodes.len();
    let packed = size / 2;
    let spare = size - packed;
    let changed = (spare / 10).max(1);
    for c in 0..changed {
        let j = packed + (t * changed + c) % spare;
        let load = 0.5 + 0.35 * ((t + c) % 7) as f64;
        inputs.nodes[j].demand = ResourceVector::new(load, load * 2.0, load * 12.0, load * 6.0);
    }
}

/// Components grouped by the rack of their home node (the level-1 walk
/// of the two-level scheduler, racks of [`SCHED_NODES_PER_RACK`]).
fn sched_rack_groups(inputs: &MatrixInputs) -> Vec<Vec<usize>> {
    let racks = inputs.nodes.len().div_ceil(SCHED_NODES_PER_RACK);
    let mut groups = vec![Vec::new(); racks];
    for (i, c) in inputs.components.iter().enumerate() {
        groups[c.node.index() / SCHED_NODES_PER_RACK].push(i);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// One scheduler-cost row.
struct SchedRow {
    name: String,
    size: usize,
    wall_ms: f64,
    migrations: u64,
    iterations: u64,
}

impl SchedRow {
    fn to_json(&self) -> Json {
        let intervals = SCHED_INTERVALS as f64;
        Json::object(vec![
            ("bench".into(), Json::from(self.name.clone())),
            ("nodes".into(), Json::from(self.size)),
            ("components".into(), Json::from(self.size)),
            ("intervals".into(), Json::from(SCHED_INTERVALS)),
            ("wall_ms".into(), Json::Num(self.wall_ms)),
            (
                "ms_per_interval".into(),
                Json::Num(self.wall_ms / intervals),
            ),
            (
                "entries_per_interval".into(),
                Json::from(self.size * self.size),
            ),
            ("migrations".into(), Json::from(self.migrations)),
            ("greedy_iterations".into(), Json::from(self.iterations)),
        ])
    }
}

/// The per-interval cost of building the matrix and running the
/// scheduler, flat vs hierarchical, at growing cluster sizes
/// (`m = k = size`). Every interval builds the full matrix from that
/// interval's inputs, as both controllers do; the rows differ only in the
/// greedy:
///
/// * `scheduler/flat@N` — the global greedy, flat PCS's;
/// * `scheduler/hier@N` — the rack-grouped bounded greedy
///   ([`HierarchicalScheduler::run_grouped`]), `PCS-H`'s.
///
/// Both variants replay the identical drift sequence, so their
/// wall-clocks are directly comparable.
fn scheduler_benches(smoke: bool, repeats: usize) -> Vec<SchedRow> {
    let sizes: &[usize] = if smoke { &[100] } else { &[100, 400, 1000] };
    let models = fig7::synthetic_models();
    let config = SchedulerConfig {
        epsilon_secs: 0.0001,
        max_migrations: None,
        full_rebuild: false,
    };
    let matrix_config = MatrixConfig::default();
    let flat = ComponentScheduler::new(config);
    let hier = HierarchicalScheduler::new(config, SCHED_GROUP_CAP);
    let mut rows = Vec::new();
    for &size in sizes {
        let seed = 62015 + size as u64;
        for grouped in [false, true] {
            let name = format!("scheduler/{}@{size}", if grouped { "hier" } else { "flat" });
            eprintln!("bench: {name} ...");
            let mut row = SchedRow {
                name,
                size,
                wall_ms: f64::INFINITY,
                migrations: 0,
                iterations: 0,
            };
            for _ in 0..repeats {
                let mut inputs = sched_inputs(size, seed);
                let groups = sched_rack_groups(&inputs);
                let allowed = vec![true; size];
                let started = Instant::now();
                let (mut migrations, mut iterations) = (0u64, 0u64);
                for t in 0..SCHED_INTERVALS {
                    sched_drift(&mut inputs, t);
                    let mut matrix = PerformanceMatrix::build(&inputs, &models, matrix_config);
                    let outcome = if grouped {
                        hier.run_grouped(&mut matrix, &groups, &allowed, 0)
                    } else {
                        flat.run(&mut matrix)
                    };
                    migrations += outcome.decisions.len() as u64;
                    iterations += outcome.iterations as u64;
                }
                row.wall_ms = row.wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
                row.migrations = migrations;
                row.iterations = iterations;
            }
            rows.push(row);
        }
    }
    rows
}

/// The elastic-capacity section: the elastic scenario's `steady`-preset
/// diurnal cell through each evacuation capability, on identical traces.
/// Beside the usual wall-clock/events-per-sec, each row carries the
/// run's deterministic `node_hours` — the subsystem's cost metric — so
/// a bench report also witnesses the headline ordering (PCS bills the
/// fewest node-hours because its batched evacuation completes drains
/// fastest).
fn elastic_benches(smoke: bool, repeats: usize) -> Vec<Json> {
    let params = SweepParams {
        seed: 62022,
        smoke,
        ..SweepParams::default()
    };
    let cfg = base_grid(&params, &[100.0]);
    let models = train_models(&cfg);
    let set = vec![techniques::basic(), techniques::ll(), techniques::pcs()];
    let rate = cfg.rates[0];
    let mut rows = Vec::new();
    for technique in &set {
        let name = format!("elastic/{}", technique.name());
        eprintln!("bench: {name} @ ~{rate} req/s ...");
        let config = scenarios::elastic::bench_cell_config(&cfg, rate);
        let mut wall_ms = f64::INFINITY;
        let mut events = 0u64;
        let mut node_hours = 0.0;
        for _ in 0..repeats {
            let started = Instant::now();
            let report =
                fig6::run_cell_with_epsilon(&config, technique.as_ref(), &models, cfg.epsilon_secs);
            wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
            // Deterministic sim: every repeat handles the same events and
            // bills the same fleet.
            debug_assert!(events == 0 || events == report.events_processed);
            events = report.events_processed;
            node_hours = report.autoscale.node_hours();
        }
        let events_per_sec = if wall_ms > 0.0 {
            events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        rows.push(Json::object(vec![
            ("bench".into(), Json::from(name)),
            ("rate".into(), Json::Num(rate)),
            ("events".into(), Json::from(events)),
            ("wall_ms".into(), Json::Num(wall_ms)),
            ("events_per_sec".into(), Json::Num(events_per_sec)),
            ("node_hours".into(), Json::Num(node_hours)),
        ]));
    }
    rows
}

/// The imperfect-information section: each technique's clean cell and
/// its degraded-input counterpart (the `moderate` level's gray rack +
/// kill-restore outage, noisy failure detector, and — for PCS — the
/// level's prediction-noise σ), replaying exactly the scenario's cells.
/// Beside wall-clock/events-per-sec, each row carries the run's
/// deterministic `p99_ms` and `requests_lost`, so a bench report also
/// witnesses the graceful-degradation headline (noisy PCS still beats
/// the baselines on both axes at the moderate level).
fn imperfect_benches(smoke: bool, repeats: usize) -> Vec<Json> {
    let params = SweepParams {
        seed: 62024,
        smoke,
        ..SweepParams::default()
    };
    let cfg = scenarios::imperfect::bench_grid(&params);
    let models = train_models(&cfg);
    let rate = cfg.rates[0];
    let mut rows = Vec::new();
    for level in ["clean", "moderate"] {
        let (config, sigma) = scenarios::imperfect::bench_cell_config(&cfg, rate, level);
        let set = vec![
            techniques::basic(),
            techniques::ll(),
            if sigma > 0.0 {
                techniques::pcs_noisy(sigma)
            } else {
                techniques::pcs()
            },
        ];
        for technique in &set {
            let name = format!("imperfect/{level}/{}", technique.name());
            eprintln!("bench: {name} @ {rate} req/s ...");
            let mut wall_ms = f64::INFINITY;
            let mut events = 0u64;
            let mut p99_ms = 0.0;
            let mut requests_lost = 0u64;
            for _ in 0..repeats {
                let started = Instant::now();
                let report = fig6::run_cell_with_epsilon(
                    &config,
                    technique.as_ref(),
                    &models,
                    cfg.epsilon_secs,
                );
                wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
                // Deterministic sim: every repeat replays the same trace.
                debug_assert!(events == 0 || events == report.events_processed);
                events = report.events_processed;
                p99_ms = report.component_p99_ms();
                requests_lost = report.faults.stats.requests_lost;
            }
            let events_per_sec = if wall_ms > 0.0 {
                events as f64 / (wall_ms / 1e3)
            } else {
                0.0
            };
            rows.push(Json::object(vec![
                ("bench".into(), Json::from(name)),
                ("rate".into(), Json::Num(rate)),
                ("level".into(), Json::from(level)),
                ("events".into(), Json::from(events)),
                ("wall_ms".into(), Json::Num(wall_ms)),
                ("events_per_sec".into(), Json::Num(events_per_sec)),
                ("p99_ms".into(), Json::Num(p99_ms)),
                ("requests_lost".into(), Json::from(requests_lost)),
            ]));
        }
    }
    rows
}

/// The observability section: the pinned fig6 smoke PCS cell with the
/// observe layer off and on. Both rows replay the identical trace (the
/// layer consumes no randomness and schedules no events — the event
/// counts must match), so the wall-clock difference is exactly the
/// bookkeeping cost of timelines + attribution + series + audits, and
/// `overhead_vs_off` quantifies it.
fn observe_benches(repeats: usize) -> Vec<Json> {
    let params = SweepParams {
        seed: 62015,
        smoke: true,
        ..SweepParams::default()
    };
    let cfg = base_grid(&params, &[10.0, 20.0, 50.0, 100.0, 200.0, 500.0]);
    let models = train_models(&cfg);
    let technique = techniques::pcs();
    let rate = cfg.rates[0];
    let mut rows = Vec::new();
    let mut off_wall = None;
    let mut off_events = 0u64;
    for (name, top_k) in [("observe/off", None), ("observe/on", Some(5usize))] {
        eprintln!("bench: {name} @ {rate} req/s ...");
        let mut config = fig6::cell_config(&cfg, rate);
        config.observe = top_k.map(|top_k| pcs_sim::ObserveConfig { top_k });
        let mut wall_ms = f64::INFINITY;
        let mut events = 0u64;
        for _ in 0..repeats {
            let started = Instant::now();
            let report =
                fig6::run_cell_with_epsilon(&config, technique.as_ref(), &models, cfg.epsilon_secs);
            wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
            debug_assert!(events == 0 || events == report.events_processed);
            events = report.events_processed;
        }
        match top_k {
            None => {
                off_wall = Some(wall_ms);
                off_events = events;
            }
            Some(_) => debug_assert_eq!(
                events, off_events,
                "the observe layer must schedule no events"
            ),
        }
        let events_per_sec = if wall_ms > 0.0 {
            events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        rows.push(Json::object(vec![
            ("bench".into(), Json::from(name)),
            ("rate".into(), Json::Num(rate)),
            ("top_k".into(), top_k.map(Json::from).unwrap_or(Json::Null)),
            ("events".into(), Json::from(events)),
            ("wall_ms".into(), Json::Num(wall_ms)),
            ("events_per_sec".into(), Json::Num(events_per_sec)),
            (
                "overhead_vs_off".into(),
                match (top_k, off_wall) {
                    // on/off: > 1 means the layer cost wall-clock.
                    (Some(_), Some(off)) => ratio(wall_ms, off),
                    _ => Json::Null,
                },
            ),
        ]));
    }
    rows
}

/// Runs the bench suite and assembles the report.
///
/// Progress goes to stderr; the returned JSON is the report to write.
pub fn run(params: &BenchParams) -> Result<Json, String> {
    let repeats = params.repeats.max(1);

    // Resolve the scenario selection up front so a typo fails before any
    // measurement work happens.
    let registry = scenarios::registry();
    let selected: Vec<&dyn pcs_harness::Scenario> = match &params.scenarios {
        Some(names) => {
            let mut picked = Vec::new();
            for name in names {
                let scenario = registry
                    .iter()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| format!("unknown scenario `{name}` in --scenarios"))?;
                picked.push(scenario.as_ref());
            }
            picked
        }
        None => registry.iter().map(|s| s.as_ref()).collect(),
    };

    // ---- event-loop benches ------------------------------------------
    let mut benches = fig6_smoke_benches();
    benches.extend(failures_smoke_benches());
    if !params.smoke {
        benches.extend(fig6_full_benches());
    }
    let mut event_loop = Vec::new();
    for bench in &benches {
        eprintln!("bench: {} @ {} req/s ...", bench.name, bench.rate);
        let mut wall_ms = f64::INFINITY;
        let mut events = 0u64;
        for _ in 0..repeats {
            let started = Instant::now();
            let report = fig6::run_cell_with_epsilon(
                &bench.config,
                bench.technique.as_ref(),
                &bench.models,
                bench.epsilon_secs,
            );
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            wall_ms = wall_ms.min(elapsed);
            // Deterministic sim: every repeat handles the same events.
            debug_assert!(events == 0 || events == report.events_processed);
            events = report.events_processed;
        }
        let events_per_sec = if wall_ms > 0.0 {
            events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        event_loop.push(Json::object(vec![
            ("bench".into(), Json::from(bench.name.clone())),
            ("rate".into(), Json::Num(bench.rate)),
            ("events".into(), Json::from(events)),
            ("wall_ms".into(), Json::Num(wall_ms)),
            ("events_per_sec".into(), Json::Num(events_per_sec)),
        ]));
    }

    // ---- scheduler-cost benches --------------------------------------
    let scheduler_rows: Vec<Json> = scheduler_benches(params.smoke, repeats)
        .iter()
        .map(SchedRow::to_json)
        .collect();

    // ---- elastic-capacity benches ------------------------------------
    let elastic_rows = elastic_benches(params.smoke, repeats);

    // ---- imperfect-information benches -------------------------------
    let imperfect_rows = imperfect_benches(params.smoke, repeats);

    // ---- observability benches ---------------------------------------
    let observe_rows = observe_benches(repeats);

    // ---- scenario sweeps ---------------------------------------------
    let mut scenario_rows = Vec::new();
    for scenario in selected {
        eprintln!("bench: scenario {} --smoke ...", scenario.name());
        let sweep_params = SweepParams {
            seed: scenario.default_seed(),
            threads: params.threads,
            smoke: true,
            ..SweepParams::default()
        };
        // Plan once (shared setup like model training is amortised across
        // cells in real runs, so it stays outside the timed region).
        let plan = scenario.plan(&sweep_params);
        let cells = plan.cells.len();
        let mut wall_ms = f64::INFINITY;
        for _ in 0..repeats {
            let started = Instant::now();
            let outcome = run_sweep(&plan, &sweep_params);
            wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(outcome);
        }
        scenario_rows.push(Json::object(vec![
            ("scenario".into(), Json::from(scenario.name())),
            ("cells".into(), Json::from(cells)),
            ("wall_ms".into(), Json::Num(wall_ms)),
            (
                "ms_per_cell".into(),
                Json::Num(if cells > 0 {
                    wall_ms / cells as f64
                } else {
                    0.0
                }),
            ),
        ]));
    }

    // ---- report ------------------------------------------------------
    let mut report = vec![
        ("schema".into(), Json::from(SCHEMA)),
        ("label".into(), Json::from(params.label.clone())),
        ("smoke".into(), Json::Bool(params.smoke)),
        ("repeats".into(), Json::from(repeats)),
        ("threads".into(), Json::from(params.threads)),
        // Wall-clock is only comparable between hosts of the same width:
        // every perf claim quotes it with this CPU count.
        (
            "host_cpus".into(),
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        ),
        ("event_loop".into(), Json::Array(event_loop)),
        ("scheduler".into(), Json::Array(scheduler_rows)),
        ("elastic".into(), Json::Array(elastic_rows)),
        ("imperfect".into(), Json::Array(imperfect_rows)),
        ("observe".into(), Json::Array(observe_rows)),
        ("scenarios".into(), Json::Array(scenario_rows)),
    ];
    if let Some(baseline) = &params.baseline {
        report.push(("speedup".into(), speedup_section(&report, baseline)?));
        report.push((
            "baseline".into(),
            Json::object(vec![
                (
                    "label".into(),
                    baseline.get("label").cloned().unwrap_or(Json::Null),
                ),
                (
                    "event_loop".into(),
                    baseline.get("event_loop").cloned().unwrap_or(Json::Null),
                ),
                (
                    "scenarios".into(),
                    baseline.get("scenarios").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    Ok(Json::object(report))
}

/// Joins current and baseline entries by name and emits per-entry
/// speedups plus the two headline aggregates (fig6 smoke grid, failures
/// scenario).
fn speedup_section(current: &[(String, Json)], baseline: &Json) -> Result<Json, String> {
    if baseline.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!(
            "--baseline report has an unknown schema (want {SCHEMA})"
        ));
    }
    let section = |key: &str| -> &[Json] {
        current
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_array())
            .unwrap_or(&[])
    };
    let wall_of = |rows: &[Json], key: &str, name: &str| -> Option<f64> {
        rows.iter()
            .find(|row| row.get(key).and_then(Json::as_str) == Some(name))
            .and_then(|row| row.get("wall_ms"))
            .and_then(Json::as_f64)
    };
    let base_events: &[Json] = baseline
        .get("event_loop")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let base_scenarios: &[Json] = baseline
        .get("scenarios")
        .and_then(Json::as_array)
        .unwrap_or(&[]);

    let mut rows = Vec::new();
    let mut fig6_smoke = RatioAccum::default();
    for row in section("event_loop") {
        let Some(name) = row.get("bench").and_then(Json::as_str) else {
            continue;
        };
        let Some(now) = row.get("wall_ms").and_then(Json::as_f64) else {
            continue;
        };
        let Some(base) = wall_of(base_events, "bench", name) else {
            continue;
        };
        if name.starts_with("fig6-smoke/") {
            fig6_smoke.add(base, now);
        }
        rows.push(Json::object(vec![
            ("bench".into(), Json::from(name)),
            ("baseline_wall_ms".into(), Json::Num(base)),
            ("wall_ms".into(), Json::Num(now)),
            ("speedup".into(), ratio(base, now)),
        ]));
    }
    let mut scenario_rows = Vec::new();
    let mut failures = RatioAccum::default();
    for row in section("scenarios") {
        let Some(name) = row.get("scenario").and_then(Json::as_str) else {
            continue;
        };
        let Some(now) = row.get("wall_ms").and_then(Json::as_f64) else {
            continue;
        };
        let Some(base) = wall_of(base_scenarios, "scenario", name) else {
            continue;
        };
        if name == "failures" {
            failures.add(base, now);
        }
        scenario_rows.push(Json::object(vec![
            ("scenario".into(), Json::from(name)),
            ("baseline_wall_ms".into(), Json::Num(base)),
            ("wall_ms".into(), Json::Num(now)),
            ("speedup".into(), ratio(base, now)),
        ]));
    }
    Ok(Json::object(vec![
        ("fig6_smoke_grid".into(), fig6_smoke.speedup()),
        ("failures_scenario".into(), failures.speedup()),
        ("event_loop".into(), Json::Array(rows)),
        ("scenarios".into(), Json::Array(scenario_rows)),
    ]))
}

/// Sums baseline and current wall-clock for one aggregate speedup.
#[derive(Default)]
struct RatioAccum {
    base: f64,
    now: f64,
}

impl RatioAccum {
    fn add(&mut self, base: f64, now: f64) {
        self.base += base;
        self.now += now;
    }
    fn speedup(&self) -> Json {
        ratio(self.base, self.now)
    }
}

fn ratio(base: f64, now: f64) -> Json {
    if now > 0.0 && base > 0.0 {
        Json::Num(base / now)
    } else {
        Json::Null
    }
}

/// Validates a bench report: parses, checks the schema, and requires the
/// scenario section to cover every registered scenario family with
/// numeric wall-clock (the CI gate behind `pcs bench --check`).
pub fn check_report(text: &str) -> Result<(), String> {
    let report = Json::parse(text).map_err(|e| format!("report does not parse: {e}"))?;
    if report.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    let scenario_rows = report
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("report has no scenarios array")?;
    for scenario in scenarios::registry() {
        let row = scenario_rows
            .iter()
            .find(|row| row.get("scenario").and_then(Json::as_str) == Some(scenario.name()))
            .ok_or_else(|| format!("scenario family `{}` missing from report", scenario.name()))?;
        let wall = row.get("wall_ms").and_then(Json::as_f64);
        if !wall.is_some_and(|w| w.is_finite() && w >= 0.0) {
            return Err(format!(
                "scenario `{}` has no finite wall_ms",
                scenario.name()
            ));
        }
    }
    let event_rows = report
        .get("event_loop")
        .and_then(Json::as_array)
        .ok_or("report has no event_loop array")?;
    if event_rows.is_empty() {
        return Err("event_loop section is empty".into());
    }
    for row in event_rows {
        let rate = row.get("events_per_sec").and_then(Json::as_f64);
        if !rate.is_some_and(|r| r.is_finite() && r > 0.0) {
            return Err(format!(
                "event-loop bench `{}` has no positive events_per_sec",
                row.get("bench")
                    .and_then(Json::as_str)
                    .unwrap_or("<unnamed>")
            ));
        }
    }
    // The elastic section must witness the autoscaler actually billing a
    // fleet: every row needs a positive, finite node-hours figure.
    let elastic_rows = report
        .get("elastic")
        .and_then(Json::as_array)
        .ok_or("report has no elastic array")?;
    if elastic_rows.is_empty() {
        return Err("elastic section is empty".into());
    }
    for row in elastic_rows {
        let hours = row.get("node_hours").and_then(Json::as_f64);
        if !hours.is_some_and(|h| h.is_finite() && h > 0.0) {
            return Err(format!(
                "elastic bench `{}` has no positive node_hours",
                row.get("bench")
                    .and_then(Json::as_str)
                    .unwrap_or("<unnamed>")
            ));
        }
    }
    // The imperfect section must witness both sides of the degradation
    // comparison: every technique's clean cell and its degraded-input
    // counterpart, each a real timed run.
    let imperfect_rows = report
        .get("imperfect")
        .and_then(Json::as_array)
        .ok_or("report has no imperfect array")?;
    for level in ["clean", "moderate"] {
        let row = imperfect_rows
            .iter()
            .find(|row| row.get("level").and_then(Json::as_str) == Some(level))
            .ok_or_else(|| format!("imperfect section has no `{level}`-level row"))?;
        let wall = row.get("wall_ms").and_then(Json::as_f64);
        if !wall.is_some_and(|w| w.is_finite() && w > 0.0) {
            return Err(format!(
                "imperfect bench `{}` has no positive wall_ms",
                row.get("bench")
                    .and_then(Json::as_str)
                    .unwrap_or("<unnamed>")
            ));
        }
    }

    // The observe section must witness both sides of the zero-cost
    // claim: an instrumentation-off row (the regression sentinel against
    // the previous PR's baseline) and an instrumentation-on row.
    let observe_rows = report
        .get("observe")
        .and_then(Json::as_array)
        .ok_or("report has no observe array")?;
    for name in ["observe/off", "observe/on"] {
        let row = observe_rows
            .iter()
            .find(|row| row.get("bench").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("observe section has no `{name}` row"))?;
        let wall = row.get("wall_ms").and_then(Json::as_f64);
        if !wall.is_some_and(|w| w.is_finite() && w > 0.0) {
            return Err(format!("observe bench `{name}` has no positive wall_ms"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> BenchParams {
        BenchParams {
            smoke: true,
            scenarios: Some(vec!["ablation-rebuild".into()]),
            repeats: 1,
            threads: 1,
            label: "test".into(),
            baseline: None,
        }
    }

    #[test]
    fn bench_report_covers_requested_sections_and_checks_fail_without_full_coverage() {
        let report = run(&tiny_params()).expect("bench runs");
        assert_eq!(report.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let events = report.get("event_loop").and_then(Json::as_array).unwrap();
        // fig6 smoke grid (3 techniques) + failures smoke grid (3).
        assert_eq!(events.len(), 6);
        for row in events {
            assert!(
                row.get("events").and_then(Json::as_f64).unwrap() > 0.0,
                "every bench cell must process events"
            );
        }
        // Elastic section: one row per evacuation capability, each
        // billing a real fleet.
        let elastic = report.get("elastic").and_then(Json::as_array).unwrap();
        assert_eq!(elastic.len(), 3);
        for row in elastic {
            assert!(row.get("events").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("node_hours").and_then(Json::as_f64).unwrap() > 0.0);
        }
        // Imperfect section: per technique, a clean cell and its
        // degraded-input counterpart — the gray rack, the outage and the
        // noisy detector only make the moderate rows lose requests.
        let imperfect = report.get("imperfect").and_then(Json::as_array).unwrap();
        assert_eq!(imperfect.len(), 6);
        let level_of = |row: &Json| row.get("level").and_then(Json::as_str).unwrap().to_string();
        assert!(imperfect[..3].iter().all(|r| level_of(r) == "clean"));
        assert!(imperfect[3..].iter().all(|r| level_of(r) == "moderate"));
        for row in imperfect {
            assert!(row.get("events").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("p99_ms").and_then(Json::as_f64).unwrap() > 0.0);
        }
        let lost_of = |row: &Json| row.get("requests_lost").and_then(Json::as_f64).unwrap();
        assert!(imperfect[..3].iter().all(|r| lost_of(r) == 0.0));
        assert!(
            imperfect[3..].iter().any(|r| lost_of(r) > 0.0),
            "the moderate outage must cost some technique requests"
        );
        // Observe section: the same pinned cell off and on, identical
        // event counts (the layer schedules nothing), overhead ratio on
        // the on-row only.
        let observe = report.get("observe").and_then(Json::as_array).unwrap();
        assert_eq!(observe.len(), 2);
        let name_of = |row: &Json| row.get("bench").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(name_of(&observe[0]), "observe/off");
        assert_eq!(name_of(&observe[1]), "observe/on");
        let events_of = |row: &Json| row.get("events").and_then(Json::as_f64).unwrap();
        assert!(events_of(&observe[0]) > 0.0);
        assert_eq!(events_of(&observe[0]), events_of(&observe[1]));
        assert!(observe[0]
            .get("overhead_vs_off")
            .unwrap()
            .as_f64()
            .is_none());
        assert!(observe[1]
            .get("overhead_vs_off")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
        // One scenario only → --check must reject the partial report.
        let rendered = report.render();
        let err = check_report(&rendered).unwrap_err();
        assert!(err.contains("missing from report"), "{err}");
    }

    #[test]
    fn speedup_joins_by_name() {
        let mk = |wall: f64| {
            Json::object(vec![
                ("schema".into(), Json::from(SCHEMA)),
                ("label".into(), Json::from("x")),
                (
                    "event_loop".into(),
                    Json::Array(vec![Json::object(vec![
                        ("bench".into(), Json::from("fig6-smoke/Basic")),
                        ("wall_ms".into(), Json::Num(wall)),
                    ])]),
                ),
                (
                    "scenarios".into(),
                    Json::Array(vec![Json::object(vec![
                        ("scenario".into(), Json::from("failures")),
                        ("wall_ms".into(), Json::Num(wall)),
                    ])]),
                ),
            ])
        };
        let current = mk(10.0);
        let current_pairs = match &current {
            Json::Object(pairs) => pairs.clone(),
            _ => unreachable!(),
        };
        let section = speedup_section(&current_pairs, &mk(30.0)).expect("joins");
        let fig6 = section.get("fig6_smoke_grid").and_then(Json::as_f64);
        assert!((fig6.unwrap() - 3.0).abs() < 1e-12);
        let failures = section.get("failures_scenario").and_then(Json::as_f64);
        assert!((failures.unwrap() - 3.0).abs() < 1e-12);
    }

    /// Committed trajectories carry sections the harness no longer emits
    /// (`parallel`); they must still load as `--baseline` reports.
    #[test]
    fn committed_trajectories_still_load_as_baselines() {
        let load = |name: &str| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
            let text = std::fs::read_to_string(&path).expect("committed bench report");
            Json::parse(&text).expect("committed bench report parses")
        };
        let Json::Object(current) = load("BENCH_PR10.json") else {
            panic!("bench report is not an object");
        };
        for name in ["BENCH_PR7.json", "BENCH_PR10.json"] {
            let baseline = load(name);
            assert!(baseline.get("parallel").is_some(), "{name}");
            let section = speedup_section(&current, &baseline).expect(name);
            for key in ["event_loop", "scenarios"] {
                let rows = section.get(key).and_then(Json::as_array).unwrap();
                assert!(!rows.is_empty(), "{name}: no joined {key} rows");
            }
        }
    }

    #[test]
    fn check_rejects_garbage() {
        assert!(check_report("not json").is_err());
        assert!(check_report("{\"schema\":\"other\"}").is_err());
    }

    /// Both scheduler rows at a size time the same drift sequence, and
    /// both greedies find real migrations on it.
    #[test]
    fn scheduler_rows_replay_the_drift_and_find_migrations() {
        let rows = scheduler_benches(true, 1);
        assert_eq!(rows.len(), 2);
        let flat = &rows[0];
        let hier = &rows[1];
        assert_eq!(flat.name, "scheduler/flat@100");
        assert_eq!(hier.name, "scheduler/hier@100");
        assert!(flat.migrations > 0 && hier.migrations > 0);
        assert!(flat.iterations > 0 && hier.iterations > 0);
    }
}

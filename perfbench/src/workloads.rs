//! The benchmark's four workloads, built from the simulator's public
//! constructors. Where a scenario builds its cells in code private to the
//! `pcs` crate, the parameters are restated here; each function below
//! names the scenario whose cells it replays.
//!
//! Every simulated client is open-loop: arrivals follow the configured
//! process in simulated time regardless of how fast the cluster serves.

use pcs::experiments::fig6::{self, Fig6Config};
use pcs::techniques::{self, TechniqueRef};
use pcs_harness::seed;
use pcs_sim::{AutoscaleConfig, FailureDetector, FaultPlan, SimConfig};
use pcs_types::{SimDuration, SimTime};
use pcs_workloads::{ArrivalPattern, ServiceTopology};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-fig6", "scale-1000", "elastic", "imperfect"];

/// The role a cell's technique plays in a workload; per-technique layer
/// metrics are keyed by role so every workload reports the same names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A PCS-family technique (`PCS`, `PCS-H<cap>`, `PCS-N<σ>`).
    Pcs,
    /// `Basic`: no redundancy, no migrations.
    Basic,
    /// `LL`: least-loaded reactive migration.
    Ll,
    /// `RED-k` request redundancy.
    Red,
    /// `RI-p` request reissue.
    Ri,
}

impl Role {
    /// Every role, in metric-name order.
    pub const ALL: [Role; 5] = [Role::Pcs, Role::Basic, Role::Ll, Role::Red, Role::Ri];

    /// The metric-name suffix.
    pub fn key(self) -> &'static str {
        match self {
            Role::Pcs => "pcs",
            Role::Basic => "basic",
            Role::Ll => "ll",
            Role::Red => "red",
            Role::Ri => "ri",
        }
    }

    fn of(technique: &str) -> Role {
        match technique {
            "Basic" => Role::Basic,
            "LL" => Role::Ll,
            t if t.starts_with("RED-") => Role::Red,
            t if t.starts_with("RI-") => Role::Ri,
            t if t.starts_with("PCS") => Role::Pcs,
            t => panic!("no benchmark role for technique {t}"),
        }
    }
}

/// One simulation run: a technique on a fully resolved config (the
/// technique's replication and placement already applied).
pub struct Cell {
    /// `<technique> <shape> seed <trace seed>`, unique within the
    /// workload.
    pub label: String,
    /// The compared technique.
    pub technique: TechniqueRef,
    /// The technique's role in the workload.
    pub role: Role,
    /// The seed of the trace the cell belongs to.
    pub trace_seed: u64,
    /// The simulation config.
    pub config: SimConfig,
}

/// A workload: one profiling campaign, then its cells back to back.
pub struct Workload {
    /// The workload's name.
    pub name: &'static str,
    /// The seed the workload was built at.
    pub seed: u64,
    /// The fixed traces the simulated metrics come from (see [`panel`]).
    pub panel: Vec<u64>,
    /// Seed of the profiling campaign: the scenario's own, whatever the
    /// workload's seed, so the panel's cells never depend on it.
    pub train_seed: u64,
    /// Topology of the profiling campaign that trains the PCS models.
    pub train_topology: ServiceTopology,
    /// PCS migration threshold ε, in seconds.
    pub epsilon_secs: f64,
    /// The cells, in run order: every panel trace's, then the seed
    /// trace's when the seed is not on the panel.
    pub cells: Vec<Cell>,
}

impl Workload {
    /// Whether `cell` belongs to a panel trace.
    pub fn on_panel(&self, cell: &Cell) -> bool {
        self.panel.contains(&cell.trace_seed)
    }
}

/// Per workload: the scenario's own seed and how many traces the panel
/// holds. The panels are as small as the simulated tails allow: the PCS
/// tails of `paper-fig6` and `scale-1000` move by under a tenth from seed
/// to seed, those of `elastic` and `imperfect` by more than half.
const SEEDS: [(&str, u64, u64); 4] = [
    ("paper-fig6", 62015, 1),
    ("scale-1000", 62020, 1),
    ("elastic", 62022, 5),
    ("imperfect", 62024, 3),
];

/// The scenario's own seed, which a run uses unless `--seed` says
/// otherwise.
pub fn default_seed(name: &str) -> Option<u64> {
    panel(name).map(|p| p[0])
}

/// The panel: the trace seeds whose cells give the simulated metrics,
/// the scenario's own seed and the ones after it. It is fixed, so the
/// simulated metrics do not move with the seed a run is given, and a
/// change that reshuffles trajectories moves them by its effect on
/// several traces, not on one draw.
pub fn panel(name: &str) -> Option<Vec<u64>> {
    let (_, first, len) = SEEDS.into_iter().find(|(n, _, _)| *n == name)?;
    Some((first..first + len).collect())
}

/// Builds the named workload at `seed`: every cell on each panel trace
/// and on the `seed` trace. `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let panel = panel(name)?;
    let mut traces = panel.clone();
    if !traces.contains(&seed) {
        traces.push(seed);
    }
    let mut cells = Vec::new();
    for trace in traces {
        let grid = Fig6Config {
            seed: trace,
            ..Fig6Config::default()
        };
        let trace_cells = match name {
            "paper-fig6" => paper_fig6(&grid),
            "scale-1000" => scale_1000(trace),
            "elastic" => elastic(&grid),
            "imperfect" => imperfect(&grid),
            _ => return None,
        };
        cells.extend(trace_cells.into_iter().map(|mut cell| {
            cell.label = format!("{} seed {trace}", cell.label);
            cell.trace_seed = trace;
            cell
        }));
    }
    let grid = Fig6Config::default();
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name)?,
        seed,
        train_seed: panel[0],
        panel,
        train_topology: fig6::topology(grid.search_vm_budget),
        epsilon_secs: grid.epsilon_secs,
        cells,
    })
}

/// A cell of `technique` on `config`, labelled `<technique> <label>`;
/// its trace is the config's seed until [`build`] names the workload's.
pub fn cell(label: &str, technique: TechniqueRef, mut config: SimConfig) -> Cell {
    config.deployment.replication = technique.replication();
    if let Some(placement) = technique.placement() {
        config.placement = placement;
    }
    let name = technique.name();
    Cell {
        label: format!("{name} {label}"),
        role: Role::of(&name),
        trace_seed: config.seed,
        technique,
        config,
    }
}

/// `fig6` at 200 req/s: Basic, RED-3, RI-90 and PCS on the paper's Nutch
/// topology, steady Poisson arrivals.
fn paper_fig6(grid: &Fig6Config) -> Vec<Cell> {
    let rate = 200.0;
    [
        techniques::basic(),
        techniques::red(3),
        techniques::ri(90.0),
        techniques::pcs(),
    ]
    .into_iter()
    .map(|t| cell("@200", t, fig6::cell_config(grid, rate)))
    .collect()
}

/// The diurnal and MMPP shapes of the `scale`, `elastic` and `diurnal`
/// scenarios.
fn diurnal() -> ArrivalPattern {
    ArrivalPattern::Diurnal {
        amplitude: 0.7,
        period: SimDuration::from_secs(20),
    }
}

fn mmpp() -> ArrivalPattern {
    ArrivalPattern::Mmpp {
        low: 0.25,
        high: 1.75,
        mean_dwell: SimDuration::from_secs(4),
    }
}

/// `scale` at 1000 nodes in 50 racks, 25 req/s, `pcs-h64`: the deep-chain
/// service under diurnal traffic and the wide-fanout one under MMPP, each
/// on the trace seed the scenario derives for that (size, service,
/// traffic, rate) coordinate.
fn scale_1000(base_seed: u64) -> Vec<Cell> {
    const SIZE: usize = 1000;
    const RATE: f64 = 25.0;
    let shapes = [
        (
            0,
            0,
            "deep-chain diurnal",
            ServiceTopology::deep_chain(8, SIZE / 8),
            diurnal(),
        ),
        (
            1,
            1,
            "wide-fanout mmpp",
            ServiceTopology::wide_fanout(SIZE * 9 / 10, SIZE / 20),
            mmpp(),
        ),
    ];
    shapes
        .into_iter()
        .map(|(service_idx, traffic_idx, label, topology, pattern)| {
            let trace_seed = seed::mix_f64(
                seed::mix(
                    seed::mix(seed::mix(base_seed, SIZE as u64), service_idx),
                    traffic_idx,
                ),
                RATE,
            );
            let mut config = SimConfig::paper_like(topology, RATE, trace_seed);
            config.node_count = SIZE;
            config.rack_count = SIZE / 20;
            config.horizon = SimDuration::from_secs(30);
            config.warmup = SimDuration::from_secs(5);
            config.arrival_pattern = pattern;
            cell(label, techniques::pcs_hier(64), config)
        })
        .collect()
}

/// `elastic`, `steady` preset, diurnal traffic at 100 req/s on 12 nodes:
/// Basic, LL and PCS.
fn elastic(grid: &Fig6Config) -> Vec<Cell> {
    const NODES: usize = 12;
    let mut config = fig6::cell_config(grid, 100.0);
    config.node_count = NODES;
    config.arrival_pattern = diurnal();
    config.autoscale = Some(AutoscaleConfig {
        target_utilization: 0.55,
        step: 1,
        cooldown: SimDuration::from_secs(4),
        cold_start: SimDuration::from_millis(2000),
        min_nodes: 4,
        max_nodes: NODES,
        slo_p99_ms: 60.0,
    });
    [techniques::basic(), techniques::ll(), techniques::pcs()]
        .into_iter()
        .map(|t| cell("steady diurnal", t, config.clone()))
        .collect()
}

/// `imperfect`, `moderate` level at 100 req/s on the failures family's
/// 6-node cluster with the scenario's doubled horizon: a gray rack of two
/// nodes, a kill-restore outage, and a detector with 10% latency, 1%
/// false positives and 5% false negatives. Basic, LL and PCS-N0.3.
///
/// The gray rack slows its nodes 1.5×, not the level's 5×: at 5× the
/// PCS-N0.3 tail runs away to seconds on most traces and stays near 15 ms
/// on a few, so no small panel gives it a steady median.
fn imperfect(grid: &Fig6Config) -> Vec<Cell> {
    const NODES: usize = 6;
    const VICTIM_POOL: usize = 4;
    const MODERATE_LEVEL_INDEX: u64 = 2;
    const GRAY_FACTOR: f64 = 1.5;
    let rate = 100.0;
    let grid = Fig6Config {
        horizon_scale: 2.0,
        ..grid.clone()
    };
    let mut config = fig6::cell_config(&grid, rate);
    config.node_count = NODES;
    let measured = config.horizon - config.warmup;
    let start = SimTime::ZERO + config.warmup;
    let plan_seed = seed::mix(fig6::rate_seed(grid.seed, rate), MODERATE_LEVEL_INDEX);
    let gray = FaultPlan::gray_rack(
        NODES,
        2,
        plan_seed,
        start + measured.mul_f64(0.10),
        config.scheduler_interval.mul_f64(0.2),
        measured.mul_f64(0.40),
        GRAY_FACTOR,
    );
    let outage = FaultPlan::kill_restore(
        VICTIM_POOL,
        plan_seed,
        start + measured.mul_f64(0.25),
        measured.mul_f64(0.35),
    );
    config.faults = FaultPlan::new(
        gray.events()
            .iter()
            .chain(outage.events())
            .cloned()
            .collect(),
    );
    config.detector = Some(FailureDetector {
        detection_latency: measured.mul_f64(0.10),
        false_positive_rate: 0.01,
        false_negative_rate: 0.05,
    });
    [
        techniques::basic(),
        techniques::ll(),
        techniques::pcs_noisy(0.3),
    ]
    .into_iter()
    .map(|t| cell("moderate", t, config.clone()))
    .collect()
}

//! The scenario abstraction: name + parameter grid + cell → report.
//!
//! A scenario describes *what* to run — the cells of one evaluation grid
//! and how to reduce their results — while [`crate::runner`] owns *how*
//! they execute. A [`Scenario`] is one row of the facade crate's registry:
//! its name, default seed, the overrides it reads and its plan builder.
//! Registering one makes it reachable through the single `pcs` CLI with
//! parallel execution, plain-text tables and a JSON report for free; a new
//! experiment is a ~50-line registration instead of a new binary.

use crate::json::Json;
use std::error::Error;

/// Sweep-level knobs every scenario receives from the CLI (or a test).
///
/// `None` means "use the scenario's default grid". Each scenario lists
/// the [`Override`]s its plan reads ([`Scenario::overrides`]) and the CLI
/// rejects the rest. The CLI checks only syntax and repeated list entries
/// (plus the ranges of the grid-level `rates`, `repeats` and `threads`);
/// each other value's range is checked once, by the code that consumes
/// it, named on its field here.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Base seed; per-cell seeds are derived via [`crate::seed::mix`].
    pub seed: u64,
    /// Worker threads for the sweep (cells are independent runs).
    pub threads: usize,
    /// Tiny-budget mode for CI smoke runs: scenarios shrink horizons,
    /// sampling budgets and grids so a full run finishes in seconds.
    pub smoke: bool,
    /// Override of the scenario's arrival-rate grid ([`Override::Rates`]).
    pub rates: Option<Vec<f64>>,
    /// Override of the repeat count ([`Override::Repeats`]: fig7 timing).
    pub repeats: Option<usize>,
    /// Override of the scenario's technique set
    /// ([`Override::Techniques`]): technique names the facade's registry
    /// can parse (the CLI parses them before the plan is built).
    pub techniques: Option<Vec<String>>,
    /// Override of the hierarchical scheduler's per-group component cap
    /// ([`Override::GroupCap`]: the `scale` scenario). The plan checks it
    /// against the PCS-H family's range (`techniques::try_pcs_hier`).
    pub group_cap: Option<usize>,
    /// Override of a scenario's cluster-size grid ([`Override::Sizes`]:
    /// the `scale` scenario's node counts). The plan checks each size
    /// against `scale::MIN_NODES..=scale::MAX_NODES`.
    pub sizes: Option<Vec<usize>>,
    /// Override of the autoscaler's target utilisation
    /// ([`Override::TargetUtil`]: the `elastic` scenario's aggressiveness
    /// presets). The plan checks it with `AutoscaleConfig::validate`.
    pub target_util: Option<f64>,
    /// Override of the autoscaler's cooldown between scale actions, in
    /// seconds ([`Override::Cooldown`]: the `elastic` scenario). The plan
    /// checks it with `AutoscaleConfig::validate`.
    pub cooldown_secs: Option<f64>,
    /// Observability layer ([`Override::Observe`]): when set, every
    /// simulated cell runs with the simulator's `observe` config enabled,
    /// retaining this many slowest request timelines and adding an
    /// `observe` section to the cell metrics. The CLI checks the count
    /// with `ObserveConfig::validate`.
    pub observe: Option<usize>,
    /// Override of the failure detector's detection latency, in seconds
    /// ([`Override::DetectorLatency`]: the `imperfect` scenario's level
    /// presets). The plan rejects negative and non-finite values.
    pub detector_latency_secs: Option<f64>,
    /// Override of the failure detector's false-positive rate
    /// ([`Override::FpRate`]: the `imperfect` scenario). The plan checks
    /// it with `FailureDetector::validate`.
    pub fp_rate: Option<f64>,
    /// Override of the failure detector's false-negative rate
    /// ([`Override::FnRate`]: the `imperfect` scenario). The plan checks
    /// it with `FailureDetector::validate`.
    pub fn_rate: Option<f64>,
    /// Override of the prediction-noise sigma applied to the PCS cells
    /// ([`Override::Noise`]: the `imperfect` scenario). The plan checks
    /// it against the PCS-N family's range (`techniques::try_pcs_noisy`).
    pub noise: Option<f64>,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            seed: 0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            smoke: false,
            rates: None,
            repeats: None,
            techniques: None,
            group_cap: None,
            sizes: None,
            target_util: None,
            cooldown_secs: None,
            observe: None,
            detector_latency_secs: None,
            fp_rate: None,
            fn_rate: None,
            noise: None,
        }
    }
}

/// A `pcs run` override: one optional [`SweepParams`] field a scenario's
/// plan may read. A report records every override it was run with, so
/// the CLI rejects one the scenario does not list in
/// [`Scenario::overrides`]: an override recorded but ignored would
/// misstate what was run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Override {
    /// `--rates`: [`SweepParams::rates`].
    Rates,
    /// `--repeats`: [`SweepParams::repeats`].
    Repeats,
    /// `--techniques`: [`SweepParams::techniques`].
    Techniques,
    /// `--sizes`: [`SweepParams::sizes`].
    Sizes,
    /// `--group-cap`: [`SweepParams::group_cap`].
    GroupCap,
    /// `--target-util`: [`SweepParams::target_util`].
    TargetUtil,
    /// `--cooldown`: [`SweepParams::cooldown_secs`].
    Cooldown,
    /// `--detector-latency`: [`SweepParams::detector_latency_secs`].
    DetectorLatency,
    /// `--fp-rate`: [`SweepParams::fp_rate`].
    FpRate,
    /// `--fn-rate`: [`SweepParams::fn_rate`].
    FnRate,
    /// `--noise`: [`SweepParams::noise`].
    Noise,
    /// `--observe`: [`SweepParams::observe`].
    Observe,
}

impl Override {
    /// Every override, in `pcs --help` order.
    pub const ALL: [Override; 12] = [
        Override::Techniques,
        Override::Rates,
        Override::Repeats,
        Override::Sizes,
        Override::GroupCap,
        Override::TargetUtil,
        Override::Cooldown,
        Override::DetectorLatency,
        Override::FpRate,
        Override::FnRate,
        Override::Noise,
        Override::Observe,
    ];

    /// The `pcs run` flag that sets it.
    pub fn flag(self) -> &'static str {
        match self {
            Override::Rates => "--rates",
            Override::Repeats => "--repeats",
            Override::Techniques => "--techniques",
            Override::Sizes => "--sizes",
            Override::GroupCap => "--group-cap",
            Override::TargetUtil => "--target-util",
            Override::Cooldown => "--cooldown",
            Override::DetectorLatency => "--detector-latency",
            Override::FpRate => "--fp-rate",
            Override::FnRate => "--fn-rate",
            Override::Noise => "--noise",
            Override::Observe => "--observe",
        }
    }

    /// Whether `params` sets it.
    pub fn is_set(self, params: &SweepParams) -> bool {
        match self {
            Override::Rates => params.rates.is_some(),
            Override::Repeats => params.repeats.is_some(),
            Override::Techniques => params.techniques.is_some(),
            Override::Sizes => params.sizes.is_some(),
            Override::GroupCap => params.group_cap.is_some(),
            Override::TargetUtil => params.target_util.is_some(),
            Override::Cooldown => params.cooldown_secs.is_some(),
            Override::DetectorLatency => params.detector_latency_secs.is_some(),
            Override::FpRate => params.fp_rate.is_some(),
            Override::FnRate => params.fn_rate.is_some(),
            Override::Noise => params.noise.is_some(),
            Override::Observe => params.observe.is_some(),
        }
    }
}

/// The measured output of one cell: ordered metric name/value pairs.
///
/// Every cell of a sweep must report the same metric names in the same
/// order (the table renderer and the JSON report both rely on it).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Ordered metrics (name → value).
    pub metrics: Vec<(String, Json)>,
}

/// One plannable cell: a label, its grid coordinates, and the closure
/// that runs it.
pub struct CellPlan {
    /// Human-readable cell label (e.g. `PCS @ 200 req/s`).
    pub label: String,
    /// Ordered grid coordinates (name → value), machine-readable.
    pub params: Vec<(String, Json)>,
    /// Runs the cell with the runner-derived seed
    /// (`seed::mix(base_seed, cell_index)`). Scenarios that must replay
    /// one trace across a comparison group derive their own shared seed
    /// from a group key instead and document why.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(u64) -> CellResult + Send + Sync>,
}

/// A planned sweep: cells plus an optional cross-cell reduction.
pub struct SweepPlan {
    /// The cells, in deterministic grid order.
    pub cells: Vec<CellPlan>,
    /// Reduces all finished cells into summary metrics (e.g. the paper's
    /// headline reductions). Runs after every cell has finished.
    #[allow(clippy::type_complexity)]
    pub summarize: Option<Box<dyn Fn(&[CellOutcome]) -> Vec<(String, Json)> + Send + Sync>>,
    /// Free-text notes printed after the table (paper reference values).
    pub notes: Vec<String>,
}

/// One finished cell: its plan coordinates plus the measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The plan's label.
    pub label: String,
    /// The plan's grid coordinates.
    pub params: Vec<(String, Json)>,
    /// The measured metrics.
    pub metrics: Vec<(String, Json)>,
}

impl CellOutcome {
    /// Looks up a grid coordinate or metric by name (params first).
    pub fn value(&self, name: &str) -> Option<&Json> {
        self.params
            .iter()
            .chain(self.metrics.iter())
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Numeric lookup convenience.
    pub fn value_f64(&self, name: &str) -> Option<f64> {
        self.value(name).and_then(Json::as_f64)
    }
}

/// An experiment reachable through the `pcs` CLI: one registry row.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry name (`pcs run --scenario <name>`).
    pub name: &'static str,
    /// One-line description for `pcs list`.
    pub description: &'static str,
    /// The base seed used when the CLI is not given `--seed`.
    pub default_seed: u64,
    /// The overrides the plan reads; the CLI rejects any other. Scenarios
    /// whose metrics are wall-clock timings (fig7, the rebuild ablation)
    /// leave out [`Override::Observe`]: the layer is zero-cost in
    /// simulated time but not in real time, so observe-on runs would
    /// perturb exactly what those scenarios measure.
    pub overrides: &'static [Override],
    /// The plan builder behind [`Scenario::plan`].
    pub build: fn(&SweepParams) -> Result<SweepPlan, Box<dyn Error>>,
}

impl Scenario {
    /// Builds the sweep plan for the given parameters. Expensive shared
    /// setup (e.g. training the PCS models) happens here, once, and is
    /// captured by the cell closures.
    ///
    /// # Errors
    /// An override value the scenario cannot run with, found before any
    /// expensive setup starts.
    pub fn plan(&self, params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
        (self.build)(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_lookup_prefers_params() {
        let cell = CellOutcome {
            label: "x".into(),
            params: vec![("rate".into(), Json::Num(50.0))],
            metrics: vec![("p99 ms".into(), Json::Num(1.25))],
        };
        assert_eq!(cell.value_f64("rate"), Some(50.0));
        assert_eq!(cell.value_f64("p99 ms"), Some(1.25));
        assert_eq!(cell.value_f64("missing"), None);
    }
}

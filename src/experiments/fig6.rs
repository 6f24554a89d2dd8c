//! Figure 6: service performance of six techniques at six arrival rates,
//! and the paper's headline reduction numbers.
//!
//! Paper §VI-C: the Nutch service runs on 30 nodes under batch churn
//! (inputs 1 MB–10 GB); arrival rates of 10, 20, 50, 100, 200 and 500
//! req/s are tested against Basic, RED-3, RED-5, RI-90, RI-99 and PCS.
//! Metrics: 99th-percentile component latency and mean overall service
//! latency. The paper's headline: PCS cuts the former by 67.05 % and the
//! latter by 64.16 % on average versus the redundancy/reissue techniques.
//!
//! The technique axis is open: any [`crate::techniques::TechniqueSpec`]
//! from the registry can occupy a grid column (`pcs run --scenario fig6
//! --techniques basic,ll,pcs`), not just the paper's six.

use crate::controller::PcsController;
use crate::techniques::{TechniqueEnv, TechniqueRef, TechniqueSpec};
use pcs_core::ClassModelSet;
use pcs_sim::{DeploymentConfig, RunReport, SimConfig, Simulation};
use pcs_types::NodeCapacity;
use pcs_workloads::ServiceTopology;

/// Runs one cell of the Figure 6 grid: one technique at one configuration.
/// The config's deployment replication is overridden to the technique's
/// requirement; the config's topology should come from [`topology`]
/// (or be a replication-1 topology for Basic/PCS).
pub fn run_cell(
    config: &SimConfig,
    technique: &dyn TechniqueSpec,
    models: &ClassModelSet,
) -> RunReport {
    run_cell_with_epsilon(
        config,
        technique,
        models,
        Fig6Config::default().epsilon_secs,
    )
}

/// [`run_cell`] with an explicit PCS migration threshold.
pub fn run_cell_with_epsilon(
    config: &SimConfig,
    technique: &dyn TechniqueSpec,
    models: &ClassModelSet,
    epsilon_secs: f64,
) -> RunReport {
    let mut config = config.clone();
    config.deployment = DeploymentConfig {
        replication: technique.replication(),
    };
    if let Some(placement) = technique.placement() {
        config.placement = placement;
    }
    let env = TechniqueEnv {
        models,
        epsilon_secs,
    };
    let mut report =
        Simulation::new(config, technique.make_policy(), technique.make_hook(&env)).run();
    report.technique = technique.name();
    report
}

/// Full-sweep configuration.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Arrival rates to test (paper: 10, 20, 50, 100, 200, 500).
    pub rates: Vec<f64>,
    /// Techniques to compare (any registry specs; paper set by default).
    pub techniques: Vec<TechniqueRef>,
    /// Searching-VM budget shared by every technique (the paper deploys
    /// all techniques on the same pool of searching VMs; replica groups
    /// overlap on the pool).
    pub search_vm_budget: usize,
    /// PCS migration threshold ε, in seconds. The paper sets ε to balance
    /// the latency gain against the migration cost (5 ms against their
    /// 3-second Storm redeployments). Our stateless-worker migrations are
    /// nearly free and latencies are time-compressed to single-digit
    /// milliseconds, so ε mainly guards against noise-driven churn.
    pub epsilon_secs: f64,
    /// Base seed (each cell derives its own).
    pub seed: u64,
    /// Worker threads for the sweep (cells are independent runs).
    pub threads: usize,
    /// Scale factor on the default 60 s horizon (1.0 = default).
    pub horizon_scale: f64,
    /// Observability layer: retain this many slowest request timelines
    /// per cell and attach tail attribution, time-series and scheduler
    /// audits to each report. `None` (the default) leaves every report
    /// byte-identical to the historical pins.
    pub observe: Option<usize>,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            rates: vec![10.0, 20.0, 50.0, 100.0, 200.0, 500.0],
            techniques: crate::techniques::paper_set(),
            search_vm_budget: 100,
            epsilon_secs: 0.000_001,
            seed: 62015,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            horizon_scale: 1.0,
            observe: None,
        }
    }
}

/// The Nutch topology every technique gets: all techniques share the same
/// pool of stateless searching workers (replica groups overlap on that
/// pool), so the topology is technique- and replication-invariant.
pub fn topology(search_vm_budget: usize) -> ServiceTopology {
    ServiceTopology::nutch(search_vm_budget)
}

/// The simulation seed for a sweep cell at a given arrival rate.
///
/// Every technique at a rate gets the **same** seed, so techniques are
/// compared on an identical trace (batch churn, request arrivals, service
/// noise). The seed is a SplitMix64 mix of the base seed and the rate's
/// bit pattern: the previous `base + ((rate as u64) << 8)` scheme
/// truncated fractional rates (50.2 and 50.9 silently shared a seed) and
/// barely decorrelated neighbouring rates.
pub fn rate_seed(base_seed: u64, rate: f64) -> u64 {
    pcs_harness::seed::mix_f64(base_seed, rate)
}

/// Builds the simulation config for one sweep cell (shared by the sweep
/// runner and the scenario registrations so both derive identical cells).
pub fn cell_config(config: &Fig6Config, rate: f64) -> SimConfig {
    let mut sim_config = SimConfig::paper_like(
        topology(config.search_vm_budget),
        rate,
        rate_seed(config.seed, rate),
    );
    sim_config.horizon = sim_config.horizon.mul_f64(config.horizon_scale);
    sim_config.warmup = sim_config.warmup.mul_f64(config.horizon_scale);
    sim_config.observe = config.observe.map(|top_k| pcs_sim::ObserveConfig { top_k });
    sim_config
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// The technique.
    pub technique: TechniqueRef,
    /// Arrival rate (req/s).
    pub rate: f64,
    /// The run's full report.
    pub report: RunReport,
}

/// Runs the whole sweep through the shared deterministic parallel runner:
/// cells execute work-stealing on `config.threads` workers, results come
/// back in grid order (rates outer, techniques inner) regardless of the
/// thread count.
pub fn run_sweep(config: &Fig6Config) -> Vec<Fig6Cell> {
    // PCS runs at replication 1, so its models are trained against the
    // scale-1 topology's classes.
    let topology = topology(config.search_vm_budget);
    let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, config.seed)
        .expect("profiling campaign trains");

    let mut jobs: Vec<(TechniqueRef, f64)> = Vec::new();
    for &rate in &config.rates {
        for t in &config.techniques {
            jobs.push((t.clone(), rate));
        }
    }

    pcs_harness::run_indexed(jobs.len(), config.threads, |i| {
        let (technique, rate) = (&jobs[i].0, jobs[i].1);
        let sim_config = cell_config(config, rate);
        let report = run_cell_with_epsilon(
            &sim_config,
            technique.as_ref(),
            &models,
            config.epsilon_secs,
        );
        Fig6Cell {
            technique: technique.clone(),
            rate,
            report,
        }
    })
}

/// The paper's headline metric: PCS's mean reduction versus the four
/// redundancy/reissue techniques, across all rates.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Mean reduction of 99th-percentile component latency (fraction,
    /// paper: 0.6705).
    pub tail_reduction: f64,
    /// Mean reduction of mean overall service latency (fraction, paper:
    /// 0.6416).
    pub overall_reduction: f64,
}

/// Computes the headline reductions from a finished sweep.
///
/// For every (rate, non-PCS redundancy/reissue technique) pair with a PCS
/// cell at the same rate, the reduction `1 − pcs/other` is averaged.
pub fn headline(cells: &[Fig6Cell]) -> Headline {
    let mut tail = Vec::new();
    let mut overall = Vec::new();
    for cell in cells {
        if !crate::techniques::is_redundancy_or_reissue(&cell.technique.name()) {
            continue;
        }
        let Some(pcs) = cells
            .iter()
            .find(|c| c.technique.name() == "PCS" && c.rate == cell.rate)
        else {
            continue;
        };
        let other_tail = cell.report.component_latency.p99;
        let other_overall = cell.report.overall_latency.mean;
        if other_tail > 0.0 {
            tail.push(1.0 - pcs.report.component_latency.p99 / other_tail);
        }
        if other_overall > 0.0 {
            overall.push(1.0 - pcs.report.overall_latency.mean / other_overall);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Headline {
        tail_reduction: mean(&tail),
        overall_reduction: mean(&overall),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::techniques;

    #[test]
    fn technique_metadata() {
        assert_eq!(techniques::red(3).name(), "RED-3");
        assert_eq!(techniques::ri(90.0).name(), "RI-90");
        assert_eq!(techniques::pcs().replication(), 1);
        assert_eq!(techniques::red(5).replication(), 5);
        assert_eq!(techniques::ri(99.0).replication(), 2);
        assert_eq!(techniques::paper_set().len(), 6);
        assert_eq!(Fig6Config::default().techniques.len(), 6);
    }

    #[test]
    fn rate_seeds_share_traces_but_split_fractional_rates() {
        // The comparison property: one seed per rate, shared by every
        // technique (callers key the sim config on the rate alone)…
        assert_eq!(rate_seed(62015, 50.0), rate_seed(62015, 50.0));
        // …while fractional rates that the old `(rate as u64) << 8`
        // scheme collapsed now get distinct seeds.
        assert_ne!(rate_seed(62015, 50.2), rate_seed(62015, 50.9));
        assert_ne!(rate_seed(62015, 50.0), rate_seed(62016, 50.0));
    }

    #[test]
    fn headline_math() {
        use pcs_monitor::LatencySummary;
        use pcs_sim::TechniqueStats;
        use pcs_types::SimTime;
        let mk = |technique: TechniqueRef, p99: f64, mean: f64| Fig6Cell {
            report: RunReport {
                technique: technique.name(),
                arrival_rate: 100.0,
                measured_from: SimTime::ZERO,
                ended_at: SimTime::from_secs(60),
                component_latency: LatencySummary {
                    count: 1,
                    mean: 0.0,
                    p50: 0.0,
                    p95: 0.0,
                    p99,
                    max: p99,
                },
                overall_latency: LatencySummary {
                    count: 1,
                    mean,
                    p50: mean,
                    p95: mean,
                    p99: mean,
                    max: mean,
                },
                stats: TechniqueStats::default(),
                faults: Default::default(),
                autoscale: Default::default(),
                events_processed: 0,
                scheduler_cost: None,
                observe: None,
            },
            technique,
            rate: 100.0,
        };
        // PCS p99 = 10ms vs RED-3 p99 = 40ms → 75% reduction.
        let cells = vec![
            mk(techniques::pcs(), 0.010, 0.020),
            mk(techniques::red(3), 0.040, 0.080),
        ];
        let h = headline(&cells);
        assert!((h.tail_reduction - 0.75).abs() < 1e-12);
        assert!((h.overall_reduction - 0.75).abs() < 1e-12);
        // LL/Oracle are not redundancy/reissue: excluded from the
        // headline mean, like Basic.
        let cells = vec![
            mk(techniques::pcs(), 0.010, 0.020),
            mk(techniques::ll(), 0.040, 0.080),
            mk(techniques::oracle(), 0.008, 0.016),
        ];
        let h = headline(&cells);
        assert_eq!(h.tail_reduction, 0.0);
        assert_eq!(h.overall_reduction, 0.0);
    }
}

//! Figure 6: service performance of six techniques at six arrival rates —
//! the per-cell building blocks every technique-comparison scenario runs.
//!
//! Paper §VI-C: the Nutch service runs on 30 nodes under batch churn
//! (inputs 1 MB–10 GB); arrival rates of 10, 20, 50, 100, 200 and 500
//! req/s are tested against Basic, RED-3, RED-5, RI-90, RI-99 and PCS.
//! Metrics: 99th-percentile component latency and mean overall service
//! latency. The paper's headline: PCS cuts the former by 67.05 % and the
//! latter by 64.16 % on average versus the redundancy/reissue techniques;
//! the `fig6` and `headline` scenarios ([`crate::scenarios::figures`])
//! sweep the grid and compute that mean in their summary.
//!
//! The technique axis is open: any [`crate::techniques::Technique`] the
//! registry parses can occupy a grid column (`pcs run --scenario fig6
//! --techniques basic,ll,pcs`), not just the paper's six.

use crate::techniques::{Technique, TechniqueEnv};
use pcs_core::ClassModelSet;
use pcs_sim::{DeploymentConfig, RunReport, SimConfig, Simulation};
use pcs_workloads::ServiceTopology;

/// Runs one cell of the Figure 6 grid: one technique at one configuration,
/// with PCS migration threshold `epsilon_secs` (the grid default is
/// [`Fig6Config::default`]'s). The config's deployment replication is
/// overridden to the technique's requirement; the config's topology
/// should come from [`topology`] (or be a replication-1 topology for
/// Basic/PCS).
pub fn run_cell(
    config: &SimConfig,
    technique: &Technique,
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

/// The grid configuration the simulation-backed scenarios share: which
/// rates to sweep and how every cell's simulation is sized and seeded.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Arrival rates to test (paper: 10, 20, 50, 100, 200, 500).
    pub rates: Vec<f64>,
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
            search_vm_budget: 100,
            epsilon_secs: 0.000_001,
            seed: 62015,
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

/// Builds the simulation config for one sweep cell at `rate`: the paper's
/// setting on [`topology`], seeded by [`rate_seed`] and sized by the
/// grid's horizon scale and observe budget.
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
}

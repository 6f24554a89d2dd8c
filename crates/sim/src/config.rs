//! Simulation configuration.

use crate::autoscale::AutoscaleConfig;
use crate::faults::{FailoverPolicy, FailureDetector, FaultPlan};
use crate::observe::ObserveConfig;
use pcs_monitor::SamplerConfig;
use pcs_types::{NodeCapacity, SimDuration};
use pcs_workloads::{ArrivalPattern, JobGenConfig, ServiceTopology};

/// How physical components are assigned to nodes before the run starts.
///
/// The scheduler hook *improves* the initial placement at run time; this
/// knob selects the provisioning baseline it starts from (paper §III: PCS
/// complements initial provisioning, it does not replace it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Round-robin with replica anti-affinity
    /// ([`crate::placement::anti_affine`]) — capacity-blind, the paper's
    /// homogeneous-testbed default.
    #[default]
    AntiAffine,
    /// Capacity-proportional anti-affine placement
    /// ([`crate::placement::capacity_aware`]): stronger nodes host
    /// proportionally more components. Identical to round-robin intent on
    /// a homogeneous cluster; on a heterogeneous one it stops the weak
    /// nodes from receiving an equal share.
    CapacityAware,
    /// Rack-striped anti-affine placement
    /// ([`crate::placement::rack_aware`]): consecutive components cycle
    /// across racks (so every rack hosts a share of every stage) and
    /// replicas additionally prefer distinct racks — the provisioning
    /// baseline of the two-level hierarchical scheduler. With
    /// [`SimConfig::rack_count`] = 1 it degrades to [`Self::AntiAffine`]
    /// semantics.
    RackAware,
}

/// How the service's logical partitions map onto physical components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentConfig {
    /// Physical instances per partition. Basic/PCS use 1; the reissue
    /// baselines need 2 (a primary and a backup); RED-k needs k.
    pub replication: usize,
}

impl DeploymentConfig {
    /// Single-instance deployment (Basic / PCS).
    pub const SINGLE: DeploymentConfig = DeploymentConfig { replication: 1 };
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// How long new requests keep arriving.
    pub horizon: SimDuration,
    /// Measurement warm-up: latencies recorded before this are discarded.
    pub warmup: SimDuration,
    /// Extra time after the horizon to let in-flight requests drain before
    /// the run is cut off (remaining requests are reported as censored).
    pub drain_grace: SimDuration,
    /// Number of physical nodes.
    pub node_count: usize,
    /// Number of racks the nodes are divided into (two-level cluster
    /// topology). Nodes are assigned to racks in balanced contiguous
    /// blocks ([`SimConfig::rack_of`]); 1 — the default everywhere —
    /// keeps the flat single-rack cluster of the paper's testbed.
    pub rack_count: usize,
    /// Per-node hardware capacity (homogeneous, like the paper's testbed).
    pub node_capacity: NodeCapacity,
    /// Per-node capacities for heterogeneous clusters. When set, its
    /// length must equal [`SimConfig::node_count`] and it overrides
    /// [`SimConfig::node_capacity`]; `None` keeps the homogeneous
    /// testbed.
    pub node_capacities: Option<Vec<NodeCapacity>>,
    /// Initial component-to-node placement strategy.
    pub placement: PlacementStrategy,
    /// The service topology (stages, classes, partition counts).
    pub topology: ServiceTopology,
    /// Replication factor of the deployment.
    pub deployment: DeploymentConfig,
    /// Base request arrival rate (req/s).
    pub arrival_rate: f64,
    /// Shape of the arrival process around the base rate. [`Simulation`]
    /// builds the concrete [`pcs_workloads::ArrivalProcess`] from this
    /// (or takes an arbitrary boxed process via
    /// [`Simulation::with_arrivals`]).
    ///
    /// [`Simulation`]: crate::world::Simulation
    /// [`Simulation::with_arrivals`]: crate::world::Simulation::with_arrivals
    pub arrival_pattern: ArrivalPattern,
    /// Batch-job churn per node; `None` disables batch jobs.
    pub jobgen: Option<JobGenConfig>,
    /// Monitor sampling cadences and noise.
    pub sampler: SamplerConfig,
    /// Scheduling interval (how often the scheduler hook runs).
    pub scheduler_interval: SimDuration,
    /// How long a component migration takes to complete.
    pub migration_latency: SimDuration,
    /// One-way delay of application-level cancellation messages between
    /// replicas — the in-flight race window of the paper's §VI-C
    /// discussion. The paper's cancellation rides Storm/ZooKeeper
    /// messaging, which is milliseconds, not wire latency; that is why the
    /// paper observes replicas "still execute replicas of the same request
    /// unnecessarily".
    pub cancel_delay: SimDuration,
    /// Sliding window of the arrival-rate estimator.
    pub rate_window: SimDuration,
    /// Capacity of each component's observed-service-time window.
    pub service_window: usize,
    /// Scheduled node kills/restores. The empty plan (the default) leaves
    /// the run bit-for-bit identical to a fault-free build.
    pub faults: FaultPlan,
    /// What happens to a killed node's disrupted sub-requests.
    pub failover: FailoverPolicy,
    /// Noisy failure detection between ground-truth liveness and the
    /// [`NodeStatus`](crate::faults::NodeStatus) view scheduler hooks
    /// receive ([`crate::faults::FailureDetector`]). `None` — the default
    /// everywhere — keeps today's exact-liveness bytes; a configured
    /// detector distorts only hook perception (its own seeded RNG lane),
    /// never the world's dispatch or migration legality. Mutually
    /// exclusive with autoscaling (the autoscaler already owns the
    /// warming/draining status channel).
    pub detector: Option<FailureDetector>,
    /// Elastic capacity: the autoscaler's knobs ([`crate::autoscale`]).
    /// `None` — the default everywhere — disables the subsystem and
    /// leaves the run bit-for-bit identical to a build without it.
    /// Mutually exclusive with a non-empty fault plan: kill/restore and
    /// join/drain are separate membership experiments.
    pub autoscale: Option<AutoscaleConfig>,
    /// Tail-attribution observability ([`crate::observe`]). `None` — the
    /// default everywhere — disables the layer and leaves the run
    /// byte-identical to a build without it. When set, the run gains
    /// request timelines, tail attribution, windowed time-series and a
    /// scheduler decision audit in
    /// [`RunReport::observe`](crate::RunReport::observe); the simulated
    /// trajectory is unchanged (the layer consumes no randomness and
    /// schedules no events).
    pub observe: Option<ObserveConfig>,
}

impl SimConfig {
    /// A configuration mirroring the paper's §VI-C evaluation setting,
    /// time-compressed (÷10) so a run finishes in seconds of wall-clock:
    /// 30 nodes, Nutch topology, batch churn of all six workloads with
    /// durations compressed to seconds, monitor cadences of 1 s / 5 s
    /// (paper: 1 s / 60 s), a 2 s scheduling interval with 0.25 s
    /// migrations (paper: 600 s interval, ≤3 s migrations). All ratios —
    /// migration ≪ interval, several job arrivals per interval, several
    /// samples per interval — are preserved.
    pub fn paper_like(topology: ServiceTopology, arrival_rate: f64, seed: u64) -> Self {
        let mut sampler = SamplerConfig::PAPER;
        sampler.microarch_period = SimDuration::from_secs(5);
        SimConfig {
            seed,
            horizon: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            drain_grace: SimDuration::from_secs(5),
            node_count: 30,
            rack_count: 1,
            node_capacity: NodeCapacity::XEON_E5645,
            node_capacities: None,
            placement: PlacementStrategy::AntiAffine,
            topology,
            deployment: DeploymentConfig::SINGLE,
            arrival_rate,
            arrival_pattern: ArrivalPattern::Steady,
            jobgen: Some(JobGenConfig::paper_mix_compressed(5.0, 0.1)),
            sampler,
            scheduler_interval: SimDuration::from_secs(2),
            migration_latency: SimDuration::from_millis(250),
            cancel_delay: SimDuration::from_millis(3),
            rate_window: SimDuration::from_secs(5),
            service_window: 256,
            faults: FaultPlan::none(),
            failover: FailoverPolicy::default(),
            detector: None,
            autoscale: None,
            observe: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent settings (zero nodes, zero replication,
    /// replication exceeding the node count, non-positive arrival rate…).
    pub fn validate(&self) {
        assert!(self.node_count > 0, "need at least one node");
        assert!(self.rack_count > 0, "need at least one rack");
        assert!(
            self.rack_count <= self.node_count,
            "rack count ({}) cannot exceed the node count ({})",
            self.rack_count,
            self.node_count
        );
        assert!(self.deployment.replication > 0, "replication must be >= 1");
        assert!(
            self.deployment.replication <= self.node_count,
            "replicas of a partition must fit on distinct nodes ({} > {})",
            self.deployment.replication,
            self.node_count
        );
        assert!(
            self.deployment.replication <= 8,
            "replica groups are limited to 8 instances"
        );
        assert!(
            self.arrival_rate.is_finite() && self.arrival_rate > 0.0,
            "arrival rate must be positive"
        );
        if let Some(caps) = &self.node_capacities {
            assert_eq!(
                caps.len(),
                self.node_count,
                "node_capacities must list exactly one capacity per node"
            );
        }
        match self.arrival_pattern {
            ArrivalPattern::Steady => {}
            ArrivalPattern::Diurnal { amplitude, period } => {
                assert!(
                    (0.0..1.0).contains(&amplitude),
                    "diurnal amplitude must be in [0,1)"
                );
                assert!(!period.is_zero(), "diurnal period must be non-zero");
            }
            ArrivalPattern::Mmpp {
                low,
                high,
                mean_dwell,
            } => {
                assert!(
                    low > 0.0 && low <= high && high.is_finite(),
                    "MMPP multipliers must satisfy 0 < low <= high"
                );
                assert!(!mean_dwell.is_zero(), "MMPP mean dwell must be non-zero");
            }
        }
        // The event queue packs stage/partition into narrow fields (u8 /
        // u16) to keep heap entries small; bound the topology to match.
        assert!(
            self.topology.stage_count() <= u8::MAX as usize,
            "topologies are limited to 255 stages"
        );
        assert!(
            self.topology
                .stages()
                .iter()
                .all(|s| s.count <= u16::MAX as usize),
            "stages are limited to 65535 partitions"
        );
        assert!(!self.horizon.is_zero(), "horizon must be non-zero");
        assert!(
            self.warmup < self.horizon,
            "warm-up must end before the horizon"
        );
        assert!(
            !self.scheduler_interval.is_zero(),
            "scheduler interval must be non-zero"
        );
        assert!(self.service_window > 0, "service window needs capacity");
        self.faults.validate(self.node_count);
        if let Some(det) = &self.detector {
            det.validate();
            assert!(
                self.autoscale.is_none(),
                "a failure detector and autoscaling are mutually exclusive: \
                 the autoscaler already owns the warming/draining status channel"
            );
        }
        if let Some(ac) = &self.autoscale {
            ac.validate(self.node_count);
            assert!(
                self.faults.is_empty(),
                "autoscaling and fault plans are mutually exclusive membership \
                 experiments; configure one or the other"
            );
            assert!(
                self.deployment.replication <= ac.max_nodes,
                "replicas of a partition must fit on distinct nodes of the \
                 initial elastic fleet ({} > {})",
                self.deployment.replication,
                ac.max_nodes
            );
        }
        if let Some(obs) = &self.observe {
            obs.validate();
        }
        let initially_alive = self
            .faults
            .initial_alive(self.node_count)
            .iter()
            .filter(|&&a| a)
            .count();
        assert!(
            initially_alive >= self.deployment.replication,
            "a fault plan may not kill so many nodes at t=0 that replicas \
             cannot be placed on distinct live nodes ({initially_alive} alive, \
             replication {})",
            self.deployment.replication
        );
    }

    /// Total number of physical components in the deployment (the pool is
    /// replication-invariant: replica groups overlap on the same workers).
    pub fn component_count(&self) -> usize {
        self.topology.component_count()
    }

    /// Rack index of a node: balanced contiguous blocks
    /// (`node · racks / nodes`), so rack sizes differ by at most one and
    /// the mapping is a pure function of the config — no allocation, no
    /// state.
    pub fn rack_of(&self, node: usize) -> usize {
        debug_assert!(node < self.node_count);
        node * self.rack_count / self.node_count
    }

    /// The dense node→rack assignment vector.
    pub fn rack_assignments(&self) -> Vec<usize> {
        (0..self.node_count).map(|n| self.rack_of(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_workloads::ServiceTopology;

    #[test]
    fn paper_like_validates() {
        let cfg = SimConfig::paper_like(ServiceTopology::nutch(24), 100.0, 1);
        cfg.validate();
        assert_eq!(cfg.component_count(), 26);
    }

    #[test]
    fn replication_does_not_grow_the_pool() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(10), 100.0, 1);
        cfg.deployment = DeploymentConfig { replication: 3 };
        cfg.validate();
        assert_eq!(cfg.component_count(), 12);
    }

    #[test]
    fn heterogeneous_and_diurnal_config_validate() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(8), 100.0, 1);
        cfg.node_count = 4;
        cfg.node_capacities = Some(vec![
            NodeCapacity::XEON_E5645,
            NodeCapacity::XEON_E5645,
            NodeCapacity::new(6.0, 100.0, 60.0),
            NodeCapacity::new(6.0, 100.0, 60.0),
        ]);
        cfg.arrival_pattern = ArrivalPattern::Diurnal {
            amplitude: 0.5,
            period: SimDuration::from_secs(40),
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "one capacity per node")]
    fn mismatched_capacity_list_rejected() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.node_capacities = Some(vec![NodeCapacity::XEON_E5645; 3]);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn out_of_range_amplitude_rejected() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.arrival_pattern = ArrivalPattern::Diurnal {
            amplitude: 1.5,
            period: SimDuration::from_secs(40),
        };
        cfg.validate();
    }

    #[test]
    fn rack_assignment_is_balanced_contiguous_blocks() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(8), 100.0, 1);
        cfg.node_count = 10;
        cfg.rack_count = 3;
        cfg.validate();
        assert_eq!(cfg.rack_assignments(), vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        // Rack sizes differ by at most one for any (nodes, racks) split.
        for nodes in 1..40 {
            for racks in 1..=nodes {
                cfg.node_count = nodes;
                cfg.rack_count = racks;
                let mut sizes = vec![0usize; racks];
                for n in 0..nodes {
                    sizes[cfg.rack_of(n)] += 1;
                }
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "{nodes} nodes / {racks} racks: {sizes:?}");
                assert!(sizes.iter().all(|&s| s > 0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_racks_rejected() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.rack_count = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "cannot exceed the node count")]
    fn more_racks_than_nodes_rejected() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.node_count = 4;
        cfg.rack_count = 5;
        cfg.validate();
    }

    #[test]
    fn fault_plan_validates_with_the_config() {
        use crate::faults::{FailoverPolicy, FaultPlan};
        use pcs_types::SimTime;
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.node_count = 6;
        cfg.faults =
            FaultPlan::kill_restore(6, 9, SimTime::from_secs(20), SimDuration::from_secs(5));
        cfg.failover = FailoverPolicy::Drop;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "names node")]
    fn fault_plan_outside_cluster_rejected() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        use pcs_types::{NodeId, SimTime};
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.node_count = 4;
        cfg.faults = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: NodeId::new(9),
            kind: FaultKind::Kill,
        }]);
        cfg.validate();
    }

    fn elastic(cfg: &mut SimConfig) {
        cfg.autoscale = Some(crate::autoscale::AutoscaleConfig {
            target_utilization: 0.6,
            step: 1,
            cooldown: SimDuration::from_secs(4),
            cold_start: SimDuration::from_secs(2),
            min_nodes: 3,
            max_nodes: cfg.node_count,
            slo_p99_ms: 50.0,
        });
    }

    #[test]
    fn elastic_config_validates() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(8), 100.0, 1);
        cfg.node_count = 12;
        elastic(&mut cfg);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn elastic_with_faults_rejected() {
        use crate::faults::FaultPlan;
        use pcs_types::SimTime;
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(8), 100.0, 1);
        cfg.node_count = 12;
        elastic(&mut cfg);
        cfg.faults =
            FaultPlan::kill_restore(12, 9, SimTime::from_secs(20), SimDuration::from_secs(5));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "initial elastic fleet")]
    fn elastic_fleet_must_fit_replicas() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(8), 100.0, 1);
        cfg.node_count = 12;
        elastic(&mut cfg);
        if let Some(ac) = &mut cfg.autoscale {
            ac.min_nodes = 2;
            ac.max_nodes = 2;
        }
        cfg.deployment = DeploymentConfig { replication: 3 };
        cfg.validate();
    }

    #[test]
    fn detector_config_validates_with_and_without_faults() {
        use crate::faults::FailureDetector;
        use pcs_types::SimTime;
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.node_count = 6;
        cfg.detector = Some(FailureDetector {
            detection_latency: SimDuration::from_secs(2),
            false_positive_rate: 0.05,
            false_negative_rate: 0.05,
        });
        // A detector without faults is legal: pure false positives.
        cfg.validate();
        cfg.faults =
            FaultPlan::kill_restore(6, 9, SimTime::from_secs(20), SimDuration::from_secs(5));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "false-negative rate must be in [0, 1]")]
    fn detector_bad_rate_rejected() {
        use crate::faults::FailureDetector;
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.detector = Some(FailureDetector {
            detection_latency: SimDuration::ZERO,
            false_positive_rate: 0.0,
            false_negative_rate: -0.1,
        });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "detector and autoscaling are mutually exclusive")]
    fn detector_with_autoscale_rejected() {
        use crate::faults::FailureDetector;
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(8), 100.0, 1);
        cfg.node_count = 12;
        elastic(&mut cfg);
        cfg.detector = Some(FailureDetector::perfect());
        cfg.validate();
    }

    #[test]
    fn observe_config_validates() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.observe = Some(crate::observe::ObserveConfig { top_k: 10 });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "top-k must be at least 1")]
    fn zero_observe_top_k_rejected() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.observe = Some(crate::observe::ObserveConfig { top_k: 0 });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn replication_beyond_nodes_rejected() {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), 100.0, 1);
        cfg.node_count = 2;
        cfg.deployment = DeploymentConfig { replication: 3 };
        cfg.validate();
    }
}

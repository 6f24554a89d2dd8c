//! The PCS controller: the paper's full framework assembled.
//!
//! [`PcsController`] implements the simulator's
//! [`SchedulerHook`]: at every scheduling interval
//! it converts the monitors' observations into
//! [`MatrixInputs`], builds the performance matrix,
//! runs the greedy Algorithm 1, and returns the accepted migrations. It
//! never reads the simulator's ground truth — only sampled contention,
//! estimated arrival rates, and observed service-time variability, exactly
//! like the real system would.

use pcs_core::{
    ClassModelSet, ComponentInput, ComponentScheduler, HierarchicalScheduler, MatrixInputs,
    MigrationDecision, NodeInput, PerformanceMatrix, SchedulerConfig,
};
use pcs_monitor::SamplerConfig;
use pcs_queueing::distributions::{LogNormal, ServiceDistribution};
use pcs_sim::profiler::profile_class;
use pcs_sim::{
    AuditDecision, IntervalAudit, MigrationRequest, SchedulerContext, SchedulerCost, SchedulerHook,
};
use pcs_types::{ContentionVector, NodeCapacity, NodeId, PcsError, ResourceVector};
use pcs_workloads::{BatchWorkload, JobSpec, ServiceTopology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The contention attributed to a dead node when building matrix inputs:
/// far beyond any trained operating point, so every prediction there
/// saturates at the model's worst case. Components stranded on a dead
/// node look maximally slow (evacuating them has maximal gain) and dead
/// destinations look maximally unattractive — liveness-awareness falls
/// out of the same Eq. 1/Eq. 2 machinery that handles overload.
const DEAD_NODE_CONTENTION: ContentionVector = ContentionVector {
    core_usage: 16.0,
    cache_mpki: 400.0,
    disk_util: 16.0,
    net_util: 16.0,
};

/// Seed salt of the prediction-noise RNG lane (`pcs-n<σ>` techniques).
/// Mixed with the σ bit pattern so distinct noise levels draw distinct,
/// well-spread streams; the lane is independent of the run seed, so a
/// given technique applies the *same* error trajectory to every cell of a
/// sweep — the degradation curve varies the error magnitude, not the
/// error sample.
const SALT_PREDICTION_NOISE: u64 = 0x5eed_0006;

/// Seeded multiplicative error on the controller's demand estimates: one
/// mean-one log-normal factor per live node per interval. Models an
/// imperfect predictor/monitor pipeline whose estimates are unbiased but
/// dispersed with parameter σ (of the underlying normal).
#[derive(Debug, Clone)]
struct DemandNoise {
    dist: LogNormal,
    rng: SmallRng,
}

impl DemandNoise {
    fn new(sigma: f64) -> Self {
        // Mean-one: scv = exp(σ²) − 1 under `with_mean_scv`.
        let dist = LogNormal::with_mean_scv(1.0, (sigma * sigma).exp_m1());
        let rng = SmallRng::seed_from_u64(pcs_harness::seed::mix(
            SALT_PREDICTION_NOISE,
            sigma.to_bits(),
        ));
        DemandNoise { dist, rng }
    }

    fn draw(&mut self) -> f64 {
        self.dist.sample(&mut self.rng)
    }
}

/// The greedy's initial candidate mask: every component without a
/// migration in flight. The world ignores orders for in-flight components,
/// so they are masked before evacuation and search; otherwise a plan could
/// rest on a move that is never enacted.
fn idle_components(ctx: &SchedulerContext<'_>) -> Vec<bool> {
    ctx.components.iter().map(|c| !c.migrating).collect()
}

/// The interval's decisions as migration orders (none names an in-flight
/// component: [`idle_components`] masked them).
fn orders(ctx: &SchedulerContext<'_>, decisions: &[MigrationDecision]) -> Vec<MigrationRequest> {
    decisions
        .iter()
        .map(|d| {
            debug_assert!(
                !ctx.components[d.component.index()].migrating,
                "decision for in-flight component {}",
                d.component
            );
            MigrationRequest {
                component: d.component,
                to: d.to,
            }
        })
        .collect()
}

/// The hierarchical mode's level-1 walk: component indices grouped by the
/// rack of their current host, in rack order, empty racks skipped. Without
/// rack data every component falls in one group; on a single-rack cluster
/// the greedy then degrades to plain cap-sized grouping.
fn rack_groups(ctx: &SchedulerContext<'_>) -> Vec<Vec<usize>> {
    if ctx.rack_of.len() != ctx.node_capacities.len() || ctx.rack_of.is_empty() {
        return vec![(0..ctx.components.len()).collect()];
    }
    let rack_count = ctx.rack_of.iter().copied().max().unwrap_or(0) + 1;
    let mut by_rack: Vec<Vec<usize>> = vec![Vec::new(); rack_count];
    for (i, meta) in ctx.components.iter().enumerate() {
        by_rack[ctx.rack_of[meta.node.index()]].push(i);
    }
    by_rack.retain(|g| !g.is_empty());
    by_rack
}

/// The PCS scheduling framework: monitors → predictor → matrix → greedy
/// migrations.
#[derive(Debug, Clone)]
pub struct PcsController {
    models: ClassModelSet,
    scheduler_config: SchedulerConfig,
    /// When set, every component's SCV is overridden with this value in
    /// the matrix inputs — forcing 1.0 turns the Eq. 2 M/G/1 term into
    /// the M/M/1 special case (the queueing-model ablation).
    scv_override: Option<f64>,
    /// When true, node demand comes from the simulator's exact
    /// [`SchedulerContext::ground_truth_demand`] instead of the noisy
    /// sampled windows — the oracle upper bound on what better monitoring
    /// and prediction could buy.
    ground_truth: bool,
    /// Seeded multiplicative noise on every live node's demand estimate
    /// (`pcs-n<σ>`): the controlled *lower* direction of the same axis —
    /// how gracefully the scheduling algorithm degrades as its inputs get
    /// worse. `None` (σ = 0) leaves the estimates untouched.
    demand_noise: Option<DemandNoise>,
    /// Last known mean demand per node, carried across intervals for nodes
    /// whose sampling window came back empty.
    last_node_demand: Vec<ResourceVector>,
    /// Two-level hierarchical mode: per-group component cap (paper §VI-D).
    /// `None` (the default) is the flat Algorithm 1 controller.
    hier_group_cap: Option<usize>,
    /// Deterministic work counters surfaced via [`SchedulerHook::cost`].
    cost: SchedulerCost,
    /// Whether each analysed interval builds an [`IntervalAudit`]
    /// (predicted Eq. 4 gain per enacted decision). Turned on by the
    /// observability layer via [`SchedulerHook::enable_audit`].
    audit_enabled: bool,
    /// The audit of the interval that just ran, awaiting collection via
    /// [`SchedulerHook::take_interval_audit`].
    pending_audit: Option<IntervalAudit>,
}

impl PcsController {
    /// Creates a controller from trained class models.
    pub fn new(models: ClassModelSet, scheduler_config: SchedulerConfig) -> Self {
        // Validate the config eagerly (ComponentScheduler::new panics on
        // nonsense) even though the scheduler is rebuilt per interval.
        let _ = ComponentScheduler::new(scheduler_config);
        PcsController {
            models,
            scheduler_config,
            scv_override: None,
            ground_truth: false,
            demand_noise: None,
            last_node_demand: Vec::new(),
            hier_group_cap: None,
            cost: SchedulerCost::default(),
            audit_enabled: false,
            pending_audit: None,
        }
    }

    /// Overrides every component's service-time SCV in the matrix inputs
    /// (1.0 forces the M/M/1 special case of Eq. 2).
    #[must_use]
    pub fn with_scv_override(mut self, scv: f64) -> Self {
        assert!(scv.is_finite() && scv >= 0.0, "SCV must be non-negative");
        self.scv_override = Some(scv);
        self
    }

    /// Feeds the controller the simulator's exact per-node demand
    /// ([`SchedulerContext::ground_truth_demand`]) instead of the noisy
    /// sampled contention windows. This is the `oracle` technique: an
    /// upper bound isolating how much of PCS's remaining gap comes from
    /// monitoring noise rather than from the scheduling algorithm.
    #[must_use]
    pub fn with_ground_truth(mut self) -> Self {
        self.ground_truth = true;
        self
    }

    /// Multiplies every live node's demand estimate with seeded mean-one
    /// log-normal noise of parameter `sigma` (one fresh factor per node
    /// per interval, on a dedicated RNG lane). This is the `pcs-n<σ>`
    /// technique family: a controlled sweep of prediction quality between
    /// the `oracle` upper bound and arbitrarily bad inputs, measuring how
    /// gracefully PCS degrades. `sigma = 0` is a provable no-op — no
    /// noise object is built and no draws are made, so reports stay
    /// byte-identical to plain `pcs`.
    ///
    /// # Panics
    /// Panics unless `sigma` is finite and non-negative.
    #[must_use]
    pub fn with_demand_noise(mut self, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "demand-noise sigma must be finite and non-negative, got {sigma}"
        );
        if sigma > 0.0 {
            self.demand_noise = Some(DemandNoise::new(sigma));
        }
        self
    }

    /// Switches the controller to the two-level hierarchical mode (paper
    /// §VI-D): components are grouped by the *rack* of their current host
    /// and scheduled rack by rack with the bounded greedy
    /// ([`HierarchicalScheduler::run_grouped`]). Everything else — inputs,
    /// the per-interval matrix build, evacuation — is the flat
    /// controller's.
    ///
    /// # Panics
    /// Panics on a zero group cap.
    #[must_use]
    pub fn with_hierarchical(mut self, group_cap: usize) -> Self {
        // Reuse HierarchicalScheduler's validation eagerly.
        let _ = HierarchicalScheduler::new(self.scheduler_config, group_cap);
        self.hier_group_cap = Some(group_cap);
        self
    }

    /// Runs the offline profiling campaign for a topology and trains one
    /// Eq. 1 model per component class (paper §VI-D: one profiled
    /// component per homogeneous class).
    ///
    /// The profiling schedule co-locates the profiled component with every
    /// catalog workload across a log-spaced input grid plus two-job
    /// combinations, covering the contention range the scheduler will later
    /// encounter.
    ///
    /// # Errors
    /// Propagates training failures (insufficient or degenerate samples).
    pub fn train_for(
        topology: &ServiceTopology,
        capacity: NodeCapacity,
        seed: u64,
    ) -> Result<ClassModelSet, PcsError> {
        let schedule = default_profiling_schedule();
        let mut class_sets = Vec::with_capacity(topology.classes().len());
        for class_idx in 0..topology.classes().len() {
            class_sets.push(profile_class(
                topology.classes(),
                class_idx,
                capacity,
                &schedule,
                24,
                40,
                SamplerConfig::PAPER,
                seed.wrapping_add(class_idx as u64),
            ));
        }
        pcs_core::train_class_models(&class_sets, 3)
    }

    /// Converts one interval's monitoring context into matrix inputs.
    ///
    /// Node demand comes from the *mean of the interval's sampled
    /// contention* (denormalised into demand units); empty windows fall
    /// back to the previous interval's estimate.
    fn build_inputs(&mut self, ctx: &SchedulerContext<'_>) -> MatrixInputs {
        let k = ctx.node_capacities.len();
        if self.last_node_demand.len() != k {
            self.last_node_demand = vec![ResourceVector::ZERO; k];
        }
        let mut nodes = Vec::with_capacity(k);
        for j in 0..k {
            let window = &ctx.sampled_windows[j];
            // Dead nodes get a saturated demand regardless of monitoring
            // mode (the ground truth of a dead node reads near-idle — its
            // jobs vanished — which is exactly the wrong signal to hand a
            // placement algorithm). `last_node_demand` keeps the final
            // live estimate so a restored node re-enters smoothly.
            let mut demand = if !ctx.node_status[j].is_up() {
                ctx.node_capacities[j].denormalize(&DEAD_NODE_CONTENTION)
            } else if self.ground_truth {
                ctx.ground_truth_demand[j]
            } else if window.is_empty() {
                self.last_node_demand[j]
            } else {
                let mut mean = ContentionVector::ZERO;
                for s in window {
                    mean = mean + *s;
                }
                let mean = mean.scaled(1.0 / window.len() as f64);
                ctx.node_capacities[j].denormalize(&mean)
            };
            if ctx.node_status[j].is_up() {
                // Carry the *clean* estimate so empty-window fallbacks do
                // not compound error factors across intervals; each
                // interval's estimate gets exactly one fresh factor.
                self.last_node_demand[j] = demand;
                if let Some(noise) = &mut self.demand_noise {
                    demand = demand.scaled(noise.draw());
                }
            }
            nodes.push(NodeInput {
                id: pcs_types::NodeId::from_index(j),
                capacity: ctx.node_capacities[j],
                demand,
            });
        }
        let components = ctx
            .components
            .iter()
            .enumerate()
            .map(|(i, meta)| ComponentInput {
                id: pcs_types::ComponentId::from_index(i),
                class: meta.class,
                stage: meta.stage,
                node: meta.node,
                demand: meta.own_demand,
                arrival_rate: ctx.arrival_rates[i],
                scv: self.scv_override.unwrap_or(ctx.service_scv[i]),
            })
            .collect();
        MatrixInputs {
            nodes,
            components,
            stage_count: ctx.stage_count,
        }
    }

    /// Builds the interval's decision audit from the enacted decisions: the predicted Eq. 4
    /// overall latency at analysis time plus the predicted gain of every
    /// migration actually ordered. The observer assigns the interval
    /// index and fills the realised next-window delta at run end.
    fn record_audit(
        &mut self,
        ctx: &SchedulerContext<'_>,
        predicted_overall: f64,
        decisions: &[MigrationDecision],
    ) {
        if !self.audit_enabled {
            return;
        }
        let audit = IntervalAudit {
            at: ctx.now,
            interval: 0,
            predicted_overall,
            decisions: decisions
                .iter()
                .map(|d| AuditDecision {
                    component: d.component,
                    from: d.from,
                    to: d.to,
                    predicted_gain: d.predicted_gain,
                    predicted_self_gain: d.predicted_self_gain,
                })
                .collect(),
            realized_delta: None,
        };
        self.pending_audit = Some(audit);
    }

    /// Evacuation pass: components stranded on dead nodes leave first,
    /// before the latency-optimising greedy. The greedy alone cannot
    /// be trusted with them — with two orphans in one parallel stage,
    /// moving either leaves the stage max at the other's saturated
    /// latency, so every single move shows ~zero *overall* gain and
    /// Algorithm 1 would strand both. Each orphan instead goes to the
    /// live node with the best predicted latency for it (its current
    /// self-gain, computed fresh: pruned matrix entries store none),
    /// applied through the same incremental update so later placements
    /// see earlier ones; the moves consume the interval's migration
    /// budget. Evacuated components are cleared from `candidates` so the
    /// greedy cannot move them again.
    fn evacuate_orphans(
        &self,
        ctx: &SchedulerContext<'_>,
        matrix: &mut PerformanceMatrix,
        candidates: &mut [bool],
    ) -> Vec<MigrationDecision> {
        let mut evacuations: Vec<MigrationDecision> = Vec::new();
        for meta in ctx.components {
            if ctx.node_status[meta.node.index()].is_up() || meta.migrating {
                continue;
            }
            if let Some(cap) = self.scheduler_config.max_migrations {
                if evacuations.len() >= cap {
                    break;
                }
            }
            let i = meta.id;
            // Only destinations the world will accept: live and not
            // hosting one of the orphan's replica-group peers (a
            // rejected order would be retried fruitlessly forever).
            let mut best: Option<(f64, NodeId)> = None;
            for j in 0..ctx.node_capacities.len() {
                if !ctx.legal_destination(i, j) {
                    continue;
                }
                let dest = NodeId::from_index(j);
                let self_gain = matrix.migrant_self_gain(i, dest);
                if best.is_none_or(|(s, _)| self_gain > s) {
                    best = Some((self_gain, dest));
                }
            }
            let Some((_, dest)) = best else { continue }; // nowhere legal for this orphan
            candidates[i.index()] = false;
            let (gain, self_gain) = matrix.evaluate(i, dest);
            let from = matrix.apply_migration(i, dest, candidates);
            evacuations.push(MigrationDecision {
                component: i,
                from,
                to: dest,
                predicted_gain: gain,
                predicted_self_gain: self_gain,
            });
        }
        evacuations
    }
}

impl SchedulerHook for PcsController {
    fn on_interval(&mut self, ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest> {
        // Nothing monitored yet (first tick on a quiet cluster): wait —
        // unless a node is already down, in which case the evacuation
        // pass below must run even on cold monitors.
        if ctx.sampled_windows.iter().all(|w| w.is_empty())
            && ctx.node_status.iter().all(|s| s.is_up())
        {
            return Vec::new();
        }
        let inputs = self.build_inputs(ctx);
        let mut matrix = PerformanceMatrix::build(&inputs, &self.models);
        let mk = (inputs.component_count() * inputs.node_count()) as u64;
        self.cost.intervals += 1;
        self.cost.matrix_builds += 1;
        self.cost.entries_recomputed += mk;
        self.cost.entries_total += mk;
        let predicted_overall = matrix.overall_latency();

        let mut candidates = idle_components(ctx);
        let evacuations = self.evacuate_orphans(ctx, &mut matrix, &mut candidates);

        let config = self.scheduler_config;
        let mut outcome = match self.hier_group_cap {
            Some(group_cap) => HierarchicalScheduler::new(config, group_cap).run_grouped(
                &mut matrix,
                &rack_groups(ctx),
                &candidates,
                evacuations.len(),
            ),
            None => ComponentScheduler::new(config).run_masked(
                &mut matrix,
                &mut candidates,
                evacuations.len(),
            ),
        };
        self.cost.greedy_iterations += outcome.iterations as u64;
        outcome.decisions.splice(0..0, evacuations);
        let migrations = orders(ctx, &outcome.decisions);
        self.record_audit(ctx, predicted_overall, &outcome.decisions);
        migrations
    }

    fn cost(&self) -> Option<SchedulerCost> {
        Some(self.cost)
    }

    fn enable_audit(&mut self) {
        self.audit_enabled = true;
    }

    fn take_interval_audit(&mut self) -> Option<IntervalAudit> {
        self.pending_audit.take()
    }
}

/// The default profiling schedule: every catalog workload over a
/// log-spaced input grid (VM-capped at 4 cores, as in the paper's §VI-B
/// setup), all two-workload combinations at a medium size, three-job
/// stacks reaching node overload, and the idle point.
///
/// Runtime nodes can host several batch VMs at once, so the training range
/// must extend into oversubscription — a regression that never saw
/// core-usage > 1 would underestimate straggler latency exactly when the
/// scheduler needs it most.
pub fn default_profiling_schedule() -> Vec<ResourceVector> {
    let mut schedule = vec![ResourceVector::ZERO];
    let sizes = [8.0, 64.0, 256.0, 1024.0, 3072.0, 10_240.0];
    for w in BatchWorkload::ALL {
        for mb in sizes {
            schedule.push(
                JobSpec::new(w, mb)
                    .capped_to_vm(4.0)
                    .capped_io(67.0, 42.0)
                    .demand,
            );
        }
    }
    // Two-job co-locations widen the upper contention range.
    for (i, a) in BatchWorkload::ALL.iter().enumerate() {
        for b in BatchWorkload::ALL.iter().skip(i) {
            let d1 = JobSpec::new(*a, 2048.0)
                .capped_to_vm(4.0)
                .capped_io(67.0, 42.0)
                .demand;
            let d2 = JobSpec::new(*b, 2048.0)
                .capped_to_vm(4.0)
                .capped_io(67.0, 42.0)
                .demand;
            schedule.push(d1 + d2);
        }
    }
    // Three-job stacks: push core usage to ~1 and beyond and disk/net into
    // their saturated regimes.
    for a in BatchWorkload::ALL {
        let d = JobSpec::new(a, 8192.0)
            .capped_to_vm(4.0)
            .capped_io(67.0, 42.0)
            .demand;
        schedule.push(d.scaled(3.0));
    }
    for (a, b, c) in [
        (
            BatchWorkload::HadoopBayes,
            BatchWorkload::HadoopWordCount,
            BatchWorkload::SparkSort,
        ),
        (
            BatchWorkload::HadoopPageIndex,
            BatchWorkload::SparkBayes,
            BatchWorkload::SparkWordCount,
        ),
    ] {
        let sum = JobSpec::new(a, 8192.0)
            .capped_to_vm(4.0)
            .capped_io(67.0, 42.0)
            .demand
            + JobSpec::new(b, 8192.0)
                .capped_to_vm(4.0)
                .capped_io(67.0, 42.0)
                .demand
            + JobSpec::new(c, 8192.0)
                .capped_to_vm(4.0)
                .capped_io(67.0, 42.0)
                .demand;
        schedule.push(sum);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_sim::{SimConfig, Simulation};
    use pcs_types::SimDuration;

    #[test]
    fn profiling_schedule_covers_a_wide_range() {
        let schedule = default_profiling_schedule();
        assert!(schedule.len() > 40);
        let max_cores = schedule.iter().map(|d| d.cores).fold(0.0, f64::max);
        let max_disk = schedule.iter().map(|d| d.disk_mbps).fold(0.0, f64::max);
        assert!(max_cores >= 6.0, "two-job points must stack CPU demand");
        assert!(max_disk >= 100.0, "I/O-heavy points must stress disk");
        assert_eq!(schedule[0], ResourceVector::ZERO);
    }

    #[test]
    fn trained_models_predict_contention_sensibly() {
        let topology = ServiceTopology::nutch(4);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 11).unwrap();
        let searching = models.get(1).unwrap();
        let idle = searching.predict_clamped(&ContentionVector::new(0.1, 3.0, 0.05, 0.02));
        let busy = searching.predict_clamped(&ContentionVector::new(0.8, 20.0, 0.7, 0.5));
        assert!(
            busy > idle * 1.2,
            "trained model must see contention: idle {idle}, busy {busy}"
        );
    }

    #[test]
    fn controller_evacuates_every_orphan_in_one_interval() {
        use pcs_sim::{FaultEvent, FaultKind, FaultPlan};
        use pcs_types::{NodeId, SimTime};
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        );
        // 5 nodes for 10 components: anti-affine round-robin puts two
        // components on every node, so the kill strands a *pair* — the
        // exact case the greedy alone cannot evacuate (both in one stage
        // means every single move has ~zero overall gain).
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 5;
        config.horizon = SimDuration::from_secs(20);
        config.warmup = SimDuration::from_secs(4);
        config.scheduler_interval = SimDuration::from_secs(2);
        config.faults = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(7),
            node: NodeId::new(2),
            kind: FaultKind::Kill,
        }]);
        let report =
            Simulation::new(config, Box::new(pcs_sim::BasicPolicy), Box::new(controller)).run();
        assert_eq!(report.faults.stats.orphaned, 2);
        assert_eq!(
            report.faults.stats.evacuated, 2,
            "the evacuation pass must re-place both stranded components"
        );
        assert_eq!(report.faults.unresolved_orphans, 0);
        // Kill at 7 s, next interval at 8 s, migration takes 250 ms: both
        // orphans land in the same interval, so the worst evacuation
        // latency stays well under two intervals.
        let evac = report.faults.evacuation_ms().expect("evacuation done");
        assert!(
            evac < 2000.0,
            "batched evacuation must finish within one interval, got {evac} ms"
        );
    }

    /// RED-2 dispatch (replication 2) with the predictive controller.
    /// Evacuations must both resolve every orphan and keep replica
    /// groups on distinct nodes (the peer-blind version of the
    /// evacuation pass could order a co-locating move every interval,
    /// have the world reject it, and strand the orphan forever).
    #[test]
    fn controller_evacuates_replicated_deployments_without_colocating() {
        use pcs_baselines::RedundancyPolicy;
        use pcs_sim::{DeploymentConfig, FaultEvent, FaultKind, FaultPlan};
        use pcs_types::{NodeId, SimTime};
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        );
        let mut config = SimConfig::paper_like(topology, 100.0, 33);
        config.node_count = 5;
        config.deployment = DeploymentConfig { replication: 2 };
        config.horizon = SimDuration::from_secs(20);
        config.warmup = SimDuration::from_secs(4);
        config.faults = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(7),
            node: NodeId::new(1),
            kind: FaultKind::Kill,
        }]);
        let report = Simulation::new(
            config,
            Box::new(RedundancyPolicy::new(2)),
            Box::new(controller),
        )
        .run();
        assert!(report.faults.stats.orphaned >= 2);
        assert_eq!(
            report.faults.unresolved_orphans, 0,
            "peer-aware evacuation must re-place every orphan"
        );
        assert_eq!(
            report.faults.stats.evacuated, report.faults.stats.orphaned,
            "no orphan may wait for a restore that never comes"
        );
    }

    /// The hierarchical mode on a multi-rack cluster: the rack-grouped
    /// greedy must still find migrations, and like the flat controller it
    /// builds a fresh matrix every interval.
    #[test]
    fn hierarchical_controller_schedules_on_a_fresh_matrix_every_interval() {
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        )
        .with_hierarchical(64);
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 10;
        config.rack_count = 2;
        config.horizon = SimDuration::from_secs(20);
        config.warmup = SimDuration::from_secs(4);
        config.scheduler_interval = SimDuration::from_secs(2);
        let report =
            Simulation::new(config, Box::new(pcs_sim::BasicPolicy), Box::new(controller)).run();
        assert!(report.stats.requests_completed > 500);
        assert!(
            report.stats.migrations > 0,
            "hierarchical PCS should migrate under batch churn"
        );
        let cost = report.scheduler_cost.expect("controller tracks cost");
        assert!(cost.intervals >= 2, "several intervals must run: {cost:?}");
        assert_eq!(cost.matrix_builds, cost.intervals, "every interval builds");
        assert_eq!(cost.matrix_refreshes, 0);
        assert_eq!(cost.entries_total, cost.intervals * 10 * 10);
        assert_eq!(cost.entries_recomputed, cost.entries_total);
        assert!(cost.greedy_iterations > 0);
    }

    /// On one rack with a group cap covering every component, the
    /// rack-grouped greedy is the flat greedy: the whole run, scheduler
    /// cost included, matches flat PCS.
    #[test]
    fn hierarchical_controller_on_one_rack_reduces_to_flat() {
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let flat = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        );
        // One greedy run over every component: the cap must not split them.
        let cap = topology.component_count();
        let hier = flat.clone().with_hierarchical(cap);
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 10;
        config.horizon = SimDuration::from_secs(20);
        config.warmup = SimDuration::from_secs(4);
        config.scheduler_interval = SimDuration::from_secs(2);
        assert_eq!(config.rack_count, 1);
        let run = |hook: PcsController| {
            Simulation::new(
                config.clone(),
                Box::new(pcs_sim::BasicPolicy),
                Box::new(hook),
            )
            .run()
        };
        let flat = run(flat);
        assert!(
            flat.stats.migrations > 0,
            "the reduction must cover real moves"
        );
        assert_eq!(format!("{flat:?}"), format!("{:?}", run(hier)));
    }

    /// A small group cap (forcing several groups per interval) must not
    /// break the evacuation guarantee: every orphan of a killed node is
    /// still re-placed within one interval.
    #[test]
    fn hierarchical_controller_evacuates_every_orphan() {
        use pcs_sim::{FaultEvent, FaultKind, FaultPlan};
        use pcs_types::{NodeId, SimTime};
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        )
        .with_hierarchical(3);
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 5;
        config.horizon = SimDuration::from_secs(20);
        config.warmup = SimDuration::from_secs(4);
        config.scheduler_interval = SimDuration::from_secs(2);
        config.faults = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(7),
            node: NodeId::new(2),
            kind: FaultKind::Kill,
        }]);
        let report =
            Simulation::new(config, Box::new(pcs_sim::BasicPolicy), Box::new(controller)).run();
        assert_eq!(report.faults.stats.orphaned, 2);
        assert_eq!(report.faults.stats.evacuated, 2);
        assert_eq!(report.faults.unresolved_orphans, 0);
    }

    /// Three nodes (hot, warm, cool) with two components of one parallel
    /// stage sharing the hot node; `in_flight` marks components whose
    /// migration is already under way.
    fn hot_node_orders(in_flight: &[usize]) -> Vec<MigrationRequest> {
        use pcs_sim::policy::ComponentMeta;
        use pcs_sim::NodeStatus;
        use pcs_types::{ComponentId, SimTime};
        let topology = ServiceTopology::nutch(4);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let mut controller = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 1e-9,
                max_migrations: Some(1),
                ..SchedulerConfig::PAPER
            },
        );
        let components: Vec<ComponentMeta> = [0, 0, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &node)| ComponentMeta {
                id: ComponentId::from_index(i),
                class: 1,
                stage: 0,
                node: NodeId::from_index(node),
                migrating: in_flight.contains(&i),
                own_demand: ResourceVector::new(1.0, 2.0, 5.0, 3.0),
            })
            .collect();
        let windows = [
            vec![ContentionVector::new(0.9, 20.0, 0.6, 0.4); 5],
            vec![ContentionVector::new(0.5, 10.0, 0.3, 0.2); 5],
            vec![ContentionVector::new(0.05, 2.0, 0.02, 0.01); 5],
        ];
        controller.on_interval(&SchedulerContext {
            now: SimTime::ZERO,
            components: &components,
            node_capacities: &[NodeCapacity::XEON_E5645; 3],
            sampled_windows: &windows,
            arrival_rates: &[50.0; 4],
            service_scv: &[1.0; 4],
            stage_count: 1,
            ground_truth_demand: &[ResourceVector::ZERO; 3],
            node_status: &[NodeStatus::Up; 3],
            replica_peers: &[],
            rack_of: &[],
        })
    }

    /// The interval's one-migration budget goes to a move the world can
    /// enact: with the greedy's first choice already in flight, the next
    /// best component is ordered instead of nothing.
    #[test]
    fn in_flight_components_are_masked_before_the_search() {
        let idle = hot_node_orders(&[]);
        assert_eq!(idle.len(), 1);
        let busy = idle[0].component.index();
        let orders = hot_node_orders(&[busy]);
        assert_eq!(
            orders.len(),
            1,
            "the budget must not go to an in-flight move"
        );
        assert_ne!(orders[0].component.index(), busy);
    }

    /// Wraps the controller and checks every interval: the audited plan is
    /// exactly the orders, and no order names an in-flight component.
    struct PlanChecker {
        inner: PcsController,
        tally: std::sync::Arc<std::sync::Mutex<(u64, u64)>>,
    }

    impl SchedulerHook for PlanChecker {
        fn on_interval(&mut self, ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest> {
            let orders = self.inner.on_interval(ctx);
            let planned: Vec<MigrationRequest> = self
                .inner
                .take_interval_audit()
                .map(|audit| {
                    audit
                        .decisions
                        .iter()
                        .map(|d| MigrationRequest {
                            component: d.component,
                            to: d.to,
                        })
                        .collect()
                })
                .unwrap_or_default();
            assert_eq!(planned, orders, "every planned decision is ordered");
            for order in &orders {
                assert!(!ctx.components[order.component.index()].migrating);
            }
            let mut tally = self.tally.lock().unwrap();
            tally.0 += u64::from(ctx.components.iter().any(|c| c.migrating));
            tally.1 += orders.len() as u64;
            orders
        }
    }

    /// Migrations outlast the scheduling interval, so components are in
    /// flight at later ticks; the plan still never rests on them and the
    /// world enacts every order.
    #[test]
    fn slow_migrations_leave_every_planned_decision_enacted() {
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let mut inner = PcsController::new(
            models,
            SchedulerConfig {
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        );
        inner.enable_audit();
        let tally = std::sync::Arc::new(std::sync::Mutex::new((0, 0)));
        let checker = PlanChecker {
            inner,
            tally: tally.clone(),
        };
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 10;
        config.horizon = SimDuration::from_secs(30);
        config.warmup = SimDuration::from_secs(4);
        config.scheduler_interval = SimDuration::from_secs(2);
        config.migration_latency = SimDuration::from_secs(5);
        let report =
            Simulation::new(config, Box::new(pcs_sim::BasicPolicy), Box::new(checker)).run();
        let (ticks_with_in_flight, ordered) = *tally.lock().unwrap();
        assert!(
            ticks_with_in_flight > 0,
            "some tick must see a migration in flight"
        );
        assert!(ordered > 0);
        assert_eq!(
            report.stats.migrations, ordered,
            "the world enacts every order"
        );
    }

    #[test]
    fn controller_schedules_migrations_end_to_end() {
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            SchedulerConfig {
                // Must sit below the ~1e-4 s gains a 10-node nutch(8)
                // scenario produces (fig6 uses 1e-6; 2e-4 silently
                // suppressed every migration).
                epsilon_secs: 0.00005,
                ..SchedulerConfig::PAPER
            },
        );
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 10;
        config.horizon = SimDuration::from_secs(20);
        config.warmup = SimDuration::from_secs(4);
        config.scheduler_interval = SimDuration::from_secs(2);
        let report =
            Simulation::new(config, Box::new(pcs_sim::BasicPolicy), Box::new(controller)).run();
        assert!(report.stats.requests_completed > 500);
        // Under churn, some interval should have found a worthwhile move.
        assert!(
            report.stats.migrations > 0,
            "PCS should migrate under batch churn"
        );
    }
}

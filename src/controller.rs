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
    ClassModelSet, ComponentInput, ComponentScheduler, HierarchicalScheduler, MatrixConfig,
    MatrixInputs, MigrationDecision, NodeInput, PerformanceMatrix, PredictionMode, SchedulerConfig,
    ThresholdPolicy,
};
use pcs_monitor::SamplerConfig;
use pcs_queueing::distributions::{LogNormal, ServiceDistribution};
use pcs_regression::TrainingConfig;
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

/// Relative change below which the hierarchical mode considers a
/// monitored estimate unchanged and reuses the previous interval's value
/// bit-for-bit. Sampling noise wiggles every estimate a little every
/// interval; feeding those wiggles to [`PerformanceMatrix::refresh`]
/// would dirty every row and defeat the incremental maintenance, so small
/// moves are frozen until they accumulate past this dead-band. The flat
/// controller re-estimates everything every interval and is unaffected.
const ESTIMATE_HYSTERESIS: f64 = 0.05;

/// True when `a` and `b` are within the estimate dead-band of each other.
fn near(a: f64, b: f64) -> bool {
    (a - b).abs() <= ESTIMATE_HYSTERESIS * a.abs().max(b.abs())
}

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

/// Component-wise [`near`] over a demand vector.
fn near_vec(a: &ResourceVector, b: &ResourceVector) -> bool {
    near(a.cores, b.cores)
        && near(a.mpki, b.mpki)
        && near(a.disk_mbps, b.disk_mbps)
        && near(a.net_mbps, b.net_mbps)
}

/// The PCS scheduling framework: monitors → predictor → matrix → greedy
/// migrations.
#[derive(Debug, Clone)]
pub struct PcsController {
    models: ClassModelSet,
    scheduler_config: SchedulerConfig,
    matrix_config: MatrixConfig,
    /// How ε is chosen per interval; `None` uses the scheduler config's
    /// fixed value.
    threshold: Option<ThresholdPolicy>,
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
    /// Carried performance matrix for the hierarchical mode's incremental
    /// refresh. Kept pristine — the controller schedules on a clone, so
    /// this copy never sees speculative migration state and the next
    /// interval's [`PerformanceMatrix::refresh`] diffs against exactly
    /// what the monitors reported last time.
    carried: Option<PerformanceMatrix>,
    /// The (post-hysteresis) inputs behind `carried`, used to freeze
    /// estimates that have not moved past the dead-band.
    carried_inputs: Option<MatrixInputs>,
    /// Per-node demand versions at the previous interval: an unchanged
    /// version proves the node's demand composition is unchanged, so its
    /// estimate is reused without any comparison.
    last_versions: Vec<u64>,
    /// Per-node liveness at the previous interval (the version shortcut
    /// only applies to nodes that stayed up across the interval).
    last_up: Vec<bool>,
    /// Deterministic work counters surfaced via [`SchedulerHook::cost`].
    cost: SchedulerCost,
    /// Whether each analysed interval builds an [`IntervalAudit`]
    /// (predicted Eq. 4 gain per enacted decision). Turned on by the
    /// observability layer via [`SchedulerHook::enable_audit`], or by the
    /// `PCS_DEBUG_CONTROLLER` environment variable.
    audit_enabled: bool,
    /// When true (the `PCS_DEBUG_CONTROLLER` alias), every built audit is
    /// also printed to stderr.
    audit_print: bool,
    /// The audit of the interval that just ran, awaiting collection via
    /// [`SchedulerHook::take_interval_audit`].
    pending_audit: Option<IntervalAudit>,
}

impl PcsController {
    /// Creates a controller from trained class models.
    pub fn new(
        models: ClassModelSet,
        scheduler_config: SchedulerConfig,
        matrix_config: MatrixConfig,
    ) -> Self {
        // Validate the config eagerly (ComponentScheduler::new panics on
        // nonsense) even though the scheduler is rebuilt per interval.
        let _ = ComponentScheduler::new(scheduler_config);
        let audit_print = std::env::var_os("PCS_DEBUG_CONTROLLER").is_some();
        PcsController {
            models,
            scheduler_config,
            matrix_config,
            threshold: None,
            scv_override: None,
            ground_truth: false,
            demand_noise: None,
            last_node_demand: Vec::new(),
            hier_group_cap: None,
            carried: None,
            carried_inputs: None,
            last_versions: Vec::new(),
            last_up: Vec::new(),
            cost: SchedulerCost::default(),
            audit_enabled: audit_print,
            audit_print,
            pending_audit: None,
        }
    }

    /// Chooses ε adaptively per interval (the paper's noted future-work
    /// extension): ε = policy.resolve(predicted overall latency).
    #[must_use]
    pub fn with_threshold_policy(mut self, policy: ThresholdPolicy) -> Self {
        self.threshold = Some(policy);
        self
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
    /// ([`HierarchicalScheduler::run_grouped`]), and the performance
    /// matrix is maintained incrementally across intervals
    /// ([`PerformanceMatrix::refresh`]) — refreshing only rows and
    /// columns whose node state actually changed — instead of rebuilt
    /// from scratch every interval.
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
        let config = TrainingConfig {
            degree: 3,
            ..TrainingConfig::default()
        };
        let (models, _report) = pcs_core::train_class_models(&class_sets, config, 0.0)?;
        Ok(models)
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
                samples: window.clone(),
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

    /// Builds (and, under `PCS_DEBUG_CONTROLLER`, prints) the interval's
    /// decision audit from the enacted decisions: the predicted Eq. 4
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
                .filter(|d| !ctx.components[d.component.index()].migrating)
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
        if self.audit_print {
            eprintln!("{audit}");
        }
        self.pending_audit = Some(audit);
    }

    /// Evacuation pass: components stranded on dead nodes leave first,
    /// before the latency-optimising greedy. The greedy alone cannot
    /// be trusted with them — with two orphans in one parallel stage,
    /// moving either leaves the stage max at the other's saturated
    /// latency, so every single move shows ~zero *overall* gain and
    /// Algorithm 1 would strand both. Each orphan instead goes to the
    /// live node with the best predicted latency for it (the matrix's
    /// self-gain column), applied through the same incremental update
    /// so later placements see earlier ones; the moves consume the
    /// interval's migration budget. Evacuated components are cleared
    /// from `candidates` so the greedy cannot move them again.
    fn evacuate_orphans(
        &self,
        ctx: &SchedulerContext<'_>,
        config: &SchedulerConfig,
        matrix: &mut PerformanceMatrix,
        candidates: &mut [bool],
    ) -> Vec<MigrationDecision> {
        let mut evacuations: Vec<MigrationDecision> = Vec::new();
        for meta in ctx.components {
            if ctx.node_status[meta.node.index()].is_up() || meta.migrating {
                continue;
            }
            if let Some(cap) = config.max_migrations {
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
                let self_gain = matrix.self_gain(i, dest);
                if best.is_none_or(|(s, _)| self_gain > s) {
                    best = Some((self_gain, dest));
                }
            }
            let Some((_, dest)) = best else { continue }; // nowhere legal for this orphan
            candidates[i.index()] = false;
            let gain = matrix.gain(i, dest);
            let self_gain = matrix.self_gain(i, dest);
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

    /// One hierarchical-mode interval: freeze estimates inside the
    /// dead-band, refresh the carried matrix incrementally, then schedule
    /// rack by rack on a clone.
    fn on_interval_hier(
        &mut self,
        ctx: &SchedulerContext<'_>,
        group_cap: usize,
    ) -> Vec<MigrationRequest> {
        let mut inputs = self.build_inputs(ctx);
        // Mean-contention predictions never read the sample windows, so
        // drop them from the inputs: a freshly drained window every
        // interval would otherwise mark every node changed and defeat
        // the incremental refresh.
        if self.matrix_config.mode != PredictionMode::PerSample {
            for n in &mut inputs.nodes {
                n.samples.clear();
            }
        }
        // Freeze estimates that have not moved meaningfully since the
        // previous interval, so the refresh's dirty set tracks *real*
        // change instead of sampling noise. A node whose demand version
        // is untouched provably has the same demand composition (no job
        // started or finished, no component moved, no monitor update) —
        // reuse its estimate without comparing anything.
        if let Some(prev) = &self.carried_inputs {
            if prev.node_count() == inputs.node_count()
                && prev.component_count() == inputs.component_count()
            {
                for (j, node) in inputs.nodes.iter_mut().enumerate() {
                    let stayed_up =
                        ctx.node_status[j].is_up() && self.last_up.get(j).copied().unwrap_or(false);
                    let same_version = self.last_versions.get(j) == Some(&ctx.demand_versions[j]);
                    if (stayed_up && same_version) || near_vec(&node.demand, &prev.nodes[j].demand)
                    {
                        node.demand = prev.nodes[j].demand;
                    }
                }
                for (i, comp) in inputs.components.iter_mut().enumerate() {
                    let prev_c = &prev.components[i];
                    if near_vec(&comp.demand, &prev_c.demand) {
                        comp.demand = prev_c.demand;
                    }
                    if near(comp.arrival_rate, prev_c.arrival_rate) {
                        comp.arrival_rate = prev_c.arrival_rate;
                    }
                    if near(comp.scv, prev_c.scv) {
                        comp.scv = prev_c.scv;
                    }
                }
            }
        }
        self.last_versions = ctx.demand_versions.to_vec();
        self.last_up = ctx.node_status.iter().map(|s| s.is_up()).collect();

        let mk = (inputs.component_count() * inputs.node_count()) as u64;
        self.cost.intervals += 1;
        self.cost.entries_total += mk;
        let compatible = self.carried.as_ref().is_some_and(|m| {
            m.component_count() == inputs.component_count() && m.node_count() == inputs.node_count()
        });
        if compatible {
            let stats = self
                .carried
                .as_mut()
                .expect("checked above")
                .refresh(&inputs);
            self.cost.matrix_refreshes += 1;
            self.cost.entries_recomputed += stats.entries_recomputed as u64;
        } else {
            self.carried = Some(PerformanceMatrix::build(
                &inputs,
                &self.models,
                self.matrix_config,
            ));
            self.cost.matrix_builds += 1;
            self.cost.entries_recomputed += mk;
        }
        self.carried_inputs = Some(inputs);

        // Schedule on a clone: apply_migration below is speculative (the
        // world may still reject or delay moves), and next interval's
        // refresh must diff against the monitors' view, not against the
        // speculation.
        let mut matrix = self
            .carried
            .as_ref()
            .expect("carried matrix initialised above")
            .clone();
        let predicted_overall = matrix.overall_latency();
        let mut config = self.scheduler_config;
        if let Some(policy) = self.threshold {
            config.epsilon_secs = policy.resolve(matrix.overall_latency());
        }
        let mut candidates = vec![true; ctx.components.len()];
        let evacuations = self.evacuate_orphans(ctx, &config, &mut matrix, &mut candidates);

        // Level 1 walks racks; level 2 is the bounded greedy within each
        // rack's component group (components grouped by the rack of
        // their current host). On a single-rack cluster this degrades to
        // plain cap-sized grouping.
        let groups: Vec<Vec<usize>> =
            if ctx.rack_of.len() == ctx.node_capacities.len() && !ctx.rack_of.is_empty() {
                let rack_count = ctx.rack_of.iter().copied().max().unwrap_or(0) + 1;
                let mut by_rack: Vec<Vec<usize>> = vec![Vec::new(); rack_count];
                for (i, meta) in ctx.components.iter().enumerate() {
                    by_rack[ctx.rack_of[meta.node.index()]].push(i);
                }
                by_rack.retain(|g| !g.is_empty());
                by_rack
            } else {
                vec![(0..ctx.components.len()).collect()]
            };
        let mut outcome = HierarchicalScheduler::new(config, group_cap).run_grouped(
            &mut matrix,
            &groups,
            &candidates,
            evacuations.len(),
        );
        self.cost.greedy_iterations += outcome.iterations as u64;
        outcome.decisions.splice(0..0, evacuations);
        let migrations = outcome
            .decisions
            .iter()
            .filter(|d| !ctx.components[d.component.index()].migrating)
            .map(|d| MigrationRequest {
                component: d.component,
                to: d.to,
            })
            .collect();
        self.record_audit(ctx, predicted_overall, &outcome.decisions);
        migrations
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
        if let Some(group_cap) = self.hier_group_cap {
            return self.on_interval_hier(ctx, group_cap);
        }
        let inputs = self.build_inputs(ctx);
        let mut matrix = PerformanceMatrix::build(&inputs, &self.models, self.matrix_config);
        let mk = (inputs.component_count() * inputs.node_count()) as u64;
        self.cost.intervals += 1;
        self.cost.matrix_builds += 1;
        self.cost.entries_recomputed += mk;
        self.cost.entries_total += mk;
        let predicted_overall = matrix.overall_latency();
        let mut config = self.scheduler_config;
        if let Some(policy) = self.threshold {
            config.epsilon_secs = policy.resolve(matrix.overall_latency());
        }

        let mut candidates = vec![true; ctx.components.len()];
        let evacuations = self.evacuate_orphans(ctx, &config, &mut matrix, &mut candidates);

        let mut outcome = ComponentScheduler::new(config).run_masked(
            &mut matrix,
            &mut candidates,
            evacuations.len(),
        );
        self.cost.greedy_iterations += outcome.iterations as u64;
        outcome.decisions.splice(0..0, evacuations);
        let migrations = outcome
            .decisions
            .iter()
            .filter(|d| !ctx.components[d.component.index()].migrating)
            .map(|d| MigrationRequest {
                component: d.component,
                to: d.to,
            })
            .collect();
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
            pcs_core::SchedulerConfig {
                epsilon_secs: 0.00005,
                max_migrations: None,
                full_rebuild: false,
            },
            MatrixConfig::default(),
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

    /// The hybrid case: replication 2 with the predictive controller.
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
            pcs_core::SchedulerConfig {
                epsilon_secs: 0.00005,
                max_migrations: None,
                full_rebuild: false,
            },
            MatrixConfig::default(),
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

    /// The hierarchical mode on a multi-rack cluster: rack-grouped greedy
    /// over an incrementally refreshed matrix must still find migrations,
    /// and the cost counters must show exactly one full build with every
    /// later interval served by a refresh.
    #[test]
    fn hierarchical_controller_schedules_and_refreshes_incrementally() {
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            pcs_core::SchedulerConfig {
                epsilon_secs: 0.00005,
                max_migrations: None,
                full_rebuild: false,
            },
            MatrixConfig::default(),
        )
        .with_hierarchical(64);
        let mut config = SimConfig::paper_like(topology, 100.0, 21);
        config.node_count = 10;
        config.rack_count = 2;
        config.placement = pcs_sim::PlacementStrategy::RackAware;
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
        assert_eq!(cost.matrix_builds, 1, "only the first interval builds");
        assert_eq!(cost.matrix_refreshes, cost.intervals - 1);
        assert_eq!(cost.entries_total, cost.intervals * 10 * 10);
        assert!(cost.entries_recomputed <= cost.entries_total);
        assert!(cost.greedy_iterations > 0);
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
            pcs_core::SchedulerConfig {
                epsilon_secs: 0.00005,
                max_migrations: None,
                full_rebuild: false,
            },
            MatrixConfig::default(),
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

    #[test]
    fn controller_schedules_migrations_end_to_end() {
        let topology = ServiceTopology::nutch(8);
        let models = PcsController::train_for(&topology, NodeCapacity::XEON_E5645, 5).unwrap();
        let controller = PcsController::new(
            models,
            pcs_core::SchedulerConfig {
                // Must sit below the ~1e-4 s gains a 10-node nutch(8)
                // scenario produces (fig6 uses 1e-6; 2e-4 silently
                // suppressed every migration).
                epsilon_secs: 0.00005,
                max_migrations: None,
                full_rebuild: false,
            },
            MatrixConfig::default(),
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

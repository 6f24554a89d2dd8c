//! The simulated world: ties the cluster, service, batch churn, monitors,
//! dispatch policy and scheduler hook together and runs the event loop.

use crate::cluster::Cluster;
use crate::component::{Deployment, InFlight, PhysicalComponent, QueueItem};
use crate::config::SimConfig;
use crate::engine::{Event, EventQueue};
use crate::faults::{FailoverPolicy, FaultKind};
use crate::ground_truth::GroundTruth;
use crate::metrics::{Collectors, FaultPhase, RunReport};
use crate::observe::{Observer, StageChain, WindowSample};
use crate::placement;
use crate::policy::{ComponentMeta, DispatchPolicy, SchedulerContext, SchedulerHook};
use crate::request::RequestTable;
use pcs_monitor::{ArrivalRateEstimator, ContentionSampler, ServiceTimeWindow};
use pcs_types::{ComponentId, NodeId, RequestId, ResourceVector, SimDuration, SimTime};
use pcs_workloads::{ArrivalProcess, BatchJobGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reusable scheduler-context buffers, refilled at every interval so the
/// tick assembles its [`SchedulerContext`] without fresh allocations.
#[derive(Debug, Default)]
struct CtxBuffers {
    metas: Vec<ComponentMeta>,
    windows: Vec<Vec<pcs_types::ContentionVector>>,
    rates: Vec<f64>,
    scvs: Vec<f64>,
    demands: Vec<ResourceVector>,
    /// Node capacities never change mid-run: filled once at construction.
    caps: Vec<pcs_types::NodeCapacity>,
    status: Vec<crate::faults::NodeStatus>,
    versions: Vec<u64>,
    /// Node→rack assignment; static like `caps`, filled once.
    racks: Vec<usize>,
}

/// The empty [`SchedulerContext`] handed (in debug builds) to hooks that
/// declared they ignore their input, to assert they really do.
fn empty_context(now: SimTime) -> SchedulerContext<'static> {
    SchedulerContext {
        now,
        components: &[],
        node_capacities: &[],
        sampled_windows: &[],
        arrival_rates: &[],
        service_scv: &[],
        stage_count: 0,
        ground_truth_demand: &[],
        node_status: &[],
        replica_peers: &[],
        demand_versions: &[],
        rack_of: &[],
    }
}

/// A configured, runnable simulation.
pub struct Simulation {
    config: SimConfig,
    queue: EventQueue,
    rng: SmallRng,
    cluster: Cluster,
    ground_truth: GroundTruth,
    deployment: Deployment,
    comps: Vec<PhysicalComponent>,
    requests: RequestTable,
    policy: Box<dyn DispatchPolicy>,
    hook: Box<dyn SchedulerHook>,
    arrivals: Box<dyn ArrivalProcess + Send>,
    jobgen: Option<BatchJobGenerator>,
    samplers: Vec<ContentionSampler>,
    rate_estimators: Vec<ArrivalRateEstimator>,
    service_windows: Vec<ServiceTimeWindow>,
    collectors: Collectors,
    in_warmup: bool,
    /// Per stage: the component-class index.
    stage_class: Vec<usize>,
    /// Per class: own demand and intrinsic SCV (from the topology).
    class_own_demand: Vec<ResourceVector>,
    class_scv: Vec<f64>,
    /// Reusable dispatch-target buffer.
    target_buf: Vec<ComponentId>,
    /// Reusable live-replica buffer (liveness-filtered dispatch groups).
    live_buf: Vec<ComponentId>,
    /// Per component: the other members of its replica groups (static —
    /// the deployment layout never changes mid-run).
    replica_peers: Vec<Vec<ComponentId>>,
    end_cap: SimTime,
    /// Time of the previous monitor tick (utilisation-window boundary).
    last_monitor_tick: SimTime,
    /// Whether provably no-op cancellation messages may be skipped:
    /// true for fault-free runs of never-reissuing policies (RED-k),
    /// where a duplicate absent from a sibling's queue *now* can never
    /// reappear before the cancellation would arrive.
    skip_noop_cancels: bool,
    /// Whether the per-partition queued-duplicate masks are maintained:
    /// fault-free replicated runs only (failover re-enqueues would make
    /// a clear bit unsound). A clear bit lets every cancellation path
    /// prove "nothing queued" in O(1); stale set bits merely cost the
    /// binary search they would have done anyway.
    track_queued_mask: bool,
    /// Per component: memoised mean service time, valid while the
    /// hosting node's demand version is unchanged (`(node, version,
    /// mean)`); `u64::MAX` marks empty. The mean is a pure function of
    /// (class, node contention), so replaying it is bit-identical to
    /// recomputing the slowdown curve.
    mean_cache: Vec<(NodeId, u64, f64)>,
    /// The elastic-capacity control loop ([`crate::autoscale`]); `None`
    /// (the default) leaves every handler on its historical path.
    autoscaler: Option<crate::autoscale::AutoscalePolicy>,
    /// Number of currently killed nodes (0 on the fault-free fast path).
    down_nodes: usize,
    /// Whether any kill has struck yet (fault-phase classification).
    kills_seen: bool,
    /// Number of currently degraded (straggling) nodes — 0 on plans
    /// without degrade events, so the clean paths never branch on it.
    degraded_nodes: usize,
    /// The failure detector's dedicated RNG lane
    /// ([`SimConfig::detector`]); `None` without a detector. Drawing
    /// suspicion from its own seeded stream keeps the main event stream
    /// bit-identical whether or not a detector is configured — only
    /// *hook decisions* made on the distorted view can change the run.
    detector_rng: Option<SmallRng>,
    /// Per node: when its liveness last changed (kill/restore), for the
    /// detector's detection latency.
    liveness_changed_at: Vec<SimTime>,
    /// Per node: the liveness before the last change (what a
    /// still-unsettled detector keeps reporting).
    prev_alive: Vec<bool>,
    /// Nodes the detector reported non-up at the most recent context
    /// assembly (time-series gauge; 0 without a detector, and stale for
    /// hooks that never request a context — nobody sees suspicion then).
    suspected_down: u64,
    /// The tail-attribution observer ([`crate::observe`]); `None` (the
    /// default) keeps every handler on its historical path. The observer
    /// is pure bookkeeping: it draws no randomness and schedules no
    /// events, so the simulated trajectory is identical either way.
    observer: Option<Observer>,
    /// Reusable scheduler-context buffers.
    ctx_bufs: CtxBuffers,
}

impl Simulation {
    /// Builds a simulation from a config, a dispatch policy and a
    /// scheduler hook.
    ///
    /// # Panics
    /// Panics if the config is invalid or its deployment replication does
    /// not match the policy's requirement.
    pub fn new(
        config: SimConfig,
        policy: Box<dyn DispatchPolicy>,
        hook: Box<dyn SchedulerHook>,
    ) -> Self {
        let arrivals = config.arrival_pattern.build(config.arrival_rate);
        Simulation::with_arrivals(config, policy, hook, arrivals)
    }

    /// [`Simulation::new`] with an explicit arrival process, for processes
    /// beyond what [`SimConfig::arrival_pattern`] can describe (traced
    /// arrivals, bursty MMPP, …). The config's `arrival_rate` is still
    /// reported as the run's nominal rate.
    ///
    /// # Panics
    /// Panics if the config is invalid or its deployment replication does
    /// not match the policy's requirement.
    pub fn with_arrivals(
        config: SimConfig,
        policy: Box<dyn DispatchPolicy>,
        mut hook: Box<dyn SchedulerHook>,
        arrivals: Box<dyn ArrivalProcess + Send>,
    ) -> Self {
        config.validate();
        if config.observe.is_some() {
            hook.enable_audit();
        }
        assert_eq!(
            config.deployment.replication,
            policy.replication(),
            "deployment replication must match the policy '{}'",
            policy.name()
        );

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let cluster = match &config.node_capacities {
            Some(caps) => Cluster::heterogeneous(caps.clone()),
            None => Cluster::new(config.node_count, config.node_capacity),
        };
        let ground_truth = GroundTruth::new(config.topology.classes());
        let deployment = Deployment::new(&config.topology, config.deployment.replication);
        let mut comps = deployment.instantiate(&config.topology);
        // Nodes a fault plan kills at t = 0 must not receive components:
        // initial placement is liveness-aware like the scheduler hooks.
        // On elastic runs (mutually exclusive with fault plans) the
        // initial fleet is the autoscaler's fully-provisioned prefix.
        let initial_alive = match &config.autoscale {
            Some(ac) => ac.initial_alive(config.node_count),
            None => config.faults.initial_alive(config.node_count),
        };
        match config.placement {
            crate::config::PlacementStrategy::AntiAffine => {
                placement::anti_affine(&mut comps, &deployment, config.node_count, &initial_alive)
            }
            crate::config::PlacementStrategy::CapacityAware => placement::capacity_aware(
                &mut comps,
                &deployment,
                &cluster.capacities(),
                &initial_alive,
            ),
            crate::config::PlacementStrategy::RackAware => placement::rack_aware(
                &mut comps,
                &deployment,
                &config.rack_assignments(),
                &initial_alive,
            ),
        }
        debug_assert!(placement::replicas_on_distinct_nodes(&deployment, &comps));

        let m = comps.len();
        let samplers = (0..config.node_count)
            .map(|_| ContentionSampler::new(config.sampler, SimTime::ZERO))
            .collect();
        let rate_estimators = (0..m)
            .map(|_| ArrivalRateEstimator::new(config.rate_window))
            .collect();
        let service_windows = (0..m)
            .map(|_| ServiceTimeWindow::new(config.service_window))
            .collect();
        let stage_class = config.topology.stages().iter().map(|s| s.class).collect();
        let class_own_demand = config
            .topology
            .classes()
            .iter()
            .map(|c| c.own_demand)
            .collect();
        let class_scv = config
            .topology
            .classes()
            .iter()
            .map(|c| c.service_scv)
            .collect();
        let jobgen = config.jobgen.clone().map(BatchJobGenerator::new);
        let end_cap = SimTime::ZERO + config.horizon + config.drain_grace;
        let mut replica_peers: Vec<Vec<ComponentId>> = vec![Vec::new(); m];
        for stage in 0..deployment.stage_count() {
            for p in 0..deployment.partition_count(stage as u32) {
                let group = deployment.replicas(stage as u32, p as u32);
                for &a in group {
                    for &b in group {
                        if a != b && !replica_peers[a.index()].contains(&b) {
                            replica_peers[a.index()].push(b);
                        }
                    }
                }
            }
        }

        // Pre-reserve the event heap for the steady-state pending set:
        // one in-service completion per component, per-node batch churn,
        // timers and the periodic ticks — so event scheduling never
        // reallocates mid-run.
        let queue = EventQueue::with_capacity(1024 + 4 * m + config.node_count);
        let skip_noop_cancels = config.faults.is_empty() && !policy.reissues();
        let track_queued_mask = config.faults.is_empty() && deployment.replication() > 1;
        let mean_cache = vec![(NodeId::new(0), u64::MAX, 0.0); m];
        let mut world = Simulation {
            queue,
            cluster,
            ground_truth,
            deployment,
            comps,
            requests: RequestTable::new(),
            policy,
            hook,
            arrivals,
            jobgen,
            samplers,
            rate_estimators,
            service_windows,
            collectors: Collectors::default(),
            in_warmup: !config.warmup.is_zero(),
            stage_class,
            class_own_demand,
            class_scv,
            target_buf: Vec::with_capacity(8),
            live_buf: Vec::with_capacity(8),
            replica_peers,
            end_cap,
            last_monitor_tick: SimTime::ZERO,
            skip_noop_cancels,
            track_queued_mask,
            mean_cache,
            autoscaler: config
                .autoscale
                .map(|ac| crate::autoscale::AutoscalePolicy::new(ac, config.node_count)),
            down_nodes: 0,
            kills_seen: false,
            degraded_nodes: 0,
            detector_rng: config.detector.as_ref().map(|_| {
                SmallRng::seed_from_u64(pcs_harness::seed::mix(
                    config.seed,
                    crate::faults::SALT_DETECTOR,
                ))
            }),
            liveness_changed_at: vec![SimTime::ZERO; config.node_count],
            prev_alive: vec![true; config.node_count],
            suspected_down: 0,
            observer: config.observe.map(|oc| Observer::new(&oc)),
            ctx_bufs: CtxBuffers::default(),
            config,
            rng: SmallRng::seed_from_u64(0), // replaced below
        };
        world.ctx_bufs.caps = world.cluster.capacities();
        world.ctx_bufs.windows = vec![Vec::new(); world.config.node_count];
        world.ctx_bufs.racks = world.config.rack_assignments();
        world.rng = std::mem::replace(&mut rng, SmallRng::seed_from_u64(0));

        // Latency recorders sized from the run budget: arrivals over the
        // horizon, fanned out per stage partition for the component
        // metric (capped so a degenerate config cannot pre-allocate
        // gigabytes — the cap only costs a few doublings).
        let expected_requests = (world.config.arrival_rate * world.config.horizon.as_secs_f64())
            .min(4_000_000.0) as usize;
        let fanout: usize = (0..world.deployment.stage_count())
            .map(|s| world.deployment.partition_count(s as u32))
            .sum();
        let component_hint = expected_requests.saturating_mul(fanout).min(4 << 20);
        world
            .collectors
            .preallocate(component_hint, expected_requests);

        // Components start idle: their demand contribution (own demand ×
        // utilisation) is zero until they serve traffic; the monitor ticks
        // keep it current from then on.
        world.schedule_initial_events();
        world
    }

    fn schedule_initial_events(&mut self) {
        // First request.
        let t0 = SimTime::ZERO
            + self
                .arrivals
                .next_interarrival(SimTime::ZERO, &mut self.rng);
        if t0 <= SimTime::ZERO + self.config.horizon {
            self.queue.schedule(t0, Event::RequestArrival);
        }
        // Batch churn, staggered per node so nodes don't pulse together.
        if let Some(gen) = &self.jobgen {
            for n in 0..self.config.node_count {
                let offset = SimDuration::from_secs_f64(
                    self.rng.gen::<f64>() * gen.config().mean_interarrival_secs,
                );
                self.queue.schedule(
                    SimTime::ZERO + offset,
                    Event::BatchArrival {
                        node: NodeId::from_index(n),
                    },
                );
            }
        }
        // Monitors and scheduler.
        self.queue.schedule(SimTime::ZERO, Event::MonitorTick);
        self.queue.schedule(
            SimTime::ZERO + self.config.scheduler_interval,
            Event::SchedulerTick,
        );
        if self.in_warmup {
            self.queue
                .schedule(SimTime::ZERO + self.config.warmup, Event::WarmupEnd);
        }
        // Scheduled membership changes (an empty plan schedules nothing,
        // leaving the event stream bit-identical to a fault-free build).
        for fault in self.config.faults.events().to_vec() {
            if fault.at <= self.end_cap {
                self.queue.schedule(
                    fault.at,
                    Event::NodeFault {
                        node: fault.node,
                        kind: fault.kind,
                    },
                );
            }
        }
    }

    /// Runs the simulation to completion and returns the measured report.
    pub fn run(mut self) -> RunReport {
        let mut events_processed: u64 = 0;
        while let Some((t, event)) = self.queue.pop() {
            if t > self.end_cap {
                break;
            }
            events_processed += 1;
            self.handle(event);
        }
        self.collectors.stats.requests_censored = self.requests.len() as u64;
        let unresolved_orphans = self
            .comps
            .iter()
            .filter(|c| c.orphaned_since.is_some())
            .count() as u64;
        let ended_at = self.queue.now();
        let autoscale = match &mut self.autoscaler {
            Some(a) => {
                a.finalize(ended_at);
                a.report()
            }
            None => crate::autoscale::AutoscaleReport::default(),
        };
        RunReport {
            technique: self.policy.name().to_string(),
            arrival_rate: self.config.arrival_rate,
            measured_from: SimTime::ZERO + self.config.warmup,
            ended_at: self.queue.now(),
            component_latency: self.collectors.component_latency.summary(),
            overall_latency: self.collectors.overall_latency.summary(),
            stats: self.collectors.stats,
            faults: self.collectors.fault_report(unresolved_orphans),
            autoscale,
            events_processed,
            scheduler_cost: self.hook.cost(),
            observe: self.observer.take().map(Observer::finalize),
        }
    }

    /// Which fault window a latency recorded *now* belongs to.
    fn fault_phase(&self) -> FaultPhase {
        if self.down_nodes > 0 {
            FaultPhase::During
        } else if self.kills_seen {
            FaultPhase::Post
        } else {
            FaultPhase::Pre
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::RequestArrival => self.on_request_arrival(),
            Event::ServiceCompletion { component, epoch } => self.on_completion(component, epoch),
            Event::CancelArrival {
                component,
                request,
                stage,
                partition,
            } => self.on_cancel_arrival(component, request, stage as u32, partition as u32),
            Event::ReissueTimer {
                request,
                stage,
                partition,
            } => self.on_reissue(request, stage as u32, partition as u32),
            Event::BatchArrival { node } => self.on_batch_arrival(node),
            Event::BatchDeparture { node, job } => {
                // A node kill vaporises resident jobs while their
                // departure events stay queued; only then may one miss.
                let found = self.cluster.finish_job(node, job);
                debug_assert!(
                    found || !self.config.faults.is_empty(),
                    "job {job} not resident on {node} in a fault-free run"
                );
            }
            Event::MonitorTick => self.on_monitor_tick(),
            Event::SchedulerTick => self.on_scheduler_tick(),
            Event::MigrationComplete { component, to } => self.on_migration_complete(component, to),
            Event::WarmupEnd => {
                self.in_warmup = false;
                self.collectors.reset_for_measurement();
            }
            Event::NodeFault { node, kind } => self.on_node_fault(node, kind),
        }
    }

    // ---- request flow -----------------------------------------------

    fn on_request_arrival(&mut self) {
        let now = self.queue.now();
        let partitions = self.deployment.partition_count(0);
        let id = self.requests.insert_next(now, partitions);
        for p in 0..partitions {
            self.dispatch_partition(id, 0, p as u32);
        }
        // Next arrival, while the horizon is open.
        let next = now + self.arrivals.next_interarrival(now, &mut self.rng);
        if next <= SimTime::ZERO + self.config.horizon {
            self.queue.schedule(next, Event::RequestArrival);
        }
    }

    /// Initial dispatch of one partition's sub-request (fan-out chosen by
    /// the policy; reissue timer armed if the policy wants one). Dead
    /// replicas are invisible to the policy; a partition whose whole
    /// replica group is down loses the request.
    fn dispatch_partition(&mut self, request: RequestId, stage: u32, partition: u32) {
        let now = self.queue.now();
        // Liveness filter, paid only while nodes are down: the fault-free
        // fast path hands the policy the deployment's group directly.
        let filtered = self.down_nodes > 0;
        let mut live = std::mem::take(&mut self.live_buf);
        if filtered {
            live.clear();
            live.extend(
                self.deployment
                    .replicas(stage, partition)
                    .iter()
                    .copied()
                    .filter(|c| self.cluster.is_alive(self.comps[c.index()].node)),
            );
            if live.is_empty() {
                self.live_buf = live;
                self.lose_request(request);
                return;
            }
        }
        self.target_buf.clear();
        let group = self.deployment.replicas(stage, partition);
        let candidates: &[ComponentId] = if filtered { &live } else { group };
        self.policy
            .initial_targets(candidates, &mut self.rng, &mut self.target_buf);
        self.live_buf = live;
        debug_assert!(!self.target_buf.is_empty(), "policy must pick a target");

        let group_len = group.len();
        if let Some(req) = self.requests.get_mut(request) {
            let p = &mut req.partitions[partition as usize];
            for target in &self.target_buf {
                let idx = self
                    .deployment
                    .replica_index(stage, partition, *target)
                    .expect("policy targets must belong to the replica group");
                p.mark_used(idx);
            }
            p.dispatched_at = now;
        }

        let targets = std::mem::take(&mut self.target_buf);
        let item = QueueItem {
            request,
            stage,
            partition,
            enqueued_at: now,
        };
        // Two-phase fan-out: every busy target queues its duplicate
        // first, then the idle targets begin service (in target order).
        // The interleaving is observably identical to enqueue-then-begin
        // per target — begin_service never reads sibling queues except
        // for the no-op-cancel proof, RNG draws keep their order, and
        // the schedule() sequence is unchanged — but it means that by
        // the time a replica starts, every sibling duplicate of this
        // fan-out is already visible, so the proof is race-free even
        // within the dispatching event.
        let mut queued_bits: u8 = 0;
        for &t in &targets {
            self.rate_estimators[t.index()].record(now);
            let ci = t.index();
            debug_assert!(
                self.cluster.is_alive(self.comps[ci].node),
                "a killed node must receive zero new work"
            );
            if self.comps[ci].in_service.is_some() {
                self.comps[ci].enqueue(item);
                if self.track_queued_mask {
                    let idx = self
                        .deployment
                        .replica_index(stage, partition, t)
                        .expect("targets belong to the group");
                    queued_bits |= 1 << idx;
                }
            }
        }
        if queued_bits != 0 {
            if let Some(req) = self.requests.get_mut(request) {
                req.partitions[partition as usize].queued_mask |= queued_bits;
            }
        }
        for &t in &targets {
            let ci = t.index();
            if self.comps[ci].in_service.is_none() {
                self.begin_service(ci, item);
            }
        }
        self.target_buf = targets;

        let class = self.stage_class[stage as usize];
        if let Some(delay) = self.policy.reissue_delay(class) {
            // A singleton replica group has no backup to reissue to: the
            // timer's handler would be a guaranteed no-op, so it is never
            // scheduled (removing an event cannot reorder the remaining
            // ones — their timestamps and relative insertion order are
            // untouched).
            if group_len > 1 {
                self.queue.schedule(
                    now + delay,
                    Event::ReissueTimer {
                        request,
                        stage: stage as u8,
                        partition: partition as u16,
                    },
                );
            }
        }
    }

    fn enqueue_sub(&mut self, target: ComponentId, item: QueueItem) {
        let now = self.queue.now();
        debug_assert!(
            self.cluster.is_alive(self.comps[target.index()].node),
            "a killed node must receive zero new work"
        );
        self.rate_estimators[target.index()].record(now);
        let ci = target.index();
        if self.comps[ci].in_service.is_none() {
            self.begin_service(ci, item);
        } else {
            self.comps[ci].enqueue(item);
        }
    }

    fn begin_service(&mut self, ci: usize, item: QueueItem) {
        let now = self.queue.now();
        let node = self.comps[ci].node;
        debug_assert!(
            self.cluster.is_alive(node),
            "a dead node's component must never begin service"
        );
        // The expected service time is a pure function of (class, node
        // contention); it is memoised per component against the node's
        // demand version, so back-to-back executions between demand
        // changes skip the slowdown-curve evaluation entirely.
        let version = self.cluster.demand_version(node);
        let class = self.comps[ci].class;
        let cached = self.mean_cache[ci];
        let mean = if cached.0 == node && cached.1 == version {
            cached.2
        } else {
            let u = self.cluster.contention(node);
            // A straggling node scales every service time it draws; the
            // healthy multiplier is exactly 1.0, and IEEE `x * 1.0 == x`,
            // so clean runs stay bit-identical. Degrade/recover bump the
            // node's demand version, invalidating this cache in step.
            let mean = self.ground_truth.mean_service_time(class, &u) * self.cluster.slowdown(node);
            self.mean_cache[ci] = (node, version, mean);
            mean
        };
        let x = self
            .ground_truth
            .sample_with_mean(class, mean, &mut self.rng);
        self.service_windows[ci].record(x);
        self.comps[ci].in_service = Some(InFlight {
            item,
            started_at: now,
        });
        let id = ComponentId::from_index(ci);
        self.queue.schedule(
            now + SimDuration::from_secs_f64(x),
            Event::ServiceCompletion {
                component: id,
                epoch: self.comps[ci].epoch,
            },
        );

        // This instance has left its queue (or never entered one): drop
        // its bit from the partition's queued-duplicate mask, so the
        // cancellation paths know there is nothing of it left to cancel.
        let queued_mask = if self.track_queued_mask {
            match self.requests.get_mut(item.request) {
                Some(req) if req.stage == item.stage => {
                    let p = &mut req.partitions[item.partition as usize];
                    let idx = self
                        .deployment
                        .replica_index(item.stage, item.partition, id)
                        .expect("serving component belongs to the group");
                    p.queued_mask &= !(1 << idx);
                    p.queued_mask
                }
                // A wasted duplicate of a finished request/stage: its
                // siblings' duplicates are provably gone too (fault-free
                // invariant), so nothing needs cancelling.
                _ => 0,
            }
        } else {
            u8::MAX
        };

        // Redundancy cancellation: tell sibling replicas to drop their
        // queued duplicates. The message takes `cancel_delay` to arrive —
        // replicas that start within that window still execute (the race
        // the paper describes).
        if self.policy.cancel_on_start() {
            let group = self.deployment.replicas(item.stage, item.partition);
            if group.len() > 1 {
                for (idx, &other) in group.iter().enumerate() {
                    if other == id {
                        continue;
                    }
                    // Fault-free, never-reissuing runs can prove a
                    // cancellation no-op at scheduling time: every
                    // duplicate of this fan-out is already visible (the
                    // two-phase dispatch guarantees it), no mechanism can
                    // enqueue another later, and the queued-duplicate
                    // mask says whether the sibling still holds one. A
                    // clear bit means the message would remove nothing —
                    // it is not scheduled at all, which cannot reorder
                    // the surviving events.
                    if self.skip_noop_cancels && queued_mask & (1 << idx) == 0 {
                        debug_assert!(!self.comps[other.index()].has_queued_duplicate_at(
                            item.request,
                            item.stage,
                            item.partition,
                            item.enqueued_at,
                        ));
                        continue;
                    }
                    self.queue.schedule(
                        now + self.config.cancel_delay,
                        Event::CancelArrival {
                            component: other,
                            request: item.request,
                            stage: item.stage as u8,
                            partition: item.partition as u16,
                        },
                    );
                }
            }
        }
    }

    fn on_completion(&mut self, component: ComponentId, epoch: u32) {
        let ci = component.index();
        let now = self.queue.now();
        if epoch != self.comps[ci].epoch {
            // The execution was vaporised by a node kill after this event
            // was scheduled; its work item was already failed over or
            // dropped.
            return;
        }
        let inflight = self.comps[ci]
            .in_service
            .take()
            .expect("completion event without in-service item");
        // Busy-time accounting for the utilisation windows: only the part
        // of this service that falls inside the current window counts.
        let segment_start = inflight.started_at.max(self.last_monitor_tick);
        self.comps[ci].busy_accum += now - segment_start;
        self.comps[ci].executions += 1;
        self.collectors.stats.executions += 1;

        // Work conservation: immediately start the next queued item
        // (skipping any tombstoned cancellations on the way).
        if let Some(next) = self.comps[ci].pop_next_live() {
            self.begin_service(ci, next);
        }

        self.handle_response(component, inflight);
    }

    fn handle_response(&mut self, component: ComponentId, inflight: InFlight) {
        let now = self.queue.now();
        let item = inflight.item;
        let Some(req) = self.requests.get_mut(item.request) else {
            // Request already completed (or was never tracked): a wasted
            // duplicate execution.
            self.collectors.stats.wasted_executions += 1;
            return;
        };
        if req.stage != item.stage || !req.complete_partition(item.partition) {
            self.collectors.stats.wasted_executions += 1;
            return;
        }
        // Everything later needed from the request comes out of this one
        // borrow: stage completion, and the partition's enqueue
        // timestamps (which locate its still-queued duplicates without a
        // scan).
        let progress = req.partitions[item.partition as usize];
        let cancel_times = [progress.dispatched_at, progress.reissued_at];
        let stage_done = req.stage_complete();

        // Winning response: the paper's component-latency metric is the
        // quickest replica's dispatch→response time.
        let latency = now - item.enqueued_at;
        if let Some(a) = &mut self.autoscaler {
            // The autoscaler's windowed tail estimate sees every winning
            // response, warm-up included (SLO-violation windows are only
            // counted after warm-up, at the monitor tick).
            a.observe_latency(latency);
        }
        if !self.in_warmup {
            self.collectors.component_latency.record(latency);
            // Fault-phase windows exist only when faults are planned, so
            // a fault-free run's report stays pristine.
            if !self.config.faults.is_empty() {
                let phase = self.fault_phase();
                self.collectors.phase_latency[phase as usize].record(latency);
                // The straggler window is orthogonal to the kill phases:
                // completions while any node is gray.
                if self.degraded_nodes > 0 {
                    self.collectors.degraded_latency.record(latency);
                }
            }
        }
        let class = self.stage_class[item.stage as usize];
        self.policy.observe_latency(class, latency);

        // Drop still-queued duplicates at sibling replicas (the response
        // has been used; only in-flight executions can still waste work).
        // On tracked runs the queued-duplicate mask says exactly which
        // siblings still hold one: clear bits skip even the binary
        // search, and afterwards the partition provably has nothing
        // queued anywhere, so the mask zeroes.
        let group = self.deployment.replicas(item.stage, item.partition);
        if group.len() > 1 {
            for (idx, &other) in group.iter().enumerate() {
                if other == component {
                    continue;
                }
                if self.track_queued_mask && progress.queued_mask & (1 << idx) == 0 {
                    debug_assert_eq!(
                        self.comps[other.index()].cancel_queued_at(
                            item.request,
                            item.stage,
                            item.partition,
                            cancel_times,
                        ),
                        0,
                        "a clear queued bit must mean nothing is queued"
                    );
                    continue;
                }
                let removed = self.comps[other.index()].cancel_queued_at(
                    item.request,
                    item.stage,
                    item.partition,
                    cancel_times,
                );
                self.collectors.stats.cancelled_duplicates += removed as u64;
            }
            if self.track_queued_mask && progress.queued_mask != 0 {
                if let Some(req) = self.requests.get_mut(item.request) {
                    req.partitions[item.partition as usize].queued_mask = 0;
                }
            }
        }

        if stage_done {
            // The response that completes a stage belongs, by
            // construction, to the stage's last-finishing (critical)
            // partition: its chain is the stage's critical path.
            if let Some(obs) = &mut self.observer {
                obs.record_stage(StageChain {
                    id: item.request,
                    stage: item.stage as u8,
                    partition: item.partition as u16,
                    component,
                    node: self.comps[component.index()].node,
                    dispatched_at: progress.dispatched_at,
                    enqueued_at: item.enqueued_at,
                    reissued_at: progress.reissued_at,
                    started_at: inflight.started_at,
                    completed_at: now,
                });
            }
            self.advance_stage(item.request);
        }
    }

    /// Delivers a delayed cancellation message: tombstones the queued
    /// duplicate of `(request, stage, partition)` at `component`, if one
    /// is still waiting.
    ///
    /// While the request is still in the dispatching stage, the
    /// duplicate's possible enqueue times are on record (dispatch and
    /// reissue timestamps), so the queue is binary-searched. Once the
    /// request has moved on — or completed — a fault-free run provably
    /// has nothing left to cancel (the winning response already
    /// tombstoned every sibling duplicate), so the message is dropped
    /// without touching the queue; only fault runs, where failover can
    /// strand extra duplicates, pay the full scan.
    fn on_cancel_arrival(
        &mut self,
        component: ComponentId,
        request: RequestId,
        stage: u32,
        partition: u32,
    ) {
        // Borrow discipline: copy the (tiny) partition state out of the
        // request first, then operate on the component queue.
        let current = self
            .requests
            .get(request)
            .filter(|req| req.stage == stage)
            .map(|req| req.partitions[partition as usize]);
        let removed = match current {
            Some(p) => {
                let times = [p.dispatched_at, p.reissued_at];
                let idx = self
                    .deployment
                    .replica_index(stage, partition, component)
                    .expect("cancellations target group members");
                if self.track_queued_mask && p.queued_mask & (1 << idx) == 0 {
                    // The mask proves the duplicate is no longer queued
                    // (started, finished or already cancelled): skip the
                    // search.
                    debug_assert_eq!(
                        self.comps[component.index()]
                            .cancel_queued_at(request, stage, partition, times),
                        0
                    );
                    0
                } else {
                    let removed = self.comps[component.index()]
                        .cancel_queued_at(request, stage, partition, times);
                    if self.track_queued_mask && removed > 0 {
                        if let Some(req) = self.requests.get_mut(request) {
                            req.partitions[partition as usize].queued_mask &= !(1 << idx);
                        }
                    }
                    removed
                }
            }
            None => {
                if self.config.faults.is_empty() {
                    debug_assert_eq!(
                        self.comps[component.index()].cancel_queued(request, stage, partition),
                        0,
                        "a fault-free run leaves no duplicate behind a finished stage"
                    );
                    0
                } else {
                    self.comps[component.index()].cancel_queued(request, stage, partition)
                }
            }
        };
        self.collectors.stats.cancelled_duplicates += removed as u64;
    }

    fn advance_stage(&mut self, request: RequestId) {
        let now = self.queue.now();
        let stage_count = self.deployment.stage_count() as u32;
        let req = self
            .requests
            .get_mut(request)
            .expect("advancing unknown request");
        let next = req.stage + 1;
        if next == stage_count {
            let total = now - req.arrived;
            let arrived = req.arrived;
            if !self.in_warmup {
                self.collectors.overall_latency.record(total);
            }
            self.collectors.stats.requests_completed += 1;
            self.requests.remove(request);
            if let Some(obs) = &mut self.observer {
                obs.complete_request(request, arrived, now, total, self.in_warmup);
            }
            return;
        }
        let partitions = self.deployment.partition_count(next);
        req.enter_stage(next, partitions, now);
        for p in 0..partitions {
            self.dispatch_partition(request, next, p as u32);
        }
    }

    fn on_reissue(&mut self, request: RequestId, stage: u32, partition: u32) {
        let now = self.queue.now();
        let Some(req) = self.requests.get_mut(request) else {
            return;
        };
        if req.stage != stage {
            return; // stale timer from an earlier stage
        }
        let p = &mut req.partitions[partition as usize];
        if p.done {
            return;
        }
        let group = self.deployment.replicas(stage, partition);
        // Claim unused replicas lowest-index first, skipping dead ones
        // (a reissue to a killed backup would be lost on the wire).
        let mut target = None;
        while let Some(idx) = p.next_unused(group.len()) {
            p.mark_used(idx);
            if self.cluster.is_alive(self.comps[group[idx].index()].node) {
                target = Some((group[idx], idx));
                break;
            }
        }
        let Some((target, idx)) = target else {
            return; // no live unused replica left
        };
        // Record the duplicate's enqueue time so a later cancellation can
        // locate it by binary search instead of scanning, and — when the
        // duplicate will actually wait in a queue — its bit in the
        // queued-duplicate mask.
        p.reissued_at = now;
        if self.track_queued_mask && self.comps[target.index()].in_service.is_some() {
            p.queued_mask |= 1 << idx;
        }
        self.collectors.stats.reissues += 1;
        let item = QueueItem {
            request,
            stage,
            partition,
            enqueued_at: now,
        };
        self.enqueue_sub(target, item);
    }

    /// Drops a request that can no longer complete (a sub-request lost
    /// its whole replica group, or the failover policy dropped its work).
    /// Later responses for it count as wasted executions; stale reissue
    /// timers and cancellations already tolerate missing requests.
    fn lose_request(&mut self, request: RequestId) {
        if self.requests.remove(request) {
            self.collectors.fault_stats.requests_lost += 1;
            if let Some(obs) = &mut self.observer {
                obs.drop_request(request);
            }
        }
    }

    /// Handles one sub-request disrupted by a node kill, per the
    /// configured [`FailoverPolicy`].
    fn fail_over(&mut self, item: QueueItem) {
        if !self.requests.contains(item.request) {
            return; // already completed or lost
        }
        match self.config.failover {
            FailoverPolicy::Drop => self.lose_request(item.request),
            FailoverPolicy::Failover => {
                let target = self
                    .deployment
                    .replicas(item.stage, item.partition)
                    .iter()
                    .copied()
                    .find(|c| self.cluster.is_alive(self.comps[c.index()].node));
                match target {
                    Some(target) => {
                        self.collectors.fault_stats.failed_over += 1;
                        if let Some(obs) = &mut self.observer {
                            obs.note_failover(
                                item.request,
                                item.stage as u8,
                                item.partition as u16,
                                self.queue.now(),
                            );
                        }
                        // The item keeps its original enqueue time, so the
                        // component-latency metric absorbs the disruption.
                        self.enqueue_sub(target, item);
                    }
                    None => self.lose_request(item.request),
                }
            }
        }
    }

    fn on_node_fault(&mut self, node: NodeId, kind: FaultKind) {
        let now = self.queue.now();
        match kind {
            FaultKind::Kill => {
                if !self.cluster.kill_node(node) {
                    return; // already dead: idempotent
                }
                self.down_nodes += 1;
                self.kills_seen = true;
                // Detector bookkeeping: the change becomes visible to
                // hooks only after the detection latency elapses.
                self.prev_alive[node.index()] = true;
                self.liveness_changed_at[node.index()] = now;
                self.collectors.fault_stats.kills += 1;
                if let Some(obs) = &mut self.observer {
                    obs.set_fault_active(true);
                }
                // Strand every hosted component: abort its execution (the
                // pending completion event goes stale via the epoch), zero
                // its demand bookkeeping, and collect its disrupted work.
                let mut disrupted: Vec<QueueItem> = Vec::new();
                for c in &mut self.comps {
                    if c.node != node {
                        continue;
                    }
                    if c.orphaned_since.is_none() {
                        c.orphaned_since = Some(now);
                        self.collectors.fault_stats.orphaned += 1;
                    }
                    c.epoch = c.epoch.wrapping_add(1);
                    c.busy_accum = SimDuration::ZERO;
                    c.utilization = 0.0;
                    c.contribution = ResourceVector::ZERO;
                    if let Some(inflight) = c.in_service.take() {
                        // Drop the now-stale completion from the queue's
                        // per-component slot (it would be ignored by the
                        // epoch fence anyway), keeping the slot free for
                        // the component's next service start.
                        self.queue.cancel_completion(c.id);
                        disrupted.push(inflight.item);
                    }
                    // Tombstoned entries were already cancelled; only live
                    // work is disrupted. The emptied queue is trivially
                    // time-sorted again.
                    disrupted.extend(
                        c.queue
                            .drain(..)
                            .filter(|q| q.request != RequestId::TOMBSTONE),
                    );
                    c.queue_time_sorted = true;
                }
                for item in disrupted {
                    self.fail_over(item);
                }
            }
            FaultKind::Restore => {
                if !self.cluster.restore_node(node) {
                    return; // already alive: idempotent
                }
                self.down_nodes -= 1;
                self.prev_alive[node.index()] = false;
                self.liveness_changed_at[node.index()] = now;
                self.collectors.fault_stats.restores += 1;
                let still_down = self.down_nodes > 0;
                if let Some(obs) = &mut self.observer {
                    obs.set_fault_active(still_down);
                }
                // Components still stranded here resume in place: the
                // node's return re-places them without a migration.
                for ci in 0..self.comps.len() {
                    if self.comps[ci].node != node {
                        continue;
                    }
                    if let Some(since) = self.comps[ci].orphaned_since.take() {
                        self.collectors.fault_stats.restored_in_place += 1;
                        self.collectors.record_evacuation(now - since);
                    }
                }
            }
            FaultKind::Degrade { factor } => {
                // The node turns gray: liveness, orphan state and queues
                // are untouched — only service times drawn on it from now
                // on are scaled (the degrade bumps the node's demand
                // version, so the memoised means re-derive).
                let before = self.cluster.slowdown(node);
                self.cluster.degrade_node(node, factor);
                if self.cluster.slowdown(node) == before {
                    return; // same factor: idempotent
                }
                self.collectors.fault_stats.degrades += 1;
                self.degraded_nodes = self.cluster.degraded_count();
                if let Some(obs) = &mut self.observer {
                    obs.set_degraded(self.degraded_nodes > 0);
                }
            }
            FaultKind::Recover => {
                if !self.cluster.recover_node(node) {
                    return; // not degraded: idempotent
                }
                self.collectors.fault_stats.recovers += 1;
                self.degraded_nodes = self.cluster.degraded_count();
                if let Some(obs) = &mut self.observer {
                    obs.set_degraded(self.degraded_nodes > 0);
                }
            }
        }
    }

    // ---- environment ------------------------------------------------

    fn on_batch_arrival(&mut self, node: NodeId) {
        let now = self.queue.now();
        let Some(gen) = &self.jobgen else { return };
        let job = gen.next_job(&mut self.rng);
        // A dead node runs no batch jobs, but its arrival process keeps
        // ticking so churn resumes the moment it is restored.
        if self.cluster.is_alive(node) {
            let id = self.cluster.start_job(node, job.demand);
            self.collectors.stats.batch_jobs_started += 1;
            self.queue
                .schedule(now + job.duration, Event::BatchDeparture { node, job: id });
        }
        let next = now + gen.next_interarrival(&mut self.rng);
        if next <= self.end_cap {
            self.queue.schedule(next, Event::BatchArrival { node });
        }
    }

    fn on_monitor_tick(&mut self) {
        let now = self.queue.now();
        // Refresh component utilisations and their node-demand
        // contributions from the window's exact busy-time integrals.
        let window = now - self.last_monitor_tick;
        if !window.is_zero() {
            let window_secs = window.as_secs_f64();
            for ci in 0..self.comps.len() {
                // Stranded components serve nothing and register no
                // demand; their state resumes updating once re-placed
                // (or their node restored).
                if self.down_nodes > 0 && !self.cluster.is_alive(self.comps[ci].node) {
                    continue;
                }
                let mut busy = self.comps[ci].busy_accum;
                if let Some(inflight) = self.comps[ci].in_service {
                    busy += now - inflight.started_at.max(self.last_monitor_tick);
                }
                self.comps[ci].busy_accum = SimDuration::ZERO;
                let frac = (busy.as_secs_f64() / window_secs).min(1.0);
                // Light smoothing keeps migration decisions from chasing
                // single-window noise.
                let util = 0.5 * self.comps[ci].utilization + 0.5 * frac;
                self.comps[ci].utilization = util;
                let new_contrib = self.class_own_demand[self.comps[ci].class].scaled(util);
                let node = self.comps[ci].node;
                let old_contrib = self.comps[ci].contribution;
                self.cluster.remove_component_demand(node, old_contrib);
                self.cluster.add_component_demand(node, new_contrib);
                self.comps[ci].contribution = new_contrib;
            }
        }
        self.last_monitor_tick = now;

        for n in 0..self.cluster.len() {
            let u = self.cluster.contention(NodeId::from_index(n));
            self.samplers[n].observe(now, &u, &mut self.rng);
        }
        // Elastic capacity: one control evaluation per monitor window,
        // over the same observed state the hooks see (never ground
        // truth). Absent an autoscaler this is a no-op and the event
        // stream stays bit-identical to previous releases.
        if self.autoscaler.is_some() {
            let signals = crate::autoscale::AutoscaleSignals {
                busy_utilization: self.comps.iter().map(|c| c.utilization).sum(),
                queue_depth: self.comps.iter().map(|c| c.queue_len() as u64).sum(),
                component_count: self.comps.len(),
            };
            let in_warmup = self.in_warmup;
            let a = self.autoscaler.as_mut().expect("checked above");
            a.on_monitor_tick(now, &signals, in_warmup);
            // A drain of a node that hosts nothing (possible the moment
            // the order lands on a sparsely-placed cluster) needs no
            // evacuation, so the migration-complete retirement path
            // would never fire: retire empty draining nodes here.
            for n in 0..self.cluster.len() {
                let draining = self.autoscaler.as_ref().is_some_and(|a| a.is_draining(n));
                if draining && self.comps.iter().all(|c| c.node.index() != n) {
                    if let Some(a) = &mut self.autoscaler {
                        a.note_drained(n, now);
                    }
                }
            }
        }
        // One time-series row per monitor window: per-node state plus
        // window deltas of the mechanism counters (the observer converts
        // the cumulative values). Pure reads — nothing below mutates
        // simulation state.
        if let Some(observer) = &mut self.observer {
            let mut util = vec![0.0; self.cluster.len()];
            let mut depth = vec![0u64; self.cluster.len()];
            for c in &self.comps {
                util[c.node.index()] += c.utilization;
                depth[c.node.index()] += c.queue_len() as u64;
            }
            let (warming, draining, autoscale_actions) = match &self.autoscaler {
                Some(a) => {
                    let mut warming = 0u64;
                    let mut draining = 0u64;
                    for n in 0..self.cluster.len() {
                        match a.status(n) {
                            crate::faults::NodeStatus::Warming => warming += 1,
                            crate::faults::NodeStatus::Draining => draining += 1,
                            _ => {}
                        }
                    }
                    let stats = a.report().stats;
                    (
                        warming,
                        draining,
                        stats.scale_out_actions + stats.scale_in_actions,
                    )
                }
                None => (0, 0, 0),
            };
            let sample = WindowSample {
                at: now,
                node_utilization: util,
                node_queue_depth: depth,
                migrations: self.collectors.stats.migrations,
                reissues: self.collectors.stats.reissues,
                autoscale_actions,
                warming_nodes: warming,
                draining_nodes: draining,
                down_nodes: self.down_nodes as u64,
                degraded_nodes: self.degraded_nodes as u64,
                suspected_nodes: self.suspected_down,
            };
            observer.record_window(sample);
        }
        let next = now + self.config.sampler.system_period;
        if next <= self.end_cap {
            self.queue.schedule(next, Event::MonitorTick);
        }
    }

    fn on_scheduler_tick(&mut self) {
        let now = self.queue.now();
        // Non-migrating hooks never read the context: skip assembling it
        // (pure derivations of monitor state — no RNG, no mutation — so
        // the skip is invisible to the trace). The monitors' lazily
        // evicted buffers still need their periodic trim, which the
        // context assembly would otherwise perform.
        if !self.hook.wants_context() {
            debug_assert!(self.hook.on_interval(&empty_context(now)).is_empty());
            for estimator in &mut self.rate_estimators {
                estimator.trim(now);
            }
            for sampler in &mut self.samplers {
                sampler.discard_window();
            }
            if let Some(observer) = &mut self.observer {
                let audit = self.hook.take_interval_audit();
                observer.on_scheduler_interval(audit);
            }
            let next = now + self.config.scheduler_interval;
            if next <= self.end_cap {
                self.queue.schedule(next, Event::SchedulerTick);
            }
            return;
        }
        // Context assembly over reusable buffers (`ctx_bufs`): every
        // derivation is a pure read of monitor state, only the allocations
        // are recycled across intervals.
        let bufs = &mut self.ctx_bufs;
        bufs.metas.clear();
        bufs.metas.extend(self.comps.iter().map(|c| ComponentMeta {
            id: c.id,
            class: c.class,
            stage: c.stage as usize,
            node: c.node,
            migrating: c.migrating_to.is_some(),
            // Table III's U_ci: the demand this component actually
            // exerts right now (own demand × utilisation).
            own_demand: c.contribution,
        }));
        for (sampler, window) in self.samplers.iter_mut().zip(bufs.windows.iter_mut()) {
            sampler.drain_window_into(window);
        }
        bufs.rates.clear();
        bufs.rates
            .extend((0..self.comps.len()).map(|i| self.rate_estimators[i].rate(now)));
        bufs.scvs.clear();
        bufs.scvs.extend(
            (0..self.comps.len())
                .map(|i| self.service_windows[i].scv_or(self.class_scv[self.comps[i].class])),
        );
        bufs.demands.clear();
        bufs.status.clear();
        bufs.versions.clear();
        let mut suspected: u64 = 0;
        for n in 0..self.cluster.len() {
            let node = self.cluster.node(NodeId::from_index(n));
            bufs.demands.push(node.total_demand());
            // On elastic runs the autoscaler owns membership status
            // (warming/draining nodes stay cluster-alive: batch churn
            // continues); otherwise status is fault liveness — filtered
            // through the failure detector when one is configured.
            let status = match &self.autoscaler {
                Some(a) => a.status(n),
                None => {
                    let truth_up = node.is_alive();
                    match (&self.config.detector, &mut self.detector_rng) {
                        (Some(det), Some(rng)) => {
                            // Until the detection latency elapses the
                            // detector still reports the pre-change
                            // liveness; afterwards it sees the truth but
                            // flips it with the configured error rates.
                            // One draw per (tick, node), consumed
                            // unconditionally, keeps the detector lane
                            // aligned whatever the statuses are.
                            let settled =
                                now >= self.liveness_changed_at[n] + det.detection_latency;
                            let believed_up = if settled {
                                truth_up
                            } else {
                                self.prev_alive[n]
                            };
                            let u: f64 = rng.gen();
                            let reported_up = if believed_up {
                                u >= det.false_positive_rate
                            } else {
                                u < det.false_negative_rate
                            };
                            if reported_up {
                                crate::faults::NodeStatus::Up
                            } else {
                                suspected += 1;
                                crate::faults::NodeStatus::Down
                            }
                        }
                        _ => {
                            if truth_up {
                                crate::faults::NodeStatus::Up
                            } else {
                                crate::faults::NodeStatus::Down
                            }
                        }
                    }
                }
            };
            bufs.status.push(status);
            bufs.versions
                .push(self.cluster.demand_version(NodeId::from_index(n)));
        }
        if self.config.detector.is_some() {
            self.suspected_down = suspected;
        }
        let ctx = SchedulerContext {
            now,
            components: &bufs.metas,
            node_capacities: &bufs.caps,
            sampled_windows: &bufs.windows,
            arrival_rates: &bufs.rates,
            service_scv: &bufs.scvs,
            stage_count: self.deployment.stage_count(),
            ground_truth_demand: &bufs.demands,
            node_status: &bufs.status,
            replica_peers: &self.replica_peers,
            demand_versions: &bufs.versions,
            rack_of: &bufs.racks,
        };
        let migrations = self.hook.on_interval(&ctx);
        for mr in migrations {
            let ci = mr.component.index();
            if ci >= self.comps.len() || mr.to.index() >= self.cluster.len() {
                continue; // ignore malformed orders
            }
            if !self.cluster.is_alive(mr.to) {
                continue; // never migrate onto a dead node
            }
            if self
                .autoscaler
                .as_ref()
                .is_some_and(|a| !a.accepts_placements(mr.to.index()))
            {
                continue; // warming/draining/retired nodes take no placements
            }
            if self.comps[ci].migrating_to.is_some() || self.comps[ci].node == mr.to {
                continue;
            }
            if self.violates_anti_affinity(mr.component, mr.to) {
                // Never co-locate two members of a replica group: hooks
                // don't know the deployment layout, so the world enforces
                // the invariant placement established (a no-op for
                // replication-1 techniques, whose groups are singletons).
                continue;
            }
            self.comps[ci].migrating_to = Some(mr.to);
            self.collectors.stats.migrations += 1;
            self.queue.schedule(
                now + self.config.migration_latency,
                Event::MigrationComplete {
                    component: mr.component,
                    to: mr.to,
                },
            );
        }
        if let Some(observer) = &mut self.observer {
            let audit = self.hook.take_interval_audit();
            observer.on_scheduler_interval(audit);
        }
        let next = now + self.config.scheduler_interval;
        if next <= self.end_cap {
            self.queue.schedule(next, Event::SchedulerTick);
        }
    }

    /// True if migrating `component` to `to` would put two members of
    /// any replica group on one node. In-flight migrations count by
    /// their destination, so two same-tick orders cannot race into a
    /// collision.
    fn violates_anti_affinity(&self, component: ComponentId, to: NodeId) -> bool {
        self.replica_peers[component.index()].iter().any(|&other| {
            let oc = &self.comps[other.index()];
            oc.migrating_to.unwrap_or(oc.node) == to
        })
    }

    fn on_migration_complete(&mut self, component: ComponentId, to: NodeId) {
        let ci = component.index();
        if self.comps[ci].migrating_to != Some(to) {
            return; // superseded
        }
        if !self.cluster.is_alive(to) {
            // The destination died while the migration was in flight:
            // abort, keeping the component where it is (the scheduler
            // will re-order against live nodes next interval).
            self.comps[ci].migrating_to = None;
            return;
        }
        if self
            .autoscaler
            .as_ref()
            .is_some_and(|a| !a.accepts_placements(to.index()))
        {
            // The destination left the active fleet (drain or retirement
            // ordered mid-flight): abort the same way.
            self.comps[ci].migrating_to = None;
            return;
        }
        let contrib = self.comps[ci].contribution;
        let from = self.comps[ci].node;
        self.cluster.remove_component_demand(from, contrib);
        self.cluster.add_component_demand(to, contrib);
        self.comps[ci].node = to;
        self.comps[ci].migrating_to = None;
        // Landing on a live node resolves an orphan: this migration *is*
        // the evacuation the fault metrics measure.
        if let Some(since) = self.comps[ci].orphaned_since.take() {
            self.collectors.fault_stats.evacuated += 1;
            let now = self.queue.now();
            self.collectors.record_evacuation(now - since);
        }
        // A draining node retires the moment its last component leaves.
        // The queue and in-flight work moved with the component, so the
        // drain loses nothing by construction.
        let now = self.queue.now();
        if let Some(a) = &mut self.autoscaler {
            if a.is_draining(from.index()) && self.comps.iter().all(|c| c.node != from) {
                a.note_drained(from.index(), now);
            }
        }
    }

    // ---- test/diagnostic accessors -----------------------------------

    /// Current placement (dense by component id). Exposed for tests and
    /// experiment drivers.
    pub fn placement(&self) -> Vec<NodeId> {
        self.comps.iter().map(|c| c.node).collect()
    }

    /// The configured topology's class for each stage.
    pub fn stage_classes(&self) -> &[usize] {
        &self.stage_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use crate::policy::{BasicPolicy, NoopScheduler};
    use pcs_workloads::ServiceTopology;

    fn quiet_config(rate: f64, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_like(ServiceTopology::nutch(4), rate, seed);
        cfg.node_count = 6;
        cfg.horizon = SimDuration::from_secs(8);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.jobgen = None; // quiet cluster: latencies should be near base
        cfg
    }

    fn run_basic(cfg: SimConfig) -> RunReport {
        Simulation::new(cfg, Box::new(BasicPolicy), Box::new(NoopScheduler)).run()
    }

    #[test]
    fn completes_requests_on_quiet_cluster() {
        let report = run_basic(quiet_config(50.0, 7));
        // ~50 req/s over 6 measured seconds ≈ 300 requests.
        assert!(
            report.stats.requests_completed > 200,
            "completed only {}",
            report.stats.requests_completed
        );
        assert_eq!(report.stats.requests_censored, 0);
        assert!(report.overall_latency.count > 0);
        assert!(report.component_latency.count > 0);
    }

    #[test]
    fn quiet_cluster_latency_near_base_service_times() {
        let report = run_basic(quiet_config(20.0, 3));
        // Idle-node overall ≈ 0.3ms + 1.2ms·(max of 4 draws) + 0.5ms plus
        // small own-demand contention: mean must sit in the low millisecond
        // range, far below any contended scenario.
        let mean_ms = report.overall_mean_ms();
        assert!(
            mean_ms > 1.0 && mean_ms < 15.0,
            "quiet-cluster mean overall latency {mean_ms}ms out of range"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = run_basic(quiet_config(30.0, 42));
        let b = run_basic(quiet_config(30.0, 42));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.overall_latency.count, b.overall_latency.count);
        assert!((a.overall_latency.mean - b.overall_latency.mean).abs() < 1e-15);
        assert!((a.component_latency.p99 - b.component_latency.p99).abs() < 1e-15);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_basic(quiet_config(30.0, 1));
        let b = run_basic(quiet_config(30.0, 2));
        assert!(
            (a.overall_latency.mean - b.overall_latency.mean).abs() > 1e-12,
            "different seeds should give different samples"
        );
    }

    #[test]
    fn batch_churn_inflates_latency() {
        let mut with_jobs = quiet_config(50.0, 11);
        with_jobs.jobgen = Some(pcs_workloads::JobGenConfig::paper_mix(6.0));
        let loaded = run_basic(with_jobs);
        let quiet = run_basic(quiet_config(50.0, 11));
        assert!(
            loaded.overall_latency.mean > quiet.overall_latency.mean,
            "co-located batch jobs must inflate latency: {} vs {}",
            loaded.overall_latency.mean,
            quiet.overall_latency.mean
        );
        assert!(loaded.stats.batch_jobs_started > 0);
    }

    #[test]
    fn no_request_is_lost() {
        let report = run_basic(quiet_config(100.0, 9));
        // Conservation: every arrival either completed or was censored.
        // (Completed counter was reset at warm-up end, so compare via
        // censored = 0 on a drained run.)
        assert_eq!(report.stats.requests_censored, 0);
    }

    #[test]
    fn executions_match_subrequests_for_basic() {
        let report = run_basic(quiet_config(40.0, 5));
        // Basic: every request takes exactly 1 + 4 + 1 = 6 executions, no
        // redundancy → no waste, no cancellations.
        assert_eq!(report.stats.wasted_executions, 0);
        assert_eq!(report.stats.cancelled_duplicates, 0);
        assert_eq!(report.stats.reissues, 0);
        assert_eq!(
            report.stats.executions,
            report.stats.requests_completed * 6,
            "work conservation for Basic"
        );
    }

    #[test]
    fn replication_config_must_match_policy() {
        let mut cfg = quiet_config(10.0, 1);
        cfg.deployment = DeploymentConfig { replication: 3 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulation::new(cfg, Box::new(BasicPolicy), Box::new(NoopScheduler))
        }));
        assert!(result.is_err(), "mismatched replication must panic");
    }

    #[test]
    fn diurnal_arrivals_complete_and_differ_from_steady() {
        let mut steady = quiet_config(60.0, 17);
        steady.horizon = SimDuration::from_secs(10);
        let mut diurnal = steady.clone();
        diurnal.arrival_pattern = pcs_workloads::ArrivalPattern::Diurnal {
            amplitude: 0.8,
            period: SimDuration::from_secs(10),
        };
        let s = run_basic(steady);
        let d = run_basic(diurnal);
        // One full sinusoid period averages out to the base rate, so the
        // diurnal run serves a comparable volume over a different trace.
        assert!(d.stats.requests_completed > 200);
        let ratio = d.stats.requests_completed as f64 / s.stats.requests_completed as f64;
        assert!(
            (0.7..1.3).contains(&ratio),
            "diurnal volume should straddle the steady volume, ratio {ratio}"
        );
        assert_ne!(s.stats, d.stats, "modulated arrivals must change the trace");
    }

    #[test]
    fn heterogeneous_cluster_slows_weak_node_components() {
        // All components pinned by anti-affinity round-robin over 6 nodes;
        // three are 4x weaker in every capacity. Same seed, homogeneous vs
        // mixed: the mixed cluster must serve strictly slower overall.
        let mut homo = quiet_config(50.0, 23);
        homo.jobgen = Some(pcs_workloads::JobGenConfig::paper_mix_compressed(5.0, 0.1));
        let mut hetero = homo.clone();
        let strong = pcs_types::NodeCapacity::XEON_E5645;
        let weak = pcs_types::NodeCapacity::new(3.0, 50.0, 31.25);
        hetero.node_capacities = Some(vec![strong, weak, strong, weak, strong, weak]);
        let h = run_basic(homo);
        let x = run_basic(hetero);
        assert!(x.stats.requests_completed > 200);
        assert!(
            x.overall_latency.mean > h.overall_latency.mean,
            "weak nodes must inflate latency: {} vs {}",
            x.overall_latency.mean,
            h.overall_latency.mean
        );
    }

    /// A hook that migrates component 1 to node 0 once.
    struct OneShot {
        fired: bool,
    }
    impl SchedulerHook for OneShot {
        fn on_interval(
            &mut self,
            ctx: &SchedulerContext<'_>,
        ) -> Vec<crate::policy::MigrationRequest> {
            if self.fired {
                return vec![];
            }
            self.fired = true;
            let c = ctx.components[1];
            let target = NodeId::new(0);
            if c.node == target {
                return vec![];
            }
            vec![crate::policy::MigrationRequest {
                component: c.id,
                to: target,
            }]
        }
    }

    #[test]
    fn migrations_move_components() {
        let mut cfg = quiet_config(10.0, 13);
        // Keep the warm-up boundary away from scheduler ticks so the
        // migration counter is not reset in the same event batch.
        cfg.warmup = SimDuration::from_millis(1500);
        let sim = Simulation::new(
            cfg,
            Box::new(BasicPolicy),
            Box::new(OneShot { fired: false }),
        );
        let before = sim.placement();
        assert_ne!(before[1], NodeId::new(0));
        let report = sim.run();
        assert_eq!(report.stats.migrations, 1);
    }

    // ---- fault injection --------------------------------------------

    use crate::faults::{FailoverPolicy, FaultEvent, FaultKind, FaultPlan};

    fn kill_at(node: usize, at_secs: f64) -> FaultEvent {
        FaultEvent {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            node: NodeId::from_index(node),
            kind: FaultKind::Kill,
        }
    }

    fn restore_at(node: usize, at_secs: f64) -> FaultEvent {
        FaultEvent {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            node: NodeId::from_index(node),
            kind: FaultKind::Restore,
        }
    }

    /// Basic dispatch over a 2-replica deployment: always the primary,
    /// so the backup only ever serves failovers.
    #[derive(Debug, Clone, Copy)]
    struct PrimaryOnly;
    impl DispatchPolicy for PrimaryOnly {
        fn name(&self) -> &'static str {
            "PrimaryOnly"
        }
        fn replication(&self) -> usize {
            2
        }
        fn initial_targets(
            &mut self,
            replicas: &[ComponentId],
            _rng: &mut SmallRng,
            out: &mut Vec<ComponentId>,
        ) {
            out.push(replicas[0]);
        }
        fn reissue_delay(&mut self, _class: usize) -> Option<SimDuration> {
            None
        }
        fn observe_latency(&mut self, _class: usize, _latency: SimDuration) {}
        fn cancel_on_start(&self) -> bool {
            false
        }
    }

    /// A killed node must receive zero new work while down: its
    /// components' execution counters freeze from the kill to the end of
    /// the run (drive the event loop by hand to snapshot mid-run state).
    #[test]
    fn killed_node_receives_zero_new_work() {
        let mut cfg = quiet_config(60.0, 31);
        cfg.faults = FaultPlan::new(vec![kill_at(2, 4.0)]);
        let mut sim = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(NoopScheduler));
        let on_node_2: Vec<usize> = (0..sim.comps.len())
            .filter(|&ci| sim.comps[ci].node == NodeId::new(2))
            .collect();
        assert!(!on_node_2.is_empty(), "node 2 must host components");
        let mut at_kill: Option<Vec<u64>> = None;
        while let Some((t, event)) = sim.queue.pop() {
            if t > sim.end_cap {
                break;
            }
            if at_kill.is_none() && t > SimTime::from_secs(4) {
                at_kill = Some(
                    on_node_2
                        .iter()
                        .map(|&ci| sim.comps[ci].executions)
                        .collect(),
                );
            }
            sim.handle(event);
        }
        let frozen: Vec<u64> = on_node_2
            .iter()
            .map(|&ci| sim.comps[ci].executions)
            .collect();
        assert_eq!(
            at_kill.expect("the run outlives the kill"),
            frozen,
            "executions on the dead node must freeze at the kill"
        );
        for &ci in &on_node_2 {
            assert!(sim.comps[ci].in_service.is_none());
            assert!(sim.comps[ci].queue.is_empty());
            assert!(sim.comps[ci].orphaned_since.is_some(), "still orphaned");
        }
    }

    /// With a surviving replica, failover reroutes the dead node's work
    /// and no request is lost; with `Drop`, the disrupted requests die.
    #[test]
    fn failover_reroutes_and_drop_loses() {
        // Node 2 hosts exactly searcher partition 1 (nutch(4) on 6 nodes:
        // component i sits on node i); its replica group is {c2, c3}.
        // The rate is high enough that the kill catches in-flight work.
        let mut base = quiet_config(700.0, 17);
        base.faults = FaultPlan::new(vec![kill_at(2, 4.0)]);
        base.deployment = DeploymentConfig { replication: 2 };

        let failover =
            Simulation::new(base.clone(), Box::new(PrimaryOnly), Box::new(NoopScheduler)).run();
        assert_eq!(failover.faults.stats.kills, 1);
        assert!(failover.faults.stats.orphaned >= 1);
        assert_eq!(
            failover.faults.stats.requests_lost, 0,
            "a live replica absorbs the dead primary's work"
        );
        assert!(failover.faults.stats.failed_over > 0);
        assert!(failover.stats.requests_completed > 200);

        let mut drop_cfg = base;
        drop_cfg.failover = FailoverPolicy::Drop;
        let dropped =
            Simulation::new(drop_cfg, Box::new(PrimaryOnly), Box::new(NoopScheduler)).run();
        assert!(
            dropped.faults.stats.requests_lost > 0,
            "Drop must lose the disrupted requests"
        );
        assert_eq!(dropped.faults.stats.failed_over, 0);
    }

    /// Replication 1 and no scheduler: killing a searcher node makes its
    /// partition unservable, so every subsequent request is lost until
    /// the node returns — and the restore resolves the orphan in place.
    #[test]
    fn restore_resolves_orphans_in_place() {
        let mut cfg = quiet_config(50.0, 23);
        cfg.faults = FaultPlan::new(vec![kill_at(3, 4.0), restore_at(3, 6.0)]);
        let report = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(NoopScheduler)).run();
        assert_eq!(report.faults.stats.kills, 1);
        assert_eq!(report.faults.stats.restores, 1);
        assert_eq!(report.faults.stats.orphaned, 1);
        assert_eq!(report.faults.stats.restored_in_place, 1);
        assert_eq!(report.faults.stats.evacuated, 0);
        assert_eq!(report.faults.unresolved_orphans, 0);
        // Kill → restore took 2 s: that is the re-placement latency.
        assert_eq!(report.faults.evacuation_ms(), Some(2000.0));
        assert!(
            report.faults.stats.requests_lost > 0,
            "an unreplicated partition loses its requests while down"
        );
        // Traffic resumes after the restore: the post-fault window has
        // completions again.
        assert!(report.faults.post_fault.count > 0);
        assert!(report.faults.pre_fault.count > 0);
    }

    /// Duplicate kills and restores are idempotent: effective transitions
    /// are counted once and the liveness bookkeeping stays balanced.
    #[test]
    fn kill_and_restore_are_idempotent() {
        let mut cfg = quiet_config(40.0, 29);
        cfg.faults = FaultPlan::new(vec![
            kill_at(1, 3.0),
            kill_at(1, 3.5),
            restore_at(1, 5.0),
            restore_at(1, 5.5),
        ]);
        let report = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(NoopScheduler)).run();
        assert_eq!(report.faults.stats.kills, 1, "second kill is a no-op");
        assert_eq!(report.faults.stats.restores, 1, "second restore too");
        assert_eq!(report.faults.stats.orphaned, 1);
        assert_eq!(report.faults.unresolved_orphans, 0);
        assert!(report.faults.post_fault.count > 0, "the node came back");
    }

    /// A hook that evacuates one stranded component per interval onto
    /// node 0 — the minimal liveness-aware scheduler.
    struct Evacuator;
    impl SchedulerHook for Evacuator {
        fn on_interval(
            &mut self,
            ctx: &SchedulerContext<'_>,
        ) -> Vec<crate::policy::MigrationRequest> {
            for c in ctx.components {
                if !ctx.node_status[c.node.index()].is_up() && !c.migrating {
                    return vec![crate::policy::MigrationRequest {
                        component: c.id,
                        to: NodeId::new(0),
                    }];
                }
            }
            Vec::new()
        }
    }

    /// Migrating a stranded component off a dead node counts as an
    /// evacuation, with the kill→re-placement latency measured.
    #[test]
    fn evacuation_metrics_track_migrations_off_dead_nodes() {
        let mut cfg = quiet_config(50.0, 37);
        cfg.warmup = SimDuration::from_millis(1500);
        cfg.faults = FaultPlan::new(vec![kill_at(3, 4.1)]);
        let report = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(Evacuator)).run();
        assert_eq!(report.faults.stats.orphaned, 1);
        assert_eq!(report.faults.stats.evacuated, 1);
        assert_eq!(report.faults.unresolved_orphans, 0);
        let evac = report.faults.evacuation_ms().expect("evacuation completed");
        // Kill at 4.1 s; scheduler ticks every 2 s, so the order lands at
        // 6 s and completes after the 250 ms migration latency.
        assert!(
            (evac - 2150.0).abs() < 1.0,
            "evacuation latency {evac} ms, expected ~2150 ms"
        );
        // Requests flow again once the partition is re-placed.
        assert!(report.faults.post_fault.count == 0, "node never restored");
        assert!(report.faults.during_fault.count > 0);
    }

    /// A hook that tries to pile every component onto node 0.
    struct PileUp;
    impl SchedulerHook for PileUp {
        fn on_interval(
            &mut self,
            ctx: &SchedulerContext<'_>,
        ) -> Vec<crate::policy::MigrationRequest> {
            ctx.components
                .iter()
                .filter(|c| !c.migrating && c.node != NodeId::new(0))
                .map(|c| crate::policy::MigrationRequest {
                    component: c.id,
                    to: NodeId::new(0),
                })
                .collect()
        }
    }

    /// Migrations that would co-locate two members of one replica group
    /// are rejected by the world: under replication 2 a pile-everything-
    /// onto-node-0 hook must leave every group on distinct nodes.
    #[test]
    fn migrations_never_colocate_replica_group_members() {
        let mut cfg = quiet_config(30.0, 41);
        cfg.deployment = DeploymentConfig { replication: 2 };
        // Keep the warm-up boundary away from the first scheduler tick so
        // the migration counter is not reset in the same event batch.
        cfg.warmup = SimDuration::from_millis(1500);
        let sim = Simulation::new(cfg, Box::new(PrimaryOnly), Box::new(PileUp));
        let deployment = sim.deployment.clone();
        let report = sim.run();
        assert!(
            report.stats.migrations > 0,
            "non-conflicting moves must still be accepted"
        );
        // Re-run to inspect the final placement (run() consumes self).
        let mut cfg = quiet_config(30.0, 41);
        cfg.deployment = DeploymentConfig { replication: 2 };
        let mut sim = Simulation::new(cfg, Box::new(PrimaryOnly), Box::new(PileUp));
        while let Some((t, event)) = sim.queue.pop() {
            if t > sim.end_cap {
                break;
            }
            sim.handle(event);
        }
        assert!(
            placement::replicas_on_distinct_nodes(&deployment, &sim.comps),
            "anti-affinity must survive scheduler-driven migrations"
        );
    }

    /// An empty fault plan leaves the run bit-identical to the fault-free
    /// build (the opt-in guarantee the existing scenarios rely on).
    #[test]
    fn empty_fault_plan_changes_nothing() {
        let baseline = run_basic(quiet_config(50.0, 11));
        let mut cfg = quiet_config(50.0, 11);
        cfg.faults = FaultPlan::none();
        let with_empty_plan = run_basic(cfg);
        assert_eq!(baseline.stats, with_empty_plan.stats);
        assert_eq!(baseline.faults, with_empty_plan.faults);
        assert!(
            (baseline.overall_latency.mean - with_empty_plan.overall_latency.mean).abs() < 1e-15
        );
        assert_eq!(baseline.faults, crate::metrics::FaultReport::default());
    }

    // ---- elastic capacity -------------------------------------------

    use crate::autoscale::{AutoscaleConfig, AutoscaleReport};

    fn elastic_cfg(rate: f64, seed: u64) -> SimConfig {
        let mut cfg = quiet_config(rate, seed);
        cfg.autoscale = Some(AutoscaleConfig {
            target_utilization: 0.5,
            step: 1,
            cooldown: SimDuration::from_secs(2),
            cold_start: SimDuration::from_secs(1),
            min_nodes: 3,
            max_nodes: cfg.node_count,
            slo_p99_ms: 1000.0,
        });
        cfg
    }

    /// A run without an autoscaler must report the all-default
    /// [`AutoscaleReport`] (the opt-in guarantee, mirroring fault plans).
    #[test]
    fn no_autoscaler_reports_default() {
        let report = run_basic(quiet_config(50.0, 11));
        assert_eq!(report.autoscale, AutoscaleReport::default());
    }

    /// An idle fleet with an evacuating hook consolidates to the floor:
    /// drains are ordered, components are migrated off, nodes retire, and
    /// not a single request is lost or censored along the way.
    #[test]
    fn idle_elastic_fleet_drains_to_the_floor_without_loss() {
        let cfg = elastic_cfg(20.0, 19);
        let report = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(Evacuator)).run();
        let a = &report.autoscale;
        assert!(a.stats.scale_in_actions >= 3, "stats: {:?}", a.stats);
        assert_eq!(
            a.stats.drains_completed, 3,
            "6-node fleet with floor 3: exactly three nodes retire ({:?})",
            a.stats
        );
        assert!(a.drain_mean > 0.0 && a.drain_max >= a.drain_mean);
        // Zero loss by construction: queued work migrates with its
        // component, so nothing is dropped or stranded.
        assert_eq!(report.stats.requests_censored, 0);
        assert_eq!(report.faults.stats.requests_lost, 0);
        assert!(report.stats.requests_completed > 100);
        // The consolidation must actually show up in the bill: strictly
        // fewer node-seconds than a full fleet for the whole run.
        let full_fleet = 6.0 * report.ended_at.as_secs_f64();
        assert!(
            a.node_seconds < full_fleet - 1.0,
            "node-seconds {} vs full fleet {}",
            a.node_seconds,
            full_fleet
        );
        assert!(a.measured_windows > 0);
    }

    /// A hook that never migrates cannot complete a drain: the node stays
    /// draining (still serving — zero loss), the fleet keeps paying for
    /// it, and exactly one scale-in stays in flight.
    #[test]
    fn blind_hook_never_completes_drains() {
        let cfg = elastic_cfg(20.0, 19);
        let report = run_basic(cfg);
        let a = &report.autoscale;
        assert_eq!(a.stats.scale_in_actions, 1, "one drain batch at a time");
        assert_eq!(a.stats.drains_completed, 0);
        assert_eq!(report.stats.requests_censored, 0);
        assert_eq!(report.faults.stats.requests_lost, 0);
        // The bill stays at the full fleet: draining nodes keep billing.
        let full_fleet = 6.0 * report.ended_at.as_secs_f64();
        assert!((a.node_seconds - full_fleet).abs() < 1e-6);
    }

    /// Demand returning after a consolidation re-joins retired nodes
    /// through the cold-start pipeline (diurnal trough first, peak later).
    #[test]
    fn returning_demand_rejoins_through_cold_start() {
        let mut cfg = elastic_cfg(250.0, 43);
        cfg.horizon = SimDuration::from_secs(18);
        // A target low enough that the second peak overflows the
        // consolidated 3-node floor (peak busy ≈ 1.5 → util ≈ 0.49).
        if let Some(ac) = &mut cfg.autoscale {
            ac.target_utilization = 0.4;
        }
        // sin-shaped rate over a 12 s period: peaks at 3 s and 15 s, a
        // deep trough at 9 s. The trough consolidates the fleet; the
        // second peak arrives after it and must grow the fleet back.
        cfg.arrival_pattern = pcs_workloads::ArrivalPattern::Diurnal {
            amplitude: 0.9,
            period: SimDuration::from_secs(12),
        };
        let report = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(Evacuator)).run();
        let a = &report.autoscale;
        assert!(a.stats.drains_completed >= 1, "stats: {:?}", a.stats);
        assert!(
            a.stats.nodes_joined >= 1 || a.stats.drains_cancelled >= 1,
            "returning demand must add capacity back: {:?}",
            a.stats
        );
        if a.stats.nodes_joined > 0 {
            assert!(
                a.stats.cold_starts_completed > 0,
                "joins pass through the cold start: {:?}",
                a.stats
            );
        }
        assert_eq!(report.stats.requests_censored, 0);
        assert_eq!(report.faults.stats.requests_lost, 0);
    }

    /// Elastic runs are deterministic: equal seeds give equal reports,
    /// membership decisions included.
    #[test]
    fn elastic_runs_are_deterministic() {
        let run = |seed| {
            Simulation::new(
                elastic_cfg(40.0, seed),
                Box::new(BasicPolicy),
                Box::new(Evacuator),
            )
            .run()
        };
        let x = run(5);
        let y = run(5);
        assert_eq!(x.stats, y.stats);
        assert_eq!(x.autoscale, y.autoscale);
        assert!((x.component_latency.p99 - y.component_latency.p99).abs() < 1e-15);
    }

    // ---- observability ----------------------------------------------

    /// Turning the observer on must not perturb the simulated trajectory:
    /// same seed, observe off vs on, identical measurements — the layer
    /// only *adds* the observe section.
    #[test]
    fn observe_layer_does_not_perturb_the_run() {
        let baseline = run_basic(quiet_config(50.0, 11));
        assert!(baseline.observe.is_none());
        let mut cfg = quiet_config(50.0, 11);
        cfg.observe = Some(crate::observe::ObserveConfig { top_k: 7 });
        let observed = run_basic(cfg);
        assert_eq!(baseline.stats, observed.stats);
        assert_eq!(baseline.events_processed, observed.events_processed);
        assert!((baseline.overall_latency.mean - observed.overall_latency.mean).abs() < 1e-15);
        assert!((baseline.component_latency.p99 - observed.component_latency.p99).abs() < 1e-15);

        let obs = observed.observe.expect("observe report present");
        assert_eq!(obs.requests_traced, observed.stats.requests_completed);
        assert_eq!(obs.timelines.len(), 7);
        // Slowest-first retention; the slowest timeline is the recorded
        // overall maximum.
        assert!(
            (obs.timelines[0].total.as_secs_f64() - observed.overall_latency.max).abs() < 1e-12
        );
        assert!(obs.timelines.windows(2).all(|w| w[0].total >= w[1].total));
        // The segments-sum invariant holds for every retained timeline.
        for t in &obs.timelines {
            let sum: u64 = t.segments.iter().map(|s| s.duration().as_micros()).sum();
            assert_eq!(sum, t.total.as_micros(), "timeline of {}", t.id);
        }
        // Attribution covers the cohorts; the tail is at least as slow.
        assert!(obs.attribution.tail_count >= 1);
        assert!(obs.attribution.tail_mean_secs >= obs.attribution.median_mean_secs);
        assert!(!obs.attribution.blame.is_empty());
        // One series row per monitor window (1 s cadence, 13 s run).
        assert!(obs.series.len() >= 8, "series rows: {}", obs.series.len());
        // The no-op hook audits nothing.
        assert!(obs.audits.is_empty());
    }

    /// Observed fault runs classify failover disruption into dedicated
    /// segments while keeping the invariant (exercised by the debug
    /// assertion in `complete_request` on every completion too).
    #[test]
    fn observe_attributes_failover_requeues() {
        // High enough load that the killed component has a deep queue, so
        // the re-dispatched sub-requests land behind the backup's own
        // backlog and finish last — putting the failover on the critical
        // path (a failover absorbed by an idle backup is invisible there,
        // by design).
        let mut cfg = quiet_config(850.0, 17);
        cfg.faults = FaultPlan::new(vec![kill_at(2, 4.0)]);
        cfg.deployment = DeploymentConfig { replication: 2 };
        cfg.observe = Some(crate::observe::ObserveConfig { top_k: 100_000 });
        let report = Simulation::new(cfg, Box::new(PrimaryOnly), Box::new(NoopScheduler)).run();
        assert!(report.faults.stats.failed_over > 0);
        let obs = report.observe.expect("observe report present");
        let requeues = obs
            .timelines
            .iter()
            .flat_map(|t| &t.segments)
            .filter(|s| s.kind == crate::observe::SegmentKind::FailoverRequeue)
            .count();
        assert!(requeues > 0, "failover must surface as requeue segments");
        // Fault-window segments carry the fault flag.
        assert!(obs
            .timelines
            .iter()
            .flat_map(|t| &t.segments)
            .any(|s| s.flags & crate::observe::FLAG_FAULT != 0));
        let during: Vec<_> = obs.series.iter().filter(|r| r.down_nodes > 0).collect();
        assert!(!during.is_empty(), "series must show the down window");
    }

    // ---- stragglers and noisy detection -----------------------------

    fn degrade_at(node: usize, at_secs: f64, factor: f64) -> FaultEvent {
        FaultEvent {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            node: NodeId::from_index(node),
            kind: FaultKind::Degrade { factor },
        }
    }

    fn recover_at(node: usize, at_secs: f64) -> FaultEvent {
        FaultEvent {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            node: NodeId::from_index(node),
            kind: FaultKind::Recover,
        }
    }

    /// A straggler keeps serving — slower. Its window inflates latency,
    /// the degrade/recover counters fire once each, and the degraded
    /// component summary captures the gray-window completions.
    #[test]
    fn straggler_inflates_latency_and_counts_events() {
        let clean = run_basic(quiet_config(50.0, 23));
        let mut cfg = quiet_config(50.0, 23);
        cfg.faults = FaultPlan::new(vec![degrade_at(1, 3.0, 8.0), recover_at(1, 6.0)]);
        let gray = run_basic(cfg);
        assert_eq!(gray.faults.stats.degrades, 1);
        assert_eq!(gray.faults.stats.recovers, 1);
        assert_eq!(gray.faults.stats.kills, 0);
        assert_eq!(
            gray.faults.stats.requests_lost, 0,
            "stragglers lose nothing"
        );
        assert!(
            gray.faults.degraded.count > 0,
            "gray-window completions recorded"
        );
        assert!(
            gray.overall_latency.mean > clean.overall_latency.mean,
            "an 8x straggler must inflate latency: {} vs {}",
            gray.overall_latency.mean,
            clean.overall_latency.mean
        );
    }

    /// `Degrade { factor: 1.0 }` is a provable no-op: the slowdown
    /// multiplier stays 1.0 (and `x * 1.0 == x` in IEEE arithmetic), so
    /// the simulated trajectory is bit-identical to the clean run.
    #[test]
    fn unit_degrade_factor_is_trajectory_identical() {
        let clean = run_basic(quiet_config(50.0, 29));
        let mut cfg = quiet_config(50.0, 29);
        cfg.faults = FaultPlan::new(vec![degrade_at(2, 3.0, 1.0), recover_at(2, 6.0)]);
        let noop = run_basic(cfg);
        assert_eq!(clean.stats, noop.stats);
        assert_eq!(
            noop.faults.stats.degrades, 0,
            "unchanged slowdown is not an event"
        );
        assert_eq!(noop.faults.stats.recovers, 0);
        assert_eq!(noop.faults.degraded.count, 0);
        assert_eq!(clean.overall_latency.count, noop.overall_latency.count);
        assert!((clean.overall_latency.mean - noop.overall_latency.mean).abs() < f64::EPSILON);
        assert!((clean.component_latency.p99 - noop.component_latency.p99).abs() < f64::EPSILON);
    }

    /// A killed-then-restored straggler rejoins still gray: slowdown
    /// survives the kill until an explicit `Recover`.
    #[test]
    fn slowdown_survives_kill_and_restore() {
        let mut cfg = quiet_config(50.0, 37);
        cfg.deployment = DeploymentConfig { replication: 2 };
        cfg.faults = FaultPlan::new(vec![
            degrade_at(1, 2.5, 4.0),
            kill_at(1, 3.0),
            restore_at(1, 4.0),
        ]);
        let mut sim = Simulation::new(cfg, Box::new(PrimaryOnly), Box::new(NoopScheduler));
        while let Some((t, event)) = sim.queue.pop() {
            if t > sim.end_cap {
                break;
            }
            sim.handle(event);
        }
        assert!(sim.cluster.node(NodeId::new(1)).is_alive());
        assert_eq!(sim.cluster.slowdown(NodeId::new(1)), 4.0);
        assert_eq!(sim.degraded_nodes, 1);
    }

    /// A perfect detector (zero latency, zero error rates) reproduces
    /// ground-truth liveness exactly: the full report is identical to the
    /// no-detector run, fault plan and all.
    #[test]
    fn perfect_detector_matches_ground_truth() {
        let faulted = |detector| {
            let mut cfg = quiet_config(60.0, 31);
            cfg.deployment = DeploymentConfig { replication: 2 };
            cfg.faults = FaultPlan::new(vec![kill_at(2, 3.0), restore_at(2, 5.0)]);
            cfg.detector = detector;
            Simulation::new(cfg, Box::new(PrimaryOnly), Box::new(PileUp)).run()
        };
        let truth = faulted(None);
        let detected = faulted(Some(crate::faults::FailureDetector::perfect()));
        assert_eq!(truth.stats, detected.stats);
        assert_eq!(truth.faults, detected.faults);
        assert_eq!(truth.events_processed, detected.events_processed);
        assert!((truth.overall_latency.mean - detected.overall_latency.mean).abs() < f64::EPSILON);
        assert!(
            (truth.component_latency.p99 - detected.component_latency.p99).abs() < f64::EPSILON
        );
    }

    /// Reads the context every interval but never orders anything: the
    /// minimal hook whose perception the detector distorts without the
    /// distortion feeding back into the trajectory.
    #[derive(Debug, Clone, Copy)]
    struct WatchOnly;
    impl SchedulerHook for WatchOnly {
        fn on_interval(
            &mut self,
            _ctx: &SchedulerContext<'_>,
        ) -> Vec<crate::policy::MigrationRequest> {
            Vec::new()
        }
    }

    /// Evacuates suspected-down nodes, but only to a destination it
    /// believes is legal (a liveness-respecting hook, unlike `PileUp`).
    #[derive(Debug, Clone, Copy)]
    struct CautiousEvacuator;
    impl SchedulerHook for CautiousEvacuator {
        fn on_interval(
            &mut self,
            ctx: &SchedulerContext<'_>,
        ) -> Vec<crate::policy::MigrationRequest> {
            for c in ctx.components {
                if !ctx.node_status[c.node.index()].is_up() && !c.migrating {
                    for n in 0..ctx.node_status.len() {
                        if n != c.node.index() && ctx.legal_destination(c.id, n) {
                            return vec![crate::policy::MigrationRequest {
                                component: c.id,
                                to: NodeId::from_index(n),
                            }];
                        }
                    }
                }
            }
            Vec::new()
        }
    }

    /// An always-wrong detector (false-positive rate 1) makes a
    /// liveness-respecting hook see every healthy node as down — it finds
    /// no legal destination, so it freezes — while dispatch keeps using
    /// ground truth and the service still completes requests.
    #[test]
    fn false_positives_distort_hook_perception_only() {
        let mut cfg = quiet_config(50.0, 41);
        cfg.detector = Some(crate::faults::FailureDetector {
            detection_latency: SimDuration::ZERO,
            false_positive_rate: 1.0,
            false_negative_rate: 0.0,
        });
        let mut sim = Simulation::new(cfg, Box::new(BasicPolicy), Box::new(CautiousEvacuator));
        while let Some((t, event)) = sim.queue.pop() {
            if t > sim.end_cap {
                break;
            }
            sim.handle(event);
        }
        assert_eq!(
            sim.suspected_down, 6,
            "every healthy node is suspected at fp rate 1"
        );
        assert_eq!(
            sim.collectors.stats.migrations, 0,
            "a hook that believes every node is down finds no destination"
        );
        assert!(
            sim.collectors.stats.requests_completed > 0,
            "dispatch uses ground truth"
        );
    }

    /// With a long detection latency the hook keeps seeing the stale
    /// pre-kill liveness: a dead node reads `Up` for the whole run, so
    /// nothing is ever suspected.
    #[test]
    fn detection_latency_delays_the_status_flip() {
        let mut cfg = quiet_config(60.0, 43);
        cfg.deployment = DeploymentConfig { replication: 2 };
        cfg.faults = FaultPlan::new(vec![kill_at(2, 3.0)]);
        cfg.detector = Some(crate::faults::FailureDetector {
            detection_latency: SimDuration::from_secs(3600),
            false_positive_rate: 0.0,
            false_negative_rate: 0.0,
        });
        let mut sim = Simulation::new(cfg, Box::new(PrimaryOnly), Box::new(PileUp));
        while let Some((t, event)) = sim.queue.pop() {
            if t > sim.end_cap {
                break;
            }
            sim.handle(event);
        }
        assert!(!sim.cluster.node(NodeId::new(2)).is_alive());
        assert_eq!(
            sim.suspected_down, 0,
            "the kill stays invisible inside the detection latency"
        );
    }

    /// Detector draws come from a dedicated RNG lane: a noisy detector on
    /// a fault-free run distorts the hook's perception without touching
    /// dispatch randomness — as long as the hook orders nothing, the
    /// trajectory is bit-identical to the detector-free run.
    #[test]
    fn noisy_detector_preserves_the_main_rng_lane() {
        let run = |detector| {
            let mut cfg = quiet_config(50.0, 47);
            cfg.detector = detector;
            Simulation::new(cfg, Box::new(BasicPolicy), Box::new(WatchOnly)).run()
        };
        let clean = run(None);
        let noisy = run(Some(crate::faults::FailureDetector {
            detection_latency: SimDuration::from_millis(500),
            false_positive_rate: 0.2,
            false_negative_rate: 0.1,
        }));
        assert_eq!(clean.stats, noisy.stats);
        assert_eq!(clean.events_processed, noisy.events_processed);
        assert!((clean.overall_latency.mean - noisy.overall_latency.mean).abs() < f64::EPSILON);
        assert!((clean.component_latency.p99 - noisy.component_latency.p99).abs() < f64::EPSILON);
    }
}

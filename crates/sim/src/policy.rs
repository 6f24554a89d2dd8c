//! Dispatch policies and the scheduler hook.
//!
//! A [`DispatchPolicy`] decides, per partition sub-request, which replica
//! instances receive the work, whether laggards are reissued, and whether
//! queued duplicates are cancelled when a replica starts — the degrees of
//! freedom distinguishing Basic, RED-k and RI-p (paper §VI-A "Compared
//! techniques"). The concrete redundancy/reissue baselines live in
//! `pcs-baselines`; [`BasicPolicy`] (no redundancy) lives here because the
//! simulator itself needs a default.
//!
//! A [`SchedulerHook`] runs at every scheduling interval with the
//! monitors' view of the world and returns component migrations — this is
//! where the PCS controller (umbrella crate) plugs in. [`NoopScheduler`]
//! never migrates (all non-PCS techniques).

use crate::faults::NodeStatus;
use crate::observe::IntervalAudit;
use pcs_types::{
    ComponentId, ContentionVector, NodeCapacity, NodeId, ResourceVector, SimDuration, SimTime,
};
use rand::rngs::SmallRng;

/// Decides replica fan-out, reissue and cancellation for sub-requests.
pub trait DispatchPolicy {
    /// Display name ("Basic", "RED-3", …).
    fn name(&self) -> &'static str;

    /// Replica instances this policy needs per partition.
    fn replication(&self) -> usize;

    /// Chooses the initial targets for a partition sub-request from its
    /// replica group, appending to `out` (cleared by the caller). Must
    /// pick at least one target; targets must be a prefix-free subset of
    /// `replicas` (no duplicates).
    fn initial_targets(
        &mut self,
        replicas: &[ComponentId],
        rng: &mut SmallRng,
        out: &mut Vec<ComponentId>,
    );

    /// If this policy reissues laggards: the delay after which a duplicate
    /// is sent, for a sub-request of the given component class. `None`
    /// disables reissue.
    fn reissue_delay(&mut self, class: usize) -> Option<SimDuration>;

    /// Whether this policy can *ever* reissue (i.e.
    /// [`DispatchPolicy::reissue_delay`] may return `Some` at some point
    /// in the run). The default is conservatively `true`; policies that
    /// never reissue (Basic, RED-k) override to `false`, which lets the
    /// fault-free simulator prove certain cancellation messages are
    /// no-ops and skip scheduling them.
    fn reissues(&self) -> bool {
        true
    }

    /// Observes a completed (winning) sub-request latency of a class, so
    /// adaptive policies can update their expected-latency estimates.
    fn observe_latency(&mut self, class: usize, latency: SimDuration);

    /// Whether queued duplicates are cancelled (with network delay) when
    /// one replica starts executing.
    fn cancel_on_start(&self) -> bool;
}

/// The paper's "Basic" technique: one instance per partition, no
/// redundancy, no reissue, no migrations.
#[derive(Debug, Clone, Copy, Default)]
pub struct BasicPolicy;

impl DispatchPolicy for BasicPolicy {
    fn name(&self) -> &'static str {
        "Basic"
    }

    fn replication(&self) -> usize {
        1
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

    fn reissues(&self) -> bool {
        false
    }

    fn observe_latency(&mut self, _class: usize, _latency: SimDuration) {}

    fn cancel_on_start(&self) -> bool {
        false
    }
}

/// Static description of one physical component, for scheduler hooks.
#[derive(Debug, Clone, Copy)]
pub struct ComponentMeta {
    /// Identity.
    pub id: ComponentId,
    /// Class index.
    pub class: usize,
    /// Stage index.
    pub stage: usize,
    /// Current hosting node.
    pub node: NodeId,
    /// Whether a migration is already in flight for this component.
    pub migrating: bool,
    /// The component's own demand contribution (`U_ci` of Table III).
    pub own_demand: ResourceVector,
}

/// Everything a scheduler hook may consult at an interval boundary.
///
/// All per-node/per-component vectors are densely indexed by id. The
/// monitored fields carry sampling noise and staleness; the
/// `ground_truth_demand` field exposes the simulator's exact state for
/// oracle ablations only.
#[derive(Debug)]
pub struct SchedulerContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Component metadata.
    pub components: &'a [ComponentMeta],
    /// Node capacities.
    pub node_capacities: &'a [NodeCapacity],
    /// Monitored contention windows per node, drained since the previous
    /// interval (paper: 1 s system-level samples, 60 s MPKI).
    pub sampled_windows: &'a [Vec<ContentionVector>],
    /// Monitored arrival rate per component (req/s).
    pub arrival_rates: &'a [f64],
    /// Observed service-time SCV per component.
    pub service_scv: &'a [f64],
    /// Number of sequential stages.
    pub stage_count: usize,
    /// Exact per-node aggregate demand (oracle ablations only).
    pub ground_truth_demand: &'a [ResourceVector],
    /// Per-node membership status. A liveness-aware hook must never
    /// migrate onto a node that is not [`NodeStatus::Up`] — `Down`,
    /// [`Warming`](NodeStatus::Warming) (elastic join still
    /// cold-starting, hosts nothing) or
    /// [`Draining`](NodeStatus::Draining) (elastic scale-in wanting its
    /// components evacuated) — and should evacuate components stranded
    /// on a `Down` or `Draining` one; the world rejects orders
    /// targeting non-`Up` nodes regardless.
    ///
    /// When [`crate::SimConfig::detector`] is set, this is the noisy
    /// failure detector's *suspected* liveness, not ground truth: a dead
    /// node may still read `Up` (detection latency, false negatives) and
    /// a healthy one `Down` (false positives), but a warming or draining
    /// node never reads `Up` ([`crate::membership`]). Dispatch, failover and
    /// migration legality always use ground truth — only the hook's
    /// perception is distorted.
    pub node_status: &'a [NodeStatus],
    /// Per component: the other members of its replica groups (empty
    /// under replication 1; [`crate::component::Deployment::replica_peers`]).
    /// A migration that would co-locate a
    /// component with one of its peers is rejected by the world, so
    /// destination-picking hooks should skip peer-hosting nodes.
    pub replica_peers: &'a [Vec<ComponentId>],
    /// Rack index per node (balanced contiguous blocks; all zeros on a
    /// single-rack cluster). Rack-aware hooks group components by the
    /// rack of their hosting node.
    pub rack_of: &'a [usize],
}

impl SchedulerContext<'_> {
    /// True if `node` is a destination the world would accept for
    /// migrating `component`: the node is up and hosts none of the
    /// component's replica-group peers (the world silently rejects
    /// orders violating either rule, so destination-picking hooks
    /// should filter with this). Peers' in-flight migration
    /// destinations are not visible here; the world's acceptance-time
    /// check backstops that window.
    pub fn legal_destination(&self, component: ComponentId, node: usize) -> bool {
        if !self.node_status[node].is_up() {
            return false;
        }
        !self
            .replica_peers
            .get(component.index())
            .is_some_and(|peers| {
                peers
                    .iter()
                    .any(|peer| self.components[peer.index()].node.index() == node)
            })
    }
}

/// Deterministic per-run scheduler work counters, accumulated by a
/// [`SchedulerHook`] and surfaced in the run report.
///
/// Every field is an event count, never a wall-clock measurement, so the
/// numbers are reproducible across machines and thread counts and safe to
/// pin in scenario reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerCost {
    /// Scheduling intervals on which analysis ran (the early-out path for
    /// quiet intervals is not counted).
    pub intervals: u64,
    /// Full performance-matrix constructions.
    pub matrix_builds: u64,
    /// Incremental performance-matrix refreshes. No controller refreshes
    /// a matrix any more (every interval builds one), so this stays 0; the
    /// field is kept for the readers of the counter set.
    pub matrix_refreshes: u64,
    /// Matrix entries covered by builds and refreshes (a build covers all
    /// `m * k`). It counts coverage, not evaluations: the build evaluates
    /// only entries with a node hosting a stage maximum at one end and
    /// stores the provably non-positive rest as 0.0. With no refreshes
    /// this equals `entries_total`.
    pub entries_recomputed: u64,
    /// Matrix entries a full rebuild at every counted interval would have
    /// covered (`m * k` per interval), evaluated or not.
    pub entries_total: u64,
    /// Greedy candidate-selection iterations across all intervals.
    pub greedy_iterations: u64,
}

/// A migration order returned by a scheduler hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// The component to move.
    pub component: ComponentId,
    /// Its destination node.
    pub to: NodeId,
}

/// Runs at every scheduling interval; returns migrations to enact.
pub trait SchedulerHook {
    /// Inspects the interval's monitoring data and orders migrations.
    fn on_interval(&mut self, ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest>;

    /// Whether this hook reads the [`SchedulerContext`] at all. The
    /// default is `true`; a hook that provably ignores its input (the
    /// no-op scheduler of every non-migrating technique) overrides to
    /// `false`, letting the simulator skip assembling the context —
    /// component metas, drained sample windows, rate and SCV estimates —
    /// at every interval. Skipping is observation-free: none of those
    /// derivations touch the RNG or mutate simulation state.
    fn wants_context(&self) -> bool {
        true
    }

    /// Deterministic work counters accumulated over the run, copied into
    /// [`RunReport::scheduler_cost`](crate::RunReport::scheduler_cost)
    /// when the run ends. The default (`None`) means the hook does not
    /// track cost.
    fn cost(&self) -> Option<SchedulerCost> {
        None
    }

    /// Asks the hook to build an [`IntervalAudit`] for every interval it
    /// analyses (predicted Eq. 4 gain per enacted decision). Called once
    /// before the run starts when [`crate::SimConfig::observe`] is set;
    /// hooks without a prediction model (the no-op scheduler, the
    /// least-loaded baseline) ignore it.
    fn enable_audit(&mut self) {}

    /// Takes the audit record of the interval that just ran, if the hook
    /// built one. The observer assigns the interval index and fills the
    /// realised delta at run end; hooks leave
    /// [`IntervalAudit::interval`] zero and
    /// [`IntervalAudit::realized_delta`] `None`.
    fn take_interval_audit(&mut self) -> Option<IntervalAudit> {
        None
    }
}

/// A hook that never migrates anything (Basic, RED-k, RI-p).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopScheduler;

impl SchedulerHook for NoopScheduler {
    fn on_interval(&mut self, _ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest> {
        Vec::new()
    }

    fn wants_context(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn basic_policy_targets_primary_only() {
        let mut p = BasicPolicy;
        let mut rng = SmallRng::seed_from_u64(1);
        let replicas = [ComponentId::new(4), ComponentId::new(9)];
        let mut out = Vec::new();
        p.initial_targets(&replicas, &mut rng, &mut out);
        assert_eq!(out, vec![ComponentId::new(4)]);
        assert_eq!(p.replication(), 1);
        assert!(p.reissue_delay(0).is_none());
        assert!(!p.cancel_on_start());
    }

    #[test]
    fn noop_scheduler_orders_nothing() {
        let mut hook = NoopScheduler;
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            components: &[],
            node_capacities: &[],
            sampled_windows: &[],
            arrival_rates: &[],
            service_scv: &[],
            stage_count: 1,
            ground_truth_demand: &[],
            node_status: &[],
            replica_peers: &[],
            rack_of: &[],
        };
        assert!(hook.on_interval(&ctx).is_empty());
    }
}

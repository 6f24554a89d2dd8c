//! Cluster state: nodes, their resident batch jobs, and the aggregate
//! demand that determines every co-located component's contention.
//!
//! A node's contention vector (paper Table II) is the normalised sum of
//! the demands of everything resident on it: batch-job VMs plus the
//! service components themselves. Batch jobs churn (arrive/depart);
//! component demand moves with migrations.

use pcs_types::{ContentionVector, JobId, NodeCapacity, NodeId, ResourceVector};

/// One physical machine.
#[derive(Debug, Clone)]
pub struct NodeState {
    capacity: NodeCapacity,
    /// Resident batch jobs and their demands.
    jobs: Vec<(JobId, ResourceVector)>,
    /// Cached sum of batch-job demand.
    batch_demand: ResourceVector,
    /// Cached sum of resident components' own demand.
    component_demand: ResourceVector,
    /// Monotonic counter of demand mutations (the validity token of
    /// per-component caches derived from this node's contention).
    demand_version: u64,
    /// Service-time multiplier while the node is a straggler
    /// (fault-injected [`crate::faults::FaultKind::Degrade`]); 1.0 when
    /// healthy. Scales every service time drawn on the node without
    /// touching liveness or contention.
    slowdown: f64,
}

impl NodeState {
    fn new(capacity: NodeCapacity) -> Self {
        NodeState {
            capacity,
            jobs: Vec::new(),
            batch_demand: ResourceVector::ZERO,
            component_demand: ResourceVector::ZERO,
            demand_version: 0,
            slowdown: 1.0,
        }
    }

    /// Total demand of everything resident on this node.
    pub fn total_demand(&self) -> ResourceVector {
        self.batch_demand + self.component_demand
    }

    /// Current contention vector (Table II form).
    pub fn contention(&self) -> ContentionVector {
        self.capacity.normalize(&self.total_demand())
    }

    /// The node's capacity.
    pub fn capacity(&self) -> NodeCapacity {
        self.capacity
    }

    /// Number of resident batch jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Current service-time multiplier (1.0 when healthy).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }
}

/// The whole cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<NodeState>,
    next_job: u32,
    /// Nodes with a slowdown above 1.0.
    degraded: usize,
}

impl Cluster {
    /// Creates a homogeneous cluster.
    ///
    /// # Panics
    /// Panics on zero nodes.
    pub fn new(node_count: usize, capacity: NodeCapacity) -> Self {
        Cluster::heterogeneous(vec![capacity; node_count])
    }

    /// Creates a cluster with per-node capacities (mixed hardware
    /// generations — the paper's testbed is homogeneous, but real
    /// clusters rarely are, and the per-node capacity already flows
    /// through contention normalisation and the scheduler's inputs).
    ///
    /// # Panics
    /// Panics on zero nodes.
    pub fn heterogeneous(capacities: Vec<NodeCapacity>) -> Self {
        assert!(!capacities.is_empty(), "need at least one node");
        Cluster {
            nodes: capacities.into_iter().map(NodeState::new).collect(),
            next_job: 0,
            degraded: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes (never after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable view of one node.
    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.index()]
    }

    /// Starts a batch job on a node and returns its id.
    pub fn start_job(&mut self, node: NodeId, demand: ResourceVector) -> JobId {
        let id = JobId::new(self.next_job);
        self.next_job += 1;
        let n = &mut self.nodes[node.index()];
        n.jobs.push((id, demand));
        n.batch_demand += demand;
        n.demand_version += 1;
        id
    }

    /// Ends a batch job, releasing its demand.
    ///
    /// # Panics
    /// Panics if the job is not resident on the node (events are exact in
    /// a DES, so on a fault-free cluster a miss is a simulator bug; use
    /// [`Cluster::finish_job`] where a kill may have vaporised the job).
    pub fn end_job(&mut self, node: NodeId, job: JobId) {
        assert!(
            self.finish_job(node, job),
            "job {job} not resident on {node}"
        );
    }

    /// [`Cluster::end_job`], tolerating jobs that no longer exist —
    /// a node kill clears its resident jobs while their departure events
    /// stay queued. Returns whether the job was found.
    pub fn finish_job(&mut self, node: NodeId, job: JobId) -> bool {
        let n = &mut self.nodes[node.index()];
        let Some(pos) = n.jobs.iter().position(|(id, _)| *id == job) else {
            return false;
        };
        let (_, demand) = n.jobs.swap_remove(pos);
        n.batch_demand = n.batch_demand.saturating_sub(&demand);
        n.demand_version += 1;
        true
    }

    /// Empties a killed node: its batch jobs vanish and its registered
    /// component demand is cleared (the caller zeroes the matching
    /// per-component contributions). Liveness itself lives in
    /// [`crate::membership::Membership`]. The slowdown survives, so a
    /// gray node rejoins gray until an explicit
    /// [`crate::faults::FaultKind::Recover`] event.
    pub fn kill_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        n.jobs.clear();
        n.batch_demand = ResourceVector::ZERO;
        n.component_demand = ResourceVector::ZERO;
        n.demand_version += 1;
    }

    /// Degrades a node: service times drawn on it are scaled by `factor`
    /// until [`Cluster::recover_node`]. Re-degrading replaces the factor.
    /// Returns `true` when the node was healthy before (newly gray).
    ///
    /// Bumps the demand version so contention-derived per-component mean
    /// caches re-derive with the new slowdown; the contention vector
    /// itself is unchanged.
    ///
    /// # Panics
    /// Panics on a factor below 1.0 or a non-finite one.
    pub fn degrade_node(&mut self, node: NodeId, factor: f64) -> bool {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "degrade factor must be finite and >= 1.0, got {factor}"
        );
        let n = &mut self.nodes[node.index()];
        let was_healthy = n.slowdown == 1.0;
        n.slowdown = factor;
        n.demand_version += 1;
        self.degraded = self.degraded + usize::from(factor > 1.0) - usize::from(!was_healthy);
        was_healthy
    }

    /// Clears a node's slowdown. Returns `false` if the node was not
    /// degraded (idempotent).
    pub fn recover_node(&mut self, node: NodeId) -> bool {
        let n = &mut self.nodes[node.index()];
        if n.slowdown == 1.0 {
            return false;
        }
        n.slowdown = 1.0;
        n.demand_version += 1;
        self.degraded -= 1;
        true
    }

    /// Current service-time multiplier of one node (1.0 when healthy).
    #[inline]
    pub fn slowdown(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].slowdown
    }

    /// Number of currently degraded nodes (O(1)).
    pub fn degraded_count(&self) -> usize {
        self.degraded
    }

    /// Adds a component's own demand to a node (placement or migration
    /// arrival).
    pub fn add_component_demand(&mut self, node: NodeId, demand: ResourceVector) {
        let n = &mut self.nodes[node.index()];
        n.component_demand += demand;
        n.demand_version += 1;
    }

    /// Removes a component's own demand from a node (migration departure).
    pub fn remove_component_demand(&mut self, node: NodeId, demand: ResourceVector) {
        let n = &mut self.nodes[node.index()];
        n.component_demand = n.component_demand.saturating_sub(&demand);
        n.demand_version += 1;
    }

    /// The node's demand version: increments on every demand mutation,
    /// so callers can key their own contention-derived caches on it.
    #[inline]
    pub fn demand_version(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].demand_version
    }

    /// Contention of one node (Table II form).
    pub fn contention(&self, node: NodeId) -> ContentionVector {
        self.nodes[node.index()].contention()
    }

    /// Total demand per node, densely indexed.
    pub fn demands(&self) -> Vec<ResourceVector> {
        self.nodes.iter().map(|n| n.total_demand()).collect()
    }

    /// Capacities per node, densely indexed.
    pub fn capacities(&self) -> Vec<NodeCapacity> {
        self.nodes.iter().map(|n| n.capacity()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(cores: f64) -> ResourceVector {
        ResourceVector::new(cores, 2.0, 10.0, 5.0)
    }

    #[test]
    fn jobs_add_and_release_demand() {
        let mut c = Cluster::new(2, NodeCapacity::XEON_E5645);
        let n0 = NodeId::new(0);
        let j1 = c.start_job(n0, demand(3.0));
        let j2 = c.start_job(n0, demand(2.0));
        assert_eq!(c.node(n0).job_count(), 2);
        assert!((c.node(n0).total_demand().cores - 5.0).abs() < 1e-12);

        c.end_job(n0, j1);
        assert!((c.node(n0).total_demand().cores - 2.0).abs() < 1e-12);
        c.end_job(n0, j2);
        assert_eq!(c.node(n0).total_demand(), ResourceVector::ZERO);
    }

    #[test]
    fn component_demand_tracks_migrations() {
        let mut c = Cluster::new(2, NodeCapacity::XEON_E5645);
        let own = demand(1.0);
        c.add_component_demand(NodeId::new(0), own);
        assert!((c.contention(NodeId::new(0)).core_usage - 1.0 / 12.0).abs() < 1e-12);
        // Migrate: remove from 0, add to 1.
        c.remove_component_demand(NodeId::new(0), own);
        c.add_component_demand(NodeId::new(1), own);
        assert_eq!(c.node(NodeId::new(0)).total_demand(), ResourceVector::ZERO);
        assert!((c.contention(NodeId::new(1)).core_usage - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn contention_combines_jobs_and_components() {
        let mut c = Cluster::new(1, NodeCapacity::new(12.0, 200.0, 125.0));
        c.start_job(NodeId::new(0), ResourceVector::new(6.0, 8.0, 100.0, 50.0));
        c.add_component_demand(NodeId::new(0), ResourceVector::new(1.0, 2.0, 10.0, 5.0));
        let u = c.contention(NodeId::new(0));
        assert!((u.core_usage - 7.0 / 12.0).abs() < 1e-12);
        assert!((u.cache_mpki - 10.0).abs() < 1e-12);
        assert!((u.disk_util - 110.0 / 200.0).abs() < 1e-12);
        assert!((u.net_util - 55.0 / 125.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn ending_missing_job_panics() {
        let mut c = Cluster::new(1, NodeCapacity::XEON_E5645);
        c.end_job(NodeId::new(0), JobId::new(99));
    }

    #[test]
    fn heterogeneous_capacities_shape_contention() {
        let strong = NodeCapacity::new(24.0, 400.0, 250.0);
        let weak = NodeCapacity::new(6.0, 100.0, 60.0);
        let mut c = Cluster::heterogeneous(vec![strong, weak]);
        let load = ResourceVector::new(3.0, 2.0, 50.0, 30.0);
        c.start_job(NodeId::new(0), load);
        c.start_job(NodeId::new(1), load);
        // The same absolute demand contends 4x harder on the weak node.
        let u0 = c.contention(NodeId::new(0));
        let u1 = c.contention(NodeId::new(1));
        assert!((u0.core_usage - 3.0 / 24.0).abs() < 1e-12);
        assert!((u1.core_usage - 3.0 / 6.0).abs() < 1e-12);
        assert!((u1.disk_util - 4.0 * u0.disk_util).abs() < 1e-12);
        assert_eq!(c.capacities(), vec![strong, weak]);
    }

    #[test]
    fn kill_clears_jobs() {
        let mut c = Cluster::new(2, NodeCapacity::XEON_E5645);
        let n0 = NodeId::new(0);
        let job = c.start_job(n0, demand(3.0));
        c.add_component_demand(n0, demand(1.0));

        c.kill_node(n0);
        assert_eq!(c.node(n0).job_count(), 0);
        assert_eq!(c.node(n0).total_demand(), ResourceVector::ZERO);

        // The job's departure event finds nothing — tolerated, not fatal.
        assert!(!c.finish_job(n0, job));
    }

    #[test]
    fn degrade_scales_and_recover_clears() {
        let mut c = Cluster::new(2, NodeCapacity::XEON_E5645);
        let n0 = NodeId::new(0);
        assert_eq!(c.slowdown(n0), 1.0);
        assert_eq!(c.degraded_count(), 0);

        let v0 = c.demand_version(n0);
        assert!(c.degrade_node(n0, 3.0), "first degrade finds it healthy");
        assert_eq!(c.slowdown(n0), 3.0);
        assert_eq!(c.degraded_count(), 1);
        assert!(
            c.demand_version(n0) > v0,
            "degrade must invalidate mean caches"
        );

        // Re-degrading replaces the factor without claiming novelty.
        assert!(!c.degrade_node(n0, 5.0));
        assert_eq!(c.slowdown(n0), 5.0);
        assert_eq!(c.degraded_count(), 1);

        assert!(c.recover_node(n0), "recover clears the slowdown");
        assert!(!c.recover_node(n0), "recovering a healthy node is a no-op");
        assert_eq!(c.slowdown(n0), 1.0);
        assert_eq!(c.degraded_count(), 0);

        // Liveness and slowdown are independent axes: a kill preserves
        // the slowdown, so a restored node rejoins gray.
        c.degrade_node(n0, 2.0);
        c.kill_node(n0);
        assert_eq!(c.slowdown(n0), 2.0);
        assert_eq!(c.degraded_count(), 1);
    }

    #[test]
    #[should_panic(expected = "degrade factor must be finite")]
    fn degrade_rejects_speedups() {
        let mut c = Cluster::new(1, NodeCapacity::XEON_E5645);
        c.degrade_node(NodeId::new(0), 0.9);
    }

    #[test]
    fn job_ids_are_unique_across_nodes() {
        let mut c = Cluster::new(2, NodeCapacity::XEON_E5645);
        let a = c.start_job(NodeId::new(0), demand(1.0));
        let b = c.start_job(NodeId::new(1), demand(1.0));
        assert_ne!(a, b);
    }
}

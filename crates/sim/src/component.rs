//! Physical components: single-server FIFO queues bound to nodes.
//!
//! A *logical* partition of a stage (e.g. one search-index shard) is
//! served by one or more *physical* components — its replica group. Each
//! physical component is the M/G/1 server of the paper's extended model:
//! one request in service, the rest FIFO-queued. Queued sub-requests can
//! be cancelled (redundancy cancellation); the one in service cannot
//! ("once begun, it executes"), which is exactly the race that makes
//! request redundancy expensive under load.

use pcs_types::{ComponentId, NodeId, RequestId, SimTime};
use pcs_workloads::ServiceTopology;
use std::collections::VecDeque;

/// A sub-request sitting in a component's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueItem {
    /// The request this work belongs to.
    pub request: RequestId,
    /// The stage the request was in when this was dispatched.
    pub stage: u32,
    /// The partition within that stage.
    pub partition: u32,
    /// When the sub-request was enqueued (dispatch time).
    pub enqueued_at: SimTime,
}

/// The sub-request currently being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// The work item.
    pub item: QueueItem,
    /// When service began.
    pub started_at: SimTime,
}

/// One physical component instance.
///
/// Cancellation is **tombstoning**: a cancelled queue entry stays in
/// place with its request id replaced by [`RequestId::TOMBSTONE`] and is
/// skipped when it reaches the head. This keeps cancellation O(log n) —
/// the queue is FIFO, hence sorted by enqueue time, so a cancel that
/// knows its duplicate's enqueue time (the dispatch or reissue timestamp
/// recorded on the request) binary-searches instead of scanning, and
/// nothing ever shifts the deque's interior.
#[derive(Debug, Clone)]
pub struct PhysicalComponent {
    /// Dense identity.
    pub id: ComponentId,
    /// Component-class index (into the topology's class table).
    pub class: usize,
    /// Stage index.
    pub stage: u32,
    /// Partition index within the stage.
    pub partition: u32,
    /// Replica index within the partition's replica group.
    pub replica: u32,
    /// Current hosting node.
    pub node: NodeId,
    /// Pending migration destination, if one is in flight.
    pub migrating_to: Option<NodeId>,
    /// Fault epoch: bumped when the hosting node is killed, so completion
    /// events of vaporised executions arrive stale and are ignored.
    pub epoch: u32,
    /// When the hosting node was killed, if the component is currently
    /// orphaned (stranded on a dead node, awaiting re-placement).
    pub orphaned_since: Option<SimTime>,
    /// FIFO queue of waiting sub-requests (may contain tombstones).
    pub queue: VecDeque<QueueItem>,
    /// Whether `queue` is sorted by `enqueued_at` (true until a failover
    /// re-enqueues an item with its original, older timestamp; from then
    /// on cancellations fall back to the linear scan).
    pub queue_time_sorted: bool,
    /// The sub-request in service, if any.
    pub in_service: Option<InFlight>,
    /// Completed executions (including wasted ones).
    pub executions: u64,
    /// Busy time accumulated since the last monitor tick.
    pub busy_accum: pcs_types::SimDuration,
    /// Smoothed utilisation (busy fraction) over recent monitor windows.
    pub utilization: f64,
    /// The demand contribution currently registered on the hosting node
    /// (own demand scaled by utilisation).
    pub contribution: pcs_types::ResourceVector,
}

impl PhysicalComponent {
    /// Number of live (non-tombstoned) waiting sub-requests, excluding
    /// the item in service. O(queue) — diagnostics and tests only; the
    /// hot paths never ask.
    pub fn queue_len(&self) -> usize {
        self.queue
            .iter()
            .filter(|q| q.request != RequestId::TOMBSTONE)
            .count()
    }

    /// Appends a waiting sub-request, tracking whether the queue is
    /// still sorted by enqueue time (failover re-enqueues keep their
    /// original timestamp and break the sort).
    pub fn enqueue(&mut self, item: QueueItem) {
        if let Some(back) = self.queue.back() {
            if back.enqueued_at > item.enqueued_at {
                self.queue_time_sorted = false;
            }
        }
        self.queue.push_back(item);
    }

    /// Pops the oldest live waiting sub-request, discarding tombstones.
    pub fn pop_next_live(&mut self) -> Option<QueueItem> {
        while let Some(item) = self.queue.pop_front() {
            if item.request != RequestId::TOMBSTONE {
                return Some(item);
            }
        }
        None
    }

    /// Tombstones every queued duplicate of `(request, stage, partition)`
    /// by scanning the whole queue, returning how many were cancelled.
    /// The in-service item is never touched. This is the fallback for
    /// queues whose time order was broken by a failover; the hot path is
    /// [`PhysicalComponent::cancel_queued_at`].
    pub fn cancel_queued(&mut self, request: RequestId, stage: u32, partition: u32) -> usize {
        let mut removed = 0;
        for q in self.queue.iter_mut() {
            if q.request == request && q.stage == stage && q.partition == partition {
                q.request = RequestId::TOMBSTONE;
                removed += 1;
            }
        }
        removed
    }

    /// True if a live duplicate of `(request, stage, partition)` enqueued
    /// exactly at `at` is still waiting. Only meaningful while the queue
    /// is time-sorted (asserted in debug builds); the fault-free world
    /// uses this to prove a pending cancellation message would be a no-op
    /// before paying to schedule it.
    pub fn has_queued_duplicate_at(
        &self,
        request: RequestId,
        stage: u32,
        partition: u32,
        at: SimTime,
    ) -> bool {
        debug_assert!(self.queue_time_sorted);
        let start = self.queue.partition_point(|q| q.enqueued_at < at);
        self.queue
            .range(start..)
            .take_while(|q| q.enqueued_at == at)
            .any(|q| q.request == request && q.stage == stage && q.partition == partition)
    }

    /// [`PhysicalComponent::cancel_queued`] in O(log n): the caller
    /// supplies every enqueue timestamp a still-queued duplicate of this
    /// `(request, stage, partition)` can carry (its dispatch time and, if
    /// one fired, its reissue time — [`SimTime::MAX`] entries are
    /// ignored), and each candidate run of equal timestamps is located by
    /// binary search. Falls back to the linear scan when the queue's time
    /// order was broken by a failover.
    pub fn cancel_queued_at(
        &mut self,
        request: RequestId,
        stage: u32,
        partition: u32,
        enqueue_times: [SimTime; 2],
    ) -> usize {
        if !self.queue_time_sorted {
            return self.cancel_queued(request, stage, partition);
        }
        let mut removed = 0;
        for (i, &at) in enqueue_times.iter().enumerate() {
            if at == SimTime::MAX || enqueue_times[..i].contains(&at) {
                continue;
            }
            let start = self.queue.partition_point(|q| q.enqueued_at < at);
            for q in self.queue.range_mut(start..) {
                if q.enqueued_at != at {
                    break;
                }
                if q.request == request && q.stage == stage && q.partition == partition {
                    q.request = RequestId::TOMBSTONE;
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// The deployment: how logical partitions map to physical components.
///
/// The service's components are **stateless workers over shared storage**
/// (the paper's Storm-deployed Nutch: a component can be re-deployed to
/// another machine in seconds precisely because it carries no shard).
/// Every technique therefore runs on the *same* pool of components —
/// redundancy does not get extra machines. A partition's replica group is
/// the `replication` consecutive workers of its stage starting at the
/// partition's own worker (wrapping around), so with replication k every
/// worker serves its own partition as primary and up to k−1 neighbours'
/// duplicates:
///
/// ```text
/// replication 3, stage with 5 workers:
///   partition 0 → {c0, c1, c2}
///   partition 1 → {c1, c2, c3}
///   …
///   partition 4 → {c4, c0, c1}
/// ```
///
/// Stages with fewer workers than the replication factor get groups of the
/// stage size (a single-component stage cannot be replicated).
#[derive(Debug, Clone)]
pub struct Deployment {
    /// `groups[stage][partition]` = replica group (component ids).
    groups: Vec<Vec<Vec<ComponentId>>>,
    /// Per stage: `(first component id, worker count, group size)` — the
    /// closed form behind [`Deployment::replica_index`].
    stage_layout: Vec<(u32, u32, u32)>,
    /// Per component: the other members of its replica groups.
    peers: Vec<Vec<ComponentId>>,
    /// Total number of physical components.
    total: usize,
    replication: usize,
}

impl Deployment {
    /// Builds the replica-group layout for a topology.
    ///
    /// # Panics
    /// Panics on zero replication.
    pub fn new(topology: &ServiceTopology, replication: usize) -> Self {
        assert!(replication > 0, "replication must be >= 1");
        let mut groups: Vec<Vec<Vec<ComponentId>>> = Vec::with_capacity(topology.stage_count());
        let mut stage_layout = Vec::with_capacity(topology.stage_count());
        let mut base = 0u32;
        for stage in topology.stages() {
            let workers = stage.count as u32;
            let group_size = replication.min(stage.count);
            let mut partitions = Vec::with_capacity(stage.count);
            for p in 0..workers {
                let replicas = (0..group_size as u32)
                    .map(|r| ComponentId::new(base + (p + r) % workers))
                    .collect();
                partitions.push(replicas);
            }
            groups.push(partitions);
            stage_layout.push((base, workers, group_size as u32));
            base += workers;
        }
        let mut peers: Vec<Vec<ComponentId>> = vec![Vec::new(); base as usize];
        for group in groups.iter().flatten() {
            for &a in group {
                for &b in group {
                    if a != b && !peers[a.index()].contains(&b) {
                        peers[a.index()].push(b);
                    }
                }
            }
        }
        Deployment {
            groups,
            stage_layout,
            peers,
            total: base as usize,
            replication,
        }
    }

    /// The index of `component` within the replica group serving
    /// `(stage, partition)`, or `None` if it is not a member — the O(1)
    /// closed form of `replicas(stage, partition).iter().position(..)`.
    ///
    /// Groups are `group_size` consecutive workers starting at the
    /// partition's own worker (wrapping), so member `base + (p + r) %
    /// workers` recovers `r = (offset − p) mod workers`.
    #[inline]
    pub fn replica_index(
        &self,
        stage: u32,
        partition: u32,
        component: ComponentId,
    ) -> Option<usize> {
        let (base, workers, group_size) = self.stage_layout[stage as usize];
        let offset = component.raw().checked_sub(base)?;
        if offset >= workers {
            return None;
        }
        let index = (offset + workers - partition) % workers;
        let found = (index < group_size).then_some(index as usize);
        debug_assert_eq!(
            found,
            self.replicas(stage, partition)
                .iter()
                .position(|c| *c == component),
            "closed-form replica index must match the group layout"
        );
        found
    }

    /// The replica group serving `(stage, partition)`.
    pub fn replicas(&self, stage: u32, partition: u32) -> &[ComponentId] {
        &self.groups[stage as usize][partition as usize]
    }

    /// Per component (indexed by id): the other members of its replica
    /// groups, without duplicates; empty under replication 1. Two peers
    /// must never share a node — placement, the world's migration check
    /// and [`crate::SchedulerContext::legal_destination`] all read this
    /// one list.
    pub fn replica_peers(&self) -> &[Vec<ComponentId>] {
        &self.peers
    }

    /// Number of partitions in a stage.
    pub fn partition_count(&self, stage: u32) -> usize {
        self.groups[stage as usize].len()
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.groups.len()
    }

    /// Total physical components.
    pub fn component_count(&self) -> usize {
        self.total
    }

    /// The deployment's replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Instantiates the physical component table (nodes assigned later by
    /// placement). One worker per partition; `partition` records the
    /// partition the worker serves as *primary*.
    pub fn instantiate(&self, topology: &ServiceTopology) -> Vec<PhysicalComponent> {
        let mut out = Vec::with_capacity(self.total);
        for (si, stage) in topology.stages().iter().enumerate() {
            for p in 0..stage.count {
                out.push(PhysicalComponent {
                    id: ComponentId::from_index(out.len()),
                    class: stage.class,
                    stage: si as u32,
                    partition: p as u32,
                    replica: 0,
                    node: NodeId::new(0),
                    migrating_to: None,
                    epoch: 0,
                    orphaned_since: None,
                    queue: VecDeque::new(),
                    queue_time_sorted: true,
                    in_service: None,
                    executions: 0,
                    busy_accum: pcs_types::SimDuration::ZERO,
                    utilization: 0.0,
                    contribution: pcs_types::ResourceVector::ZERO,
                });
            }
        }
        debug_assert_eq!(out.len(), self.total);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_groups_share_the_worker_pool() {
        let topo = ServiceTopology::nutch(5); // 1 + 5 + 1 components
        let dep = Deployment::new(&topo, 3);
        // Same pool size regardless of replication.
        assert_eq!(dep.component_count(), 7);
        // Single-component stages cannot be replicated.
        assert_eq!(dep.replicas(0, 0), &[ComponentId::new(0)]);
        assert_eq!(dep.replicas(2, 0), &[ComponentId::new(6)]);
        // Searching groups are consecutive workers, wrapping around.
        assert_eq!(
            dep.replicas(1, 0),
            &[
                ComponentId::new(1),
                ComponentId::new(2),
                ComponentId::new(3)
            ]
        );
        assert_eq!(
            dep.replicas(1, 4),
            &[
                ComponentId::new(5),
                ComponentId::new(1),
                ComponentId::new(2)
            ]
        );
        assert_eq!(dep.partition_count(1), 5);
    }

    #[test]
    fn every_worker_is_primary_for_exactly_one_partition() {
        let topo = ServiceTopology::nutch(6);
        let dep = Deployment::new(&topo, 3);
        let mut primaries = std::collections::HashSet::new();
        for p in 0..dep.partition_count(1) {
            assert!(primaries.insert(dep.replicas(1, p as u32)[0]));
        }
        assert_eq!(primaries.len(), 6);
    }

    #[test]
    fn instantiate_matches_layout() {
        let topo = ServiceTopology::nutch(2);
        let dep = Deployment::new(&topo, 2);
        let comps = dep.instantiate(&topo);
        assert_eq!(comps.len(), dep.component_count());
        for (i, c) in comps.iter().enumerate() {
            assert_eq!(c.id.index(), i);
        }
        // The primary of partition (1, p) is the worker whose partition
        // field is p.
        for p in 0..2u32 {
            let primary = dep.replicas(1, p)[0];
            assert_eq!(comps[primary.index()].partition, p);
            assert_eq!(comps[primary.index()].class, 1, "searching class");
        }
    }

    #[test]
    fn cancel_removes_only_matching_duplicates() {
        let topo = ServiceTopology::nutch(1);
        let dep = Deployment::new(&topo, 1);
        let mut comps = dep.instantiate(&topo);
        let c = &mut comps[1];
        let mk = |req: u32, part: u32| QueueItem {
            request: RequestId::new(req),
            stage: 1,
            partition: part,
            enqueued_at: SimTime::ZERO,
        };
        c.enqueue(mk(1, 0));
        c.enqueue(mk(2, 0));
        c.enqueue(mk(1, 0)); // duplicate of the first
        let cancelled = c.cancel_queued(RequestId::new(1), 1, 0);
        assert_eq!(cancelled, 2);
        assert_eq!(c.queue_len(), 1, "tombstones are not live entries");
        // The survivor pops past the leading tombstone.
        assert_eq!(c.pop_next_live().unwrap().request, RequestId::new(2));
        assert_eq!(c.pop_next_live(), None, "only tombstones remained");
        assert!(c.queue.is_empty());
    }

    #[test]
    fn timestamped_cancel_matches_the_linear_scan() {
        let topo = ServiceTopology::nutch(1);
        let dep = Deployment::new(&topo, 1);
        let mut comps = dep.instantiate(&topo);
        let c = &mut comps[1];
        let mk = |req: u32, at_ms: u64| QueueItem {
            request: RequestId::new(req),
            stage: 1,
            partition: 0,
            enqueued_at: SimTime::from_millis(at_ms),
        };
        for (req, at) in [(1, 1), (2, 1), (3, 2), (1, 4), (4, 5)] {
            c.enqueue(mk(req, at));
        }
        assert!(c.queue_time_sorted);
        // Duplicates of request 1 sit at t=1ms and t=4ms; the cancel names
        // both timestamps and must tombstone exactly those two.
        let cancelled = c.cancel_queued_at(
            RequestId::new(1),
            1,
            0,
            [SimTime::from_millis(1), SimTime::from_millis(4)],
        );
        assert_eq!(cancelled, 2);
        assert_eq!(c.queue_len(), 3);
        // A second identical cancel finds nothing (idempotent).
        assert_eq!(
            c.cancel_queued_at(
                RequestId::new(1),
                1,
                0,
                [SimTime::from_millis(1), SimTime::from_millis(4)],
            ),
            0
        );
        // MAX sentinels (no reissue) are ignored.
        assert_eq!(
            c.cancel_queued_at(
                RequestId::new(3),
                1,
                0,
                [SimTime::from_millis(2), SimTime::MAX]
            ),
            1
        );
        let survivors: Vec<u32> = std::iter::from_fn(|| c.pop_next_live())
            .map(|q| q.request.raw())
            .collect();
        assert_eq!(survivors, vec![2, 4]);
    }

    #[test]
    fn out_of_order_enqueue_falls_back_to_the_scan() {
        let topo = ServiceTopology::nutch(1);
        let dep = Deployment::new(&topo, 1);
        let mut comps = dep.instantiate(&topo);
        let c = &mut comps[1];
        let mk = |req: u32, at_ms: u64| QueueItem {
            request: RequestId::new(req),
            stage: 1,
            partition: 0,
            enqueued_at: SimTime::from_millis(at_ms),
        };
        c.enqueue(mk(1, 5));
        // A failover keeps its original (older) timestamp.
        c.enqueue(mk(2, 3));
        assert!(!c.queue_time_sorted, "out-of-order enqueue breaks the sort");
        // The timestamped cancel still works: it degrades to the scan, so
        // even a wrong timestamp cannot miss the duplicate.
        let cancelled = c.cancel_queued_at(
            RequestId::new(2),
            1,
            0,
            [SimTime::from_millis(9), SimTime::MAX],
        );
        assert_eq!(cancelled, 1);
        assert_eq!(c.queue_len(), 1);
    }

    #[test]
    fn replica_index_closed_form_matches_group_scan() {
        let topo = ServiceTopology::nutch(5);
        for replication in [1, 2, 3, 5] {
            let dep = Deployment::new(&topo, replication);
            for stage in 0..dep.stage_count() as u32 {
                for p in 0..dep.partition_count(stage) as u32 {
                    let group = dep.replicas(stage, p).to_vec();
                    for (i, c) in group.iter().enumerate() {
                        assert_eq!(dep.replica_index(stage, p, *c), Some(i));
                    }
                    // Non-members of the group (and of the stage) miss.
                    for ci in 0..dep.component_count() as u32 {
                        let id = ComponentId::new(ci);
                        let expected = group.iter().position(|c| *c == id);
                        assert_eq!(dep.replica_index(stage, p, id), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn replica_peers_are_group_co_members() {
        // nutch(5) has a one-worker stage on each side of five workers,
        // so replication 3 also covers stages narrower than the groups.
        let topo = ServiceTopology::nutch(5);
        for replication in [1, 3, 7] {
            let dep = Deployment::new(&topo, replication);
            let peers = dep.replica_peers();
            assert_eq!(peers.len(), dep.component_count());
            let mut expected = vec![std::collections::BTreeSet::new(); dep.component_count()];
            for stage in 0..dep.stage_count() as u32 {
                for p in 0..dep.partition_count(stage) as u32 {
                    for &a in dep.replicas(stage, p) {
                        for &b in dep.replicas(stage, p) {
                            if a != b {
                                expected[a.index()].insert(b);
                            }
                        }
                    }
                }
            }
            for (c, list) in peers.iter().enumerate() {
                let me = ComponentId::from_index(c);
                let set: std::collections::BTreeSet<_> = list.iter().copied().collect();
                assert_eq!(set.len(), list.len(), "duplicate peer of {me}");
                assert!(!set.contains(&me), "{me} is its own peer");
                assert_eq!(
                    set, expected[c],
                    "peers of {me} at replication {replication}"
                );
                assert!(list.iter().all(|b| peers[b.index()].contains(&me)));
            }
            if replication == 1 {
                assert!(peers.iter().all(Vec::is_empty));
            }
        }
        // Replication 7 exceeds the searching stage's five workers: each
        // worker's group is the whole stage, so its peers are the other four.
        let dep = Deployment::new(&topo, 7);
        assert!(dep.replica_peers()[1..6].iter().all(|p| p.len() == 4));
        assert!(dep.replica_peers()[0].is_empty() && dep.replica_peers()[6].is_empty());
    }

    #[test]
    fn pool_size_is_replication_invariant() {
        let topo = ServiceTopology::nutch(100);
        for k in [1, 2, 3, 5] {
            let dep = Deployment::new(&topo, k);
            assert_eq!(dep.component_count(), topo.component_count());
        }
    }
}

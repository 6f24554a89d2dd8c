//! Initial component placement.
//!
//! Components are dealt out in id order over the nodes, cycling across
//! racks; because replicas of a partition are numbered consecutively,
//! they land on distinct nodes whenever the cluster has at least
//! `replication` live nodes (asserted by the config validator), and the
//! walk steps past a node already holding a replica peer where the
//! partition space wraps. The scheduler then *improves* this placement at
//! run time — PCS is explicitly a complement to initial provisioning, not
//! a replacement for it (paper §III) — so every technique but `CAP`
//! starts from the same layout.

use crate::component::{Deployment, PhysicalComponent};
use pcs_types::{ComponentId, NodeCapacity, NodeId};

/// Whether a replica peer of component `i` that placement has already
/// assigned (a lower id: components are placed in id order) sits on
/// `node`.
fn hosts_placed_peer(
    components: &[PhysicalComponent],
    peers: &[ComponentId],
    i: usize,
    node: NodeId,
) -> bool {
    peers
        .iter()
        .any(|p| p.index() < i && components[p.index()].node == node)
}

/// Rack-striped placement with replica anti-affinity, the provisioning
/// baseline every run starts from unless it asks for
/// [`capacity_aware`].
///
/// Nodes are visited in an order that cycles across racks (first node of
/// each rack, then the second of each, …), so consecutive components —
/// hence the partitions of every stage — spread over all racks instead of
/// filling one rack before touching the next; on one rack the order is
/// plain node order. Each component takes the first live node from a
/// cursor just past the previous component's node that holds none of its
/// replica peers, else the first live node (only reachable when the live
/// node count is below the group size, which the config validator
/// excludes). Dead nodes (`alive` false — a fault plan may kill nodes at
/// t = 0) are never targeted.
///
/// # Panics
/// Panics unless `racks` (each node's rack) has one entry per `alive`
/// flag and `alive` marks at least one node live.
pub fn rack_striped(
    components: &mut [PhysicalComponent],
    deployment: &Deployment,
    racks: &[usize],
    alive: &[bool],
) {
    let node_count = racks.len();
    assert!(node_count > 0, "need at least one node");
    assert_eq!(alive.len(), node_count, "one liveness flag per node");
    assert!(alive.iter().any(|&a| a), "need at least one live node");
    let rack_count = racks.iter().max().map_or(1, |&r| r + 1);

    // Visiting order striping across racks: position `p` of rack 0, then
    // position `p` of rack 1, …, before any rack's position `p + 1`.
    let mut by_rack: Vec<Vec<NodeId>> = vec![Vec::new(); rack_count];
    for (n, &r) in racks.iter().enumerate() {
        by_rack[r].push(NodeId::from_index(n));
    }
    let deepest = by_rack.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<NodeId> = (0..deepest)
        .flat_map(|depth| {
            by_rack
                .iter()
                .filter_map(move |rack| rack.get(depth).copied())
        })
        .collect();

    let peers = deployment.replica_peers();
    let mut cursor = 0usize;
    for i in 0..components.len() {
        let live = (cursor..cursor + node_count)
            .map(|step| step % node_count)
            .filter(|&pos| alive[order[pos].index()]);
        let pos = live
            .clone()
            .find(|&pos| !hosts_placed_peer(components, &peers[i], i, order[pos]))
            .or_else(|| live.clone().next())
            .expect("at least one live node");
        components[i].node = order[pos];
        cursor = pos + 1;
    }
}

/// Capacity-proportional placement with replica anti-affinity: every
/// component goes to the node with the lowest *capacity-weighted* fill
/// `(hosted + 1) / weight` among the nodes that don't conflict with any
/// of the component's replica groups (ties break towards the lower node
/// index, so the assignment is deterministic). A node's weight is its
/// capacity relative to the strongest node, averaged over the CPU, disk
/// and network dimensions — a half-size node ends up hosting roughly half
/// as many components.
///
/// On a homogeneous cluster all weights are 1 and the strategy degrades
/// to balanced anti-affine placement. Dead nodes (`alive` false — a fault
/// plan killing at t = 0) are never targeted. The fallback when every
/// live node conflicts mirrors [`rack_striped`]: the best-fill live node
/// wins regardless (only reachable when the live node count < group size,
/// which the config validator excludes).
///
/// # Panics
/// Panics unless `capacities` lists at least one node with positive
/// capacity in every dimension and `alive` marks at least one node live.
pub fn capacity_aware(
    components: &mut [PhysicalComponent],
    deployment: &Deployment,
    capacities: &[NodeCapacity],
    alive: &[bool],
) {
    let node_count = capacities.len();
    assert!(node_count > 0, "need at least one node");
    assert_eq!(alive.len(), node_count, "one liveness flag per node");
    assert!(alive.iter().any(|&a| a), "need at least one live node");
    let max_cores = capacities.iter().map(|c| c.cores).fold(0.0, f64::max);
    let max_disk = capacities.iter().map(|c| c.disk_mbps).fold(0.0, f64::max);
    let max_net = capacities.iter().map(|c| c.net_mbps).fold(0.0, f64::max);
    assert!(
        max_cores > 0.0 && max_disk > 0.0 && max_net > 0.0,
        "capacities must be positive"
    );
    let weights: Vec<f64> = capacities
        .iter()
        .map(|c| (c.cores / max_cores + c.disk_mbps / max_disk + c.net_mbps / max_net) / 3.0)
        .collect();

    let peers = deployment.replica_peers();
    let mut hosted = vec![0usize; node_count];
    for i in 0..components.len() {
        let fill = |n: usize| (hosted[n] + 1) as f64 / weights[n].max(f64::MIN_POSITIVE);
        let best = |admit_conflicts: bool| -> Option<usize> {
            let mut best: Option<usize> = None;
            for n in (0..node_count).filter(|&n| alive[n]) {
                if !admit_conflicts
                    && hosts_placed_peer(components, &peers[i], i, NodeId::from_index(n))
                {
                    continue;
                }
                match best {
                    Some(b) if fill(n) >= fill(b) => {}
                    _ => best = Some(n),
                }
            }
            best
        };
        let chosen = best(false).or_else(|| best(true)).expect("node_count > 0");
        components[i].node = NodeId::from_index(chosen);
        hosted[chosen] += 1;
    }
}

/// Verifies no replica group has two members on one node (placement
/// invariant; used by tests and debug assertions). Both strategies skip
/// nodes holding a replica peer, so this holds whenever the cluster has
/// at least `replication` live nodes.
pub fn replicas_on_distinct_nodes(
    deployment: &Deployment,
    components: &[PhysicalComponent],
) -> bool {
    for stage in 0..deployment.stage_count() {
        for p in 0..deployment.partition_count(stage as u32) {
            let group = deployment.replicas(stage as u32, p as u32);
            let mut nodes: Vec<NodeId> = group.iter().map(|c| components[c.index()].node).collect();
            nodes.sort_unstable();
            if nodes.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_workloads::ServiceTopology;

    fn nodes(components: &[PhysicalComponent]) -> Vec<usize> {
        components.iter().map(|c| c.node.index()).collect()
    }

    #[test]
    fn walk_balances_nodes_at_replication_one() {
        // No peers: on one rack the walk is round-robin over the nodes,
        // and every node hosts ⌈total/8⌉ or ⌊total/8⌋ components.
        let topo = ServiceTopology::nutch(10);
        let dep = Deployment::new(&topo, 1);
        let mut comps = dep.instantiate(&topo);
        rack_striped(&mut comps, &dep, &[0; 8], &[true; 8]);
        assert_eq!(nodes(&comps), (0..12).map(|i| i % 8).collect::<Vec<_>>());
        let mut counts = vec![0usize; 8];
        for c in &comps {
            counts[c.node.index()] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "round-robin must balance: {counts:?}");
    }

    #[test]
    fn single_rack_layout_is_pinned() {
        // The wrap below, pinned node by node: c9 (worker 8) skips node 1,
        // which holds its peer c1, and the cursor follows it to node 2.
        let topo = ServiceTopology::nutch(10);
        let dep = Deployment::new(&topo, 3);
        let mut comps = dep.instantiate(&topo);
        rack_striped(&mut comps, &dep, &[0; 8], &[true; 8]);
        assert_eq!(nodes(&comps), [0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 3, 4]);
    }

    #[test]
    fn anti_affine_separates_replicas_even_at_wrap() {
        // W=10 workers, 8 nodes, groups of 3: dealing components out in
        // node order collides at the wrap groups; the walk must not, on
        // one rack or two.
        let topo = ServiceTopology::nutch(10);
        let dep = Deployment::new(&topo, 3);
        let mut comps = dep.instantiate(&topo);
        for (i, c) in comps.iter_mut().enumerate() {
            c.node = NodeId::from_index(i % 8);
        }
        assert!(
            !replicas_on_distinct_nodes(&dep, &comps),
            "precondition: node-order dealing collides at the wrap"
        );
        for racks in [vec![0; 8], (0..8).map(|n| n / 4).collect()] {
            rack_striped(&mut comps, &dep, &racks, &[true; 8]);
            assert!(replicas_on_distinct_nodes(&dep, &comps));
            // Balance stays reasonable.
            let mut counts = vec![0usize; 8];
            for c in &comps {
                counts[c.node.index()] += 1;
            }
            let max = counts.iter().max().unwrap();
            assert!(*max <= 3, "the walk must not pile up: {counts:?}");
        }
    }

    #[test]
    fn anti_affine_handles_paper_scale() {
        let topo = ServiceTopology::nutch(100);
        let dep = Deployment::new(&topo, 5);
        let mut comps = dep.instantiate(&topo);
        rack_striped(&mut comps, &dep, &[0; 30], &[true; 30]);
        assert!(replicas_on_distinct_nodes(&dep, &comps));
    }

    #[test]
    fn rack_striped_stripes_stages_across_racks() {
        let topo = ServiceTopology::nutch(12);
        let dep = Deployment::new(&topo, 2);
        let mut comps = dep.instantiate(&topo);
        // 12 nodes in 3 racks of 4.
        let racks: Vec<usize> = (0..12).map(|n| n / 4).collect();
        rack_striped(&mut comps, &dep, &racks, &[true; 12]);
        assert!(replicas_on_distinct_nodes(&dep, &comps));
        // Consecutive components cycle across the racks.
        assert_eq!(nodes(&comps)[..4], [0, 4, 8, 1]);
        // Every rack hosts a share of the wide searching stage.
        let mut rack_hosts = vec![0usize; 3];
        for c in &comps {
            rack_hosts[racks[c.node.index()]] += 1;
        }
        assert!(
            rack_hosts.iter().all(|&h| h > 0),
            "all racks must host components: {rack_hosts:?}"
        );
        let min = rack_hosts.iter().min().unwrap();
        let max = rack_hosts.iter().max().unwrap();
        assert!(
            max - min <= 2,
            "striping must balance racks: {rack_hosts:?}"
        );
    }

    #[test]
    fn rack_striped_skips_dead_nodes() {
        let topo = ServiceTopology::nutch(10);
        let dep = Deployment::new(&topo, 2);
        let racks: Vec<usize> = (0..6).map(|n| n / 3).collect();
        let alive = [true, false, true, true, false, true];
        let mut comps = dep.instantiate(&topo);
        rack_striped(&mut comps, &dep, &racks, &alive);
        assert!(replicas_on_distinct_nodes(&dep, &comps));
        for c in &comps {
            assert!(alive[c.node.index()], "{} on dead node {}", c.id, c.node);
        }
    }

    #[test]
    fn capacity_aware_fills_proportionally_and_separates_replicas() {
        let topo = ServiceTopology::nutch(22);
        let dep = Deployment::new(&topo, 2);
        let mut comps = dep.instantiate(&topo);
        // Nodes 0..3 full-size, nodes 4..7 half-size in every dimension.
        let strong = NodeCapacity::XEON_E5645;
        let weak = NodeCapacity::new(6.0, 100.0, 62.5);
        let caps = vec![strong, strong, strong, strong, weak, weak, weak, weak];
        capacity_aware(&mut comps, &dep, &caps, &vec![true; caps.len()]);
        assert!(replicas_on_distinct_nodes(&dep, &comps));
        let mut counts = vec![0usize; caps.len()];
        for c in &comps {
            counts[c.node.index()] += 1;
        }
        let strong_total: usize = counts[..4].iter().sum();
        let weak_total: usize = counts[4..].iter().sum();
        assert!(
            strong_total >= 2 * weak_total - 2,
            "strong nodes must host about twice the components: {counts:?}"
        );
    }

    #[test]
    fn capacity_aware_on_homogeneous_cluster_balances() {
        let topo = ServiceTopology::nutch(10);
        let dep = Deployment::new(&topo, 1);
        let mut comps = dep.instantiate(&topo);
        capacity_aware(&mut comps, &dep, &[NodeCapacity::XEON_E5645; 8], &[true; 8]);
        let mut counts = vec![0usize; 8];
        for c in &comps {
            counts[c.node.index()] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "equal weights must balance: {counts:?}");
    }

    #[test]
    fn capacity_aware_is_deterministic() {
        let topo = ServiceTopology::nutch(16);
        let dep = Deployment::new(&topo, 3);
        let caps = crate::config::SimConfig::paper_like(topo.clone(), 1.0, 1).node_capacity;
        let mut a = dep.instantiate(&topo);
        let mut b = dep.instantiate(&topo);
        capacity_aware(&mut a, &dep, &[caps; 8], &[true; 8]);
        capacity_aware(&mut b, &dep, &[caps; 8], &[true; 8]);
        assert_eq!(nodes(&a), nodes(&b));
    }

    #[test]
    fn dead_nodes_receive_no_components() {
        let topo = ServiceTopology::nutch(10);
        let dep = Deployment::new(&topo, 2);
        let alive = [true, false, true, true, false, true];
        let mut striped = dep.instantiate(&topo);
        rack_striped(&mut striped, &dep, &[0; 6], &alive);
        let mut cap = dep.instantiate(&topo);
        capacity_aware(&mut cap, &dep, &[NodeCapacity::XEON_E5645; 6], &alive);
        for comps in [&striped, &cap] {
            assert!(replicas_on_distinct_nodes(&dep, comps));
            for c in comps.iter() {
                assert!(
                    alive[c.node.index()],
                    "component {} placed on dead node {}",
                    c.id,
                    c.node
                );
            }
        }
    }

    #[test]
    fn detects_replica_collision() {
        let topo = ServiceTopology::nutch(4);
        let dep = Deployment::new(&topo, 2);
        let mut comps = dep.instantiate(&topo);
        rack_striped(&mut comps, &dep, &[0; 4], &[true; 4]);
        assert!(replicas_on_distinct_nodes(&dep, &comps));
        // Force a collision inside the group of searching partition 0.
        let id1 = dep.replicas(1, 0)[0];
        let id2 = dep.replicas(1, 0)[1];
        let node = comps[id1.index()].node;
        comps[id2.index()].node = node;
        assert!(!replicas_on_distinct_nodes(&dep, &comps));
    }
}

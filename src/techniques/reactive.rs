//! The hook of `LL`, least-loaded reactive migration, in the spirit of
//! load-aware dispatchers like RackSched — migrate off whatever node is
//! hottest *right now*, with no prediction at all.
//!
//! The point of this baseline is to isolate the value of PCS's
//! *predictive* step: LL sees the same monitored contention windows the
//! PCS controller sees, but instead of predicting per-component latency
//! on every candidate node it simply moves the busiest component off the
//! currently hottest node onto the currently coolest one. Any latency gap
//! between LL and PCS is attributable to prediction, not to the mere
//! ability to migrate.

use pcs_sim::{MigrationRequest, SchedulerContext, SchedulerHook};
use pcs_types::NodeId;

#[cfg(test)]
use pcs_sim::NodeStatus;

/// Minimum hottest-minus-coolest load gap (in summed utilisation
/// fractions) before LL bothers migrating; below it the cluster is
/// considered balanced and a move would be churn.
const LOAD_MARGIN: f64 = 0.1;

/// The reactive hook: one migration per interval, hottest node to coolest
/// node, chosen purely from the monitors' latest contention windows.
#[derive(Debug, Default)]
pub struct LeastLoadedHook {
    /// Last known load per node, carried across empty sampling windows
    /// (mirrors the PCS controller's staleness handling).
    last_load: Vec<f64>,
}

/// A node's scalar load: the mean over the window of the summed
/// CPU/disk/network utilisation fractions (MPKI is excluded — it is on a
/// different scale and the reactive baseline deliberately stays crude).
fn window_load(window: &[pcs_types::ContentionVector]) -> f64 {
    window
        .iter()
        .map(|s| s.core_usage + s.disk_util + s.net_util)
        .sum::<f64>()
        / window.len() as f64
}

impl SchedulerHook for LeastLoadedHook {
    fn on_interval(&mut self, ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest> {
        let k = ctx.node_capacities.len();
        if k < 2 {
            return Vec::new();
        }
        if self.last_load.len() != k {
            self.last_load = vec![0.0; k];
        }
        for (j, window) in ctx.sampled_windows.iter().enumerate() {
            if !window.is_empty() {
                self.last_load[j] = window_load(window);
            }
        }

        // Liveness first: a component stranded on a dead node outranks
        // any load-balancing move. True to LL's reactive one-step nature
        // it evacuates a single component per interval (the lowest id),
        // onto the coolest *live* node — so a dead node drains one
        // scheduling interval at a time, which is exactly the gap the
        // predictive controller's batched evacuation closes.
        if ctx.node_status.iter().any(|s| !s.is_up()) {
            let stranded = ctx
                .components
                .iter()
                .find(|m| !ctx.node_status[m.node.index()].is_up() && !m.migrating);
            if let Some(meta) = stranded {
                // Only destinations the world will accept: live and not
                // hosting one of the orphan's replica-group peers.
                let mut dest: Option<usize> = None;
                for j in 0..k {
                    if !ctx.legal_destination(meta.id, j) {
                        continue;
                    }
                    if dest.is_none_or(|d| self.last_load[j] < self.last_load[d]) {
                        dest = Some(j);
                    }
                }
                return match dest {
                    Some(j) => vec![MigrationRequest {
                        component: meta.id,
                        to: NodeId::from_index(j),
                    }],
                    None => Vec::new(), // nowhere live to go
                };
            }
        }

        // Nothing monitored yet: wait, like the PCS controller does.
        if ctx.sampled_windows.iter().all(|w| w.is_empty()) {
            return Vec::new();
        }
        // The source is the hottest live node that actually hosts a
        // movable component (batch-only nodes have nothing to evacuate);
        // the destination is the coolest live node overall. Ties break
        // towards the lower node index: deterministic.
        let mut evacuable = vec![false; k];
        for meta in ctx.components {
            if !meta.migrating {
                evacuable[meta.node.index()] = true;
            }
        }
        let mut hottest: Option<usize> = None;
        let mut coolest: Option<usize> = None;
        for (j, &can_evacuate) in evacuable.iter().enumerate() {
            if !ctx.node_status[j].is_up() {
                continue;
            }
            if can_evacuate && hottest.is_none_or(|h| self.last_load[j] > self.last_load[h]) {
                hottest = Some(j);
            }
            if coolest.is_none_or(|c| self.last_load[j] < self.last_load[c]) {
                coolest = Some(j);
            }
        }
        let (Some(hottest), Some(coolest)) = (hottest, coolest) else {
            return Vec::new();
        };
        if self.last_load[hottest] - self.last_load[coolest] < LOAD_MARGIN {
            return Vec::new();
        }
        // Evacuate the busiest component of the hottest node (largest
        // normalised own demand; ties towards the lower component id).
        let cap = ctx.node_capacities[hottest];
        let mut best: Option<(f64, pcs_types::ComponentId)> = None;
        for meta in ctx.components {
            if meta.node.index() != hottest || meta.migrating {
                continue;
            }
            let u = cap.normalize(&meta.own_demand);
            let score = u.core_usage + u.disk_util + u.net_util;
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, meta.id));
            }
        }
        match best {
            Some((_, component)) => vec![MigrationRequest {
                component,
                to: NodeId::from_index(coolest),
            }],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_sim::policy::ComponentMeta;
    use pcs_types::{ComponentId, ContentionVector, NodeCapacity, ResourceVector, SimTime};

    fn meta(id: u32, node: usize, cores: f64) -> ComponentMeta {
        ComponentMeta {
            id: ComponentId::new(id),
            class: 0,
            stage: 0,
            node: NodeId::from_index(node),
            migrating: false,
            own_demand: ResourceVector::new(cores, 0.0, 0.0, 0.0),
        }
    }

    const ALL_UP: [NodeStatus; 8] = [NodeStatus::Up; 8];

    fn ctx_with<'a>(
        components: &'a [ComponentMeta],
        caps: &'a [NodeCapacity],
        windows: &'a [Vec<ContentionVector>],
        demand: &'a [ResourceVector],
    ) -> SchedulerContext<'a> {
        ctx_with_status(components, caps, windows, demand, &ALL_UP[..caps.len()])
    }

    fn ctx_with_status<'a>(
        components: &'a [ComponentMeta],
        caps: &'a [NodeCapacity],
        windows: &'a [Vec<ContentionVector>],
        demand: &'a [ResourceVector],
        status: &'a [NodeStatus],
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            now: SimTime::ZERO,
            components,
            node_capacities: caps,
            sampled_windows: windows,
            arrival_rates: &[],
            service_scv: &[],
            stage_count: 1,
            ground_truth_demand: demand,
            node_status: status,
            replica_peers: &[],
            rack_of: &[],
        }
    }

    #[test]
    fn migrates_busiest_component_from_hot_to_cool() {
        let caps = [NodeCapacity::XEON_E5645; 3];
        let comps = [meta(0, 0, 1.0), meta(1, 0, 4.0), meta(2, 1, 1.0)];
        let hot = vec![ContentionVector::new(0.9, 0.0, 0.4, 0.2)];
        let warm = vec![ContentionVector::new(0.4, 0.0, 0.1, 0.1)];
        let cool = vec![ContentionVector::new(0.05, 0.0, 0.0, 0.0)];
        let windows = [hot, warm, cool];
        let demand = [ResourceVector::ZERO; 3];
        let mut hook = LeastLoadedHook::default();
        let orders = hook.on_interval(&ctx_with(&comps, &caps, &windows, &demand));
        assert_eq!(
            orders,
            vec![MigrationRequest {
                component: ComponentId::new(1),
                to: NodeId::from_index(2),
            }],
            "the heaviest component on the hottest node goes to the coolest node"
        );
    }

    #[test]
    fn batch_only_hot_node_is_skipped_for_the_hottest_hosting_node() {
        // Node 0 is the hottest but hosts nothing (pure batch churn);
        // node 1 is the hottest node that can actually be evacuated.
        let caps = [NodeCapacity::XEON_E5645; 3];
        let comps = [meta(0, 1, 2.0), meta(1, 2, 1.0)];
        let windows = [
            vec![ContentionVector::new(1.5, 0.0, 0.8, 0.5)],
            vec![ContentionVector::new(0.7, 0.0, 0.2, 0.1)],
            vec![ContentionVector::new(0.1, 0.0, 0.0, 0.0)],
        ];
        let demand = [ResourceVector::ZERO; 3];
        let mut hook = LeastLoadedHook::default();
        let orders = hook.on_interval(&ctx_with(&comps, &caps, &windows, &demand));
        assert_eq!(
            orders,
            vec![MigrationRequest {
                component: ComponentId::new(0),
                to: NodeId::from_index(2),
            }]
        );
    }

    #[test]
    fn balanced_cluster_and_cold_monitors_stay_put() {
        let caps = [NodeCapacity::XEON_E5645; 2];
        let comps = [meta(0, 0, 1.0), meta(1, 1, 1.0)];
        let demand = [ResourceVector::ZERO; 2];
        let mut hook = LeastLoadedHook::default();

        // All windows empty: cold start, no orders.
        let empty: [Vec<ContentionVector>; 2] = [vec![], vec![]];
        assert!(hook
            .on_interval(&ctx_with(&comps, &caps, &empty, &demand))
            .is_empty());

        // Loads within the margin: balanced, no orders.
        let even = [
            vec![ContentionVector::new(0.5, 0.0, 0.1, 0.1)],
            vec![ContentionVector::new(0.45, 0.0, 0.12, 0.1)],
        ];
        assert!(hook
            .on_interval(&ctx_with(&comps, &caps, &even, &demand))
            .is_empty());
    }

    #[test]
    fn stranded_components_evacuate_one_per_interval_to_live_nodes() {
        let caps = [NodeCapacity::XEON_E5645; 3];
        // Components 0 and 1 stranded on dead node 1; node 2 is cool but
        // DEAD too, so the only legal destination is node 0.
        let comps = [meta(0, 1, 1.0), meta(1, 1, 2.0), meta(2, 0, 1.0)];
        let windows = [
            vec![ContentionVector::new(0.8, 0.0, 0.3, 0.2)],
            vec![],
            vec![ContentionVector::new(0.0, 0.0, 0.0, 0.0)],
        ];
        let status = [NodeStatus::Up, NodeStatus::Down, NodeStatus::Down];
        let demand = [ResourceVector::ZERO; 3];
        let mut hook = LeastLoadedHook::default();
        let orders = hook.on_interval(&ctx_with_status(&comps, &caps, &windows, &demand, &status));
        assert_eq!(
            orders,
            vec![MigrationRequest {
                component: ComponentId::new(0),
                to: NodeId::from_index(0),
            }],
            "one stranded component per interval, lowest id first, live destination only"
        );
    }

    #[test]
    fn evacuation_skips_nodes_hosting_a_replica_peer() {
        // Component 0 is stranded on dead node 2; its replica peer
        // (component 1) sits on node 0, the coolest node. The evacuation
        // must go to node 1 instead — the world would reject a move that
        // co-locates the pair.
        let caps = [NodeCapacity::XEON_E5645; 3];
        let comps = [meta(0, 2, 1.0), meta(1, 0, 1.0)];
        let windows = [
            vec![ContentionVector::new(0.1, 0.0, 0.0, 0.0)],
            vec![ContentionVector::new(0.6, 0.0, 0.2, 0.1)],
            vec![],
        ];
        let status = [NodeStatus::Up, NodeStatus::Up, NodeStatus::Down];
        let demand = [ResourceVector::ZERO; 3];
        let peers: Vec<Vec<ComponentId>> =
            vec![vec![ComponentId::new(1)], vec![ComponentId::new(0)]];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            components: &comps,
            node_capacities: &caps,
            sampled_windows: &windows,
            arrival_rates: &[],
            service_scv: &[],
            stage_count: 1,
            ground_truth_demand: &demand,
            node_status: &status,
            replica_peers: &peers,
            rack_of: &[],
        };
        let mut hook = LeastLoadedHook::default();
        assert_eq!(
            hook.on_interval(&ctx),
            vec![MigrationRequest {
                component: ComponentId::new(0),
                to: NodeId::from_index(1),
            }],
            "the cool node hosting the peer is skipped"
        );
    }

    #[test]
    fn no_live_destination_means_no_orders() {
        let caps = [NodeCapacity::XEON_E5645; 2];
        let comps = [meta(0, 0, 1.0)];
        let windows = [vec![], vec![]];
        let status = [NodeStatus::Down, NodeStatus::Down];
        let demand = [ResourceVector::ZERO; 2];
        let mut hook = LeastLoadedHook::default();
        assert!(hook
            .on_interval(&ctx_with_status(&comps, &caps, &windows, &demand, &status))
            .is_empty());
    }

    #[test]
    fn load_balancing_ignores_dead_nodes_entirely() {
        // Node 2 is dead and reads as stone cold; the balancing path must
        // not pick it as the coolest destination. No component is
        // stranded (all live on nodes 0/1), so this exercises the normal
        // path with a dead node present.
        let caps = [NodeCapacity::XEON_E5645; 3];
        let comps = [meta(0, 0, 2.0), meta(1, 1, 1.0)];
        let windows = [
            vec![ContentionVector::new(0.9, 0.0, 0.4, 0.2)],
            vec![ContentionVector::new(0.1, 0.0, 0.0, 0.0)],
            vec![],
        ];
        let status = [NodeStatus::Up, NodeStatus::Up, NodeStatus::Down];
        let demand = [ResourceVector::ZERO; 3];
        let mut hook = LeastLoadedHook::default();
        let orders = hook.on_interval(&ctx_with_status(&comps, &caps, &windows, &demand, &status));
        assert_eq!(
            orders,
            vec![MigrationRequest {
                component: ComponentId::new(0),
                to: NodeId::from_index(1),
            }],
            "the coolest *live* node wins even when a dead node reads colder"
        );
    }

    #[test]
    fn empty_window_reuses_last_load() {
        let caps = [NodeCapacity::XEON_E5645; 2];
        let comps = [meta(0, 0, 2.0), meta(1, 1, 1.0)];
        let demand = [ResourceVector::ZERO; 2];
        let mut hook = LeastLoadedHook::default();
        let first = [
            vec![ContentionVector::new(0.9, 0.0, 0.3, 0.2)],
            vec![ContentionVector::new(0.1, 0.0, 0.0, 0.0)],
        ];
        assert_eq!(
            hook.on_interval(&ctx_with(&comps, &caps, &first, &demand))
                .len(),
            1
        );
        // Node 0's window dries up; its stale load still marks it hottest.
        let second = [vec![], vec![ContentionVector::new(0.1, 0.0, 0.0, 0.0)]];
        assert_eq!(
            hook.on_interval(&ctx_with(&comps, &caps, &second, &demand))
                .len(),
            1
        );
    }
}

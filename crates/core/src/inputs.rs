//! Snapshot inputs to the performance matrix.
//!
//! At the end of each scheduling interval the monitors deliver, per node,
//! the aggregate resource pressure and, per component, the workload status
//! (paper §III). These plain structs decouple the scheduler from any
//! particular monitoring pipeline — the simulator's glue fills them from
//! its monitors, unit tests construct them by hand.

use pcs_types::{ComponentId, NodeCapacity, NodeId, ResourceVector};

/// One node's monitored state.
#[derive(Debug, Clone)]
pub struct NodeInput {
    /// The node's identity; `NodeInput`s are indexed densely by this id.
    pub id: NodeId,
    /// Hardware capacity, for normalising demands into Table II form.
    pub capacity: NodeCapacity,
    /// Aggregate resource demand of *all* programs resident on the node
    /// (batch jobs + service components), in absolute demand units. This
    /// is the monitored `U` of every component hosted here, before
    /// normalisation.
    pub demand: ResourceVector,
}

/// One component's monitored state.
#[derive(Debug, Clone)]
pub struct ComponentInput {
    /// The component's identity; inputs are indexed densely by this id.
    pub id: ComponentId,
    /// Component-class index (into the trained model set).
    pub class: usize,
    /// Stage index within the service topology.
    pub stage: usize,
    /// Node currently hosting this component (`A[i]` in Algorithm 1).
    pub node: NodeId,
    /// The component's own resource demand `U_ci` (Table III), in absolute
    /// demand units.
    pub demand: ResourceVector,
    /// Monitored request arrival rate λ (req/s) at this component.
    pub arrival_rate: f64,
    /// Squared coefficient of variation of this component's service time,
    /// from the monitors' service-time window (or a class default).
    pub scv: f64,
}

/// Everything the matrix needs for one scheduling interval.
#[derive(Debug, Clone)]
pub struct MatrixInputs {
    /// All nodes, indexed by `NodeId` (dense, in order).
    pub nodes: Vec<NodeInput>,
    /// All components, indexed by `ComponentId` (dense, in order).
    pub components: Vec<ComponentInput>,
    /// Number of sequential stages in the service.
    pub stage_count: usize,
}

impl MatrixInputs {
    /// Validates internal consistency; called by the matrix builder.
    ///
    /// # Panics
    /// Panics on inconsistent ids, out-of-range stages/nodes, or invalid
    /// demands — these indicate a broken monitoring pipeline, not a
    /// recoverable runtime condition.
    pub fn validate(&self) {
        assert!(!self.nodes.is_empty(), "need at least one node");
        assert!(!self.components.is_empty(), "need at least one component");
        assert!(self.stage_count > 0, "need at least one stage");
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(n.id.index(), i, "node inputs must be dense and ordered");
            assert!(n.demand.is_valid(), "node {i} has invalid demand");
        }
        for (i, c) in self.components.iter().enumerate() {
            assert_eq!(
                c.id.index(),
                i,
                "component inputs must be dense and ordered"
            );
            assert!(
                c.node.index() < self.nodes.len(),
                "component {i} hosted on unknown node {}",
                c.node
            );
            assert!(
                c.stage < self.stage_count,
                "component {i} in out-of-range stage {}",
                c.stage
            );
            assert!(c.demand.is_valid(), "component {i} has invalid demand");
            assert!(
                c.arrival_rate.is_finite() && c.arrival_rate >= 0.0,
                "component {i} has invalid arrival rate"
            );
            assert!(
                c.scv.is_finite() && c.scv >= 0.0,
                "component {i} has invalid SCV"
            );
        }
    }

    /// Number of components `m`.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of nodes `k`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> MatrixInputs {
        MatrixInputs {
            nodes: vec![NodeInput {
                id: NodeId::new(0),
                capacity: NodeCapacity::default(),
                demand: ResourceVector::ZERO,
            }],
            components: vec![ComponentInput {
                id: ComponentId::new(0),
                class: 0,
                stage: 0,
                node: NodeId::new(0),
                demand: ResourceVector::ZERO,
                arrival_rate: 10.0,
                scv: 1.0,
            }],
            stage_count: 1,
        }
    }

    #[test]
    fn minimal_inputs_validate() {
        minimal().validate();
        assert_eq!(minimal().component_count(), 1);
        assert_eq!(minimal().node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn component_on_missing_node_rejected() {
        let mut inputs = minimal();
        inputs.components[0].node = NodeId::new(5);
        inputs.validate();
    }

    #[test]
    #[should_panic(expected = "out-of-range stage")]
    fn component_in_missing_stage_rejected() {
        let mut inputs = minimal();
        inputs.components[0].stage = 3;
        inputs.validate();
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn non_dense_ids_rejected() {
        let mut inputs = minimal();
        inputs.components[0].id = ComponentId::new(7);
        inputs.validate();
    }
}

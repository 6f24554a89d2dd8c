//! Node membership: the one model of which nodes serve and which take
//! placements.
//!
//! Every per-node status bit lives here, owned by the world and fed by
//! its event sources:
//!
//! * **liveness** — fault kills and restores ([`crate::faults`]);
//! * **the elastic lifecycle** — [`NodePhase`], driven by the
//!   [`crate::autoscale::AutoscalePolicy`]; without an autoscaler every
//!   node stays [`NodePhase::Active`];
//! * **the detector's view** — what a [`FailureDetector`] reports to
//!   scheduler hooks, drawn on its own seeded RNG lane.
//!
//! Faults and autoscaling compose by three rules:
//!
//! 1. Liveness overrides lifecycle: a killed node reads
//!    [`NodeStatus::Down`] and takes no placements whatever its phase; a
//!    restored node returns to its phase.
//! 2. The detector distorts only the liveness bit: it never reports a
//!    warming or draining node as `Up`.
//! 3. Billing stays by phase: a killed in-fleet node still costs
//!    node-seconds ([`crate::autoscale::AutoscaleReport::node_seconds`]).

use crate::config::SimConfig;
use crate::faults::{FailureDetector, FaultPlan, NodeStatus};
use crate::metrics::FaultPhase;
use pcs_types::{NodeId, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where a node stands in the elastic lifecycle (modeled on the
/// invoker/cold-start/idle-container lifecycle of dslab-faas):
///
/// ```text
/// Retired ──join──▶ Warming ──cold start elapses──▶ Active
///    ▲                                                 │
///    └──────── drained (zero components) ── Draining ◀─┘ scale-in
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodePhase {
    /// In the fleet, serving and accepting placements.
    Active,
    /// Joined but cold-starting: visible, no placements yet.
    Warming,
    /// Leaving the fleet: no new placements, components evacuating.
    Draining,
    /// Out of the fleet: hosts nothing, bills no node-seconds.
    Retired,
}

/// The status a node with this liveness and phase reads as.
fn status_of(alive: bool, phase: NodePhase) -> NodeStatus {
    match phase {
        _ if !alive => NodeStatus::Down,
        NodePhase::Active => NodeStatus::Up,
        NodePhase::Warming => NodeStatus::Warming,
        NodePhase::Draining => NodeStatus::Draining,
        NodePhase::Retired => NodeStatus::Down,
    }
}

/// Per-node membership state of one run. See the module docs.
#[derive(Debug, Clone)]
pub struct Membership {
    alive: Vec<bool>,
    phase: Vec<NodePhase>,
    /// Per node: when it entered its phase.
    phase_since: Vec<SimTime>,
    /// Per node: when its liveness last changed (`None`: never), for the
    /// detector's detection latency.
    changed_at: Vec<Option<SimTime>>,
    /// Nodes currently killed (0 on the fault-free fast path).
    down: usize,
    /// Whether any kill has struck yet.
    kills_seen: bool,
    /// The failure detector and its dedicated RNG lane, which keeps the
    /// main event stream bit-identical whether or not one is configured.
    detector: Option<(FailureDetector, SmallRng)>,
    /// Nodes the detector reported dead at the most recent perception.
    suspected: u64,
}

impl Membership {
    /// All nodes alive; the first `fleet` nodes are active, the rest
    /// retired. No detector.
    pub fn new(node_count: usize, fleet: usize) -> Self {
        let mut phase = vec![NodePhase::Active; node_count];
        phase[fleet.min(node_count)..].fill(NodePhase::Retired);
        Membership {
            alive: vec![true; node_count],
            phase,
            phase_since: vec![SimTime::ZERO; node_count],
            changed_at: vec![None; node_count],
            down: 0,
            kills_seen: false,
            detector: None,
            suspected: 0,
        }
    }

    /// Filters hook perception through `detector` (if any), drawing on a
    /// lane seeded from the run seed.
    pub fn with_detector(mut self, detector: Option<FailureDetector>, seed: u64) -> Self {
        let lane = pcs_harness::seed::mix(seed, crate::faults::SALT_DETECTOR);
        self.detector = detector.map(|det| (det, SmallRng::seed_from_u64(lane)));
        self
    }

    /// The membership a config starts from: the autoscaler's
    /// fully-provisioned fleet (every node without one), seen through
    /// the configured detector.
    pub fn from_config(config: &SimConfig) -> Self {
        let fleet = config.autoscale.map_or(config.node_count, |a| a.max_nodes);
        Membership::new(config.node_count, fleet).with_detector(config.detector, config.seed)
    }

    /// The initial placement mask: the nodes that accept placements once
    /// every liveness event `faults` schedules at t = 0 has applied.
    pub fn initial_mask(&self, faults: &FaultPlan) -> Vec<bool> {
        faults
            .initial_alive(self.phase.len())
            .into_iter()
            .zip(&self.phase)
            .map(|(alive, &phase)| alive && phase == NodePhase::Active)
            .collect()
    }

    /// Ground-truth liveness: false while the node is killed.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Number of currently killed nodes (O(1); 0 on fault-free runs).
    #[inline]
    pub fn down_count(&self) -> usize {
        self.down
    }

    /// The ground-truth status: liveness first, then the phase.
    pub fn status(&self, node: NodeId) -> NodeStatus {
        status_of(self.alive[node.index()], self.phase[node.index()])
    }

    /// Whether a component may be placed on (migrated onto) this node:
    /// it is alive and active.
    pub fn accepts_placements(&self, node: NodeId) -> bool {
        self.alive[node.index()] && self.phase[node.index()] == NodePhase::Active
    }

    /// The node's lifecycle phase (which survives a kill).
    pub fn phase(&self, node: NodeId) -> NodePhase {
        self.phase[node.index()]
    }

    /// Every node's lifecycle phase, densely indexed.
    pub fn phases(&self) -> &[NodePhase] {
        &self.phase
    }

    /// When the node entered its current phase.
    pub fn phase_since(&self, node: NodeId) -> SimTime {
        self.phase_since[node.index()]
    }

    /// Nodes currently in `phase`.
    pub fn count(&self, phase: NodePhase) -> usize {
        self.phase.iter().filter(|&&p| p == phase).count()
    }

    /// Moves a node to a new lifecycle phase at `now`.
    pub fn set_phase(&mut self, node: NodeId, phase: NodePhase, now: SimTime) {
        self.phase[node.index()] = phase;
        self.phase_since[node.index()] = now;
    }

    /// Kills (`alive = false`) or restores a node at `now`; a restored
    /// node returns to its phase. Returns `false` if the node already had
    /// that liveness (idempotent).
    pub fn set_alive(&mut self, node: NodeId, alive: bool, now: SimTime) -> bool {
        let n = node.index();
        if self.alive[n] == alive {
            return false;
        }
        self.alive[n] = alive;
        self.changed_at[n] = Some(now);
        if alive {
            self.down -= 1;
        } else {
            self.down += 1;
            self.kills_seen = true;
        }
        true
    }

    /// Which fault window a latency recorded now belongs to.
    pub(crate) fn fault_phase(&self) -> FaultPhase {
        if self.down > 0 {
            FaultPhase::During
        } else if self.kills_seen {
            FaultPhase::Post
        } else {
            FaultPhase::Pre
        }
    }

    /// Writes the status every node reads as to scheduler hooks at `now`
    /// into `out`. Without a detector this is the ground truth. With one,
    /// the liveness bit is what the detector believes (the pre-change
    /// liveness until the detection latency elapses), flipped with its
    /// error rates; the phase is never distorted. One draw per
    /// (call, node), consumed unconditionally, keeps the detector lane
    /// aligned whatever the statuses are.
    pub fn perceive_into(&mut self, now: SimTime, out: &mut Vec<NodeStatus>) {
        out.clear();
        let Some((det, rng)) = &mut self.detector else {
            out.extend(
                self.alive
                    .iter()
                    .zip(&self.phase)
                    .map(|(&a, &p)| status_of(a, p)),
            );
            return;
        };
        self.suspected = 0;
        for n in 0..self.alive.len() {
            let settled = self.changed_at[n].is_none_or(|t| now >= t + det.detection_latency);
            // A liveness change flips the bit, so the pre-change liveness
            // is the opposite of today's.
            let believed_alive = if settled {
                self.alive[n]
            } else {
                !self.alive[n]
            };
            let u: f64 = rng.gen();
            let reported_alive = if believed_alive {
                u >= det.false_positive_rate
            } else {
                u < det.false_negative_rate
            };
            self.suspected += u64::from(!reported_alive);
            out.push(status_of(reported_alive, self.phase[n]));
        }
    }

    /// Nodes the detector reported dead at the most recent
    /// [`Membership::perceive_into`] (0 without a detector).
    pub fn suspected(&self) -> u64 {
        self.suspected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind};
    use pcs_types::SimDuration;

    const T0: SimTime = SimTime::ZERO;

    fn node(n: usize) -> NodeId {
        NodeId::from_index(n)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn perceive(m: &mut Membership, secs: u64) -> Vec<NodeStatus> {
        let mut out = Vec::new();
        m.perceive_into(at(secs), &mut out);
        out
    }

    #[test]
    fn lifecycle_by_liveness_truth_table() {
        use NodePhase::*;
        use NodeStatus as S;
        let table = [
            (Active, true, S::Up, true),
            (Warming, true, S::Warming, false),
            (Draining, true, S::Draining, false),
            (Retired, true, S::Down, false),
            (Active, false, S::Down, false),
            (Warming, false, S::Down, false),
            (Draining, false, S::Down, false),
            (Retired, false, S::Down, false),
        ];
        for (phase, alive, status, accepts) in table {
            let mut m = Membership::new(1, 1);
            m.set_phase(node(0), phase, T0);
            m.set_alive(node(0), alive, T0);
            let case = format!("{phase:?} alive={alive}");
            assert_eq!(m.status(node(0)), status, "{case}");
            assert_eq!(m.accepts_placements(node(0)), accepts, "{case}");
            assert_eq!(perceive(&mut m, 0), vec![status], "no detector: {case}");
            // Liveness overrides the phase without replacing it.
            assert_eq!(m.phase(node(0)), phase, "{case}");
        }
    }

    #[test]
    fn kill_and_restore_are_idempotent() {
        let mut m = Membership::new(2, 2);
        let n0 = node(0);
        assert!(m.is_alive(n0));
        assert_eq!(m.fault_phase(), FaultPhase::Pre);

        assert!(m.set_alive(n0, false, at(1)), "first kill takes effect");
        assert!(
            !m.set_alive(n0, false, at(2)),
            "killing a dead node is a no-op"
        );
        assert!(!m.is_alive(n0));
        assert_eq!(m.down_count(), 1);
        assert_eq!(m.fault_phase(), FaultPhase::During);
        assert_eq!(perceive(&mut m, 2), vec![NodeStatus::Down, NodeStatus::Up]);

        assert!(m.set_alive(n0, true, at(3)), "first restore takes effect");
        assert!(
            !m.set_alive(n0, true, at(4)),
            "restoring a live node is a no-op"
        );
        assert!(m.is_alive(n0));
        assert_eq!(m.down_count(), 0);
        assert_eq!(m.fault_phase(), FaultPhase::Post);
        assert_eq!(perceive(&mut m, 4), vec![NodeStatus::Up, NodeStatus::Up]);
    }

    #[test]
    fn a_restored_node_returns_to_its_phase() {
        let mut m = Membership::new(3, 3);
        m.set_phase(node(2), NodePhase::Draining, at(1));
        m.set_alive(node(2), false, at(2));
        assert_eq!(m.status(node(2)), NodeStatus::Down);
        assert_eq!(
            m.count(NodePhase::Draining),
            1,
            "the phase survives the kill"
        );
        assert_eq!(m.phase_since(node(2)), at(1), "and so does its start");
        m.set_alive(node(2), true, at(3));
        assert_eq!(m.status(node(2)), NodeStatus::Draining);
    }

    #[test]
    fn initial_mask_is_the_fleet_less_time_zero_kills() {
        let kill = |n: usize, at: SimTime| FaultEvent {
            at,
            node: node(n),
            kind: FaultKind::Kill,
        };
        let plan = FaultPlan::new(vec![kill(1, T0), kill(2, at(3))]);
        assert_eq!(
            Membership::new(4, 4).initial_mask(&plan),
            vec![true, false, true, true]
        );
        assert_eq!(
            Membership::new(5, 3).initial_mask(&plan),
            vec![true, false, true, false, false]
        );
        assert_eq!(
            Membership::new(3, 3).initial_mask(&FaultPlan::none()),
            vec![true; 3]
        );
    }

    #[test]
    fn lossy_detector_never_reports_warming_or_draining_as_up() {
        let lossy = FailureDetector {
            detection_latency: SimDuration::from_secs(1),
            false_positive_rate: 0.4,
            false_negative_rate: 0.6,
        };
        let mut m = Membership::new(5, 4).with_detector(Some(lossy), 7);
        m.set_phase(node(1), NodePhase::Warming, T0);
        m.set_phase(node(2), NodePhase::Draining, T0);
        m.set_alive(node(3), false, at(5));
        let mut seen = Vec::new();
        for tick in 0..400 {
            let view = perceive(&mut m, tick);
            for n in [1, 2, 4] {
                assert_ne!(view[n], NodeStatus::Up, "node {n} at tick {tick}");
            }
            seen.extend([view[1], view[2], view[3]]);
        }
        // The liveness bit is distorted both ways: suspected warming and
        // draining nodes read Down, and the dead node sometimes reads Up.
        for status in [
            NodeStatus::Warming,
            NodeStatus::Draining,
            NodeStatus::Down,
            NodeStatus::Up,
        ] {
            assert!(seen.contains(&status), "{status:?} never reported");
        }
    }
}

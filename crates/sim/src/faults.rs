//! Fault injection: node kill/restore and degrade/recover schedules.
//!
//! The paper evaluates PCS under *performance* interference only — nodes
//! slow down but never die. Real clusters lose nodes, and a scheduler
//! that claims to tame tail latency must be judged on how fast it
//! evacuates the survivors of a membership change. This module supplies
//! the deterministic ingredients: a [`FaultPlan`] is an ordered schedule
//! of [`FaultEvent`]s (kill or restore a node at an absolute simulation
//! time), built either explicitly or through seeded generators for the
//! three canonical patterns — a one-shot kill, a correlated rack outage,
//! and a periodic rolling restart. Generators derive every random choice
//! from `pcs_harness::seed::mix`, so a plan is a pure function of its
//! seed and parameters and sweep cells replay identical outages.
//!
//! A killed node's in-flight work fails over to the first live replica
//! of its partition; the world enacts it (see `world.rs`). Scheduler
//! hooks observe liveness through [`NodeStatus`] in
//! [`crate::policy::SchedulerContext`].

use pcs_types::{ensure, NodeId, PcsError, SimDuration, SimTime};

/// What a fault event does to its node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node stops abruptly: resident batch jobs vanish, queued and
    /// in-service sub-requests fail over to the first live replica of
    /// their partition (their request is lost when none survives),
    /// hosted components are orphaned until the scheduler re-places
    /// them, and no new work is accepted.
    Kill,
    /// The node comes back empty (no batch jobs, no queued work) and may
    /// serve and host again. Components still stranded on it resume in
    /// place.
    Restore,
    /// The node turns gray: it keeps accepting and serving work, but
    /// every service time drawn on it is multiplied by `factor` until a
    /// [`FaultKind::Recover`] event. Liveness is untouched — hooks see
    /// the node as `Up` and must infer the straggler from its latency.
    /// `factor = 1.0` is a provable no-op (IEEE multiplication by 1.0 is
    /// exact), so degrade plans reduce bit-for-bit to clean runs.
    Degrade {
        /// Service-time multiplier, `>= 1.0` and finite. Re-degrading an
        /// already-gray node replaces its factor.
        factor: f64,
    },
    /// The node sheds its slowdown and serves at full speed again. A
    /// no-op on a node that is not degraded.
    Recover,
}

impl FaultKind {
    /// True for the liveness-changing kinds ([`FaultKind::Kill`] /
    /// [`FaultKind::Restore`]); degrade and recover leave membership
    /// untouched.
    pub fn changes_liveness(self) -> bool {
        matches!(self, FaultKind::Kill | FaultKind::Restore)
    }
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes (absolute simulation time).
    pub at: SimTime,
    /// The affected node.
    pub node: NodeId,
    /// Kill or restore.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered schedule of node faults.
///
/// The empty plan is the default everywhere and leaves the simulation
/// bit-for-bit identical to a fault-free build — fault support is opt-in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Events sorted by time (stable: equal times keep insertion order).
    events: Vec<FaultEvent>,
}

/// Salt for the one-shot victim draw.
const SALT_VICTIM: u64 = 0x5eed_0001;
/// Salt for the rack-start draw.
const SALT_RACK: u64 = 0x5eed_0002;
/// Salt for the straggler victim draw.
const SALT_STRAGGLER: u64 = 0x5eed_0003;
/// Salt for the gray-rack start draw.
const SALT_GRAY_RACK: u64 = 0x5eed_0004;
/// Salt of the failure detector's dedicated RNG lane (`world.rs`).
pub(crate) const SALT_DETECTOR: u64 = 0x5eed_0005;

impl FaultPlan {
    /// The empty plan: no faults, simulation behaviour unchanged.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, sorting them by time (stable, so
    /// same-time events keep their given order — a kill scheduled before
    /// a restore at the same instant stays a kill-then-restore).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The schedule, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Checks the plan against a cluster size.
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] if any event names a node outside
    /// `0..node_count`, or if a degrade event carries a factor below 1.0
    /// or a non-finite one.
    pub fn validate(&self, node_count: usize) -> Result<(), PcsError> {
        for e in &self.events {
            ensure!(
                e.node.index() < node_count,
                "faults",
                "fault plan names node {} but the cluster has {node_count} nodes",
                e.node
            );
            if let FaultKind::Degrade { factor } = e.kind {
                ensure!(
                    factor.is_finite() && factor >= 1.0,
                    "faults",
                    "degrade factor must be finite and >= 1.0, got {factor}"
                );
            }
        }
        debug_assert!(
            self.events.windows(2).all(|w| w[0].at <= w[1].at),
            "fault plan must be time-ordered"
        );
        Ok(())
    }

    /// The liveness mask at t = 0, after applying every event scheduled
    /// exactly at time zero (initial placement must not target a node
    /// that is dead before the first request can arrive).
    pub fn initial_alive(&self, node_count: usize) -> Vec<bool> {
        let mut alive = vec![true; node_count];
        for e in &self.events {
            if e.at > SimTime::ZERO {
                break;
            }
            if e.node.index() < node_count && e.kind.changes_liveness() {
                alive[e.node.index()] = e.kind == FaultKind::Restore;
            }
        }
        alive
    }

    /// One-shot kill: a single victim drawn from the first `victim_pool`
    /// nodes (callers restrict the pool to nodes known to host
    /// components), killed at `kill_at` and never restored.
    ///
    /// # Panics
    /// Panics on an empty victim pool.
    pub fn one_shot(victim_pool: usize, seed: u64, kill_at: SimTime) -> Self {
        let victim = draw_node(seed, SALT_VICTIM, victim_pool);
        FaultPlan::new(vec![FaultEvent {
            at: kill_at,
            node: victim,
            kind: FaultKind::Kill,
        }])
    }

    /// Kill + restore: the one-shot victim comes back after `downtime`.
    ///
    /// # Panics
    /// Panics on an empty victim pool or a zero downtime.
    pub fn kill_restore(
        victim_pool: usize,
        seed: u64,
        kill_at: SimTime,
        downtime: SimDuration,
    ) -> Self {
        assert!(!downtime.is_zero(), "downtime must be non-zero");
        let victim = draw_node(seed, SALT_VICTIM, victim_pool);
        FaultPlan::new(vec![
            FaultEvent {
                at: kill_at,
                node: victim,
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: kill_at + downtime,
                node: victim,
                kind: FaultKind::Restore,
            },
        ])
    }

    /// Correlated rack outage: `rack_size` contiguous nodes (the rack's
    /// start drawn from the seed) fail in quick succession, `stagger`
    /// apart — a top-of-rack switch browning out. With `downtime` set the
    /// whole rack is restored that long after the *first* kill.
    ///
    /// # Panics
    /// Panics unless `0 < rack_size <= node_count`, and — when `downtime`
    /// is set — unless it outlasts the staggered kills (otherwise the
    /// last nodes would be "restored" before dying and stay down
    /// forever).
    pub fn correlated_rack(
        node_count: usize,
        rack_size: usize,
        seed: u64,
        kill_at: SimTime,
        stagger: SimDuration,
        downtime: Option<SimDuration>,
    ) -> Self {
        assert!(
            rack_size > 0 && rack_size <= node_count,
            "rack size must be in 1..={node_count}, got {rack_size}"
        );
        if let Some(downtime) = downtime {
            assert!(
                downtime > stagger.mul_f64((rack_size - 1) as f64),
                "rack downtime must outlast the staggered kills \
                 (last kill lands {rack_size}-1 staggers after the first)"
            );
        }
        let start = draw_node(seed, SALT_RACK, node_count - rack_size + 1).index();
        let mut events = Vec::with_capacity(rack_size * 2);
        for i in 0..rack_size {
            events.push(FaultEvent {
                at: kill_at + stagger.mul_f64(i as f64),
                node: NodeId::from_index(start + i),
                kind: FaultKind::Kill,
            });
        }
        if let Some(downtime) = downtime {
            for i in 0..rack_size {
                events.push(FaultEvent {
                    at: kill_at + downtime,
                    node: NodeId::from_index(start + i),
                    kind: FaultKind::Restore,
                });
            }
        }
        FaultPlan::new(events)
    }

    /// Periodic rolling restart: node `i` goes down at
    /// `start + i·period` and comes back `downtime` later — a staged
    /// maintenance wave across the whole cluster.
    ///
    /// # Panics
    /// Panics on zero nodes, a zero period, or `downtime >= period`
    /// (overlapping restarts would be a correlated outage, not a roll).
    pub fn rolling_restart(
        node_count: usize,
        start: SimTime,
        period: SimDuration,
        downtime: SimDuration,
    ) -> Self {
        assert!(node_count > 0, "need at least one node");
        assert!(!period.is_zero(), "rolling period must be non-zero");
        assert!(
            downtime < period,
            "a rolling restart keeps at most one node down at a time"
        );
        let mut events = Vec::with_capacity(node_count * 2);
        for i in 0..node_count {
            let at = start + period.mul_f64(i as f64);
            events.push(FaultEvent {
                at,
                node: NodeId::from_index(i),
                kind: FaultKind::Kill,
            });
            events.push(FaultEvent {
                at: at + downtime,
                node: NodeId::from_index(i),
                kind: FaultKind::Restore,
            });
        }
        FaultPlan::new(events)
    }

    /// Straggler: a single victim drawn from the first `victim_pool`
    /// nodes turns gray at `degrade_at` — service times scaled by
    /// `factor` — and recovers `duration` later. The node never leaves
    /// the membership, so only latency betrays it.
    ///
    /// # Panics
    /// Panics on an empty victim pool, a factor below 1.0 (or
    /// non-finite), or a zero duration.
    pub fn slow_node(
        victim_pool: usize,
        seed: u64,
        degrade_at: SimTime,
        duration: SimDuration,
        factor: f64,
    ) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "degrade factor must be finite and >= 1.0, got {factor}"
        );
        assert!(!duration.is_zero(), "straggler duration must be non-zero");
        let victim = draw_node(seed, SALT_STRAGGLER, victim_pool);
        FaultPlan::new(vec![
            FaultEvent {
                at: degrade_at,
                node: victim,
                kind: FaultKind::Degrade { factor },
            },
            FaultEvent {
                at: degrade_at + duration,
                node: victim,
                kind: FaultKind::Recover,
            },
        ])
    }

    /// Gray rack: `rack_size` contiguous nodes (start drawn from the
    /// seed) degrade in quick succession, `stagger` apart — a flaky
    /// top-of-rack switch dropping frames rather than dying. The whole
    /// rack recovers `duration` after the *first* degrade.
    ///
    /// # Panics
    /// Panics unless `0 < rack_size <= node_count`, the factor is finite
    /// and `>= 1.0`, and `duration` outlasts the staggered degrades.
    pub fn gray_rack(
        node_count: usize,
        rack_size: usize,
        seed: u64,
        degrade_at: SimTime,
        stagger: SimDuration,
        duration: SimDuration,
        factor: f64,
    ) -> Self {
        assert!(
            rack_size > 0 && rack_size <= node_count,
            "rack size must be in 1..={node_count}, got {rack_size}"
        );
        assert!(
            factor.is_finite() && factor >= 1.0,
            "degrade factor must be finite and >= 1.0, got {factor}"
        );
        assert!(
            duration > stagger.mul_f64((rack_size - 1) as f64),
            "gray-rack duration must outlast the staggered degrades \
             (last degrade lands {rack_size}-1 staggers after the first)"
        );
        let start = draw_node(seed, SALT_GRAY_RACK, node_count - rack_size + 1).index();
        let mut events = Vec::with_capacity(rack_size * 2);
        for i in 0..rack_size {
            events.push(FaultEvent {
                at: degrade_at + stagger.mul_f64(i as f64),
                node: NodeId::from_index(start + i),
                kind: FaultKind::Degrade { factor },
            });
        }
        for i in 0..rack_size {
            events.push(FaultEvent {
                at: degrade_at + duration,
                node: NodeId::from_index(start + i),
                kind: FaultKind::Recover,
            });
        }
        FaultPlan::new(events)
    }
}

/// Seeded node draw shared by the generators.
fn draw_node(seed: u64, salt: u64, pool: usize) -> NodeId {
    assert!(pool > 0, "victim pool must be non-empty");
    NodeId::from_index((pcs_harness::seed::mix(seed, salt) % pool as u64) as usize)
}

/// Whether a node is currently serving, as scheduler hooks see it.
///
/// Flows into [`crate::policy::SchedulerContext::node_status`]: a
/// liveness-aware hook must never migrate *to* a node that is not
/// [`NodeStatus::Up`] and should evacuate components *from* a `Down` or
/// `Draining` one. The `Warming` and `Draining` variants appear only on
/// elastic runs (`SimConfig::autoscale` set, [`crate::autoscale`]);
/// fault plans produce only `Up`/`Down`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Serving normally.
    Up,
    /// Killed and not yet restored — or, on elastic runs, retired from
    /// the fleet.
    Down,
    /// Joining the fleet but still cold-starting: visible to hooks, not
    /// a legal migration destination yet, hosts no components.
    Warming,
    /// Being scaled in: still serving what it hosts, accepts no new
    /// placements, and wants its components evacuated.
    Draining,
}

impl NodeStatus {
    /// True for [`NodeStatus::Up`].
    #[inline]
    pub fn is_up(self) -> bool {
        self == NodeStatus::Up
    }
}

/// A noisy membership oracle between the world's ground-truth liveness
/// and the [`NodeStatus`] view scheduler hooks receive.
///
/// Real failure detectors are neither instant nor exact: they learn of a
/// membership change after a heartbeat timeout, occasionally suspect a
/// healthy node (false positive), and occasionally keep trusting a dead
/// one (false negative). With a detector configured
/// (`SimConfig::detector`), every scheduler-context assembly filters the
/// ground truth through this model on a dedicated seeded RNG lane — the
/// main event stream draws nothing, so the *workload trajectory* only
/// changes when a hook acts on the distorted view. `None` (the default)
/// and [`FailureDetector::perfect`] both preserve today's exact-liveness
/// bytes.
///
/// The distortion applies to hook perception only: the world still
/// dispatches, fails over, and validates migrations against ground
/// truth. A false positive can goad PCS into evacuating a healthy node
/// (wasted migrations); a false negative leaves orphans unrescued while
/// the controller keeps planning around a corpse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureDetector {
    /// How long after a kill or restore the detector keeps reporting the
    /// previous liveness (heartbeat timeout).
    pub detection_latency: SimDuration,
    /// Per-(tick, node) probability of reporting a live node as down.
    pub false_positive_rate: f64,
    /// Per-(tick, node) probability of reporting a dead node as up.
    pub false_negative_rate: f64,
}

impl FailureDetector {
    /// The exact detector: zero latency, zero error rates. Provably
    /// byte-identical to running with no detector at all.
    pub fn perfect() -> Self {
        FailureDetector {
            detection_latency: SimDuration::ZERO,
            false_positive_rate: 0.0,
            false_negative_rate: 0.0,
        }
    }

    /// True when the detector cannot distort anything.
    pub fn is_perfect(&self) -> bool {
        self.detection_latency.is_zero()
            && self.false_positive_rate == 0.0
            && self.false_negative_rate == 0.0
    }

    /// Checks the error rates (every detection latency is valid).
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] if either rate is outside `[0, 1]` or
    /// non-finite.
    pub fn validate(&self) -> Result<(), PcsError> {
        ensure!(
            (0.0..=1.0).contains(&self.false_positive_rate),
            "detector.false_positive_rate",
            "false-positive rate must be in [0, 1], got {}",
            self.false_positive_rate
        );
        ensure!(
            (0.0..=1.0).contains(&self.false_negative_rate),
            "detector.false_negative_rate",
            "false-negative rate must be in [0, 1], got {}",
            self.false_negative_rate
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panic_with_error;

    #[test]
    fn events_are_time_ordered_regardless_of_input_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_secs(9),
                node: NodeId::new(2),
                kind: FaultKind::Restore,
            },
            FaultEvent {
                at: SimTime::from_secs(1),
                node: NodeId::new(2),
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: SimTime::from_secs(4),
                node: NodeId::new(0),
                kind: FaultKind::Kill,
            },
        ]);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        plan.validate(3).unwrap();
    }

    #[test]
    fn equal_times_keep_insertion_order() {
        // A kill-then-restore at the same instant must stay in that order
        // (stable sort): the node ends the instant alive.
        let t = SimTime::from_secs(2);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: t,
                node: NodeId::new(1),
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: t,
                node: NodeId::new(1),
                kind: FaultKind::Restore,
            },
        ]);
        assert_eq!(plan.events()[0].kind, FaultKind::Kill);
        assert_eq!(plan.events()[1].kind, FaultKind::Restore);
    }

    #[test]
    #[should_panic(expected = "names node")]
    fn out_of_range_node_is_rejected() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: NodeId::new(5),
            kind: FaultKind::Kill,
        }]);
        panic_with_error(plan.validate(2));
    }

    #[test]
    fn generators_are_reproducible_and_seed_sensitive() {
        let t = SimTime::from_secs(10);
        let a = FaultPlan::one_shot(6, 42, t);
        let b = FaultPlan::one_shot(6, 42, t);
        assert_eq!(a, b, "same seed, same plan");
        // Some seed in a small range must pick a different victim.
        assert!(
            (0..32u64).any(|s| FaultPlan::one_shot(6, s, t) != a),
            "the victim draw must depend on the seed"
        );
    }

    #[test]
    fn kill_restore_brackets_the_downtime() {
        let plan = FaultPlan::kill_restore(4, 7, SimTime::from_secs(5), SimDuration::from_secs(3));
        assert_eq!(plan.len(), 2);
        let (kill, restore) = (plan.events()[0], plan.events()[1]);
        assert_eq!(kill.kind, FaultKind::Kill);
        assert_eq!(restore.kind, FaultKind::Restore);
        assert_eq!(kill.node, restore.node);
        assert_eq!(restore.at, SimTime::from_secs(8));
    }

    #[test]
    fn correlated_rack_kills_contiguous_nodes() {
        let plan = FaultPlan::correlated_rack(
            6,
            2,
            11,
            SimTime::from_secs(4),
            SimDuration::from_millis(400),
            Some(SimDuration::from_secs(5)),
        );
        plan.validate(6).unwrap();
        let kills: Vec<&FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Kill)
            .collect();
        assert_eq!(kills.len(), 2);
        assert_eq!(kills[1].node.index(), kills[0].node.index() + 1);
        assert_eq!(
            kills[1].at,
            SimTime::from_secs(4) + SimDuration::from_millis(400)
        );
        let restores = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Restore)
            .count();
        assert_eq!(restores, 2);
    }

    #[test]
    #[should_panic(expected = "outlast the staggered kills")]
    fn rack_downtime_shorter_than_the_stagger_is_rejected() {
        // downtime 1 s, but the last of 3 staggered kills lands at +4 s:
        // its "restore" would precede its kill and strand it forever.
        let _ = FaultPlan::correlated_rack(
            6,
            3,
            1,
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
            Some(SimDuration::from_secs(1)),
        );
    }

    #[test]
    fn rolling_restart_visits_every_node_once() {
        let plan = FaultPlan::rolling_restart(
            5,
            SimTime::from_secs(10),
            SimDuration::from_secs(4),
            SimDuration::from_secs(1),
        );
        plan.validate(5).unwrap();
        assert_eq!(plan.len(), 10);
        for i in 0..5 {
            let node_events: Vec<&FaultEvent> = plan
                .events()
                .iter()
                .filter(|e| e.node.index() == i)
                .collect();
            assert_eq!(node_events.len(), 2);
            assert_eq!(node_events[0].kind, FaultKind::Kill);
            assert_eq!(
                node_events[1].at,
                node_events[0].at + SimDuration::from_secs(1)
            );
        }
        // At most one node down at any instant: each restore precedes the
        // next kill.
        let events = plan.events();
        for w in events.windows(2) {
            if w[0].kind == FaultKind::Kill {
                assert_eq!(w[1].kind, FaultKind::Restore);
            }
        }
    }

    #[test]
    fn initial_alive_applies_time_zero_events_only() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::ZERO,
                node: NodeId::new(1),
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                node: NodeId::new(2),
                kind: FaultKind::Kill,
            },
        ]);
        assert_eq!(plan.initial_alive(4), vec![true, false, true, true]);
        assert_eq!(FaultPlan::none().initial_alive(2), vec![true, true]);
    }

    #[test]
    fn initial_alive_ignores_degrade_and_recover() {
        // A time-zero degrade leaves the node in the membership: only
        // kill/restore move the liveness mask.
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::ZERO,
                node: NodeId::new(0),
                kind: FaultKind::Degrade { factor: 3.0 },
            },
            FaultEvent {
                at: SimTime::ZERO,
                node: NodeId::new(1),
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: SimTime::ZERO,
                node: NodeId::new(1),
                kind: FaultKind::Recover,
            },
        ]);
        assert_eq!(plan.initial_alive(3), vec![true, false, true]);
        assert!(!FaultKind::Degrade { factor: 3.0 }.changes_liveness());
        assert!(!FaultKind::Recover.changes_liveness());
        assert!(FaultKind::Kill.changes_liveness());
    }

    #[test]
    fn slow_node_brackets_the_gray_window() {
        let plan = FaultPlan::slow_node(
            6,
            42,
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
            2.5,
        );
        plan.validate(6).unwrap();
        assert_eq!(plan.len(), 2);
        let (degrade, recover) = (plan.events()[0], plan.events()[1]);
        assert_eq!(degrade.kind, FaultKind::Degrade { factor: 2.5 });
        assert_eq!(recover.kind, FaultKind::Recover);
        assert_eq!(degrade.node, recover.node);
        assert_eq!(recover.at, SimTime::from_secs(15));
        // Reproducible and seed-sensitive, like the kill generators.
        assert_eq!(
            plan,
            FaultPlan::slow_node(
                6,
                42,
                SimTime::from_secs(5),
                SimDuration::from_secs(10),
                2.5
            )
        );
        assert!((0..32u64).any(|s| {
            FaultPlan::slow_node(6, s, SimTime::from_secs(5), SimDuration::from_secs(10), 2.5)
                .events()[0]
                .node
                != degrade.node
        }));
    }

    #[test]
    fn gray_rack_degrades_contiguous_nodes_and_recovers_together() {
        let plan = FaultPlan::gray_rack(
            8,
            3,
            11,
            SimTime::from_secs(4),
            SimDuration::from_millis(200),
            SimDuration::from_secs(6),
            4.0,
        );
        plan.validate(8).unwrap();
        let degrades: Vec<&FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Degrade { .. }))
            .collect();
        assert_eq!(degrades.len(), 3);
        assert_eq!(degrades[1].node.index(), degrades[0].node.index() + 1);
        assert_eq!(degrades[2].node.index(), degrades[0].node.index() + 2);
        let recovers: Vec<&FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Recover)
            .collect();
        assert_eq!(recovers.len(), 3);
        assert!(recovers.iter().all(|e| e.at == SimTime::from_secs(10)));
    }

    #[test]
    #[should_panic(expected = "degrade factor must be finite")]
    fn sub_unit_degrade_factor_is_rejected() {
        let _ = FaultPlan::slow_node(4, 1, SimTime::from_secs(1), SimDuration::from_secs(1), 0.5);
    }

    #[test]
    #[should_panic(expected = "degrade factor must be finite")]
    fn non_finite_degrade_factor_is_rejected_by_validate() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: NodeId::new(0),
            kind: FaultKind::Degrade {
                factor: f64::INFINITY,
            },
        }]);
        panic_with_error(plan.validate(2));
    }

    #[test]
    fn detector_validation_and_perfection() {
        let perfect = FailureDetector::perfect();
        perfect.validate().unwrap();
        assert!(perfect.is_perfect());
        let lossy = FailureDetector {
            detection_latency: SimDuration::from_secs(2),
            false_positive_rate: 0.05,
            false_negative_rate: 0.1,
        };
        lossy.validate().unwrap();
        assert!(!lossy.is_perfect());
        // Latency alone already makes a detector imperfect.
        assert!(!FailureDetector {
            detection_latency: SimDuration::from_millis(1),
            ..FailureDetector::perfect()
        }
        .is_perfect());
    }

    #[test]
    #[should_panic(expected = "false-positive rate must be in [0, 1]")]
    fn detector_rejects_out_of_range_rates() {
        let detector = FailureDetector {
            detection_latency: SimDuration::ZERO,
            false_positive_rate: 1.5,
            false_negative_rate: 0.0,
        };
        panic_with_error(detector.validate());
    }

    #[test]
    fn node_status_helper() {
        assert!(NodeStatus::Up.is_up());
        assert!(!NodeStatus::Down.is_up());
        // Warming and draining nodes are not placement targets either:
        // every `is_up()`-gated destination check covers them for free.
        assert!(!NodeStatus::Warming.is_up());
        assert!(!NodeStatus::Draining.is_up());
    }
}

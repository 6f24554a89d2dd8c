//! Elastic capacity: a deterministic autoscaling subsystem.
//!
//! The paper's production pitch is not just lower tails — it is running
//! *hotter* (fewer nodes) at the same tail SLO. This module supplies an
//! [`AutoscalePolicy`] control loop, evaluated at every monitor-interval
//! boundary over *observed* signals only (per-component utilisation
//! EWMAs, queue depth, a windowed tail estimate — never the simulator's
//! ground truth), that emits node **join** and **scale-in** actions. It
//! moves nodes through the [`NodePhase`] lifecycle of the run's
//! [`Membership`] and keeps only its control state and accounting:
//!
//! * **Warming** — the node is visible to scheduler hooks (as
//!   [`NodeStatus::Warming`](crate::faults::NodeStatus::Warming)) but
//!   accepts no placements until its configured cold-start has elapsed:
//!   delayed capacity, exactly like a container that is pulled but not
//!   yet serving.
//! * **Draining** — no new placements; the components it hosts are
//!   evacuated by the scheduler hook through the fault-evacuation
//!   machinery (both the PCS controller's batched evacuation pass and
//!   LL's one-per-interval reactive pass key off `!is_up()`). In-queue
//!   work rides each migration with its component, so **zero requests are
//!   lost by construction**; the node is retired only once it hosts
//!   nothing, and the drain latency is recorded.
//! * **Retired** — out of the service fleet (no components, no
//!   placements, no node-seconds billed). Batch churn continues — a
//!   retired node is returned to the batch tenants' pool — which also
//!   keeps the event trace independent of membership decisions.
//!
//! Runs start fully provisioned at [`AutoscaleConfig::max_nodes`]; the
//! autoscaler's job is to shed nodes it can prove idle and re-join them
//! ahead of demand. Fault kills compose with the lifecycle by the rules
//! in [`crate::membership`]. The whole subsystem is opt-in:
//! `SimConfig::autoscale = None` (the default everywhere) leaves the
//! simulation bit-for-bit identical to every previous release.

use crate::membership::{Membership, NodePhase};
use pcs_types::{ensure, NodeId, PcsError, SimDuration, SimTime};

/// Fraction of the target utilisation the *projected* post-scale-in
/// utilisation must stay under before a drain is ordered: the headroom
/// that keeps the controller from consolidating straight into its own
/// scale-out trigger.
const SCALE_IN_HEADROOM: f64 = 0.9;

/// Fraction of the P99 SLO the windowed tail estimate must stay under
/// before a scale-in is considered (a tail already brushing the SLO is
/// no time to shed capacity).
const SLO_SAFETY: f64 = 0.9;

/// Mean queued sub-requests per component above which the controller
/// scales out regardless of utilisation (queues build faster than busy
/// fractions move).
const QUEUE_HIGH: f64 = 4.0;

/// Mean queued sub-requests per component above which scale-in is off
/// the table.
const QUEUE_LOW: f64 = 1.0;

/// EWMA weight of the newest window in the tail estimate (matches the
/// utilisation smoothing of the monitor tick).
const TAIL_SMOOTHING: f64 = 0.5;

/// Static knobs of the autoscaler. Validated by
/// [`AutoscaleConfig::validate`] through `SimConfig::validate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Mean per-node utilisation the controller steers towards, in
    /// `(0, 1]`.
    pub target_utilization: f64,
    /// Nodes joined or drained per control action (≥ 1).
    pub step: usize,
    /// Minimum time between consecutive scale actions (> 0).
    pub cooldown: SimDuration,
    /// Cold-start duration of a joining node: visible but warming — no
    /// placements — until this has elapsed. Zero joins instantly.
    pub cold_start: SimDuration,
    /// Floor of *active* nodes the controller never drains below (≥ 1).
    pub min_nodes: usize,
    /// Ceiling of in-fleet nodes (active + warming + draining), and the
    /// initial fully-provisioned fleet size. At most the cluster size.
    pub max_nodes: usize,
    /// The P99 component-latency SLO in milliseconds the control loop
    /// defends: a windowed tail estimate above it forces scale-out and
    /// counts an SLO-violation window.
    pub slo_p99_ms: f64,
}

impl AutoscaleConfig {
    /// Checks the knobs against a cluster size.
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] on a target utilisation outside
    /// `(0, 1]`, a zero step, a zero or saturated (infinite) cooldown,
    /// `min_nodes < 1`, `min_nodes > max_nodes`, `max_nodes > node_count`,
    /// or a non-positive SLO.
    pub fn validate(&self, node_count: usize) -> Result<(), PcsError> {
        ensure!(
            self.target_utilization > 0.0 && self.target_utilization <= 1.0,
            "autoscale.target_utilization",
            "autoscale target utilisation must be in (0, 1], got {}",
            self.target_utilization
        );
        ensure!(
            self.step >= 1,
            "autoscale.step",
            "autoscale step must be >= 1"
        );
        // The clock ticks in microseconds: a cooldown that rounds to zero
        // ticks lets the controller thrash every window, and one that
        // saturates the clock (from infinite seconds) never acts again.
        ensure!(
            !self.cooldown.is_zero() && self.cooldown < SimDuration::MAX,
            "autoscale.cooldown",
            "autoscale cooldown must be non-zero and finite: a positive number of seconds \
             of at least 1 µs"
        );
        ensure!(
            self.min_nodes >= 1,
            "autoscale.min_nodes",
            "autoscale floor must be >= 1 node"
        );
        ensure!(
            self.min_nodes <= self.max_nodes,
            "autoscale.min_nodes",
            "autoscale floor ({}) cannot exceed the ceiling ({})",
            self.min_nodes,
            self.max_nodes
        );
        ensure!(
            self.max_nodes <= node_count,
            "autoscale.max_nodes",
            "autoscale ceiling ({}) cannot exceed the node count ({node_count})",
            self.max_nodes
        );
        ensure!(
            self.slo_p99_ms.is_finite() && self.slo_p99_ms > 0.0,
            "autoscale.slo_p99_ms",
            "autoscale P99 SLO must be positive"
        );
        Ok(())
    }
}

/// Mechanism counters of the autoscaling subsystem. All zero on a run
/// with `SimConfig::autoscale = None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoscaleStats {
    /// Control actions that added capacity (un-drains and/or joins).
    pub scale_out_actions: u64,
    /// Control actions that started draining nodes.
    pub scale_in_actions: u64,
    /// Retired nodes brought back into the fleet (each starts a
    /// cold-start unless the configured cold-start is zero).
    pub nodes_joined: u64,
    /// Warming nodes promoted to active after their cold-start elapsed.
    pub cold_starts_completed: u64,
    /// Nodes that began draining.
    pub drains_started: u64,
    /// Draining nodes reverted to active by a scale-out before emptying
    /// (the cheapest capacity: still warm, still placed).
    pub drains_cancelled: u64,
    /// Draining nodes fully evacuated and retired.
    pub drains_completed: u64,
}

/// Autoscaling measurements of one run, surfaced in
/// [`RunReport`](crate::metrics::RunReport). [`AutoscaleReport::default`]
/// is what a run without an autoscaler reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutoscaleReport {
    /// Mechanism counters.
    pub stats: AutoscaleStats,
    /// In-fleet (active + warming + draining) node-seconds integrated
    /// over the whole run — the cost side of the tail-vs-cost trade.
    pub node_seconds: f64,
    /// Mean drain latency (scale-in order → node empty) over completed
    /// drains, in seconds; 0 when nothing drained.
    pub drain_mean: f64,
    /// Worst completed drain latency, in seconds.
    pub drain_max: f64,
    /// Post-warm-up monitor windows whose observed P99 exceeded the SLO.
    pub slo_violation_windows: u64,
    /// Post-warm-up monitor windows observed in total.
    pub measured_windows: u64,
}

impl AutoscaleReport {
    /// Node-hours billed over the run.
    pub fn node_hours(&self) -> f64 {
        self.node_seconds / 3600.0
    }
}

/// One monitor window's observed control signals, assembled by the world
/// from the same state the scheduler hooks see.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleSignals {
    /// Sum of per-component busy-fraction EWMAs (the monitor tick's
    /// utilisation fold) — divided by the schedulable fleet size this is
    /// the mean node utilisation the target steers.
    pub busy_utilization: f64,
    /// Live queued sub-requests across all components.
    pub queue_depth: u64,
    /// Number of service components (normalises the queue depth).
    pub component_count: usize,
}

/// The autoscaler: control-loop policy plus its accounting. Owned by the
/// world when `SimConfig::autoscale` is set; it moves nodes through the
/// lifecycle on the world's [`Membership`] and is entirely RNG-free, so
/// membership decisions are a pure function of the observed trace.
#[derive(Debug)]
pub struct AutoscalePolicy {
    config: AutoscaleConfig,
    /// Last scale action, for the cooldown.
    last_action_at: Option<SimTime>,
    /// Completion latencies (seconds) observed since the last monitor
    /// tick — the raw material of the windowed tail estimate.
    window_latencies: Vec<f64>,
    /// EWMA-smoothed windowed P99 estimate in milliseconds (0 until the
    /// first non-empty window).
    tail_est_ms: f64,
    /// Monitor ticks seen (the t = 0 tick carries no evidence).
    ticks_seen: u64,
    stats: AutoscaleStats,
    /// Node-seconds accumulated up to `last_change`.
    node_seconds: f64,
    last_change: SimTime,
    drain_sum: f64,
    drain_max: f64,
    slo_violation_windows: u64,
    measured_windows: u64,
}

impl AutoscalePolicy {
    /// Builds the policy for a validated config over a membership that
    /// starts with the first [`AutoscaleConfig::max_nodes`] nodes active
    /// ([`Membership::from_config`]).
    pub fn new(config: AutoscaleConfig) -> Self {
        AutoscalePolicy {
            config,
            last_action_at: None,
            window_latencies: Vec::new(),
            tail_est_ms: 0.0,
            ticks_seen: 0,
            stats: AutoscaleStats::default(),
            node_seconds: 0.0,
            last_change: SimTime::ZERO,
            drain_sum: 0.0,
            drain_max: 0.0,
            slo_violation_windows: 0,
            measured_windows: 0,
        }
    }

    /// Records one completed sub-request latency for the windowed tail
    /// estimate (seconds, as the world measures it).
    pub fn observe_latency(&mut self, latency: SimDuration) {
        self.window_latencies.push(latency.as_secs_f64());
    }

    /// One control evaluation at a monitor-interval boundary: promote
    /// warming nodes whose cold-start elapsed, refresh the windowed tail
    /// estimate, then decide — scale out under pressure (utilisation
    /// above target, tail estimate above the SLO, or queues building),
    /// scale in when the *projected* consolidated utilisation still
    /// clears the target with headroom and the tail is comfortably
    /// inside the SLO.
    pub fn on_monitor_tick(
        &mut self,
        now: SimTime,
        signals: &AutoscaleSignals,
        in_warmup: bool,
        members: &mut Membership,
    ) {
        // Cold-start promotions first: capacity that finished warming is
        // usable from this window on.
        for node in (0..members.phases().len()).map(NodeId::from_index) {
            if members.phase(node) == NodePhase::Warming
                && now - members.phase_since(node) >= self.config.cold_start
            {
                members.set_phase(node, NodePhase::Active, now);
                self.stats.cold_starts_completed += 1;
            }
        }

        // Windowed tail estimate: P99 of the completions since the last
        // tick, EWMA-smoothed; an empty window keeps the previous
        // estimate (mirrors the monitors' staleness handling).
        if let Some(p99) = window_p99(&mut self.window_latencies) {
            let ms = p99 * 1e3;
            self.tail_est_ms = if self.tail_est_ms == 0.0 {
                ms
            } else {
                (1.0 - TAIL_SMOOTHING) * self.tail_est_ms + TAIL_SMOOTHING * ms
            };
            if !in_warmup {
                self.measured_windows += 1;
                if ms > self.config.slo_p99_ms {
                    self.slo_violation_windows += 1;
                }
            }
        } else if !in_warmup {
            self.measured_windows += 1;
        }
        self.window_latencies.clear();

        self.ticks_seen += 1;
        if self.ticks_seen == 1 {
            return; // the t = 0 tick has observed nothing yet
        }
        if let Some(last) = self.last_action_at {
            if now - last < self.config.cooldown {
                return;
            }
        }

        let active = members.count(NodePhase::Active);
        let warming = members.count(NodePhase::Warming);
        let draining = members.count(NodePhase::Draining);
        let capacity = (active + warming).max(1) as f64;
        let util = signals.busy_utilization / capacity;
        let queue_per_comp = signals.queue_depth as f64 / signals.component_count.max(1) as f64;
        let tail_hot = self.tail_est_ms > self.config.slo_p99_ms;

        if util > self.config.target_utilization || tail_hot || queue_per_comp > QUEUE_HIGH {
            self.scale_out(now, members);
            return;
        }

        // Scale-in: one drain batch at a time, never below the floor, and
        // only when the load would still fit the smaller fleet with
        // headroom.
        if draining > 0 || warming > 0 {
            return;
        }
        let remaining = active.saturating_sub(self.config.step);
        if remaining < self.config.min_nodes {
            return;
        }
        let projected = signals.busy_utilization / remaining as f64;
        if projected <= self.config.target_utilization * SCALE_IN_HEADROOM
            && self.tail_est_ms <= self.config.slo_p99_ms * SLO_SAFETY
            && queue_per_comp <= QUEUE_LOW
        {
            self.scale_in(now, members);
        }
    }

    /// Adds up to `step` nodes: cancelled drains first (still warm, still
    /// placed), then retired nodes through the cold-start pipeline.
    fn scale_out(&mut self, now: SimTime, members: &mut Membership) {
        let mut budget = self.config.step;
        let mut changed = false;
        // Un-drain the most recently drained node first: LIFO keeps the
        // oscillation cost of a reversed decision minimal.
        while budget > 0 {
            let victim = (0..members.phases().len())
                .map(NodeId::from_index)
                .filter(|&n| members.phase(n) == NodePhase::Draining)
                .max_by_key(|&n| members.phase_since(n));
            let Some(node) = victim else { break };
            members.set_phase(node, NodePhase::Active, now);
            self.stats.drains_cancelled += 1;
            budget -= 1;
            changed = true;
        }
        while budget > 0 && in_fleet(members) < self.config.max_nodes {
            let Some(n) = members
                .phases()
                .iter()
                .position(|&p| p == NodePhase::Retired)
            else {
                break;
            };
            self.bump_node_seconds(now, members);
            self.stats.nodes_joined += 1;
            let phase = if self.config.cold_start.is_zero() {
                NodePhase::Active
            } else {
                NodePhase::Warming
            };
            members.set_phase(NodeId::from_index(n), phase, now);
            budget -= 1;
            changed = true;
        }
        if changed {
            self.stats.scale_out_actions += 1;
            self.last_action_at = Some(now);
        }
    }

    /// Starts draining up to `step` active nodes, highest index first,
    /// respecting the floor.
    fn scale_in(&mut self, now: SimTime, members: &mut Membership) {
        let mut started = 0;
        for _ in 0..self.config.step {
            if members.count(NodePhase::Active) <= self.config.min_nodes {
                break;
            }
            let Some(n) = members
                .phases()
                .iter()
                .rposition(|&p| p == NodePhase::Active)
            else {
                break;
            };
            members.set_phase(NodeId::from_index(n), NodePhase::Draining, now);
            self.stats.drains_started += 1;
            started += 1;
        }
        if started > 0 {
            self.stats.scale_in_actions += 1;
            self.last_action_at = Some(now);
        }
    }

    /// Marks a draining node fully evacuated: retires it, stops billing
    /// its node-seconds, and records the drain latency.
    ///
    /// # Panics
    /// Panics if the node was not draining.
    pub fn note_drained(&mut self, node: NodeId, now: SimTime, members: &mut Membership) {
        assert_eq!(
            members.phase(node),
            NodePhase::Draining,
            "only draining nodes retire"
        );
        let secs = (now - members.phase_since(node)).as_secs_f64();
        self.drain_sum += secs;
        self.drain_max = self.drain_max.max(secs);
        self.stats.drains_completed += 1;
        self.bump_node_seconds(now, members);
        members.set_phase(node, NodePhase::Retired, now);
    }

    /// Closes the node-seconds integral at the end of the run.
    pub fn finalize(&mut self, end: SimTime, members: &Membership) {
        self.bump_node_seconds(end, members);
    }

    /// Assembles the report.
    pub fn report(&self) -> AutoscaleReport {
        AutoscaleReport {
            stats: self.stats,
            node_seconds: self.node_seconds,
            drain_mean: if self.stats.drains_completed > 0 {
                self.drain_sum / self.stats.drains_completed as f64
            } else {
                0.0
            },
            drain_max: self.drain_max,
            slo_violation_windows: self.slo_violation_windows,
            measured_windows: self.measured_windows,
        }
    }

    /// Integrates the in-fleet count up to `now` (called before every
    /// join or retirement and at run end). Billing is by phase: a killed
    /// in-fleet node keeps billing.
    fn bump_node_seconds(&mut self, now: SimTime, members: &Membership) {
        self.node_seconds += in_fleet(members) as f64 * (now - self.last_change).as_secs_f64();
        self.last_change = now;
    }
}

/// In-fleet node count: active + warming + draining.
fn in_fleet(members: &Membership) -> usize {
    members.phases().len() - members.count(NodePhase::Retired)
}

/// The 99th percentile of an unsorted sample window (reorders it in
/// place); `None` on an empty window. A linear-time selection returns the
/// same order statistic, bit for bit, as sorting by `f64::total_cmp`.
fn window_p99(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    let idx = rank.saturating_sub(1).min(samples.len() - 1);
    Some(*samples.select_nth_unstable_by(idx, f64::total_cmp).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NodeStatus;
    use crate::panic_with_error;

    fn config() -> AutoscaleConfig {
        AutoscaleConfig {
            target_utilization: 0.6,
            step: 1,
            cooldown: SimDuration::from_secs(2),
            cold_start: SimDuration::from_secs(2),
            min_nodes: 2,
            max_nodes: 6,
            slo_p99_ms: 50.0,
        }
    }

    fn quiet(comp_count: usize) -> AutoscaleSignals {
        AutoscaleSignals {
            busy_utilization: 0.4,
            queue_depth: 0,
            component_count: comp_count,
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn n(index: usize) -> NodeId {
        NodeId::from_index(index)
    }

    /// A policy and the membership it drives, fully provisioned.
    fn fleet(cfg: AutoscaleConfig, nodes: usize) -> (AutoscalePolicy, Membership) {
        (
            AutoscalePolicy::new(cfg),
            Membership::new(nodes, cfg.max_nodes),
        )
    }

    #[test]
    fn starts_fully_provisioned() {
        let (a, m) = fleet(config(), 8);
        for i in 0..6 {
            assert_eq!(m.phase(n(i)), NodePhase::Active);
            assert!(m.accepts_placements(n(i)));
            assert_eq!(m.status(n(i)), NodeStatus::Up);
        }
        for i in 6..8 {
            assert_eq!(m.phase(n(i)), NodePhase::Retired);
            assert!(!m.accepts_placements(n(i)));
            assert_eq!(m.status(n(i)), NodeStatus::Down);
        }
        assert_eq!(
            m.initial_mask(&crate::faults::FaultPlan::none()),
            vec![true, true, true, true, true, true, false, false]
        );
        assert_eq!(a.report().stats, AutoscaleStats::default());
    }

    #[test]
    fn idle_fleet_drains_highest_index_first() {
        let (mut a, mut m) = fleet(config(), 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m); // no evidence yet
        a.on_monitor_tick(t(1), &quiet(10), true, &mut m);
        assert_eq!(m.phase(n(5)), NodePhase::Draining);
        assert_eq!(m.status(n(5)), NodeStatus::Draining);
        assert!(!m.accepts_placements(n(5)));
        // One drain batch at a time: nothing else drains until it lands.
        a.on_monitor_tick(t(4), &quiet(10), true, &mut m);
        assert_eq!(m.phase(n(4)), NodePhase::Active);

        a.note_drained(n(5), t(5), &mut m);
        assert_eq!(m.phase(n(5)), NodePhase::Retired);
        let report = a.report();
        assert_eq!(report.stats.scale_in_actions, 1);
        assert_eq!(report.stats.drains_completed, 1);
        assert!(
            (report.drain_mean - 4.0).abs() < 1e-12,
            "ordered at 1 s, empty at 5 s"
        );
        assert_eq!(report.drain_max, 4.0);
    }

    #[test]
    fn floor_is_never_violated() {
        let mut cfg = config();
        cfg.step = 4;
        let (mut a, mut m) = fleet(cfg, 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m);
        a.on_monitor_tick(t(1), &quiet(10), true, &mut m);
        // Step 4 against a floor of 2: exactly 4 drains.
        let report = a.report();
        assert_eq!(report.stats.drains_started, 4);
        assert_eq!(m.phase(n(1)), NodePhase::Active);
        assert_eq!(m.phase(n(2)), NodePhase::Draining);
    }

    #[test]
    fn pressure_cancels_drains_before_joining() {
        let (mut a, mut m) = fleet(config(), 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m);
        a.on_monitor_tick(t(1), &quiet(10), true, &mut m);
        assert_eq!(m.phase(n(5)), NodePhase::Draining);
        let hot = AutoscaleSignals {
            busy_utilization: 5.0,
            queue_depth: 0,
            component_count: 10,
        };
        a.on_monitor_tick(t(3), &hot, true, &mut m);
        assert_eq!(
            m.phase(n(5)),
            NodePhase::Active,
            "un-drained, not re-joined"
        );
        let report = a.report();
        assert_eq!(report.stats.drains_cancelled, 1);
        assert_eq!(report.stats.nodes_joined, 0);
        assert_eq!(report.stats.scale_out_actions, 1);
    }

    #[test]
    fn joins_pass_through_the_cold_start() {
        let (mut a, mut m) = fleet(config(), 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m);
        a.on_monitor_tick(t(1), &quiet(10), true, &mut m);
        a.note_drained(n(5), t(2), &mut m);
        // Sustained pressure re-joins the retired node, warming first.
        let hot = AutoscaleSignals {
            busy_utilization: 5.0,
            queue_depth: 0,
            component_count: 10,
        };
        a.on_monitor_tick(t(4), &hot, false, &mut m);
        assert_eq!(m.phase(n(5)), NodePhase::Warming);
        assert_eq!(m.status(n(5)), NodeStatus::Warming);
        assert!(
            !m.accepts_placements(n(5)),
            "warming nodes take no placements"
        );
        // Cold start is 2 s: not yet at +1 s, promoted at +2 s.
        a.on_monitor_tick(t(5), &hot, false, &mut m);
        assert_eq!(m.phase(n(5)), NodePhase::Warming);
        a.on_monitor_tick(t(6), &hot, false, &mut m);
        assert_eq!(m.phase(n(5)), NodePhase::Active);
        let report = a.report();
        assert_eq!(report.stats.nodes_joined, 1);
        assert_eq!(report.stats.cold_starts_completed, 1);
    }

    #[test]
    fn cooldown_spaces_actions() {
        let mut cfg = config();
        cfg.cooldown = SimDuration::from_secs(10);
        let (mut a, mut m) = fleet(cfg, 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m);
        a.on_monitor_tick(t(1), &quiet(10), true, &mut m);
        a.note_drained(n(5), t(2), &mut m);
        // Well inside the cooldown: no further action despite idleness.
        a.on_monitor_tick(t(3), &quiet(10), true, &mut m);
        a.on_monitor_tick(t(5), &quiet(10), true, &mut m);
        assert_eq!(a.report().stats.scale_in_actions, 1);
        // Past the cooldown the next drain is ordered.
        a.on_monitor_tick(t(12), &quiet(10), true, &mut m);
        assert_eq!(a.report().stats.scale_in_actions, 2);
    }

    #[test]
    fn tail_estimate_blocks_scale_in_and_counts_violations() {
        let (mut a, mut m) = fleet(config(), 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m);
        // A window whose P99 (80 ms) breaches the 50 ms SLO: measured,
        // counted, and scale-in is suppressed even though the fleet is
        // idle — the breach forces a scale-out attempt instead (a no-op
        // at full fleet).
        for _ in 0..100 {
            a.observe_latency(SimDuration::from_millis(80));
        }
        a.on_monitor_tick(t(1), &quiet(10), false, &mut m);
        let report = a.report();
        assert_eq!(report.measured_windows, 1);
        assert_eq!(report.slo_violation_windows, 1);
        assert_eq!(report.stats.scale_in_actions, 0);
        assert_eq!(
            report.stats.scale_out_actions, 0,
            "full fleet: nothing to add"
        );
    }

    #[test]
    fn node_seconds_integrate_membership() {
        let mut cfg = config();
        cfg.min_nodes = 5;
        let (mut a, mut m) = fleet(cfg, 6);
        a.on_monitor_tick(t(0), &quiet(10), true, &mut m);
        a.on_monitor_tick(t(1), &quiet(10), true, &mut m); // drain ordered at 1 s
        a.note_drained(n(5), t(10), &mut m); // fleet 6 until 10 s
        a.finalize(t(20), &m); // fleet 5 for the rest
        let report = a.report();
        assert!((report.node_seconds - (6.0 * 10.0 + 5.0 * 10.0)).abs() < 1e-9);
        assert!((report.node_hours() - 110.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn default_report_is_all_zero() {
        let report = AutoscaleReport::default();
        assert_eq!(report.stats, AutoscaleStats::default());
        assert_eq!(report.node_seconds, 0.0);
        assert_eq!(report.stats.drains_completed, 0);
        assert_eq!(report.drain_max, 0.0);
        assert_eq!(report.measured_windows, 0);
    }

    #[test]
    fn window_p99_picks_the_right_rank() {
        let mut w: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(window_p99(&mut w), Some(99.0));
        assert_eq!(window_p99(&mut [5.0]), Some(5.0));
        assert_eq!(window_p99(&mut []), None);
    }

    #[test]
    fn window_p99_selects_the_sorted_rank_bit_for_bit() {
        // Pools with duplicates and signed zeros; the second makes a zero
        // the window's top, where `total_cmp` ranks -0.0 below 0.0.
        let pools: [&[f64]; 2] = [
            &[0.0, -0.0, 1e-3, 1e-3, 2.5e-2, 7.0, 7.0, 0.5, 3.0],
            &[0.0, -0.0, -0.0, -1e-3, -1e-3],
        ];
        let mut state = 0x9e37_79b9_u64;
        for pool in pools {
            for len in 1..=250 {
                let window: Vec<f64> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        pool[(state >> 33) as usize % pool.len()]
                    })
                    .collect();
                let mut sorted = window.clone();
                sorted.sort_unstable_by(f64::total_cmp);
                let rank = ((len as f64) * 0.99).ceil() as usize;
                let want = sorted[rank.saturating_sub(1).min(len - 1)];
                let got = window_p99(&mut window.clone()).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "window of {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "target utilisation must be in (0, 1]")]
    fn zero_target_rejected() {
        let mut cfg = config();
        cfg.target_utilization = 0.0;
        panic_with_error(cfg.validate(8));
    }

    #[test]
    #[should_panic(expected = "target utilisation must be in (0, 1]")]
    fn above_one_target_rejected() {
        let mut cfg = config();
        cfg.target_utilization = 1.5;
        panic_with_error(cfg.validate(8));
    }

    #[test]
    #[should_panic(expected = "cooldown must be non-zero")]
    fn zero_cooldown_rejected() {
        let mut cfg = config();
        cfg.cooldown = SimDuration::ZERO;
        panic_with_error(cfg.validate(8));
    }

    #[test]
    #[should_panic(expected = "positive number of seconds")]
    fn infinite_cooldown_rejected() {
        let mut cfg = config();
        // Infinite seconds saturate the clock.
        cfg.cooldown = SimDuration::from_secs_f64(f64::INFINITY);
        panic_with_error(cfg.validate(8));
    }

    #[test]
    #[should_panic(expected = "cannot exceed the ceiling")]
    fn floor_above_ceiling_rejected() {
        let mut cfg = config();
        cfg.min_nodes = 7;
        panic_with_error(cfg.validate(8));
    }

    #[test]
    #[should_panic(expected = "cannot exceed the node count")]
    fn ceiling_above_cluster_rejected() {
        panic_with_error(config().validate(4));
    }
}

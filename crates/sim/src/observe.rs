//! Deterministic tail-attribution observability (opt-in).
//!
//! The paper's thesis is that component-level interference is *where*
//! tail latency comes from; the aggregate percentiles of
//! [`RunReport`](crate::RunReport) say the P99 moved but never why. This
//! module attributes latency: every completed request carries a
//! critical-path timeline of queue/service/reissue/failover segments that
//! sum **bit-exactly** (integer microseconds) to its recorded end-to-end
//! latency, the P99 cohort is compared against the median cohort in a
//! per-`(kind, component, node)` blame breakdown, per-monitor-window
//! time-series capture utilisation and mechanism activity, and every PCS
//! interval's enacted migrations are audited as predicted Eq. 4 gain vs
//! the realised next-window change.
//!
//! The subsystem is opt-in through
//! [`SimConfig::observe`](crate::SimConfig::observe): `None` — the
//! default everywhere — leaves
//! every report byte-identical to a build without the module. When
//! enabled, instrumentation consumes **no randomness** and schedules **no
//! events**, so the simulated trajectory itself is identical with the
//! layer on or off; only the report gains an
//! [`RunReport::observe`](crate::RunReport::observe) section. Retention
//! is deterministic top-K-slowest ordered by `(latency, request_id)` —
//! there is no sampling.
//!
//! The decomposition follows the *critical path*: each stage contributes
//! exactly one segment chain — that of the partition whose (winning)
//! response completed the stage, which is by construction the last one —
//! spanning the stage's dispatch to its completion. Redundant replicas
//! and non-critical partitions appear in the mechanism counters
//! ([`TechniqueStats`](crate::TechniqueStats)) but not in timelines: they
//! do not hold up the request.

use pcs_types::{ensure, ComponentId, NodeId, PcsError, RequestId, SimDuration, SimTime};
use std::collections::HashMap;

/// Knobs of the observability layer ([`crate::SimConfig::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveConfig {
    /// How many slowest request timelines the report retains, ordered by
    /// `(latency desc, request id asc)`. Attribution and time-series
    /// always cover the full measured population regardless.
    pub top_k: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig { top_k: 5 }
    }
}

impl ObserveConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] when `top_k` is zero.
    pub fn validate(&self) -> Result<(), PcsError> {
        ensure!(
            self.top_k >= 1,
            "observe.top_k",
            "observe top-k must be at least 1 (0 would retain no timelines)"
        );
        Ok(())
    }
}

/// What a critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentKind {
    /// Waiting in a component's FIFO queue.
    Queue,
    /// Executing on the component's server.
    Service,
    /// Waiting for the reissue timer before the duplicate that won was
    /// even sent (RI-p laggards).
    ReissueWait,
    /// Queued behind a node kill until failover re-dispatched the
    /// sub-request to a surviving replica.
    FailoverRequeue,
}

impl SegmentKind {
    /// Stable lowercase name used in JSON reports and trace categories.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Queue => "queue",
            SegmentKind::Service => "service",
            SegmentKind::ReissueWait => "reissue-wait",
            SegmentKind::FailoverRequeue => "failover-requeue",
        }
    }
}

/// Segment flag: at least one node was down while the segment ended.
pub const FLAG_FAULT: u8 = 1;
/// Segment flag: at least one elastic node was warming (cold-starting).
pub const FLAG_WARMING: u8 = 1 << 1;
/// Segment flag: at least one elastic node was draining.
pub const FLAG_DRAINING: u8 = 1 << 2;
/// Segment flag: at least one node was degraded (a straggler whose
/// service times are scaled up) when the segment was recorded. Without
/// this flag, gray-node slowness would be indistinguishable from
/// ordinary queueing in the blame breakdown.
pub const FLAG_DEGRADED: u8 = 1 << 3;

/// One critical-path segment of a request timeline. Segments of a stage
/// are contiguous; across stages they telescope from arrival to
/// completion, so their durations sum bit-exactly to the request's
/// recorded end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Stage index.
    pub stage: u8,
    /// Partition index within the stage (the stage's last-finishing,
    /// i.e. critical, partition).
    pub partition: u16,
    /// What the time was spent on.
    pub kind: SegmentKind,
    /// Cluster-condition annotations ([`FLAG_FAULT`], [`FLAG_WARMING`],
    /// [`FLAG_DRAINING`], [`FLAG_DEGRADED`]) in effect when the segment
    /// was recorded.
    pub flags: u8,
    /// The component that served (or queued) the critical sub-request.
    pub component: ComponentId,
    /// The node hosting that component at completion time.
    pub node: NodeId,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
}

impl Segment {
    /// The segment's duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The critical-path timeline of one completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline {
    /// The request.
    pub id: RequestId,
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time (last stage answered).
    pub completed: SimTime,
    /// Recorded end-to-end latency (`completed - arrived`); the segment
    /// durations sum to exactly this value.
    pub total: SimDuration,
    /// Critical-path segments, in time order.
    pub segments: Vec<Segment>,
}

/// One monitor window of the run's time-series. Mechanism fields are
/// deltas over the window, not cumulative totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Window end (the monitor boundary that closed it).
    pub at: SimTime,
    /// Per-node utilisation: the summed busy-fraction demand of hosted
    /// service components.
    pub node_utilization: Vec<f64>,
    /// Per-node queue depth: queued sub-requests summed over hosted
    /// components.
    pub node_queue_depth: Vec<u64>,
    /// Migrations enacted during the window.
    pub migrations: u64,
    /// Sub-requests reissued during the window.
    pub reissues: u64,
    /// Autoscale actions (scale-out + scale-in decisions) during the
    /// window.
    pub autoscale_actions: u64,
    /// Elastic nodes cold-starting at the boundary.
    pub warming_nodes: u64,
    /// Elastic nodes draining at the boundary.
    pub draining_nodes: u64,
    /// Nodes down (killed, not yet restored) at the boundary.
    pub down_nodes: u64,
    /// Nodes degraded (stragglers, slowdown factor > 1) at the boundary.
    pub degraded_nodes: u64,
    /// Nodes the failure detector reported as down at the most recent
    /// scheduler tick (suspected, which may disagree with ground truth).
    /// Zero when no detector is configured.
    pub suspected_nodes: u64,
}

/// One enacted migration decision with its predicted Eq. 4 gains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditDecision {
    /// The migrated component.
    pub component: ComponentId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Predicted overall-latency gain of the move (Eq. 4, seconds).
    pub predicted_gain: f64,
    /// The component's own predicted latency gain, excluding the effect
    /// on the neighbours it leaves behind / joins (seconds).
    pub predicted_self_gain: f64,
}

/// The decision audit of one scheduling interval: what the controller
/// predicted, what it ordered, and what the next window realised.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalAudit {
    /// When the interval ran.
    pub at: SimTime,
    /// Monotone interval index (1-based; assigned by the observer).
    pub interval: u64,
    /// The model's predicted overall service latency before any of this
    /// interval's migrations (Eq. 4, seconds).
    pub predicted_overall: f64,
    /// Migrations the controller ordered this interval (the world may
    /// still reject an order whose destination went down or whose
    /// component is already migrating; rejections are rare and visible
    /// as a mismatch against [`TechniqueStats::migrations`]).
    ///
    /// [`TechniqueStats::migrations`]: crate::TechniqueStats::migrations
    pub decisions: Vec<AuditDecision>,
    /// Realised change of the mean completion latency: mean over
    /// completions in this interval's window minus the mean over the
    /// previous window. `None` when either window saw no completion.
    pub realized_delta: Option<f64>,
}

/// How many blame entries the attribution keeps (the heaviest
/// `(kind, component, node)` buckets of the tail cohort).
pub const BLAME_CAP: usize = 12;

/// One blame bucket: time the tail cohort spent in segments of one
/// `(kind, component, node)` key, against the median cohort's share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameShare {
    /// Segment kind.
    pub kind: SegmentKind,
    /// Component.
    pub component: ComponentId,
    /// Hosting node.
    pub node: NodeId,
    /// Microseconds the tail cohort spent in this bucket.
    pub tail_micros: u64,
    /// Microseconds the median cohort spent in this bucket.
    pub median_micros: u64,
}

impl BlameShare {
    /// The bucket's share of the tail cohort's total segment time.
    pub fn tail_share(&self, attribution: &TailAttribution) -> f64 {
        share(self.tail_micros, attribution.tail_micros)
    }

    /// The bucket's share of the median cohort's total segment time.
    pub fn median_share(&self, attribution: &TailAttribution) -> f64 {
        share(self.median_micros, attribution.median_micros)
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Tail-vs-median attribution: where the P99 cohort's time went,
/// compared with the median cohort's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TailAttribution {
    /// Requests in the tail (slowest ~1%) cohort.
    pub tail_count: usize,
    /// Requests in the median (45th–55th percentile band) cohort.
    pub median_count: usize,
    /// Mean end-to-end latency of the tail cohort (seconds).
    pub tail_mean_secs: f64,
    /// Mean end-to-end latency of the median cohort (seconds).
    pub median_mean_secs: f64,
    /// Total segment microseconds of the tail cohort.
    pub tail_micros: u64,
    /// Total segment microseconds of the median cohort.
    pub median_micros: u64,
    /// The [`BLAME_CAP`] heaviest tail buckets, ordered by
    /// `(tail time desc, kind, component, node)`.
    pub blame: Vec<BlameShare>,
}

/// Everything the observability layer measured in one run
/// ([`RunReport::observe`](crate::RunReport::observe)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObserveReport {
    /// Completed requests traced in the measured window (top-K retention
    /// applies to [`ObserveReport::timelines`] only; this counts all).
    pub requests_traced: u64,
    /// The K slowest request timelines, slowest first (ties by request
    /// id ascending).
    pub timelines: Vec<RequestTimeline>,
    /// Tail-vs-median blame breakdown over all traced requests.
    pub attribution: TailAttribution,
    /// Per-monitor-window time-series.
    pub series: Vec<SeriesRow>,
    /// Per-scheduling-interval decision audits (PCS techniques only;
    /// empty for hooks that do not audit).
    pub audits: Vec<IntervalAudit>,
}

/// Raw inputs of one critical stage chain, in world timestamps; the
/// observer decomposes them into contiguous segments.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageChain {
    pub id: RequestId,
    pub stage: u8,
    pub partition: u16,
    pub component: ComponentId,
    pub node: NodeId,
    /// When the stage fanned out (shared by all its partitions).
    pub dispatched_at: SimTime,
    /// When the winning sub-request was enqueued (equals `dispatched_at`
    /// for originals, the reissue time for winning duplicates).
    pub enqueued_at: SimTime,
    /// When the partition's reissue timer fired ([`SimTime::MAX`] if it
    /// never did).
    pub reissued_at: SimTime,
    /// When the winning sub-request started executing.
    pub started_at: SimTime,
    /// When its response completed the stage.
    pub completed_at: SimTime,
}

/// Raw cumulative counters sampled at a monitor boundary; the observer
/// converts them to window deltas.
#[derive(Debug, Clone)]
pub(crate) struct WindowSample {
    pub at: SimTime,
    pub node_utilization: Vec<f64>,
    pub node_queue_depth: Vec<u64>,
    /// Cumulative migrations enacted (measured-window counter).
    pub migrations: u64,
    /// Cumulative reissues (measured-window counter).
    pub reissues: u64,
    /// Cumulative autoscale actions (whole-run counter).
    pub autoscale_actions: u64,
    pub warming_nodes: u64,
    pub draining_nodes: u64,
    pub down_nodes: u64,
    /// Degraded (straggler) nodes at the boundary (gauge).
    pub degraded_nodes: u64,
    /// Detector-suspected-down nodes at the last scheduler tick (gauge).
    pub suspected_nodes: u64,
}

#[derive(Debug, Default)]
struct OpenTrace {
    segments: Vec<Segment>,
    /// Failover re-dispatch notes per `(stage, partition)`, last-wins.
    failovers: Vec<(u8, u16, SimTime)>,
}

/// The run-time collector. Owned by the world when
/// [`crate::SimConfig::observe`] is set; pure bookkeeping — it consumes
/// no randomness and schedules no events.
#[derive(Debug)]
pub(crate) struct Observer {
    top_k: usize,
    open: HashMap<u32, OpenTrace>,
    completed: Vec<RequestTimeline>,
    series: Vec<SeriesRow>,
    audits: Vec<IntervalAudit>,
    /// Current scheduling-interval window index (0 until the first
    /// interval runs).
    interval: u64,
    /// Per-window completion-latency accumulators `(sum_secs, count)`,
    /// indexed by window; window `i` spans interval tick `i` to `i+1`.
    window_sums: Vec<(f64, u64)>,
    /// Previous cumulative counters, for window deltas.
    last_migrations: u64,
    last_reissues: u64,
    last_autoscale_actions: u64,
    /// Current cluster-condition flags applied to recorded segments.
    flags: u8,
}

impl Observer {
    pub(crate) fn new(config: &ObserveConfig) -> Self {
        Observer {
            top_k: config.top_k,
            open: HashMap::new(),
            completed: Vec::new(),
            series: Vec::new(),
            audits: Vec::new(),
            interval: 0,
            window_sums: vec![(0.0, 0)],
            last_migrations: 0,
            last_reissues: 0,
            last_autoscale_actions: 0,
            flags: 0,
        }
    }

    /// Updates the fault annotation flag (called on kill/restore).
    pub(crate) fn set_fault_active(&mut self, any_node_down: bool) {
        if any_node_down {
            self.flags |= FLAG_FAULT;
        } else {
            self.flags &= !FLAG_FAULT;
        }
    }

    /// Updates the straggler annotation flag (called on degrade/recover).
    pub(crate) fn set_degraded(&mut self, any_node_degraded: bool) {
        if any_node_degraded {
            self.flags |= FLAG_DEGRADED;
        } else {
            self.flags &= !FLAG_DEGRADED;
        }
    }

    /// Notes that failover re-dispatched `(stage, partition)` of a
    /// request at `at`; if its re-dispatched sub-request wins the
    /// partition, the queue segment is split at this point.
    pub(crate) fn note_failover(&mut self, id: RequestId, stage: u8, partition: u16, at: SimTime) {
        let trace = self.open.entry(id.raw()).or_default();
        match trace
            .failovers
            .iter_mut()
            .find(|(s, p, _)| *s == stage && *p == partition)
        {
            Some(slot) => slot.2 = at,
            None => trace.failovers.push((stage, partition, at)),
        }
    }

    /// Records the critical segment chain of a completed stage.
    pub(crate) fn record_stage(&mut self, c: StageChain) {
        let trace = self.open.entry(c.id.raw()).or_default();
        let failover_at = match trace
            .failovers
            .iter()
            .position(|(s, p, _)| *s == c.stage && *p == c.partition)
        {
            Some(i) => Some(trace.failovers.swap_remove(i).2),
            None => None,
        };
        let seg = |kind, start, end| Segment {
            stage: c.stage,
            partition: c.partition,
            kind,
            flags: self.flags,
            component: c.component,
            node: c.node,
            start,
            end,
        };
        let mut push = |s: Segment| {
            if s.end > s.start {
                trace.segments.push(s);
            }
        };
        // The winner was either the original sub-request (enqueued at
        // dispatch) or a reissued duplicate (enqueued when the timer
        // fired); in the latter case the time before the duplicate even
        // existed is reissue wait, not queueing.
        let mut cursor = c.dispatched_at;
        if c.reissued_at != SimTime::MAX
            && c.enqueued_at == c.reissued_at
            && c.enqueued_at != c.dispatched_at
        {
            push(seg(SegmentKind::ReissueWait, cursor, c.enqueued_at));
            cursor = c.enqueued_at;
        }
        if let Some(f) = failover_at {
            // Only meaningful if the kill interrupted *this* winning
            // sub-request's wait (between its enqueue and its start).
            if f >= cursor && f <= c.started_at {
                push(seg(SegmentKind::FailoverRequeue, cursor, f));
                cursor = f;
            }
        }
        push(seg(SegmentKind::Queue, cursor, c.started_at));
        push(seg(SegmentKind::Service, c.started_at, c.completed_at));
    }

    /// Discards the open trace of a request that will never complete
    /// (lost to a fault, or censored at run end).
    pub(crate) fn drop_request(&mut self, id: RequestId) {
        self.open.remove(&id.raw());
    }

    /// Closes a completed request's trace. Warm-up completions feed the
    /// audit's window means but are not retained as timelines (the
    /// measured population matches the latency recorders).
    pub(crate) fn complete_request(
        &mut self,
        id: RequestId,
        arrived: SimTime,
        completed: SimTime,
        total: SimDuration,
        in_warmup: bool,
    ) {
        let trace = self.open.remove(&id.raw()).unwrap_or_default();
        let sum: u64 = trace
            .segments
            .iter()
            .map(|s| s.duration().as_micros())
            .sum();
        debug_assert_eq!(
            sum,
            total.as_micros(),
            "critical-path segments of {id} must sum to its end-to-end latency"
        );
        let window = &mut self.window_sums[self.interval as usize];
        window.0 += total.as_secs_f64();
        window.1 += 1;
        if !in_warmup {
            self.completed.push(RequestTimeline {
                id,
                arrived,
                completed,
                total,
                segments: trace.segments,
            });
        }
    }

    /// Closes a monitor window with the boundary's cumulative counters.
    pub(crate) fn record_window(&mut self, s: WindowSample) {
        self.set_health(s.warming_nodes, s.draining_nodes);
        // Counter resets (warm-up end) saturate to an empty window.
        let row = SeriesRow {
            at: s.at,
            node_utilization: s.node_utilization,
            node_queue_depth: s.node_queue_depth,
            migrations: s.migrations.saturating_sub(self.last_migrations),
            reissues: s.reissues.saturating_sub(self.last_reissues),
            autoscale_actions: s
                .autoscale_actions
                .saturating_sub(self.last_autoscale_actions),
            warming_nodes: s.warming_nodes,
            draining_nodes: s.draining_nodes,
            down_nodes: s.down_nodes,
            degraded_nodes: s.degraded_nodes,
            suspected_nodes: s.suspected_nodes,
        };
        self.last_migrations = s.migrations;
        self.last_reissues = s.reissues;
        self.last_autoscale_actions = s.autoscale_actions;
        self.series.push(row);
    }

    fn set_health(&mut self, warming: u64, draining: u64) {
        self.flags &= !(FLAG_WARMING | FLAG_DRAINING);
        if warming > 0 {
            self.flags |= FLAG_WARMING;
        }
        if draining > 0 {
            self.flags |= FLAG_DRAINING;
        }
    }

    /// Opens the next completion window at a scheduling interval and
    /// files the hook's decision audit, if it produced one.
    pub(crate) fn on_scheduler_interval(&mut self, audit: Option<IntervalAudit>) {
        self.interval += 1;
        self.window_sums.push((0.0, 0));
        if let Some(mut a) = audit {
            a.interval = self.interval;
            self.audits.push(a);
        }
    }

    /// Assembles the final report.
    pub(crate) fn finalize(mut self) -> ObserveReport {
        // Realised deltas: audit at interval i compares the window it
        // opened (i) against the one it closed (i - 1).
        for audit in &mut self.audits {
            let i = audit.interval as usize;
            if i >= 1 && i < self.window_sums.len() {
                let (cur_sum, cur_n) = self.window_sums[i];
                let (prev_sum, prev_n) = self.window_sums[i - 1];
                if cur_n > 0 && prev_n > 0 {
                    audit.realized_delta = Some(cur_sum / cur_n as f64 - prev_sum / prev_n as f64);
                }
            }
        }
        let attribution = attribute(&mut self.completed);
        self.completed
            .sort_by(|a, b| b.total.cmp(&a.total).then(a.id.cmp(&b.id)));
        let requests_traced = self.completed.len() as u64;
        self.completed.truncate(self.top_k);
        ObserveReport {
            requests_traced,
            timelines: self.completed,
            attribution,
            series: self.series,
            audits: self.audits,
        }
    }
}

/// Builds the tail-vs-median attribution; sorts `traced` ascending by
/// `(latency, id)` as a side effect.
fn attribute(traced: &mut [RequestTimeline]) -> TailAttribution {
    traced.sort_by(|a, b| a.total.cmp(&b.total).then(a.id.cmp(&b.id)));
    let Some((median_range, tail_range)) = pcs_monitor::cohort_ranges(traced.len()) else {
        return TailAttribution::default();
    };
    let cohort_micros = |r: &std::ops::Range<usize>| -> std::collections::BTreeMap<_, u64> {
        let mut map = std::collections::BTreeMap::new();
        for t in &traced[r.clone()] {
            for s in &t.segments {
                *map.entry((s.kind, s.component, s.node)).or_insert(0u64) +=
                    s.duration().as_micros();
            }
        }
        map
    };
    let mean = |r: &std::ops::Range<usize>| -> f64 {
        let slice = &traced[r.clone()];
        slice.iter().map(|t| t.total.as_secs_f64()).sum::<f64>() / slice.len() as f64
    };
    let tail = cohort_micros(&tail_range);
    let median = cohort_micros(&median_range);
    let tail_micros: u64 = tail.values().sum();
    let median_micros: u64 = median.values().sum();
    let mut blame: Vec<BlameShare> = tail
        .iter()
        .map(|(&(kind, component, node), &micros)| BlameShare {
            kind,
            component,
            node,
            tail_micros: micros,
            median_micros: median.get(&(kind, component, node)).copied().unwrap_or(0),
        })
        .collect();
    blame.sort_by(|a, b| {
        b.tail_micros
            .cmp(&a.tail_micros)
            .then(a.kind.cmp(&b.kind))
            .then(a.component.cmp(&b.component))
            .then(a.node.cmp(&b.node))
    });
    blame.truncate(BLAME_CAP);
    TailAttribution {
        tail_count: tail_range.len(),
        median_count: median_range.len(),
        tail_mean_secs: mean(&tail_range),
        median_mean_secs: mean(&median_range),
        tail_micros,
        median_micros,
        blame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn chain(id: u32, stage: u8) -> StageChain {
        StageChain {
            id: RequestId::new(id),
            stage,
            partition: 0,
            component: ComponentId::new(3),
            node: NodeId::new(1),
            dispatched_at: us(100),
            enqueued_at: us(100),
            reissued_at: SimTime::MAX,
            started_at: us(250),
            completed_at: us(400),
        }
    }

    #[test]
    fn plain_stage_decomposes_into_queue_and_service() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.record_stage(chain(0, 0));
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        assert_eq!(report.requests_traced, 1);
        let segs = &report.timelines[0].segments;
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].kind, SegmentKind::Queue);
        assert_eq!(segs[0].duration(), SimDuration::from_micros(150));
        assert_eq!(segs[1].kind, SegmentKind::Service);
        assert_eq!(segs[1].duration(), SimDuration::from_micros(150));
    }

    #[test]
    fn winning_reissue_charges_the_timer_delay_as_reissue_wait() {
        let mut obs = Observer::new(&ObserveConfig::default());
        let mut c = chain(0, 0);
        c.reissued_at = us(200);
        c.enqueued_at = us(200); // the duplicate won
        obs.record_stage(c);
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        let kinds: Vec<_> = report.timelines[0]
            .segments
            .iter()
            .map(|s| s.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::ReissueWait,
                SegmentKind::Queue,
                SegmentKind::Service
            ]
        );
    }

    #[test]
    fn losing_reissue_leaves_the_original_chain_untouched() {
        let mut obs = Observer::new(&ObserveConfig::default());
        let mut c = chain(0, 0);
        c.reissued_at = us(200); // timer fired, but the original won
        obs.record_stage(c);
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        assert_eq!(report.timelines[0].segments.len(), 2);
        assert_eq!(report.timelines[0].segments[0].kind, SegmentKind::Queue);
    }

    #[test]
    fn failover_note_splits_the_queue_wait() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.note_failover(RequestId::new(0), 0, 0, us(180));
        obs.record_stage(chain(0, 0));
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        let segs = &report.timelines[0].segments;
        assert_eq!(segs[0].kind, SegmentKind::FailoverRequeue);
        assert_eq!(segs[0].duration(), SimDuration::from_micros(80));
        assert_eq!(segs[1].kind, SegmentKind::Queue);
        assert_eq!(segs[1].duration(), SimDuration::from_micros(70));
        let sum: u64 = segs.iter().map(|s| s.duration().as_micros()).sum();
        assert_eq!(sum, 300);
    }

    #[test]
    fn zero_length_segments_are_skipped() {
        let mut obs = Observer::new(&ObserveConfig::default());
        let mut c = chain(0, 0);
        c.started_at = us(100); // no queue wait at all
        obs.record_stage(c);
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        let segs = &report.timelines[0].segments;
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].kind, SegmentKind::Service);
    }

    #[test]
    fn stages_telescope_to_the_total() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.record_stage(chain(0, 0));
        let mut second = chain(0, 1);
        second.dispatched_at = us(400);
        second.enqueued_at = us(400);
        second.started_at = us(500);
        second.completed_at = us(900);
        obs.record_stage(second);
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(900),
            SimDuration::from_micros(800),
            false,
        );
        let report = obs.finalize();
        let sum: u64 = report.timelines[0]
            .segments
            .iter()
            .map(|s| s.duration().as_micros())
            .sum();
        assert_eq!(sum, 800);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must sum to its end-to-end latency")]
    fn mismatched_segments_are_caught() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.record_stage(chain(0, 0));
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(500),
            SimDuration::from_micros(400),
            false,
        );
    }

    #[test]
    fn top_k_retention_is_deterministic_and_ordered() {
        let mut obs = Observer::new(&ObserveConfig { top_k: 2 });
        for (id, end) in [(0u32, 400u64), (1, 700), (2, 700), (3, 250)] {
            let mut c = chain(id, 0);
            c.completed_at = us(end);
            obs.record_stage(c);
            obs.complete_request(
                RequestId::new(id),
                us(100),
                us(end),
                SimDuration::from_micros(end - 100),
                false,
            );
        }
        let report = obs.finalize();
        assert_eq!(report.requests_traced, 4);
        let ids: Vec<u32> = report.timelines.iter().map(|t| t.id.raw()).collect();
        // Slowest first; the 600 µs tie broken by request id ascending.
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn warmup_completions_are_not_retained() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.record_stage(chain(0, 0));
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            true,
        );
        let report = obs.finalize();
        assert_eq!(report.requests_traced, 0);
        assert!(report.timelines.is_empty());
    }

    #[test]
    fn attribution_blames_the_heaviest_bucket() {
        let mut obs = Observer::new(&ObserveConfig::default());
        // 99 fast requests served on n1, one slow request stuck queueing
        // on n2.
        for id in 0..99u32 {
            let c = chain(id, 0);
            obs.record_stage(c);
            obs.complete_request(
                RequestId::new(id),
                us(100),
                us(400),
                SimDuration::from_micros(300),
                false,
            );
        }
        let mut slow = chain(99, 0);
        slow.component = ComponentId::new(7);
        slow.node = NodeId::new(2);
        slow.started_at = us(9_000);
        slow.completed_at = us(9_100);
        obs.record_stage(slow);
        obs.complete_request(
            RequestId::new(99),
            us(100),
            us(9_100),
            SimDuration::from_micros(9_000),
            false,
        );
        let report = obs.finalize();
        let attr = &report.attribution;
        assert_eq!(attr.tail_count, 1);
        let top = &attr.blame[0];
        assert_eq!(top.kind, SegmentKind::Queue);
        assert_eq!(top.component, ComponentId::new(7));
        assert_eq!(top.node, NodeId::new(2));
        assert_eq!(top.tail_micros, 8_900);
        assert_eq!(top.median_micros, 0);
        assert!(top.tail_share(attr) > 0.9);
        assert_eq!(top.median_share(attr), 0.0);
        assert!(attr.tail_mean_secs > attr.median_mean_secs);
    }

    #[test]
    fn window_deltas_saturate_across_counter_resets() {
        let mut obs = Observer::new(&ObserveConfig::default());
        let sample = |at, migrations, reissues| WindowSample {
            at,
            node_utilization: vec![0.5],
            node_queue_depth: vec![2],
            migrations,
            reissues,
            autoscale_actions: 0,
            warming_nodes: 0,
            draining_nodes: 0,
            down_nodes: 0,
            degraded_nodes: 0,
            suspected_nodes: 0,
        };
        obs.record_window(sample(us(1_000), 4, 10));
        // Warm-up end reset the measured-window counters to zero.
        obs.record_window(sample(us(2_000), 1, 3));
        obs.record_window(sample(us(3_000), 5, 9));
        let report = obs.finalize();
        let m: Vec<u64> = report.series.iter().map(|r| r.migrations).collect();
        assert_eq!(m, vec![4, 0, 4]);
        let r: Vec<u64> = report.series.iter().map(|r| r.reissues).collect();
        assert_eq!(r, vec![10, 0, 6]);
    }

    #[test]
    fn audit_realized_delta_compares_adjacent_windows() {
        let mut obs = Observer::new(&ObserveConfig::default());
        let complete = |obs: &mut Observer, id: u32, total_us: u64| {
            let mut c = chain(id, 0);
            c.completed_at = us(100 + total_us);
            c.started_at = us(100);
            obs.record_stage(c);
            obs.complete_request(
                RequestId::new(id),
                us(100),
                us(100 + total_us),
                SimDuration::from_micros(total_us),
                false,
            );
        };
        complete(&mut obs, 0, 2_000_000); // window 0: mean 2 s
        obs.on_scheduler_interval(Some(IntervalAudit {
            at: us(10),
            interval: 0,
            predicted_overall: 1.5,
            decisions: vec![AuditDecision {
                component: ComponentId::new(1),
                from: NodeId::new(0),
                to: NodeId::new(2),
                predicted_gain: 0.5,
                predicted_self_gain: 0.4,
            }],
            realized_delta: None,
        }));
        complete(&mut obs, 1, 1_000_000); // window 1: mean 1 s
        obs.on_scheduler_interval(Some(IntervalAudit {
            at: us(20),
            interval: 0,
            predicted_overall: 1.0,
            decisions: vec![],
            realized_delta: None,
        }));
        // Window 2 sees no completion: second audit stays None.
        let report = obs.finalize();
        assert_eq!(report.audits.len(), 2);
        assert_eq!(report.audits[0].interval, 1);
        let delta = report.audits[0].realized_delta.unwrap();
        assert!((delta - (-1.0)).abs() < 1e-9);
        assert_eq!(report.audits[1].realized_delta, None);
    }

    #[test]
    fn dropped_requests_leave_no_timeline() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.record_stage(chain(0, 0));
        obs.drop_request(RequestId::new(0));
        let report = obs.finalize();
        assert_eq!(report.requests_traced, 0);
    }

    #[test]
    fn flags_annotate_segments() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.set_fault_active(true);
        obs.set_health(1, 0);
        obs.set_degraded(true);
        obs.record_stage(chain(0, 0));
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        let flags = report.timelines[0].segments[0].flags;
        assert_eq!(flags & FLAG_FAULT, FLAG_FAULT);
        assert_eq!(flags & FLAG_WARMING, FLAG_WARMING);
        assert_eq!(flags & FLAG_DRAINING, 0);
        assert_eq!(flags & FLAG_DEGRADED, FLAG_DEGRADED);
    }

    #[test]
    fn degraded_flag_clears_on_recovery() {
        let mut obs = Observer::new(&ObserveConfig::default());
        obs.set_degraded(true);
        obs.set_degraded(false);
        obs.record_stage(chain(0, 0));
        obs.complete_request(
            RequestId::new(0),
            us(100),
            us(400),
            SimDuration::from_micros(300),
            false,
        );
        let report = obs.finalize();
        assert_eq!(report.timelines[0].segments[0].flags & FLAG_DEGRADED, 0);
    }

    #[test]
    fn degraded_and_suspected_gauges_are_copied_not_deltaed() {
        let mut obs = Observer::new(&ObserveConfig::default());
        let sample = |at, degraded, suspected| WindowSample {
            at,
            node_utilization: vec![0.5],
            node_queue_depth: vec![2],
            migrations: 0,
            reissues: 0,
            autoscale_actions: 0,
            warming_nodes: 0,
            draining_nodes: 0,
            down_nodes: 0,
            degraded_nodes: degraded,
            suspected_nodes: suspected,
        };
        obs.record_window(sample(us(1_000), 3, 1));
        obs.record_window(sample(us(2_000), 3, 0));
        obs.record_window(sample(us(3_000), 0, 2));
        let report = obs.finalize();
        let d: Vec<u64> = report.series.iter().map(|r| r.degraded_nodes).collect();
        assert_eq!(d, vec![3, 3, 0]);
        let s: Vec<u64> = report.series.iter().map(|r| r.suspected_nodes).collect();
        assert_eq!(s, vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_top_k_rejected() {
        crate::panic_with_error(ObserveConfig { top_k: 0 }.validate());
    }
}

//! Run metrics and the final report.
//!
//! The paper's two evaluation metrics (§VI-A):
//!
//! 1. the **99th-percentile latency of individual components** over all
//!    requests — for redundancy/reissue techniques, the latency of the
//!    *quickest* replica of each sub-request;
//! 2. the **average overall service latency** over all requests.
//!
//! Plus operational counters that explain the mechanisms: executions,
//! wasted (duplicate) executions, cancellations, reissues, migrations.

use crate::autoscale::AutoscaleReport;
use crate::observe::ObserveReport;
use crate::policy::SchedulerCost;
use pcs_monitor::{LatencyRecorder, LatencySummary};
use pcs_types::{SimDuration, SimTime};

/// Mechanism counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TechniqueStats {
    /// Completed requests (all stages answered).
    pub requests_completed: u64,
    /// Requests still in flight when the run was cut off.
    pub requests_censored: u64,
    /// Sub-request executions that ran to completion.
    pub executions: u64,
    /// Executions whose response arrived after the partition was already
    /// answered (redundancy waste).
    pub wasted_executions: u64,
    /// Queued duplicates removed by cancellation messages or by a
    /// partition completing.
    pub cancelled_duplicates: u64,
    /// Reissued sub-requests (RI-p).
    pub reissues: u64,
    /// Component migrations enacted (PCS).
    pub migrations: u64,
    /// Batch jobs that ran during the measured window.
    pub batch_jobs_started: u64,
}

/// Mechanism counters of the fault-injection subsystem. All zero on a
/// run with an empty [`crate::faults::FaultPlan`].
///
/// Unlike [`TechniqueStats`], these span the *whole* run rather than the
/// measured window: faults are structural events, and resetting them at
/// warm-up end would desynchronise them from the world's orphan state
/// (a kill during warm-up must still report its kill, its orphans and
/// their eventual evacuations consistently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Effective node kills (idempotent duplicates excluded).
    pub kills: u64,
    /// Effective node restores.
    pub restores: u64,
    /// Components stranded on a node the moment it was killed.
    pub orphaned: u64,
    /// Orphans re-placed onto a live node by a scheduler migration.
    pub evacuated: u64,
    /// Orphans resolved by their node coming back before any migration.
    pub restored_in_place: u64,
    /// Requests lost because a sub-request had no live replica (or the
    /// failover policy was [`crate::faults::FailoverPolicy::Drop`]).
    pub requests_lost: u64,
    /// Disrupted sub-requests re-dispatched to a surviving replica.
    pub failed_over: u64,
    /// Effective degrade events (a node turning gray or changing its
    /// slowdown factor; [`crate::faults::FaultKind::Degrade`]).
    pub degrades: u64,
    /// Effective recoveries (idempotent duplicates excluded).
    pub recovers: u64,
}

/// Fault-injection measurements of one run: the mechanism counters, the
/// evacuation-latency distribution (kill → orphan re-placed, by migration
/// or by restore), and the tail metric split into pre/during/post-fault
/// windows. [`FaultReport::default`] is what an empty plan reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Mechanism counters.
    pub stats: FaultStats,
    /// Mean kill→re-placement latency over resolved orphans (seconds;
    /// 0 when nothing was orphaned).
    pub evacuation_mean: f64,
    /// Worst kill→re-placement latency over resolved orphans (seconds).
    pub evacuation_max: f64,
    /// Orphans never re-placed before the run ended (blind techniques
    /// leave every orphan of an unrestored node here).
    pub unresolved_orphans: u64,
    /// Component latency of completions before the first kill.
    pub pre_fault: LatencySummary,
    /// Component latency while at least one node was down.
    pub during_fault: LatencySummary,
    /// Component latency after every killed node was restored.
    pub post_fault: LatencySummary,
    /// Component latency of completions while at least one node was
    /// degraded (the straggler window; empty on plans without degrade
    /// events). Orthogonal to the pre/during/post split — a completion
    /// lands in both its kill phase and, if a straggler was active, here.
    pub degraded: LatencySummary,
}

impl Default for FaultReport {
    fn default() -> Self {
        FaultReport {
            stats: FaultStats::default(),
            evacuation_mean: 0.0,
            evacuation_max: 0.0,
            unresolved_orphans: 0,
            pre_fault: LatencySummary::EMPTY,
            during_fault: LatencySummary::EMPTY,
            post_fault: LatencySummary::EMPTY,
            degraded: LatencySummary::EMPTY,
        }
    }
}

impl FaultReport {
    /// True when faults struck and every orphan was re-placed.
    pub fn evacuation_complete(&self) -> bool {
        self.stats.orphaned > 0 && self.unresolved_orphans == 0
    }

    /// The run's evacuation latency in milliseconds: the worst
    /// kill→re-placement time, defined only when evacuation completed.
    pub fn evacuation_ms(&self) -> Option<f64> {
        self.evacuation_complete()
            .then_some(self.evacuation_max * 1e3)
    }
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Technique name (the dispatch policy's name, or "PCS").
    pub technique: String,
    /// Configured request arrival rate (req/s).
    pub arrival_rate: f64,
    /// Time at which measurement started (end of warm-up).
    pub measured_from: SimTime,
    /// Time at which the run ended.
    pub ended_at: SimTime,
    /// Component-latency distribution (winning replicas only).
    pub component_latency: LatencySummary,
    /// Overall service-latency distribution.
    pub overall_latency: LatencySummary,
    /// Mechanism counters.
    pub stats: TechniqueStats,
    /// Fault-injection measurements (all-default on an empty fault plan).
    pub faults: FaultReport,
    /// Autoscaling measurements (all-default when
    /// [`crate::config::SimConfig::autoscale`] is `None`).
    pub autoscale: AutoscaleReport,
    /// Discrete events handled over the whole run (arrivals, completions,
    /// timers, monitor/scheduler ticks, …). Fuels perfbench's events/s
    /// metric; deliberately absent from scenario reports.
    pub events_processed: u64,
    /// Deterministic scheduler work counters, if the technique's hook
    /// tracks them ([`SchedulerHook::cost`](crate::SchedulerHook::cost)).
    /// `None` for non-migrating techniques.
    pub scheduler_cost: Option<SchedulerCost>,
    /// Tail-attribution observability ([`crate::observe`]): request
    /// timelines, blame breakdown, time-series and decision audits.
    /// `None` unless [`SimConfig::observe`](crate::SimConfig::observe)
    /// was set.
    pub observe: Option<ObserveReport>,
}

impl RunReport {
    /// The paper's tail metric: 99th-percentile component latency, in
    /// milliseconds.
    pub fn component_p99_ms(&self) -> f64 {
        self.component_latency.p99 * 1e3
    }

    /// The paper's overall metric: mean overall service latency, in
    /// milliseconds.
    pub fn overall_mean_ms(&self) -> f64 {
        self.overall_latency.mean * 1e3
    }
}

/// Fault phase of a latency sample: before the first kill, while any
/// node is down, or after the last downed node was restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultPhase {
    Pre = 0,
    During = 1,
    Post = 2,
}

/// Mutable collectors owned by the world during a run.
#[derive(Debug, Default)]
pub(crate) struct Collectors {
    pub component_latency: LatencyRecorder,
    pub overall_latency: LatencyRecorder,
    pub stats: TechniqueStats,
    pub fault_stats: FaultStats,
    /// Component latency split by fault phase (pre/during/post).
    pub phase_latency: [LatencyRecorder; 3],
    /// Component latency while at least one node was degraded (the
    /// straggler window; reset at warm-up end like the phase windows).
    pub degraded_latency: LatencyRecorder,
    /// Kill→re-placement latency accumulators (seconds).
    pub evac_sum: f64,
    pub evac_max: f64,
    pub evac_count: u64,
    /// Pre-sizing hints `(component, overall)` for the latency
    /// recorders, derived from the run budget.
    sample_hint: (usize, usize),
}

impl Collectors {
    /// Records the expected sample counts (component and overall) so the
    /// latency recorders are born with capacity instead of growing
    /// through reallocation during the run.
    pub fn preallocate(&mut self, component_hint: usize, overall_hint: usize) {
        self.sample_hint = (component_hint, overall_hint);
        self.component_latency = LatencyRecorder::with_capacity(component_hint);
        self.overall_latency = LatencyRecorder::with_capacity(overall_hint);
    }

    /// Clears measured data at the end of warm-up (counters for
    /// mechanism totals keep accumulating from zero again). Fault
    /// counters and evacuation latencies deliberately survive the reset
    /// — see [`FaultStats`] — while the per-phase latency windows are
    /// cleared like every other latency sample.
    pub fn reset_for_measurement(&mut self) {
        self.component_latency = LatencyRecorder::with_capacity(self.sample_hint.0);
        self.overall_latency = LatencyRecorder::with_capacity(self.sample_hint.1);
        self.stats = TechniqueStats::default();
        self.phase_latency = Default::default();
        self.degraded_latency = LatencyRecorder::new();
    }

    /// Records one resolved orphan's kill→re-placement latency.
    pub fn record_evacuation(&mut self, latency: SimDuration) {
        let secs = latency.as_secs_f64();
        self.evac_sum += secs;
        self.evac_max = self.evac_max.max(secs);
        self.evac_count += 1;
    }

    /// Assembles the fault report at run end.
    pub fn fault_report(&self, unresolved_orphans: u64) -> FaultReport {
        FaultReport {
            stats: self.fault_stats,
            evacuation_mean: if self.evac_count > 0 {
                self.evac_sum / self.evac_count as f64
            } else {
                0.0
            },
            evacuation_max: self.evac_max,
            unresolved_orphans,
            pre_fault: self.phase_latency[FaultPhase::Pre as usize].summary(),
            during_fault: self.phase_latency[FaultPhase::During as usize].summary(),
            post_fault: self.phase_latency[FaultPhase::Post as usize].summary(),
            degraded: self.degraded_latency.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_unit_conversions() {
        let mut rec = LatencyRecorder::new();
        for i in 1..=100 {
            rec.record_secs(i as f64 / 1000.0);
        }
        let report = RunReport {
            technique: "Basic".into(),
            arrival_rate: 100.0,
            measured_from: SimTime::from_secs(10),
            ended_at: SimTime::from_secs(70),
            component_latency: rec.summary(),
            overall_latency: rec.summary(),
            stats: TechniqueStats::default(),
            faults: FaultReport::default(),
            autoscale: AutoscaleReport::default(),
            events_processed: 0,
            scheduler_cost: None,
            observe: None,
        };
        assert!((report.component_p99_ms() - 99.01).abs() < 0.1);
        assert!((report.overall_mean_ms() - 50.5).abs() < 0.01);
    }

    #[test]
    fn collectors_reset_cleanly() {
        let mut c = Collectors::default();
        c.component_latency.record_secs(1.0);
        c.stats.executions = 5;
        c.fault_stats.kills = 1;
        c.fault_stats.orphaned = 1;
        c.record_evacuation(SimDuration::from_secs(1));
        c.phase_latency[1].record_secs(0.5);
        c.degraded_latency.record_secs(0.7);
        c.fault_stats.degrades = 2;
        c.reset_for_measurement();
        assert!(c.component_latency.is_empty());
        assert_eq!(c.stats.executions, 0);
        assert!(c.phase_latency[1].is_empty());
        assert!(
            c.degraded_latency.is_empty(),
            "the straggler window resets with the other latency windows"
        );
        assert_eq!(c.fault_stats.degrades, 2, "degrade counters span the run");
        // Fault accounting spans the whole run: a warm-up kill keeps its
        // kill/orphan counters so they stay consistent with the world's
        // orphan state (and the evacuation record survives with them).
        assert_eq!(c.fault_stats.kills, 1);
        assert_eq!(c.fault_stats.orphaned, 1);
        assert_eq!(c.evac_count, 1);
    }

    #[test]
    fn fault_report_evacuation_semantics() {
        let mut c = Collectors::default();
        // No faults at all: evacuation undefined.
        assert_eq!(c.fault_report(0).evacuation_ms(), None);

        c.fault_stats.orphaned = 2;
        c.fault_stats.evacuated = 2;
        c.record_evacuation(SimDuration::from_secs(2));
        c.record_evacuation(SimDuration::from_secs(4));
        let complete = c.fault_report(0);
        assert!(complete.evacuation_complete());
        assert_eq!(complete.evacuation_ms(), Some(4000.0));
        assert!((complete.evacuation_mean - 3.0).abs() < 1e-12);

        // A leftover orphan makes the evacuation latency undefined.
        let incomplete = c.fault_report(1);
        assert!(!incomplete.evacuation_complete());
        assert_eq!(incomplete.evacuation_ms(), None);
    }
}

//! # pcs-sim
//!
//! Discrete-event simulator of the paper's experimental platform: a
//! cluster of nodes hosting a multi-stage online service whose components
//! co-locate with churning batch jobs (paper §VI-A).
//!
//! ## What is simulated
//!
//! * **Nodes** with finite CPU/disk/network capacity and additive
//!   shared-cache pressure; every resident program (batch-job VM or service
//!   component) contributes resource demand ([`cluster`]).
//! * **Batch-job churn**: per-node Poisson arrivals of BigDataBench-like
//!   jobs with input-size-dependent demand and duration ([`cluster`],
//!   driven by `pcs-workloads`). This is the source of *dynamic
//!   performance interference*.
//! * **Ground-truth service times** ([`ground_truth`]): a component's
//!   service time is its class base time inflated by a monotone,
//!   saturating slowdown in the node's contention, times log-normal
//!   intrinsic noise. The predictor never sees this function — it learns
//!   it from monitored samples, exactly as the paper's regression does.
//! * **Multi-stage request flow** ([`request`], [`world`]): Poisson request
//!   arrivals fan out to every partition of each stage in sequence; stage
//!   latency is the max over partitions (paper Eq. 3), overall latency the
//!   sum over stages (Eq. 4). Each physical component is a single-server
//!   FIFO queue (the M/G/1 server of Eq. 2).
//! * **Replication and cancellation** ([`policy`]): dispatch policies
//!   choose which replica instances receive each sub-request, may reissue
//!   laggards, and cancel queued duplicates — with network-delayed
//!   cancellation messages, reproducing the races the paper describes
//!   (two replicas starting near-simultaneously, cancels crossing in
//!   flight).
//! * **Migrations** ([`world`]): a scheduler hook (e.g. the PCS controller)
//!   returns component→node migrations each interval; they take effect
//!   after a configurable delay without interrupting in-flight work,
//!   mirroring the paper's Storm/ZooKeeper deployment path.
//! * **Elastic capacity** ([`autoscale`]): an opt-in autoscaler evaluated
//!   at monitor boundaries joins nodes through a cold-start phase and
//!   retires them through a lossless drain, reporting node-hours against
//!   the tail SLO.
//! * **Observability** ([`observe`]): opt-in deterministic request
//!   timelines, tail-vs-median blame attribution, windowed time-series
//!   and scheduler decision audits — with zero effect on the simulated
//!   trajectory (no randomness consumed, no events scheduled).
//! * **Monitoring** ([`world`], via `pcs-monitor`): per-node contention is
//!   sampled at the paper's 1 s / 60 s cadences with measurement noise;
//!   arrival rates come from sliding-window log profiling.
//!
//! Runs are deterministic under a fixed seed ([`config::SimConfig::seed`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autoscale;
pub mod cluster;
pub mod component;
pub mod config;
pub mod engine;
pub mod faults;
pub mod ground_truth;
pub mod metrics;
pub mod observe;
pub mod placement;
pub mod policy;
pub mod profiler;
pub mod request;
pub mod world;

pub use autoscale::{AutoscaleConfig, AutoscalePolicy, AutoscaleReport, AutoscaleStats};
pub use config::{DeploymentConfig, PlacementStrategy, SimConfig};
pub use engine::{Event, EventQueue};
pub use faults::{FailoverPolicy, FailureDetector, FaultEvent, FaultKind, FaultPlan, NodeStatus};
pub use ground_truth::GroundTruth;
pub use metrics::{FaultReport, FaultStats, RunReport, TechniqueStats};
pub use observe::{
    AuditDecision, BlameShare, IntervalAudit, ObserveConfig, ObserveReport, RequestTimeline,
    Segment, SegmentKind, SeriesRow, TailAttribution,
};
pub use policy::{
    BasicPolicy, DispatchPolicy, MigrationRequest, NoopScheduler, SchedulerContext, SchedulerCost,
    SchedulerHook,
};
pub use request::RequestTable;
pub use world::Simulation;

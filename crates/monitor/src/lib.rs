//! # pcs-monitor
//!
//! The online-monitoring substrate of the PCS framework (paper §III).
//!
//! The paper's monitors continuously observe a running service and deliver
//! two kinds of information to the performance predictor at every
//! scheduling interval:
//!
//! 1. **Workload status** — the request arrival rate, obtained by profiling
//!    the service's running logs (here: [`rate::ArrivalRateEstimator`]).
//! 2. **Resource contention** — per-component contention vectors. The paper
//!    samples system-level information (core usage, I/O bandwidths, from
//!    `/proc`) once per second and micro-architectural information (shared
//!    cache MPKI, from Perf/Oprofile hardware counters) once per minute;
//!    [`sampler::ContentionSampler`] reproduces those two cadences plus
//!    multiplicative measurement noise, so the predictor trains and
//!    predicts on realistic, imperfect observations.
//!
//! [`latency::LatencyRecorder`] counts component and request latencies
//! per whole microsecond, in memory that does not grow with the run, and
//! summarises them exactly for the evaluation metrics (99th-percentile
//! component latency, mean overall service latency);
//! [`latency::ServiceTimeWindow`] tracks the recent service-time moments
//! (x̄, C²ₓ) the M/G/1 model needs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod latency;
pub mod rate;
pub mod sampler;

pub use latency::{cohort_ranges, LatencyRecorder, LatencySummary, ServiceTimeWindow};
pub use rate::ArrivalRateEstimator;
pub use sampler::{ContentionSampler, SamplerConfig};

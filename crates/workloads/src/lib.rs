//! # pcs-workloads
//!
//! Workload substrate for the PCS reproduction: models of the BigDataBench
//! batch jobs the paper co-locates with service components (§II-B, §VI-A),
//! generators for batch-job churn, request arrival processes, and service
//! topology presets (the Nutch search engine of paper Figure 1).
//!
//! The paper characterises batch jobs entirely through their **resource
//! demand profiles** and how those profiles change with workload type,
//! software stack, and input data size:
//!
//! * *Computation semantics*: Sort is I/O-intensive, Bayes classification
//!   is CPU-intensive (floating point), Page Index demands CPU and I/O in
//!   similar measure.
//! * *Software stack*: Hadoop Bayes is CPU-intensive, but Spark Bayes is
//!   I/O-intensive — the same semantics, a different stack, a different
//!   profile.
//! * *Input size*: demand grows with input, e.g. WordCount's CPU
//!   utilisation on a 12-core Xeon is 31 %, 61 % and 79 % at 500 MB, 2 GB
//!   and 8 GB. The [`catalog`] demand curves are saturating functions
//!   calibrated to those anchor points.
//!
//! [`jobgen`] turns the catalog into per-node batch churn (short jobs,
//! seconds to minutes, >90 % small — matching the Google/Facebook trace
//! observations cited by the paper). [`arrivals`] provides the service's
//! request processes: fixed-rate Poisson, a diurnal (sinusoidally
//! modulated) rate and a two-state Markov-modulated Poisson process
//! (MMPP). [`topology`] describes multi-stage services: stages, component
//! classes, base service times, and per-class contention sensitivities
//! consumed by the simulator's ground-truth model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod catalog;
pub mod jobgen;
pub mod topology;

pub use arrivals::{ArrivalPattern, Arrivals};
pub use catalog::{BatchWorkload, Framework, JobSpec};
pub use jobgen::{BatchJobGenerator, JobGenConfig};
pub use topology::{ComponentClass, ServiceTopology, SlowdownSensitivity, Stage};

//! # pcs — Predictive Component-level Scheduling
//!
//! A production-quality Rust reproduction of
//!
//! > Rui Han, Junwei Wang, Siguang Huang, Chenrong Shao, Shulin Zhan,
//! > Jianfeng Zhan, Jose Luis Vazquez-Poletti.
//! > *PCS: Predictive Component-level Scheduling for Reducing Tail Latency
//! > in Cloud Online Services.* ICPP 2015.
//!
//! Large online services compose responses from hundreds of parallel
//! components, so the **tail** (99th percentile) of component latency —
//! not the mean — determines user-visible performance. When components
//! co-locate with churning batch jobs, contention makes individual
//! components stragglers. PCS predicts every component's latency on every
//! node from monitored contention (a per-resource regression feeding an
//! M/G/1 model) and greedily migrates the stragglers wherever the
//! predicted *overall* latency drops the most.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`pcs_core`] | the paper's contribution: predictor, performance matrix, greedy scheduler |
//! | [`pcs_sim`] | discrete-event cluster simulator (the evaluation platform) |
//! | [`pcs_baselines`] | compared techniques: RED-3/5, RI-90/99 |
//! | [`pcs_workloads`] | BigDataBench-like batch jobs, arrival processes, topologies |
//! | [`pcs_monitor`] | contention samplers, rate estimation, latency recording |
//! | [`pcs_regression`] | Eq. 1 regression substrate |
//! | [`pcs_queueing`] | Eq. 2 M/G/1 substrate, percentiles, distributions |
//! | [`pcs_types`] | shared primitives |
//!
//! This umbrella crate adds the [`controller::PcsController`] — the glue
//! that feeds the simulator's monitors into the core scheduler —
//! [`techniques`]: the open registry of compared techniques (the paper's
//! Basic/RED/RI/PCS plus reactive, oracle and capacity-aware baselines) —
//! and [`experiments`]: drivers that regenerate every table and figure of
//! the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use pcs::controller::PcsController;
//! use pcs::experiments::fig6;
//! use pcs::techniques;
//! use pcs_sim::{SimConfig, Simulation};
//! use pcs_workloads::ServiceTopology;
//!
//! // Train the predictor once per component class (profiling campaign) …
//! let topology = ServiceTopology::nutch(24);
//! let models = PcsController::train_for(&topology, Default::default(), 1).unwrap();
//!
//! // … then run the service under any registered technique.
//! let config = SimConfig::paper_like(topology, 200.0, 42);
//! let technique = techniques::parse("pcs").unwrap();
//! let report = fig6::run_cell(&config, technique.as_ref(), &models);
//! println!(
//!     "{} @200 req/s: component p99 {:.2} ms, overall mean {:.2} ms",
//!     report.technique,
//!     report.component_p99_ms(),
//!     report.overall_mean_ms()
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod experiments;
pub mod scenarios;
pub mod tables;
pub mod techniques;
pub mod trace;

pub use controller::PcsController;

// Re-export the workspace so downstream users need a single dependency.
pub use pcs_baselines as baselines;
pub use pcs_core as core;
pub use pcs_monitor as monitor;
pub use pcs_queueing as queueing;
pub use pcs_regression as regression;
pub use pcs_sim as sim;
pub use pcs_types as types;
pub use pcs_workloads as workloads;

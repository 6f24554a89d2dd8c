//! # pcs-core
//!
//! The paper's contribution: the **performance predictor** (paper §IV) and
//! the **component-level scheduling algorithm** (paper §V) of
//!
//! > *PCS: Predictive Component-level Scheduling for Reducing Tail Latency
//! > in Cloud Online Services*, Han et al., ICPP 2015.
//!
//! ## Pipeline
//!
//! ```text
//! monitored contention + arrival rates
//!        │
//!        ▼
//! [predictor]  Eq. 1: RG_ST(U) service-time regression per component class
//!        │      Eq. 2: M/G/1 latency  l = x̄ + λ(1+C²ₓ)/(2µ²(1−ρ))
//!        ▼
//! [service]    Eq. 3: stage latency = max over parallel components
//!        │      Eq. 4: overall latency = sum over sequential stages
//!        ▼
//! [matrix]     Table III contention retargeting; Eq. 5:
//!        │      L[i][j] = loverall − l'overall after migrating cᵢ → nⱼ
//!        ▼
//! [scheduler]  Algorithm 1 greedy loop + Algorithm 2 incremental
//!               matrix maintenance, migration threshold ε
//! ```
//!
//! The crate is simulator-agnostic: it consumes plain snapshots
//! ([`inputs::MatrixInputs`]) that any monitoring pipeline can produce.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hierarchical;
pub mod inputs;
pub mod matrix;
pub mod predictor;
pub mod scheduler;
pub mod service;
pub mod training;

pub use hierarchical::HierarchicalScheduler;
pub use inputs::{ComponentInput, MatrixInputs, NodeInput};
pub use matrix::PerformanceMatrix;
pub use predictor::ClassModelSet;
pub use scheduler::{ComponentScheduler, MigrationDecision, ScheduleOutcome, SchedulerConfig};
pub use service::StageLatencyIndex;
pub use training::train_class_models;

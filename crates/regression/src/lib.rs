//! # pcs-regression
//!
//! Regression substrate for the PCS basic performance model (paper §IV-A).
//!
//! The paper predicts a component's service time `x` from its contention
//! vector `U` in two steps:
//!
//! 1. For each shared resource `sr ∈ {core, cache, diskBW, networkBW}`,
//!    train a **univariate** regression `RG(U_sr)` from profiled samples
//!    `{(U_sr,1, x_1), …, (U_sr,v, x_v)}`, and compute a relevance weight
//!    `w_sr` between that resource's contention and the service time.
//! 2. Combine the four models into the final predictor (paper Eq. 1):
//!
//!    ```text
//!    RG_ST(U) = Σ ( w_sr · RG(U_sr) ) / Σ w_sr
//!    ```
//!
//! This crate implements exactly that model family from scratch:
//!
//! * [`linalg`] — tiny dense solver (Gaussian elimination with partial
//!   pivoting) for the normal equations; no external linear-algebra crate.
//! * [`polynomial`] — standardised univariate polynomial least squares with
//!   optional ridge regularisation.
//! * [`model`] — [`UnivariateResourceModel`] (`RG`) and
//!   [`CombinedServiceTimeModel`] (`RG_ST`, Eq. 1) with |Pearson| relevance
//!   weights.
//! * [`dataset`] — [`SampleSet`], the validated `(U, x)` training samples
//!   of one component class.
//! * [`metrics`] — the Pearson relevance weight and the error-bucket
//!   statistic used to reproduce the paper's Figure 5 accuracy analysis
//!   ("<3 % in 63.33 % of cases…").

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod polynomial;

pub use dataset::SampleSet;
pub use metrics::{error_buckets, pearson};
pub use model::{CombinedServiceTimeModel, UnivariateResourceModel};
pub use polynomial::PolynomialModel;

//! # pcs-queueing
//!
//! Queueing-theory substrate for the PCS reproduction.
//!
//! The paper's extended performance model (§IV-B) treats every service
//! component as a single server fed by Poisson arrivals — an **M/G/1**
//! queue — and computes its expected latency with the Pollaczek–Khinchine
//! formula (paper Eq. 2):
//!
//! ```text
//! l = x̄ + λ(1 + C²ₓ) / (2µ²(1 − ρ))
//! ```
//!
//! This crate provides:
//!
//! * [`mg1`] — the M/G/1 latency model with explicit saturation handling
//!   (the paper is silent on ρ ≥ 1; the scheduler needs finite, monotone
//!   values there, see [`Mg1::RHO_KNEE`]), plus the M/M/1 special
//!   case the paper calls out for exponential service times.
//! * [`moments`] — streaming mean/variance accumulators (Welford) used to
//!   turn an interval's predicted service times into the x̄ and C²ₓ inputs
//!   of Eq. 2.
//! * [`percentile`] — the exact sorted-buffer quantile (the reference the
//!   paper's 99th-percentile component-latency metric reproduces bit for
//!   bit) and the streaming P² estimator behind the reissue baselines'
//!   latency thresholds.
//! * [`distributions`] — service-time distributions with analytic moments,
//!   used by tests to validate Eq. 2 against brute-force queue simulation
//!   and by workload generators.
//!
//! All queueing math is in **seconds** (plain `f64`); callers convert from
//! `pcs_types::SimDuration` at the boundary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributions;
pub mod mg1;
pub mod moments;
pub mod percentile;

pub use distributions::{
    standard_normal, Deterministic, Exponential, LogNormal, ServiceDistribution, Uniform,
};
pub use mg1::{Mg1, Mm1, QueueEstimate};
pub use moments::Moments;
pub use percentile::{percentile_sorted, P2Quantile};

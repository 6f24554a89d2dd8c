//! # pcs-harness
//!
//! Experiment orchestration for the PCS reproduction. The paper's
//! evaluation (§VI) is a grid of independent simulation cells — techniques
//! × arrival rates × cluster shapes — and every driver used to reinvent
//! that grid with its own worker loop. This crate owns the shape once:
//!
//! * [`seed`] — per-cell seed derivation via a SplitMix64 mix of
//!   `(base_seed, cell_key)`, so cells never collide and scenarios can
//!   still share one seed across a comparison group;
//! * [`json`] — a small hand-rolled JSON writer (insertion-ordered
//!   objects, shortest round-trip floats) for machine-readable reports,
//!   deliberately serde-free since the build environment has no registry
//!   access;
//! * [`runner`] — a deterministic parallel sweep runner: work-stealing
//!   over cells with results written into index-addressed slots, so the
//!   output order (and therefore the rendered report) is byte-identical
//!   for any thread count;
//! * [`scenario`] — the [`Scenario`] registry row and the plan/result types the
//!   single `pcs` CLI drives; registering a scenario makes it reachable
//!   via `pcs run --scenario <name>` with tables and JSON for free.
//!
//! The crate is dependency-free: scenarios live in the facade crate
//! (which knows about simulators and controllers) and hand this crate
//! closures plus plain data.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod runner;
pub mod scenario;
pub mod seed;

pub use json::Json;
pub use runner::{run_indexed, run_sweep, SweepOutcome};
pub use scenario::{CellOutcome, CellPlan, CellResult, Override, Scenario, SweepParams, SweepPlan};

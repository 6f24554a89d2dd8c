//! Per-cell building blocks of the paper's evaluation artefacts.
//!
//! | module | paper artefact | building blocks |
//! |---|---|---|
//! | [`fig5`] | Figure 5 — performance-model prediction errors across workloads and input sizes | one workload's leave-one-out cases |
//! | [`fig6`] | Figure 6 — overall and 99th-percentile latency of six techniques at six arrival rates | the grid config, a cell's shared-trace seed and sim config, one technique run |
//! | [`fig7`] | Figure 7 — scheduling-algorithm scalability (analysis + search time vs m, k) | one timed (m, k) point on synthetic inputs |
//!
//! The sweeps themselves belong to the scenarios ([`crate::scenarios`]):
//! they lay out the grids, run the cells on the shared parallel runner and
//! reduce them to the rows, series and headline numbers the paper reports.

pub mod fig5;
pub mod fig6;
pub mod fig7;

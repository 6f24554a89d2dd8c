//! Experiment drivers regenerating the paper's evaluation artefacts.
//!
//! | driver | paper artefact |
//! |---|---|
//! | [`fig5`] | Figure 5 — performance-model prediction errors across workloads and input sizes |
//! | [`fig6`] | Figure 6 — overall and 99th-percentile latency of six techniques at six arrival rates, plus the headline reduction numbers |
//! | [`fig7`] | Figure 7 — scheduling-algorithm scalability (analysis + search time vs m, k) |
//!
//! Each driver returns structured results; the `pcs` CLI's scenarios
//! print them as the same rows/series the paper reports.

pub mod fig5;
pub mod fig6;
pub mod fig7;

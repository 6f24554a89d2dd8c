//! New scenarios beyond the paper's evaluation, exercising the widened
//! simulation layer: diurnally modulated arrivals, heterogeneous node
//! capacities, and bursty Markov-modulated (MMPP) arrivals. All produce
//! byte-identical JSON reports across repeated runs and across thread
//! counts at a fixed seed (no wall-clock metrics; cells are pure
//! functions of their seeds).
//!
//! Each scenario sweeps a default technique set from the shared registry
//! ([`crate::techniques`]); `--techniques` swaps in any other registered
//! set — `pcs run --scenario hetero --techniques basic,cap,pcs` compares
//! the capacity-aware placement baseline, for example.

use super::{
    base_grid, kv, pcs_reduction_summary, technique_cell, technique_grid, train_models, Traffic,
    COMPARISON_OVERRIDES, DIURNAL_AMPLITUDE, DIURNAL_PERIOD_SECS, MMPP_DWELL_SECS, MMPP_HIGH,
    MMPP_LOW,
};
use crate::experiments::fig6;
use crate::techniques;
use pcs_harness::{Scenario, SweepParams, SweepPlan};
use pcs_types::NodeCapacity;
use std::error::Error;

/// Diurnal load: the paper sweeps fixed rates "to compare the latency
/// reduction techniques under online services' diurnal variation in
/// load"; this scenario makes the variation explicit with a
/// non-homogeneous Poisson process whose rate swings ±70% around the base
/// over a time-compressed day (period 20 s against the 60 s horizon, so a
/// run sees three full cycles including two rush-hour crests).
pub const DIURNAL: Scenario = Scenario {
    name: "diurnal",
    description: "Techniques under sinusoidally modulated (diurnal) arrivals",
    default_seed: 62016,
    overrides: COMPARISON_OVERRIDES,
    build: diurnal_plan,
};

fn diurnal_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[100.0, 250.0]);
    let techniques = technique_grid(
        params,
        techniques::extended_set(),
        techniques::extended_smoke_set(),
    );
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &technique in &techniques {
            let cfg = cfg.clone();
            cells.push(technique_cell(
                format!("{} @ ~{rate} req/s diurnal", technique.name()),
                vec![
                    kv("rate", rate),
                    kv("technique", technique.name()),
                    kv("amplitude", DIURNAL_AMPLITUDE),
                    kv("period_s", DIURNAL_PERIOD_SECS),
                ],
                technique,
                &models,
                cfg.epsilon_secs,
                move || {
                    let mut sim_config = fig6::cell_config(&cfg, rate);
                    sim_config.arrival_pattern = Traffic::Diurnal.pattern();
                    sim_config
                },
                None,
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(pcs_reduction_summary)),
        notes: vec![format!(
            "rate(t) = base * (1 + {DIURNAL_AMPLITUDE} sin(2 pi t / {DIURNAL_PERIOD_SECS} s)); crests push the queueing term far past the fixed-rate setting"
        )],
    })
}

/// The weaker half's capacity: half a Xeon E5645 box in every dimension.
const WEAK_NODE: NodeCapacity = NodeCapacity {
    cores: 6.0,
    disk_mbps: 100.0,
    net_mbps: 62.5,
};

/// Alternating strong/weak capacities for an `n`-node cluster.
pub fn mixed_capacities(n: usize) -> Vec<NodeCapacity> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                NodeCapacity::XEON_E5645
            } else {
                WEAK_NODE
            }
        })
        .collect()
}

/// Heterogeneous cluster: half the nodes are a generation weaker (half
/// the cores and bandwidths of the paper's Xeon E5645 testbed boxes), so
/// the same absolute batch demand contends twice as hard there. PCS's
/// per-node contention normalisation sees this directly; the blind
/// techniques cannot steer work away from the weak half. The registry's
/// `cap` technique provisions proportionally to capacity instead
/// (`--techniques basic,cap,pcs`).
pub const HETERO: Scenario = Scenario {
    name: "hetero",
    description: "Techniques on a mixed-capacity cluster (alternating full/half-size nodes)",
    default_seed: 62017,
    overrides: COMPARISON_OVERRIDES,
    build: hetero_plan,
};

fn hetero_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[100.0, 300.0]);
    let techniques = technique_grid(
        params,
        techniques::extended_set(),
        techniques::extended_smoke_set(),
    );
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &technique in &techniques {
            let cfg = cfg.clone();
            cells.push(technique_cell(
                format!("{} @ {rate} req/s mixed cluster", technique.name()),
                vec![
                    kv("rate", rate),
                    kv("technique", technique.name()),
                    kv("weak_node_fraction", 0.5),
                ],
                technique,
                &models,
                cfg.epsilon_secs,
                move || {
                    let mut sim_config = fig6::cell_config(&cfg, rate);
                    sim_config.node_capacities = Some(mixed_capacities(sim_config.node_count));
                    sim_config
                },
                None,
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(pcs_reduction_summary)),
        notes: vec![
            "odd-indexed nodes have half the cores/disk/net of the paper's Xeon E5645 boxes; the `cap` technique provisions proportionally to capacity"
                .to_string(),
        ],
    })
}

/// The MMPP sweep's default technique set: the extended comparison
/// families plus the reactive and oracle baselines.
fn mmpp_set() -> Vec<techniques::Technique> {
    vec![
        techniques::basic(),
        techniques::red(3),
        techniques::ri(90.0),
        techniques::ll(),
        techniques::oracle(),
        techniques::pcs(),
    ]
}

/// The MMPP `--smoke` shrink.
fn mmpp_smoke_set() -> Vec<techniques::Technique> {
    vec![techniques::basic(), techniques::ll(), techniques::pcs()]
}

/// Bursty arrivals: a two-state Markov-modulated Poisson process
/// alternating between a calm phase at a quarter of the base rate and a
/// bursty phase at 1.75× (long-run mean = base). Fixed-rate sweeps hide
/// exactly the regime where migration matters most — the onset of a
/// burst, when queues build before any monitor window reflects it — so
/// this scenario also defaults to sweeping the reactive (`ll`) and
/// perfect-monitoring (`oracle`) registry techniques alongside the
/// paper's families.
pub const MMPP: Scenario = Scenario {
    name: "mmpp",
    description: "Techniques under bursty two-state Markov-modulated Poisson arrivals",
    default_seed: 62018,
    overrides: COMPARISON_OVERRIDES,
    build: mmpp_plan,
};

fn mmpp_plan(params: &SweepParams) -> Result<SweepPlan, Box<dyn Error>> {
    let cfg = base_grid(params, &[100.0, 250.0]);
    let techniques = technique_grid(params, mmpp_set(), mmpp_smoke_set());
    let models = train_models(&cfg);
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for &technique in &techniques {
            let cfg = cfg.clone();
            cells.push(technique_cell(
                format!("{} @ ~{rate} req/s mmpp", technique.name()),
                vec![
                    kv("rate", rate),
                    kv("technique", technique.name()),
                    kv("low_multiplier", MMPP_LOW),
                    kv("high_multiplier", MMPP_HIGH),
                    kv("mean_dwell_s", MMPP_DWELL_SECS),
                ],
                technique,
                &models,
                cfg.epsilon_secs,
                move || {
                    let mut sim_config = fig6::cell_config(&cfg, rate);
                    sim_config.arrival_pattern = Traffic::Mmpp.pattern();
                    sim_config
                },
                None,
            ));
        }
    }
    Ok(SweepPlan {
        cells,
        summarize: Some(Box::new(pcs_reduction_summary)),
        notes: vec![format!(
            "two-state MMPP: calm {MMPP_LOW}x / burst {MMPP_HIGH}x the base rate, mean dwell {MMPP_DWELL_SECS} s per state (long-run mean = base)"
        )],
    })
}

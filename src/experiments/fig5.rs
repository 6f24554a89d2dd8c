//! Figure 5: prediction accuracy of the performance model.
//!
//! Paper §VI-B: each searching component runs in a small VM co-located
//! with a 4-core batch VM executing one workload at one input size. Hadoop
//! workloads are tested at 20 input sizes (50 MB–4 GB), Spark workloads at
//! 10 sizes (200 MB–7 GB) — 90 cases total. For each case the regression
//! is trained on *other* runs of the same workload (historical logs,
//! leave-one-out here) and its prediction is compared against the measured
//! service time.
//!
//! Paper results: errors < 3 % / 5 % / 8 % in 63.33 % / 82.22 % / 96.67 %
//! of cases; mean error 2.68 %.

use pcs_monitor::SamplerConfig;
use pcs_regression::{CombinedServiceTimeModel, SampleSet};
use pcs_sim::profiler::{measure_mean_service, profile_class};
use pcs_types::{NodeCapacity, ResourceVector};
use pcs_workloads::{BatchWorkload, JobSpec, ServiceTopology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One (workload, input size) accuracy case.
#[derive(Debug, Clone)]
pub struct Fig5Case {
    /// The co-located batch workload.
    pub workload: BatchWorkload,
    /// Its input size (MB).
    pub input_mb: f64,
    /// Predicted mean service time (ms).
    pub predicted_ms: f64,
    /// Measured mean service time (ms).
    pub actual_ms: f64,
    /// Absolute percentage error.
    pub error_pct: f64,
}

/// Experiment knobs (defaults reproduce the paper's setup).
#[derive(Debug, Clone, Copy)]
pub struct Fig5Config {
    /// RNG seed.
    pub seed: u64,
    /// Monitored samples collected per profiling point.
    pub samples_per_point: usize,
    /// Service-time draws averaged per monitored sample (requests served
    /// within one monitoring window).
    pub draws_per_sample: usize,
    /// Ground-truth draws used to measure the "actual" mean service time.
    pub measure_draws: usize,
}

/// Batch VM core cap (paper: 4-core VM).
const VM_CORES: f64 = 4.0;

/// Scale of per-run background system-activity demand (paper §II-A:
/// storage GC, kernel daemons, maintenance also perturb service time).
/// Each profiling or measurement run draws its own background load, so
/// historical training runs and the measured run genuinely differ — the
/// realistic source of the paper's 3–8 % error tail.
const BACKGROUND_SCALE: f64 = 2.2;

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            seed: 20151511,
            samples_per_point: 60,
            draws_per_sample: 50,
            measure_draws: 20_000,
        }
    }
}

/// Draws one run's background system-activity demand: uniform up to
/// [`BACKGROUND_SCALE`] × (0.9 cores, 2.5 MPKI, 14 MB/s disk, 7 MB/s net).
fn background_demand(rng: &mut SmallRng) -> ResourceVector {
    ResourceVector::new(
        rng.gen::<f64>() * 0.9 * BACKGROUND_SCALE,
        rng.gen::<f64>() * 2.5 * BACKGROUND_SCALE,
        rng.gen::<f64>() * 14.0 * BACKGROUND_SCALE,
        rng.gen::<f64>() * 7.0 * BACKGROUND_SCALE,
    )
}

/// Runs the leave-one-out accuracy cases of one workload.
///
/// Workloads are mutually independent (every per-case RNG stream is
/// derived from `config.seed`, the workload and the case index), so the
/// `fig5` scenario runs one workload per cell in parallel without
/// changing any case.
pub fn run_workload(workload: BatchWorkload, config: &Fig5Config) -> Vec<Fig5Case> {
    let topology = ServiceTopology::nutch(1);
    let classes = topology.classes();
    let searching_class = 1; // segment=0, search=1, aggregate=2
    let capacity = NodeCapacity::XEON_E5645;

    let mut cases = Vec::new();
    {
        let grid = workload.figure5_input_grid();
        let demands: Vec<_> = grid
            .iter()
            .map(|&mb| JobSpec::new(workload, mb).capped_to_vm(VM_CORES).demand)
            .collect();

        for (test_idx, &input_mb) in grid.iter().enumerate() {
            let mut bg_rng = SmallRng::seed_from_u64(
                config.seed ^ 0xb0_67 ^ (test_idx as u64) << 8 ^ ((workload as u64) << 40),
            );
            // Leave-one-out: train on every other input size of this
            // workload ("historical running information"). Every historical
            // run carries its own background system activity.
            let train_schedule: Vec<_> = demands
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != test_idx)
                .map(|(_, d)| *d + background_demand(&mut bg_rng))
                .collect();
            let samples: SampleSet = profile_class(
                classes,
                searching_class,
                capacity,
                &train_schedule,
                config.samples_per_point,
                config.draws_per_sample,
                SamplerConfig::PAPER,
                config.seed ^ (test_idx as u64) ^ ((workload as u64) << 32),
            );
            // Degree 2, though PCS schedules with degree-3 models (README,
            // "Parts of the paper not implemented").
            let model = CombinedServiceTimeModel::train(&samples, 2)
                .expect("profiling produced enough samples");

            // The measured run has its own background activity too.
            let test_demand = demands[test_idx] + background_demand(&mut bg_rng);

            // Monitor the test point and predict from the mean observation.
            let observe: SampleSet = profile_class(
                classes,
                searching_class,
                capacity,
                &[test_demand],
                config.samples_per_point,
                config.draws_per_sample,
                SamplerConfig::PAPER,
                config.seed.wrapping_mul(31).wrapping_add(test_idx as u64),
            );
            let mut mean_u = pcs_types::ContentionVector::ZERO;
            for (u, _) in observe.iter() {
                mean_u = mean_u + *u;
            }
            let mean_u = mean_u.scaled(1.0 / observe.len() as f64);
            let predicted = model.predict_clamped(&mean_u);

            let actual = measure_mean_service(
                classes,
                searching_class,
                capacity,
                test_demand,
                config.measure_draws,
                // Like the profiling streams above, the measurement stream
                // is keyed on the workload too — otherwise every workload
                // replays the same measurement noise at a given case index,
                // correlating the errors Figure 5 aggregates.
                config
                    .seed
                    .wrapping_add(0x9e3779b9)
                    .wrapping_add(test_idx as u64)
                    ^ ((workload as u64) << 48),
            );
            let error_pct = 100.0 * ((predicted - actual) / actual).abs();
            cases.push(Fig5Case {
                workload,
                input_mb,
                predicted_ms: predicted * 1e3,
                actual_ms: actual * 1e3,
                error_pct,
            });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_regression::error_buckets;

    #[test]
    fn figure5_reproduces_paper_error_bands() {
        // Smaller sampling budget than the `fig5` scenario for test speed;
        // thresholds are looser than the paper's exact percentages but
        // assert the same qualitative claim: accurate prediction with a
        // low-single-digit mean error.
        let config = Fig5Config {
            samples_per_point: 30,
            measure_draws: 8_000,
            ..Fig5Config::default()
        };
        let errors: Vec<f64> = BatchWorkload::ALL
            .into_iter()
            .flat_map(|workload| run_workload(workload, &config))
            .map(|case| case.error_pct)
            .collect();
        assert_eq!(errors.len(), 3 * 20 + 3 * 10);
        let mean_error_pct = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(
            mean_error_pct < 6.0,
            "mean prediction error {mean_error_pct:.2}% too high (paper: 2.68%)"
        );
        let buckets = error_buckets(&errors, &[3.0, 5.0, 8.0]);
        assert!(
            buckets[2] > 0.80,
            "fewer than 80% of cases below 8% error (paper: 96.67%): {buckets:?}"
        );
        // Buckets are cumulative by construction.
        assert!(buckets[0] <= buckets[1]);
        assert!(buckets[1] <= buckets[2]);
    }
}

//! Batch-job churn generation.
//!
//! The paper's §VI-C setting co-locates every service component with "a mix
//! of batch jobs" whose input sizes range from 1 MB to 10 GB and which
//! arrive and depart continuously — this churn is what makes performance
//! interference *dynamic* and creates the component latency variability PCS
//! schedules against.
//!
//! [`BatchJobGenerator`] produces, per node, a Poisson stream of
//! [`JobSpec`]s with log-uniform input sizes and a configurable workload
//! mix. Log-uniform sizes reproduce the trace observation the paper cites
//! (Google/Facebook: >90 % of jobs are small, but big jobs exist and
//! matter).

use crate::catalog::{BatchWorkload, JobSpec};
use pcs_queueing::{Exponential, ServiceDistribution};
use pcs_types::{ensure, PcsError, SimDuration};
use rand::Rng;

/// Configuration for per-node batch-job churn.
#[derive(Debug, Clone)]
pub struct JobGenConfig {
    /// Mean gap between job arrivals on one node (seconds).
    pub mean_interarrival_secs: f64,
    /// Smallest input size (MB).
    pub min_input_mb: f64,
    /// Largest input size (MB).
    pub max_input_mb: f64,
    /// Workload mix: `(workload, weight)` pairs; weights need not sum to 1.
    pub mix: Vec<(BatchWorkload, f64)>,
    /// Optional per-job VM core cap (the batch VM size); `None` lets jobs
    /// use their full catalog demand.
    pub vm_core_cap: Option<f64>,
    /// Optional per-job VM I/O throttles `(disk MB/s, net MB/s)` — the
    /// bandwidth share a batch VM gets on a multi-tenant node.
    pub vm_io_cap: Option<(f64, f64)>,
    /// Multiplier on catalog job durations. Time-compressed experiments
    /// shrink durations so churn reaches steady state within a short
    /// horizon (1.0 = catalog durations).
    pub duration_scale: f64,
}

impl JobGenConfig {
    /// The paper's §VI-C evaluation mix: all six workloads, equal weights,
    /// inputs from 1 MB to 10 GB, batch VMs of 4 cores.
    pub fn paper_mix(mean_interarrival_secs: f64) -> Self {
        JobGenConfig {
            mean_interarrival_secs,
            min_input_mb: 1.0,
            max_input_mb: 10_240.0,
            mix: BatchWorkload::ALL.iter().map(|&w| (w, 1.0)).collect(),
            vm_core_cap: Some(4.0),
            // A 4-core VM on a 12-core node gets a third of the node's
            // disk (200 MB/s) and network (125 MB/s) bandwidth.
            vm_io_cap: Some((67.0, 42.0)),
            duration_scale: 1.0,
        }
    }

    /// The paper mix with durations compressed by `scale` (e.g. 0.1 turns
    /// minutes-long jobs into seconds-long ones while preserving the
    /// demand profiles and the arrival/duration ratio of the churn).
    pub fn paper_mix_compressed(mean_interarrival_secs: f64, scale: f64) -> Self {
        let mut cfg = JobGenConfig::paper_mix(mean_interarrival_secs);
        cfg.duration_scale = scale;
        cfg
    }

    /// Checks the churn invariants [`BatchJobGenerator`] relies on.
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] for a non-positive interarrival,
    /// duration scale or VM cap, an empty or inverted size range, or a mix
    /// without a positive finite weight.
    pub fn validate(&self) -> Result<(), PcsError> {
        ensure!(
            self.mean_interarrival_secs > 0.0 && self.mean_interarrival_secs.is_finite(),
            "jobgen",
            "mean interarrival must be positive"
        );
        ensure!(
            self.min_input_mb > 0.0 && self.max_input_mb >= self.min_input_mb,
            "jobgen",
            "input size range must satisfy 0 < min <= max"
        );
        ensure!(
            !self.mix.is_empty(),
            "jobgen",
            "workload mix must not be empty"
        );
        ensure!(
            self.mix.iter().all(|(_, w)| *w >= 0.0 && w.is_finite()),
            "jobgen",
            "mix weights must be non-negative"
        );
        ensure!(
            self.mix.iter().map(|(_, w)| w).sum::<f64>() > 0.0,
            "jobgen",
            "at least one mix weight must be positive"
        );
        ensure!(
            self.duration_scale > 0.0 && self.duration_scale.is_finite(),
            "jobgen",
            "duration scale must be positive"
        );
        ensure!(
            self.vm_core_cap.is_none_or(|c| c > 0.0 && c.is_finite())
                && self
                    .vm_io_cap
                    .is_none_or(|(disk, net)| disk > 0.0 && net > 0.0),
            "jobgen",
            "VM core and I/O caps must be positive"
        );
        Ok(())
    }
}

/// Generates a stream of batch jobs for one node.
#[derive(Debug, Clone)]
pub struct BatchJobGenerator {
    config: JobGenConfig,
    interarrival: Exponential,
    total_weight: f64,
}

impl BatchJobGenerator {
    /// Creates a generator from a config that passed
    /// [`JobGenConfig::validate`].
    pub fn new(config: JobGenConfig) -> Self {
        let interarrival = Exponential::with_mean(config.mean_interarrival_secs);
        let total_weight = config.mix.iter().map(|(_, w)| w).sum();
        BatchJobGenerator {
            config,
            interarrival,
            total_weight,
        }
    }

    /// Samples the gap until the next job arrival on this node.
    pub fn next_interarrival<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_secs_f64(self.interarrival.sample(rng))
    }

    /// Samples the next job: a workload drawn from the mix at a log-uniform
    /// input size, optionally capped to the batch VM allocation, with the
    /// configured duration compression applied.
    pub fn next_job<R: Rng + ?Sized>(&self, rng: &mut R) -> JobSpec {
        let workload = self.pick_workload(rng);
        let input_mb = self.pick_input_size(rng);
        let mut spec = JobSpec::new(workload, input_mb);
        if let Some(cap) = self.config.vm_core_cap {
            spec = spec.capped_to_vm(cap);
        }
        if let Some((disk, net)) = self.config.vm_io_cap {
            spec = spec.capped_io(disk, net);
        }
        if self.config.duration_scale != 1.0 {
            spec.duration = spec.duration.mul_f64(self.config.duration_scale);
        }
        spec
    }

    /// The generator's configuration.
    pub fn config(&self) -> &JobGenConfig {
        &self.config
    }

    fn pick_workload<R: Rng + ?Sized>(&self, rng: &mut R) -> BatchWorkload {
        let mut ticket = rng.gen::<f64>() * self.total_weight;
        for (w, weight) in &self.config.mix {
            ticket -= weight;
            if ticket <= 0.0 {
                return *w;
            }
        }
        // Floating-point slack: fall back to the last positive-weight entry.
        self.config
            .mix
            .iter()
            .rev()
            .find(|(_, w)| *w > 0.0)
            .map(|(w, _)| *w)
            .expect("validated mix has a positive weight")
    }

    fn pick_input_size<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let lo = self.config.min_input_mb.ln();
        let hi = self.config.max_input_mb.ln();
        if hi - lo < 1e-12 {
            return self.config.min_input_mb;
        }
        (lo + rng.gen::<f64>() * (hi - lo)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn generates_jobs_within_configured_range() {
        let gen = BatchJobGenerator::new(JobGenConfig::paper_mix(30.0));
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..2000 {
            let job = gen.next_job(&mut rng);
            assert!(job.input_mb >= 1.0 && job.input_mb <= 10_240.0);
            assert!(job.demand.is_valid());
            assert!(job.demand.cores <= 4.0 + 1e-9, "capped to the 4-core VM");
        }
    }

    #[test]
    fn log_uniform_sizes_favour_small_jobs() {
        // Paper §I: >90 % of data-center batch jobs are short/small. With a
        // log-uniform draw over [1 MB, 10 GB], half the jobs sit below
        // ~100 MB (the geometric midpoint).
        let gen = BatchJobGenerator::new(JobGenConfig::paper_mix(30.0));
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 20_000;
        let small = (0..n)
            .filter(|_| gen.next_job(&mut rng).input_mb < 101.2)
            .count();
        let frac = small as f64 / n as f64;
        assert!(
            (frac - 0.5).abs() < 0.02,
            "expected ~50% below geometric midpoint, got {frac}"
        );
    }

    #[test]
    fn mix_weights_are_respected() {
        let config = JobGenConfig {
            mean_interarrival_secs: 10.0,
            min_input_mb: 10.0,
            max_input_mb: 100.0,
            mix: vec![
                (BatchWorkload::HadoopBayes, 3.0),
                (BatchWorkload::SparkSort, 1.0),
            ],
            vm_core_cap: None,
            vm_io_cap: None,
            duration_scale: 1.0,
        };
        let gen = BatchJobGenerator::new(config);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for _ in 0..10_000 {
            *counts
                .entry(gen.next_job(&mut rng).workload.name())
                .or_default() += 1;
        }
        let bayes = counts["Hadoop Bayes"] as f64;
        let sort = counts["Spark Sort"] as f64;
        let ratio = bayes / sort;
        assert!(
            (ratio - 3.0).abs() < 0.3,
            "expected 3:1 mix, observed {ratio:.2}:1"
        );
        assert_eq!(counts.len(), 2, "only configured workloads may appear");
    }

    #[test]
    fn interarrival_matches_configured_mean() {
        let gen = BatchJobGenerator::new(JobGenConfig::paper_mix(30.0));
        let mut rng = SmallRng::seed_from_u64(23);
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| gen.next_interarrival(&mut rng).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 30.0).abs() / 30.0 < 0.02);
    }

    #[test]
    fn degenerate_size_range_is_constant() {
        let config = JobGenConfig {
            mean_interarrival_secs: 10.0,
            min_input_mb: 64.0,
            max_input_mb: 64.0,
            mix: vec![(BatchWorkload::SparkSort, 1.0)],
            vm_core_cap: None,
            vm_io_cap: None,
            duration_scale: 1.0,
        };
        let gen = BatchJobGenerator::new(config);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(gen.next_job(&mut rng).input_mb, 64.0);
    }

    #[test]
    fn duration_scale_compresses_jobs() {
        let gen_full = BatchJobGenerator::new(JobGenConfig::paper_mix(30.0));
        let gen_fast = BatchJobGenerator::new(JobGenConfig::paper_mix_compressed(30.0, 0.1));
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let a = gen_full.next_job(&mut r1);
        let b = gen_fast.next_job(&mut r2);
        assert_eq!(a.workload, b.workload);
        let ratio = b.duration.as_secs_f64() / a.duration.as_secs_f64();
        assert!((ratio - 0.1).abs() < 1e-6, "duration ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "mix must not be empty")]
    fn empty_mix_rejected() {
        let config = JobGenConfig {
            mean_interarrival_secs: 10.0,
            min_input_mb: 1.0,
            max_input_mb: 2.0,
            mix: vec![],
            vm_core_cap: None,
            vm_io_cap: None,
            duration_scale: 1.0,
        };
        panic!("{}", config.validate().expect_err("must be rejected"));
    }
}

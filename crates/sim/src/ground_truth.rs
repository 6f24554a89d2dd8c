//! The simulator's ground-truth performance model.
//!
//! A component's actual service time is
//!
//! ```text
//! x = base · slowdown(U_node) · noise
//! ```
//!
//! where `slowdown` is the class's [`SlowdownSensitivity`](pcs_workloads::SlowdownSensitivity) curve over the
//! node's *current* contention (monotone, convex below saturation, steeper
//! beyond — see `pcs-workloads::topology`), and `noise` is log-normal with
//! mean 1 and the class's intrinsic SCV.
//!
//! This function is the simulator's private truth. The PCS predictor only
//! ever sees (a) noisy monitored contention samples and (b) realised
//! service times, from which it must *learn* the relationship — mirroring
//! the paper's profiling-based regression. Prediction accuracy (paper
//! Fig. 5) is therefore a measured outcome, not a modelling assumption.

use pcs_queueing::{LogNormal, ServiceDistribution};
use pcs_types::ContentionVector;
use pcs_workloads::ComponentClass;
use rand::Rng;

/// Ground-truth service-time sampler for a set of component classes.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    classes: Vec<ClassTruth>,
}

#[derive(Debug, Clone)]
struct ClassTruth {
    base_secs: f64,
    sensitivity: pcs_workloads::SlowdownSensitivity,
    /// Log-normal multiplicative noise with mean 1.0 and the class SCV;
    /// `None` for SCV = 0 (deterministic).
    noise: Option<LogNormal>,
}

impl GroundTruth {
    /// Builds the ground truth from the topology's class table.
    pub fn new(classes: &[ComponentClass]) -> Self {
        let classes = classes
            .iter()
            .map(|c| ClassTruth {
                base_secs: c.base_service_secs,
                sensitivity: c.sensitivity,
                noise: if c.service_scv > 0.0 {
                    Some(LogNormal::with_mean_scv(1.0, c.service_scv))
                } else {
                    None
                },
            })
            .collect();
        GroundTruth { classes }
    }

    /// The *expected* service time of a class under contention `u` (the
    /// noiseless mean — what a perfect predictor would output).
    pub fn mean_service_time(&self, class: usize, u: &ContentionVector) -> f64 {
        let c = &self.classes[class];
        c.base_secs * c.sensitivity.slowdown(u)
    }

    /// Draws one realised service time for a class under contention `u`.
    pub fn sample_service_time<R: Rng + ?Sized>(
        &self,
        class: usize,
        u: &ContentionVector,
        rng: &mut R,
    ) -> f64 {
        let mean = self.mean_service_time(class, u);
        self.sample_with_mean(class, mean, rng)
    }

    /// Draws one realised service time around an already-computed mean —
    /// the hot-path form for callers that memoise
    /// [`GroundTruth::mean_service_time`] between contention changes.
    pub fn sample_with_mean<R: Rng + ?Sized>(&self, class: usize, mean: f64, rng: &mut R) -> f64 {
        match &self.classes[class].noise {
            Some(noise) => mean * noise.sample(rng),
            None => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_queueing::Moments;
    use pcs_types::ResourceVector;
    use pcs_workloads::SlowdownSensitivity;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn classes() -> Vec<ComponentClass> {
        vec![
            ComponentClass::new(
                "deterministic",
                0.002,
                0.0,
                SlowdownSensitivity::NONE,
                ResourceVector::ZERO,
            ),
            ComponentClass::new(
                "noisy",
                0.001,
                0.8,
                SlowdownSensitivity {
                    core: 1.0,
                    cache: 1.0,
                    disk: 1.0,
                    net: 1.0,
                },
                ResourceVector::ZERO,
            ),
        ]
    }

    #[test]
    fn deterministic_class_returns_base() {
        let gt = GroundTruth::new(&classes());
        let mut rng = SmallRng::seed_from_u64(1);
        let x = gt.sample_service_time(0, &ContentionVector::ZERO, &mut rng);
        assert_eq!(x, 0.002);
    }

    #[test]
    fn contention_inflates_mean() {
        let gt = GroundTruth::new(&classes());
        let idle = gt.mean_service_time(1, &ContentionVector::ZERO);
        let busy = gt.mean_service_time(1, &ContentionVector::new(0.8, 20.0, 0.5, 0.3));
        assert!(
            busy > idle * 1.2,
            "contention must visibly inflate: {busy} vs {idle}"
        );
    }

    #[test]
    fn noise_has_target_mean_and_scv() {
        let gt = GroundTruth::new(&classes());
        let mut rng = SmallRng::seed_from_u64(7);
        let u = ContentionVector::new(0.4, 5.0, 0.2, 0.1);
        let expected_mean = gt.mean_service_time(1, &u);
        let mut m = Moments::new();
        for _ in 0..200_000 {
            m.push(gt.sample_service_time(1, &u, &mut rng));
        }
        assert!(
            (m.mean() - expected_mean).abs() / expected_mean < 0.02,
            "sample mean {} vs expected {expected_mean}",
            m.mean()
        );
        assert!(
            (m.scv() - 0.8).abs() < 0.08,
            "sample SCV {} vs configured 0.8",
            m.scv()
        );
    }

    #[test]
    fn samples_are_always_positive() {
        let gt = GroundTruth::new(&classes());
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = gt.sample_service_time(1, &ContentionVector::ZERO, &mut rng);
            assert!(x > 0.0);
        }
    }
}

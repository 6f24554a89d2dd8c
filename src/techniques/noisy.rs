//! `PCS-N<σ>`: the PCS controller with seeded multiplicative noise on
//! its demand estimates.
//!
//! The `oracle` technique bounds PCS from above (perfect inputs); this
//! family sweeps the other direction: every live node's demand estimate
//! is multiplied by a fresh mean-one log-normal factor of parameter σ at
//! every interval ([`PcsController::with_demand_noise`]), measuring how
//! gracefully the same Algorithm 1 degrades as its inputs get worse.
//! σ = 0 builds no noise object at all, so `pcs-n0` is byte-identical to
//! plain `pcs`.

use super::{minimal_percent, TechniqueEnv, TechniqueSpec};
use crate::controller::PcsController;
use pcs_core::SchedulerConfig;
use pcs_sim::{BasicPolicy, DispatchPolicy, SchedulerHook};

/// Largest accepted noise σ. exp(4²/2) ≈ 3000× median-to-mean spread —
/// far beyond any informative operating point; larger values only invite
/// overflow in the log-normal moments.
pub const MAX_NOISE_SIGMA: f64 = 4.0;

/// The `PCS-N<σ>` technique: PCS under prediction-error injection.
#[derive(Debug, Clone, Copy)]
pub struct PcsNoiseSpec {
    /// Noise parameter σ of the underlying normal. Stored as given (−0
    /// aside) so the name round-trips the user's token exactly (like
    /// `RiSpec`).
    sigma: f64,
}

impl PcsNoiseSpec {
    /// Creates PCS-N for a noise parameter σ, e.g. `0.3` or `1`. A σ of
    /// −0 passes the range check and is stored as 0, so it never names a
    /// second `PCS-N-0` variant of plain PCS.
    ///
    /// # Panics
    /// Panics unless `0 <= sigma <= MAX_NOISE_SIGMA` and finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && (0.0..=MAX_NOISE_SIGMA).contains(&sigma),
            "PCS-N needs sigma in 0..={MAX_NOISE_SIGMA}, got {sigma}"
        );
        // IEEE −0 + 0 = +0; every other σ is unchanged.
        PcsNoiseSpec { sigma: sigma + 0.0 }
    }
}

impl TechniqueSpec for PcsNoiseSpec {
    fn name(&self) -> String {
        format!("PCS-N{}", minimal_percent(self.sigma))
    }

    fn description(&self) -> String {
        format!(
            "PCS with mean-one log-normal noise (sigma {}) on its demand estimates",
            minimal_percent(self.sigma)
        )
    }

    fn replication(&self) -> usize {
        1
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(BasicPolicy)
    }

    fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(
            PcsController::new(
                env.models.clone(),
                SchedulerConfig {
                    epsilon_secs: env.epsilon_secs,
                    ..SchedulerConfig::PAPER
                },
            )
            .with_demand_noise(self.sigma),
        )
    }
}

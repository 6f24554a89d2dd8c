//! The paper's §VI-A compared techniques as [`TechniqueSpec`]s: Basic,
//! RED-k, RI-p and PCS itself.

use super::{TechniqueEnv, TechniqueSpec};
use crate::controller::PcsController;
use pcs_baselines::{RedundancyPolicy, ReissuePolicy};
use pcs_core::SchedulerConfig;
use pcs_sim::{BasicPolicy, DispatchPolicy, NoopScheduler, SchedulerHook};

/// Renders a reissue percentile (in percent) as its minimal-exact
/// string: `90.0` → `"90"`, `99.5` → `"99.5"`, `99.51` → `"99.51"`.
///
/// Rust's shortest-round-trip `f64` display guarantees distinct
/// percentiles render distinctly — the previous `{:.0}` formatting
/// collapsed 99.5 and 99.51 both to `"100"` and could not round-trip.
/// The percent is the *stored* parameter (not recomputed from a
/// fraction), so a CLI token like `ri-29` renders back as exactly
/// `RI-29`.
pub fn minimal_percent(percent: f64) -> String {
    format!("{percent}")
}

/// `Basic`: one instance per partition, no redundancy, no reissue, no
/// migrations — the paper's do-nothing baseline.
#[derive(Debug, Clone, Copy)]
pub struct BasicSpec;

impl TechniqueSpec for BasicSpec {
    fn name(&self) -> String {
        "Basic".into()
    }

    fn description(&self) -> String {
        "no redundancy, no reissue, no migrations".into()
    }

    fn replication(&self) -> usize {
        1
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(BasicPolicy)
    }

    fn make_hook(&self, _env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(NoopScheduler)
    }
}

/// `RED-k`: every partition sub-request fans out to `k` replicas, the
/// quickest response wins, queued duplicates are cancelled.
#[derive(Debug, Clone, Copy)]
pub struct RedSpec {
    k: usize,
}

impl RedSpec {
    /// Creates RED-k.
    ///
    /// # Panics
    /// Panics unless `2 <= k <= 8` (the simulator caps replica groups at
    /// 8 instances).
    pub fn new(k: usize) -> Self {
        assert!((2..=8).contains(&k), "RED-k needs k in 2..=8, got {k}");
        RedSpec { k }
    }
}

impl TechniqueSpec for RedSpec {
    fn name(&self) -> String {
        format!("RED-{}", self.k)
    }

    fn description(&self) -> String {
        format!("request redundancy, {} parallel replicas", self.k)
    }

    fn replication(&self) -> usize {
        self.k
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(RedundancyPolicy::new(self.k))
    }

    fn make_hook(&self, _env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(NoopScheduler)
    }
}

/// `RI-p`: a sub-request is reissued to a backup replica once it has been
/// outstanding longer than the class's p-th latency percentile.
#[derive(Debug, Clone, Copy)]
pub struct RiSpec {
    /// Reissue percentile in percent, `(0, 100)` — the unit the CLI and
    /// the display name use. Stored as given so the name round-trips the
    /// user's token exactly (converting through a fraction would turn
    /// `ri-29` into `RI-28.999999999999996`).
    percent: f64,
}

impl RiSpec {
    /// Creates RI-p for a percentile in percent, e.g. `90.0` or `99.5`.
    ///
    /// # Panics
    /// Panics unless `0 < percent < 100`.
    pub fn new(percent: f64) -> Self {
        assert!(
            percent > 0.0 && percent < 100.0,
            "reissue percentile must be in (0,100) percent, got {percent}"
        );
        RiSpec { percent }
    }
}

impl TechniqueSpec for RiSpec {
    fn name(&self) -> String {
        format!("RI-{}", minimal_percent(self.percent))
    }

    fn description(&self) -> String {
        format!(
            "request reissue at the {}% latency percentile",
            minimal_percent(self.percent)
        )
    }

    fn replication(&self) -> usize {
        2
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(ReissuePolicy::new(self.percent / 100.0))
    }

    fn make_hook(&self, _env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(NoopScheduler)
    }
}

/// `PCS`: predictive component-level scheduling — the paper's framework,
/// dispatching like Basic and migrating stragglers every interval.
#[derive(Debug, Clone, Copy)]
pub struct PcsSpec;

impl TechniqueSpec for PcsSpec {
    fn name(&self) -> String {
        "PCS".into()
    }

    fn description(&self) -> String {
        "predictive component-level scheduling (this paper)".into()
    }

    fn replication(&self) -> usize {
        1
    }

    fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        Box::new(BasicPolicy)
    }

    fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        Box::new(PcsController::new(
            env.models.clone(),
            SchedulerConfig {
                epsilon_secs: env.epsilon_secs,
                ..SchedulerConfig::PAPER
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names_are_unchanged() {
        assert_eq!(BasicSpec.name(), "Basic");
        assert_eq!(RedSpec::new(3).name(), "RED-3");
        assert_eq!(RedSpec::new(5).name(), "RED-5");
        assert_eq!(RiSpec::new(90.0).name(), "RI-90");
        assert_eq!(RiSpec::new(99.0).name(), "RI-99");
        assert_eq!(PcsSpec.name(), "PCS");
    }

    #[test]
    fn ri_rendering_is_minimal_exact() {
        // The regression the old `{:.0}` formatting could not survive:
        // 99.5 and 99.51 rendered identically ("RI-100") and neither
        // could round-trip through a parser.
        assert_eq!(RiSpec::new(99.5).name(), "RI-99.5");
        assert_eq!(RiSpec::new(99.51).name(), "RI-99.51");
        assert_ne!(RiSpec::new(99.5).name(), RiSpec::new(99.51).name());
        assert_eq!(minimal_percent(50.0), "50");
        // Integral CLI percents stay integral: the percent is stored,
        // never reconstructed from a fraction.
        assert_eq!(RiSpec::new(29.0).name(), "RI-29");
        assert_eq!(RiSpec::new(7.0).name(), "RI-7");
    }

    #[test]
    fn replication_matches_policies() {
        for spec in [
            &RedSpec::new(2) as &dyn TechniqueSpec,
            &RedSpec::new(5),
            &RiSpec::new(99.0),
            &BasicSpec,
            &PcsSpec,
        ] {
            assert_eq!(
                spec.replication(),
                spec.make_policy().replication(),
                "{} spec and policy must agree",
                spec.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "2..=8")]
    fn red_rejects_k1() {
        let _ = RedSpec::new(1);
    }
}

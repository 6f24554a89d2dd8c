//! The open technique registry: every latency-reduction technique the
//! evaluation can compare, behind one pluggable API.
//!
//! The paper's core claim is comparative — PCS against blind
//! redundancy/reissue techniques (§VI-A) — and this module makes the
//! *technique* axis of that comparison open the same way `src/scenarios`
//! made the *scenario* axis open: a technique is a [`TechniqueSpec`]
//! implementation (name, replication, dispatch policy, scheduler hook,
//! optional placement override), and registering it makes it reachable
//! from every sweep scenario via `pcs run --techniques <list>`.
//!
//! | name | technique |
//! |---|---|
//! | `basic` | no redundancy, no reissue, no migrations |
//! | `red-<k>` | request redundancy, k parallel replicas (paper: 3, 5) |
//! | `ri-<p>` | request reissue at the p-th latency percentile (paper: 90, 99) |
//! | `pcs` | predictive component-level scheduling (this paper) |
//! | `pcs+red<k>` | predictive migration under RED-k redundancy (hybrid) |
//! | `pcs-b<n>` | budgeted PCS: ≤ n migrations per interval |
//! | `pcs-h<cap>` | hierarchical rack-aware PCS, ≤ cap components per group (`hier` = cap 64) |
//! | `ll` | least-loaded reactive migration — no prediction |
//! | `oracle` | PCS fed the simulator's exact node demand (upper bound) |
//! | `pcs-n<σ>` | PCS with mean-one log-normal noise (σ) on its demand estimates |
//! | `cap` | capacity-aware initial placement, no runtime scheduling |
//!
//! Names round-trip exactly: [`parse`] accepts any case and
//! [`TechniqueSpec::name`] renders the canonical display form
//! (`parse("ri-99.5")` names itself `RI-99.5` and parses back to an
//! equivalent spec).

mod builtin;
mod capacity;
mod hier;
mod hybrid;
mod noisy;
mod oracle;
mod reactive;

pub use builtin::{minimal_percent, BasicSpec, PcsSpec, RedSpec, RiSpec};
pub use capacity::CapacityAwareSpec;
pub use hier::{HierPcsSpec, DEFAULT_GROUP_CAP, MAX_GROUP_CAP};
pub use hybrid::{BudgetedPcsSpec, HybridRedSpec, MAX_MIGRATION_BUDGET};
pub use noisy::{PcsNoiseSpec, MAX_NOISE_SIGMA};
pub use oracle::OracleSpec;
pub use reactive::{LeastLoadedHook, LeastLoadedSpec};

use pcs_core::ClassModelSet;
use pcs_sim::{DispatchPolicy, PlacementStrategy, SchedulerHook};
use std::fmt;
use std::sync::Arc;

/// A shared, immutable handle to a technique. Sweep configs clone these
/// freely into per-cell closures.
pub type TechniqueRef = Arc<dyn TechniqueSpec>;

/// Everything a technique may consult when building its scheduler hook:
/// the trained per-class latency models and the sweep's migration
/// threshold. Techniques that neither predict nor migrate ignore it.
#[derive(Debug, Clone, Copy)]
pub struct TechniqueEnv<'a> {
    /// Trained Eq. 1 models, one per component class (shared by every
    /// cell of a sweep).
    pub models: &'a ClassModelSet,
    /// The PCS migration threshold ε, in seconds.
    pub epsilon_secs: f64,
}

/// One compared technique: how requests are dispatched, whether and how
/// components migrate, and how the deployment is provisioned.
///
/// Implementations are registered in [`registry`] (and parsed by name via
/// [`parse`]), which makes them selectable on any sweep scenario through
/// `pcs run --techniques <list>`.
pub trait TechniqueSpec: fmt::Debug + Send + Sync {
    /// Canonical display name (`Basic`, `RED-3`, `RI-99.5`, `PCS`, …).
    /// Must round-trip: `parse(name())` yields an equivalent spec.
    fn name(&self) -> String;

    /// One-line description for `pcs list`.
    fn description(&self) -> String;

    /// Physical replica instances this technique needs per partition.
    fn replication(&self) -> usize;

    /// Builds the dispatch policy deciding replica fan-out, reissue and
    /// cancellation.
    fn make_policy(&self) -> Box<dyn DispatchPolicy>;

    /// Builds the scheduler hook run at every scheduling interval.
    fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook>;

    /// Initial-placement override; `None` keeps the scenario's default
    /// (capacity-blind anti-affinity).
    fn placement(&self) -> Option<PlacementStrategy> {
        None
    }
}

/// `Basic`: the no-op baseline.
pub fn basic() -> TechniqueRef {
    Arc::new(BasicSpec)
}

/// `RED-k`: request redundancy with `k` parallel replicas.
///
/// # Panics
/// Panics unless `2 <= k <= 8` (the simulator's replica-group cap).
pub fn red(k: usize) -> TechniqueRef {
    Arc::new(RedSpec::new(k))
}

/// `RI-p`: request reissue at latency percentile `p`, in percent
/// (`90.0`, `99.5`, …) — the unit the CLI names use.
///
/// # Panics
/// Panics unless `0 < p < 100`.
pub fn ri(percent: f64) -> TechniqueRef {
    Arc::new(RiSpec::new(percent))
}

/// `PCS`: predictive component-level scheduling (the paper).
pub fn pcs() -> TechniqueRef {
    Arc::new(PcsSpec)
}

/// `PCS+RED<k>`: predictive migration under RED-k redundancy.
///
/// # Panics
/// Panics unless `2 <= k <= 8`.
pub fn pcs_red(k: usize) -> TechniqueRef {
    Arc::new(HybridRedSpec::new(k))
}

/// `PCS-B<n>`: PCS capped at `n` migrations per scheduling interval.
///
/// # Panics
/// Panics unless `1 <= n <= MAX_MIGRATION_BUDGET`.
pub fn pcs_budgeted(n: usize) -> TechniqueRef {
    Arc::new(BudgetedPcsSpec::new(n))
}

/// `PCS-H<cap>`: hierarchical rack-aware PCS, at most `cap` components
/// per greedy group.
///
/// # Panics
/// Panics unless `1 <= cap <= MAX_GROUP_CAP`.
pub fn pcs_hier(cap: usize) -> TechniqueRef {
    Arc::new(HierPcsSpec::new(cap))
}

/// `LL`: least-loaded reactive migration — no prediction.
pub fn ll() -> TechniqueRef {
    Arc::new(LeastLoadedSpec)
}

/// `Oracle`: PCS fed the simulator's exact node demand.
pub fn oracle() -> TechniqueRef {
    Arc::new(OracleSpec)
}

/// `PCS-N<σ>`: PCS with seeded mean-one log-normal noise of parameter
/// `sigma` on its demand estimates (`pcs-n0` ≡ `pcs`).
///
/// # Panics
/// Panics unless `0 <= sigma <= MAX_NOISE_SIGMA` and finite.
pub fn pcs_noisy(sigma: f64) -> TechniqueRef {
    Arc::new(PcsNoiseSpec::new(sigma))
}

/// `CAP`: capacity-aware initial placement, no runtime scheduling.
pub fn cap() -> TechniqueRef {
    Arc::new(CapacityAwareSpec)
}

/// Every registered technique, canonical instances in display order
/// (parameterised families are represented by their paper instances; any
/// `red-<k>` / `ri-<p>` parses).
pub fn registry() -> Vec<TechniqueRef> {
    vec![
        basic(),
        red(3),
        red(5),
        ri(90.0),
        ri(99.0),
        pcs(),
        pcs_red(2),
        pcs_budgeted(1),
        pcs_hier(DEFAULT_GROUP_CAP),
        ll(),
        oracle(),
        pcs_noisy(0.5),
        cap(),
    ]
}

/// The paper's six techniques in Figure 6 order.
pub fn paper_set() -> Vec<TechniqueRef> {
    vec![basic(), red(3), red(5), ri(90.0), ri(99.0), pcs()]
}

/// The fig6-shaped `--smoke` shrink: one technique per family.
pub fn smoke_set() -> Vec<TechniqueRef> {
    vec![basic(), red(2), pcs()]
}

/// The extended comparisons' default (diurnal/hetero): one representative
/// per family.
pub fn extended_set() -> Vec<TechniqueRef> {
    vec![basic(), red(3), ri(90.0), pcs()]
}

/// The extended comparisons' `--smoke` shrink: Basic vs PCS.
pub fn extended_smoke_set() -> Vec<TechniqueRef> {
    vec![basic(), pcs()]
}

/// True for the techniques the paper's §VI-C headline averages over: the
/// blind redundancy (`RED-k`) and reissue (`RI-p`) baselines, identified
/// by their canonical display names. The single classification point for
/// the headline reductions, which the scenarios' shared reduction summary
/// computes.
pub fn is_redundancy_or_reissue(name: &str) -> bool {
    name.starts_with("RED-") || name.starts_with("RI-")
}

/// A failed technique-name parse, with the valid vocabulary attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechniqueParseError {
    /// The offending token.
    pub token: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for TechniqueParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid technique `{}`: {}; valid techniques: basic, red-<k> (2..=8), \
             ri-<p> (percentile in (0,100), e.g. ri-99.5), pcs, pcs+red<k> (2..=8), \
             pcs-b<n> (1..=64), pcs-h<cap> (1..=1024; `hier` = pcs-h64), \
             pcs-n<sigma> (0..=4, e.g. pcs-n0.5), ll, oracle, cap",
            self.token, self.reason
        )
    }
}

impl std::error::Error for TechniqueParseError {}

fn err(token: &str, reason: impl Into<String>) -> TechniqueParseError {
    TechniqueParseError {
        token: token.to_string(),
        reason: reason.into(),
    }
}

/// Parses one technique name (case-insensitive). Round-trips with
/// [`TechniqueSpec::name`]: `parse(&spec.name())` yields an equivalent
/// spec for every registered technique.
///
/// # Errors
/// Returns a [`TechniqueParseError`] naming the valid vocabulary on an
/// unknown name or an out-of-range family parameter.
pub fn parse(name: &str) -> Result<TechniqueRef, TechniqueParseError> {
    let token = name.trim();
    let lower = token.to_ascii_lowercase();
    match lower.as_str() {
        "basic" => return Ok(basic()),
        "pcs" => return Ok(pcs()),
        "hier" => return Ok(pcs_hier(DEFAULT_GROUP_CAP)),
        "ll" => return Ok(ll()),
        "oracle" => return Ok(oracle()),
        "cap" => return Ok(cap()),
        _ => {}
    }
    if let Some(k) = lower.strip_prefix("pcs+red") {
        let k: usize = k
            .parse()
            .map_err(|_| err(token, "the replica count after `pcs+red` is not an integer"))?;
        if !(2..=8).contains(&k) {
            return Err(err(token, "hybrid replica count must be in 2..=8"));
        }
        return Ok(pcs_red(k));
    }
    if let Some(n) = lower.strip_prefix("pcs-b") {
        let n: usize = n
            .parse()
            .map_err(|_| err(token, "the budget after `pcs-b` is not an integer"))?;
        if !(1..=MAX_MIGRATION_BUDGET).contains(&n) {
            return Err(err(
                token,
                format!("migration budget must be in 1..={MAX_MIGRATION_BUDGET}"),
            ));
        }
        return Ok(pcs_budgeted(n));
    }
    if let Some(cap) = lower.strip_prefix("pcs-h") {
        let cap: usize = cap
            .parse()
            .map_err(|_| err(token, "the group cap after `pcs-h` is not an integer"))?;
        if !(1..=MAX_GROUP_CAP).contains(&cap) {
            return Err(err(
                token,
                format!("group cap must be in 1..={MAX_GROUP_CAP}"),
            ));
        }
        return Ok(pcs_hier(cap));
    }
    if let Some(sigma) = lower.strip_prefix("pcs-n") {
        let sigma: f64 = sigma
            .parse()
            .map_err(|_| err(token, "the sigma after `pcs-n` is not a number"))?;
        if !(sigma.is_finite() && (0.0..=MAX_NOISE_SIGMA).contains(&sigma)) {
            return Err(err(
                token,
                format!("noise sigma must be in 0..={MAX_NOISE_SIGMA}"),
            ));
        }
        return Ok(pcs_noisy(sigma));
    }
    if let Some(k) = lower.strip_prefix("red-") {
        let k: usize = k
            .parse()
            .map_err(|_| err(token, "the replica count after `red-` is not an integer"))?;
        if !(2..=8).contains(&k) {
            return Err(err(token, "replica count must be in 2..=8"));
        }
        return Ok(red(k));
    }
    if let Some(p) = lower.strip_prefix("ri-") {
        let percent: f64 = p
            .parse()
            .map_err(|_| err(token, "the percentile after `ri-` is not a number"))?;
        if !(percent > 0.0 && percent < 100.0) {
            return Err(err(token, "reissue percentile must be in (0, 100)"));
        }
        return Ok(ri(percent));
    }
    Err(err(token, "not a registered technique"))
}

/// Parses a comma-separated technique list (`"red-3,ri-99,pcs"`).
///
/// # Errors
/// Fails on the first invalid token (empty tokens included), with the
/// valid vocabulary in the message, and on a technique named twice (by
/// canonical name, so `pcs,PCS` and `ri-90,ri-90.0` are repeats): a
/// repeated column would be counted twice in every cross-cell summary.
pub fn parse_list(list: &str) -> Result<Vec<TechniqueRef>, TechniqueParseError> {
    let mut out: Vec<TechniqueRef> = Vec::new();
    for token in list.split(',') {
        if token.trim().is_empty() {
            return Err(err(token, "empty technique name"));
        }
        let spec = parse(token)?;
        if out.iter().any(|seen| seen.name() == spec.name()) {
            return Err(err(
                token,
                format!("`{}` is selected more than once", spec.name()),
            ));
        }
        out.push(spec);
    }
    if out.is_empty() {
        return Err(err(list, "empty technique list"));
    }
    Ok(out)
}

/// Resolves a sweep's technique set: CLI-selected names if present (the
/// CLI validates them with [`parse_list`] before the plan is built),
/// otherwise the scenario's default set.
///
/// # Panics
/// Panics on an unparseable name — reachable only when a caller bypasses
/// the CLI validation with a hand-built
/// [`pcs_harness::SweepParams::techniques`].
pub fn resolve(selected: Option<&[String]>, default_set: Vec<TechniqueRef>) -> Vec<TechniqueRef> {
    match selected {
        None => default_set,
        Some(names) => names
            .iter()
            .map(|name| parse(name).unwrap_or_else(|e| panic!("{e}")))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equivalence for round-trip checks: same canonical name, same
    /// replication requirement.
    fn equivalent(a: &dyn TechniqueSpec, b: &dyn TechniqueSpec) -> bool {
        a.name() == b.name() && a.replication() == b.replication()
    }

    #[test]
    fn registry_names_round_trip() {
        for spec in registry() {
            let reparsed =
                parse(&spec.name()).unwrap_or_else(|e| panic!("{} must parse: {e}", spec.name()));
            assert!(
                equivalent(spec.as_ref(), reparsed.as_ref()),
                "{} round-trips to {}",
                spec.name(),
                reparsed.name()
            );
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = registry().iter().map(|s| s.name()).collect();
        for name in &names {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
    }

    #[test]
    fn parse_accepts_the_issue_examples() {
        let specs = parse_list("red-3,ri-99,pcs").unwrap();
        let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["RED-3", "RI-99", "PCS"]);
        // Round-trip the rendered names straight back.
        let again = parse_list(&names.join(",")).unwrap();
        assert_eq!(again.iter().map(|s| s.name()).collect::<Vec<_>>(), names);
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(parse(" PCS ").unwrap().name(), "PCS");
        assert_eq!(parse("Red-5").unwrap().name(), "RED-5");
        assert_eq!(parse("RI-90").unwrap().name(), "RI-90");
        assert_eq!(parse("Oracle").unwrap().name(), "Oracle");
    }

    #[test]
    fn parse_rejects_unknowns_helpfully() {
        let e = parse("warp-drive").unwrap_err();
        let message = e.to_string();
        assert!(message.contains("warp-drive"), "{message}");
        for valid in [
            "basic",
            "red-<k>",
            "ri-<p>",
            "pcs",
            "pcs+red<k>",
            "pcs-b<n>",
            "pcs-h<cap>",
            "pcs-n<sigma>",
            "ll",
            "oracle",
            "cap",
        ] {
            assert!(message.contains(valid), "{message} must list {valid}");
        }
        assert!(parse("red-1").is_err(), "k = 1 is just basic");
        assert!(parse("red-9").is_err(), "beyond the simulator's group cap");
        assert!(parse("ri-0").is_err());
        assert!(parse("ri-100").is_err());
        assert!(parse("pcs+red1").is_err(), "hybrid k = 1 is just pcs");
        assert!(parse("pcs+red9").is_err());
        assert!(parse("pcs-b0").is_err(), "budget 0 would never migrate");
        assert!(parse("pcs-b65").is_err(), "beyond the budget cap");
        assert!(parse("pcs-h0").is_err(), "a zero group cap is degenerate");
        assert!(parse("pcs-h1025").is_err(), "beyond the group-cap limit");
        assert!(parse_list("pcs,,basic").is_err());
        assert!(parse_list("").is_err());
    }

    #[test]
    fn hybrid_and_budgeted_parse_and_round_trip() {
        assert_eq!(parse("pcs+red2").unwrap().name(), "PCS+RED2");
        assert_eq!(parse("PCS+RED3").unwrap().name(), "PCS+RED3");
        assert_eq!(parse("pcs-b1").unwrap().name(), "PCS-B1");
        assert_eq!(parse("Pcs-B16").unwrap().name(), "PCS-B16");
        assert_eq!(parse("pcs+red2").unwrap().replication(), 2);
        assert_eq!(parse("pcs-b4").unwrap().replication(), 1);
        // Neither is a redundancy/reissue baseline: the §VI-C headline
        // mean must not absorb PCS variants.
        assert!(!is_redundancy_or_reissue("PCS+RED2"));
        assert!(!is_redundancy_or_reissue("PCS-B1"));
    }

    #[test]
    fn noisy_parses_and_round_trips() {
        assert_eq!(parse("pcs-n0.5").unwrap().name(), "PCS-N0.5");
        assert_eq!(parse("PCS-N0.5").unwrap().name(), "PCS-N0.5");
        assert_eq!(parse("pcs-n0").unwrap().name(), "PCS-N0");
        assert_eq!(parse("pcs-n1").unwrap().name(), "PCS-N1");
        assert_eq!(parse("pcs-n0.5").unwrap().replication(), 1);
        assert!(parse("pcs-n-0.1").is_err(), "negative sigma");
        assert!(parse("pcs-n4.5").is_err(), "beyond the sigma cap");
        assert!(parse("pcs-nan").is_err(), "`an` is not a number");
        assert!(parse("pcs-ninf").is_err(), "infinite sigma");
        // Not a redundancy/reissue baseline: the §VI-C headline mean
        // must not absorb PCS variants.
        assert!(!is_redundancy_or_reissue("PCS-N0.5"));
    }

    #[test]
    fn hierarchical_parses_and_round_trips() {
        assert_eq!(parse("pcs-h64").unwrap().name(), "PCS-H64");
        assert_eq!(parse("PCS-H640").unwrap().name(), "PCS-H640");
        // The bare alias picks the default cap and renders canonically.
        assert_eq!(parse("hier").unwrap().name(), "PCS-H64");
        assert_eq!(parse("HIER").unwrap().name(), "PCS-H64");
        assert_eq!(parse("pcs-h64").unwrap().replication(), 1);
        assert!(!is_redundancy_or_reissue("PCS-H64"));
    }

    #[test]
    fn sets_match_the_papers_grids() {
        let names = |set: Vec<TechniqueRef>| set.iter().map(|s| s.name()).collect::<Vec<_>>();
        assert_eq!(
            names(paper_set()),
            vec!["Basic", "RED-3", "RED-5", "RI-90", "RI-99", "PCS"]
        );
        assert_eq!(names(smoke_set()), vec!["Basic", "RED-2", "PCS"]);
        assert_eq!(
            names(extended_set()),
            vec!["Basic", "RED-3", "RI-90", "PCS"]
        );
        assert_eq!(names(extended_smoke_set()), vec!["Basic", "PCS"]);
    }

    #[test]
    fn resolve_prefers_selected_names() {
        let resolved = resolve(Some(&["basic".to_string(), "pcs".to_string()]), paper_set());
        assert_eq!(
            resolved.iter().map(|s| s.name()).collect::<Vec<_>>(),
            vec!["Basic", "PCS"]
        );
        assert_eq!(resolve(None, paper_set()).len(), 6);
    }
}

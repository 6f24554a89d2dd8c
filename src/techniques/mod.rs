//! The technique registry: every latency-reduction technique the
//! evaluation can compare, as one [`Technique`] value.
//!
//! The paper's core claim is comparative — PCS against blind
//! redundancy/reissue techniques (§VI-A) — and this module makes the
//! *technique* axis of that comparison open the same way `src/scenarios`
//! made the *scenario* axis open: a technique is a [`Technique`] variant,
//! one per family, carrying the family's parameter. Its methods give the
//! display name, the replication requirement, the dispatch policy, the
//! scheduler hook and an optional placement override, and [`parse`]
//! makes every family member reachable from every sweep scenario via
//! `pcs run --techniques <list>`.
//!
//! | name | technique |
//! |---|---|
//! | `basic` | no redundancy, no reissue, no migrations |
//! | `red-<k>` | request redundancy, k parallel replicas (paper: 3, 5) |
//! | `ri-<p>` | request reissue at the p-th latency percentile (paper: 90, 99) |
//! | `pcs` | predictive component-level scheduling (this paper) |
//! | `pcs-h<cap>` | hierarchical rack-aware PCS, ≤ cap components per group (`hier` = cap 64) |
//! | `ll` | least-loaded reactive migration — no prediction |
//! | `oracle` | PCS fed the simulator's exact node demand (upper bound) |
//! | `pcs-n<σ>` | PCS with mean-one log-normal noise (σ) on its demand estimates |
//! | `cap` | capacity-aware initial placement, no runtime scheduling |
//!
//! One family table holds each family's token prefix and parameter range.
//! It drives [`parse`], the range checks of the constructor functions
//! ([`red`], [`pcs_hier`], …) and of their checked forms for
//! user-supplied parameters ([`try_pcs_hier`], [`try_pcs_noisy`]), and
//! the vocabulary a [`TechniqueParseError`] lists.
//!
//! Names round-trip exactly: [`parse`] accepts any case and
//! [`Technique::name`] renders the canonical display form
//! (`parse("ri-99.5")` names itself `RI-99.5` and parses back to the same
//! value).

mod reactive;

pub use reactive::LeastLoadedHook;

use crate::controller::PcsController;
use pcs_baselines::{RedundancyPolicy, ReissuePolicy};
use pcs_core::{ClassModelSet, SchedulerConfig};
use pcs_sim::{BasicPolicy, DispatchPolicy, NoopScheduler, PlacementStrategy, SchedulerHook};
use pcs_types::PcsError;
use std::fmt;

/// The name code outside this crate holds a technique by. A
/// [`Technique`] is a small `Copy` value, so it is the value itself.
pub type TechniqueRef = Technique;

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
/// Build values with the constructor functions ([`red`], [`ri`], …) or
/// [`parse`]; both reject a parameter outside its family's range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technique {
    /// `Basic`: one instance per partition, no redundancy, no reissue, no
    /// migrations — the paper's do-nothing baseline.
    Basic,
    /// `RED-k`: every partition sub-request fans out to `k` replicas, the
    /// quickest response wins, queued duplicates are cancelled.
    Red(usize),
    /// `RI-p`: a sub-request is reissued to a backup replica once it has
    /// been outstanding longer than the class's p-th latency percentile.
    /// The percentile is kept in percent, as given, so the name
    /// round-trips the user's token exactly (going through a fraction
    /// would turn `ri-29` into `RI-28.999999999999996`).
    Ri(f64),
    /// `PCS`: predictive component-level scheduling — the paper's
    /// framework, dispatching like Basic and migrating stragglers every
    /// interval.
    Pcs,
    /// `PCS-H<cap>`: the two-level hierarchical PCS (paper §VI-D).
    /// Components are grouped by the rack of their current host and
    /// scheduled rack by rack with the bounded greedy, at most `cap`
    /// components per greedy run; inputs, matrix build and evacuation are
    /// flat PCS's, and so is the initial placement: the rack-striped
    /// walk every technique but `CAP` starts from
    /// ([`pcs_sim::placement::rack_striped`]), so flat and hierarchical
    /// PCS are compared from one layout.
    PcsHier(usize),
    /// `LL`: Basic dispatch plus the reactive [`LeastLoadedHook`] —
    /// migration with no prediction, isolating the value of PCS's
    /// predictive step.
    Ll,
    /// `Oracle`: the PCS controller fed the simulator's exact node demand
    /// ([`pcs_sim::SchedulerContext::ground_truth_demand`]) instead of
    /// the sampled windows. Same Algorithm 1 and matrix, so its gap to
    /// PCS bounds what better prediction could buy.
    Oracle,
    /// `PCS-N<σ>`: the PCS controller with every live node's demand
    /// estimate multiplied by a fresh mean-one log-normal factor of
    /// parameter σ each interval
    /// ([`PcsController::with_demand_noise`]). σ = 0 builds no noise
    /// object, so `pcs-n0` is byte-identical to plain `pcs`.
    PcsNoise(f64),
    /// `CAP`: Basic dispatch on a capacity-proportional layout
    /// ([`pcs_sim::placement::capacity_aware`]) that never moves. It
    /// separates what a one-shot capacity-aware deployment buys from
    /// what run-time migration buys.
    Cap,
}

impl Technique {
    /// Canonical display name (`Basic`, `RED-3`, `RI-99.5`, `PCS`, …).
    /// Round-trips: `parse(&t.name())` yields `t`. Real parameters render
    /// in Rust's shortest round-trip form, so 99.5 and 99.51 stay
    /// distinct and 90.0 renders as `90`.
    pub fn name(&self) -> String {
        match *self {
            Technique::Basic => "Basic".into(),
            Technique::Red(k) => format!("RED-{k}"),
            Technique::Ri(percent) => format!("RI-{percent}"),
            Technique::Pcs => "PCS".into(),
            Technique::PcsHier(cap) => format!("PCS-H{cap}"),
            Technique::Ll => "LL".into(),
            Technique::Oracle => "Oracle".into(),
            Technique::PcsNoise(sigma) => format!("PCS-N{sigma}"),
            Technique::Cap => "CAP".into(),
        }
    }

    /// One-line description for `pcs list`.
    pub fn description(&self) -> String {
        match *self {
            Technique::Basic => "no redundancy, no reissue, no migrations".into(),
            Technique::Red(k) => format!("request redundancy, {k} parallel replicas"),
            Technique::Ri(percent) => {
                format!("request reissue at the {percent}% latency percentile")
            }
            Technique::Pcs => "predictive component-level scheduling (this paper)".into(),
            Technique::PcsHier(cap) => {
                format!("hierarchical rack-aware PCS, rack-grouped greedy of <= {cap} components")
            }
            Technique::Ll => {
                "least-loaded reactive migration off the hottest node (no prediction)".into()
            }
            Technique::Oracle => {
                "PCS fed the simulator's exact node demand (prediction upper bound)".into()
            }
            Technique::PcsNoise(sigma) => format!(
                "PCS with mean-one log-normal noise (sigma {sigma}) on its demand estimates"
            ),
            Technique::Cap => "capacity-aware initial placement, no runtime scheduling".into(),
        }
    }

    /// Physical replica instances this technique needs per partition.
    pub fn replication(&self) -> usize {
        match *self {
            Technique::Red(k) => k,
            Technique::Ri(_) => 2,
            _ => 1,
        }
    }

    /// Builds the dispatch policy deciding replica fan-out, reissue and
    /// cancellation.
    pub fn make_policy(&self) -> Box<dyn DispatchPolicy> {
        match *self {
            Technique::Red(k) => Box::new(RedundancyPolicy::new(k)),
            Technique::Ri(percent) => Box::new(ReissuePolicy::new(percent / 100.0)),
            _ => Box::new(BasicPolicy),
        }
    }

    /// Builds the scheduler hook run at every scheduling interval. The
    /// four PCS-controller families share one controller build: the
    /// paper's scheduler parameters at the sweep's ε, plus the family's
    /// hierarchical grouping, exact demand or demand noise.
    pub fn make_hook(&self, env: &TechniqueEnv<'_>) -> Box<dyn SchedulerHook> {
        let controller = || {
            PcsController::new(
                env.models.clone(),
                SchedulerConfig {
                    epsilon_secs: env.epsilon_secs,
                    ..SchedulerConfig::PAPER
                },
            )
        };
        match *self {
            Technique::Basic | Technique::Red(_) | Technique::Ri(_) | Technique::Cap => {
                Box::new(NoopScheduler)
            }
            Technique::Ll => Box::new(LeastLoadedHook::default()),
            Technique::Pcs => Box::new(controller()),
            Technique::PcsHier(cap) => Box::new(controller().with_hierarchical(cap)),
            Technique::Oracle => Box::new(controller().with_ground_truth()),
            Technique::PcsNoise(sigma) => Box::new(controller().with_demand_noise(sigma)),
        }
    }

    /// Initial-placement override; `None` keeps the scenario's default
    /// (the capacity-blind, rack-striped anti-affine walk).
    pub fn placement(&self) -> Option<PlacementStrategy> {
        match self {
            Technique::Cap => Some(PlacementStrategy::CapacityAware),
            _ => None,
        }
    }
}

/// Largest accepted PCS-H per-group cap. The paper suggests groups of
/// "640 components or less"; 1024 leaves headroom for ablations above
/// that point while still bounding a single greedy run.
pub const MAX_GROUP_CAP: usize = 1024;

/// The group cap the bare `hier` alias selects.
pub const DEFAULT_GROUP_CAP: usize = 64;

/// Largest accepted PCS-N noise σ. exp(4²/2) ≈ 3000× median-to-mean
/// spread — far beyond any informative operating point; larger values
/// only invite overflow in the log-normal moments.
pub const MAX_NOISE_SIGMA: f64 = 4.0;

/// A family parameter's accepted range.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// An integer in `lo..=hi`.
    Count(usize, usize),
    /// A finite real in `lo..=hi`.
    Closed(f64, f64),
    /// A real strictly between the two ends.
    Open(f64, f64),
}

impl Bound {
    /// Reads a parameter token: an integer for a count, else any `f64`.
    /// Counts travel as `f64` too; every accepted count is small and
    /// converts exactly.
    fn read(self, text: &str) -> Option<f64> {
        match self {
            Bound::Count(..) => text.parse::<usize>().ok().map(|k| k as f64),
            Bound::Closed(..) | Bound::Open(..) => text.parse().ok(),
        }
    }

    fn contains(self, x: f64) -> bool {
        match self {
            Bound::Count(lo, hi) => (lo as f64..=hi as f64).contains(&x),
            Bound::Closed(lo, hi) => x.is_finite() && (lo..=hi).contains(&x),
            Bound::Open(lo, hi) => x > lo && x < hi,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Count(lo, hi) => write!(f, "{lo}..={hi}"),
            Bound::Closed(lo, hi) => write!(f, "{lo}..={hi}"),
            Bound::Open(lo, hi) => write!(f, "({lo},{hi})"),
        }
    }
}

/// A parameterised family's parameter.
struct Param {
    /// The vocabulary's placeholder (`k` in `red-<k>`).
    placeholder: &'static str,
    bound: Bound,
    /// The parameter in a malformed-token error ("the `noun` after
    /// `red-` is not an integer").
    noun: &'static str,
    /// The parameter in a range error ("`range_noun` must be in 2..=8").
    range_noun: &'static str,
    /// Vocabulary text before and after the bound.
    around: (&'static str, &'static str),
}

/// One technique family: its token (or token prefix) and parameter.
struct Family {
    /// The whole token of a bare family (`pcs`), or the prefix the
    /// parameter follows (`red-`).
    prefix: &'static str,
    /// `None` for a bare family.
    param: Option<Param>,
    /// Builds the family member for an in-range parameter (ignored by
    /// bare families).
    make: fn(f64) -> Technique,
}

impl Family {
    /// The family's vocabulary entry: `basic`, `red-<k> (2..=8)`, ….
    fn form(&self) -> String {
        match &self.param {
            None => self.prefix.to_string(),
            Some(p) => format!(
                "{}<{}> ({}{}{})",
                self.prefix, p.placeholder, p.around.0, p.bound, p.around.1
            ),
        }
    }

    /// Why `value` is outside the family's range, if it is.
    fn range_error(&self, value: f64) -> Option<String> {
        let p = self.param.as_ref()?;
        (!p.bound.contains(value)).then(|| format!("{} must be in {}", p.range_noun, p.bound))
    }

    /// The checked constructors' check: the range error, named by the
    /// family's parameter, when `value` is outside the family's range.
    fn checked(&self, value: f64) -> Result<(), PcsError> {
        match (self.range_error(value), &self.param) {
            (Some(reason), Some(p)) => Err(PcsError::InvalidConfig {
                parameter: p.range_noun,
                detail: format!("{reason}, got {value}"),
            }),
            _ => Ok(()),
        }
    }

    /// The constructor functions' check.
    ///
    /// # Panics
    /// Panics with the range error's detail when `value` is outside the
    /// family's range.
    fn check(&self, value: f64) {
        if let Err(PcsError::InvalidConfig { detail, .. }) = self.checked(value) {
            panic!("{detail}");
        }
    }

    /// Parses `token` if it belongs to this family.
    fn parse(&self, token: &str, lower: &str) -> Option<Result<Technique, TechniqueParseError>> {
        let Some(p) = &self.param else {
            return (lower == self.prefix).then(|| Ok((self.make)(0.0)));
        };
        let text = lower.strip_prefix(self.prefix)?;
        let Some(value) = p.bound.read(text) else {
            let kind = match p.bound {
                Bound::Count(..) => "an integer",
                Bound::Closed(..) | Bound::Open(..) => "a number",
            };
            let reason = format!("the {} after `{}` is not {kind}", p.noun, self.prefix);
            return Some(Err(err(token, reason)));
        };
        Some(match self.range_error(value) {
            Some(reason) => Err(err(token, reason)),
            None => Ok((self.make)(value)),
        })
    }
}

const fn bare(token: &'static str, make: fn(f64) -> Technique) -> Family {
    Family {
        prefix: token,
        param: None,
        make,
    }
}

const RED: Family = Family {
    prefix: "red-",
    param: Some(Param {
        placeholder: "k",
        bound: Bound::Count(2, 8),
        noun: "replica count",
        range_noun: "replica count",
        around: ("", ""),
    }),
    make: |k| red(k as usize),
};

const RI: Family = Family {
    prefix: "ri-",
    param: Some(Param {
        placeholder: "p",
        bound: Bound::Open(0.0, 100.0),
        noun: "percentile",
        range_noun: "reissue percentile",
        around: ("percentile in ", ", e.g. ri-99.5"),
    }),
    make: ri,
};

const PCS_HIER: Family = Family {
    prefix: "pcs-h",
    param: Some(Param {
        placeholder: "cap",
        bound: Bound::Count(1, MAX_GROUP_CAP),
        noun: "group cap",
        range_noun: "group cap",
        around: ("", "; `hier` = pcs-h64"),
    }),
    make: |cap| pcs_hier(cap as usize),
};

const PCS_NOISE: Family = Family {
    prefix: "pcs-n",
    param: Some(Param {
        placeholder: "sigma",
        bound: Bound::Closed(0.0, MAX_NOISE_SIGMA),
        noun: "sigma",
        range_noun: "noise sigma",
        around: ("", ", e.g. pcs-n0.5"),
    }),
    make: pcs_noisy,
};

/// Every family, in vocabulary order.
const FAMILIES: [Family; 9] = [
    bare("basic", |_| Technique::Basic),
    RED,
    RI,
    bare("pcs", |_| Technique::Pcs),
    PCS_HIER,
    PCS_NOISE,
    bare("ll", |_| Technique::Ll),
    bare("oracle", |_| Technique::Oracle),
    bare("cap", |_| Technique::Cap),
];

/// The parameterised families with their ranges, as the CLI's technique
/// listing names them: `red-<k> (2..=8), ri-<p> (…), …`.
pub fn parameterised_families() -> String {
    let forms: Vec<String> = FAMILIES
        .iter()
        .filter(|family| family.param.is_some())
        .map(Family::form)
        .collect();
    forms.join(", ")
}

/// `Basic`: the no-op baseline.
pub fn basic() -> Technique {
    Technique::Basic
}

/// `RED-k`: request redundancy with `k` parallel replicas.
///
/// # Panics
/// Panics when `k` is outside the family's range (the simulator's
/// replica-group cap), which every [`TechniqueParseError`] lists.
pub fn red(k: usize) -> Technique {
    RED.check(k as f64);
    Technique::Red(k)
}

/// `RI-p`: request reissue at latency percentile `p`, in percent
/// (`90.0`, `99.5`, …) — the unit the CLI names use.
///
/// # Panics
/// Panics unless `percent` is strictly between 0 and 100.
pub fn ri(percent: f64) -> Technique {
    RI.check(percent);
    Technique::Ri(percent)
}

/// `PCS`: predictive component-level scheduling (the paper).
pub fn pcs() -> Technique {
    Technique::Pcs
}

/// `PCS-H<cap>`: hierarchical rack-aware PCS, at most `cap` components
/// per greedy group.
///
/// # Panics
/// Panics unless `1 <= cap <= MAX_GROUP_CAP`.
pub fn pcs_hier(cap: usize) -> Technique {
    PCS_HIER.check(cap as f64);
    Technique::PcsHier(cap)
}

/// [`pcs_hier`] for a user-supplied cap: the family's range error
/// instead of a panic.
pub fn try_pcs_hier(cap: usize) -> Result<Technique, PcsError> {
    PCS_HIER.checked(cap as f64)?;
    Ok(pcs_hier(cap))
}

/// `LL`: least-loaded reactive migration — no prediction.
pub fn ll() -> Technique {
    Technique::Ll
}

/// `Oracle`: PCS fed the simulator's exact node demand.
pub fn oracle() -> Technique {
    Technique::Oracle
}

/// `PCS-N<σ>`: PCS with seeded mean-one log-normal noise of parameter
/// `sigma` on its demand estimates (`pcs-n0` ≡ `pcs`). A σ of −0 is
/// stored as 0, so it never names a second `PCS-N-0` variant of plain
/// PCS.
///
/// # Panics
/// Panics unless `0 <= sigma <= MAX_NOISE_SIGMA` and finite.
pub fn pcs_noisy(sigma: f64) -> Technique {
    PCS_NOISE.check(sigma);
    // IEEE −0 + 0 = +0; every other σ is unchanged.
    Technique::PcsNoise(sigma + 0.0)
}

/// [`pcs_noisy`] for a user-supplied σ: the family's range error
/// instead of a panic.
pub fn try_pcs_noisy(sigma: f64) -> Result<Technique, PcsError> {
    PCS_NOISE.checked(sigma)?;
    Ok(pcs_noisy(sigma))
}

/// `CAP`: capacity-aware initial placement, no runtime scheduling.
pub fn cap() -> Technique {
    Technique::Cap
}

/// Every registered technique, canonical instances in display order
/// (parameterised families are represented by their paper instances; any
/// member of a family parses).
pub fn registry() -> Vec<Technique> {
    vec![
        basic(),
        red(3),
        red(5),
        ri(90.0),
        ri(99.0),
        pcs(),
        pcs_hier(DEFAULT_GROUP_CAP),
        ll(),
        oracle(),
        pcs_noisy(0.5),
        cap(),
    ]
}

/// The paper's six techniques in Figure 6 order.
pub fn paper_set() -> Vec<Technique> {
    vec![basic(), red(3), red(5), ri(90.0), ri(99.0), pcs()]
}

/// The fig6-shaped `--smoke` shrink: one technique per family.
pub fn smoke_set() -> Vec<Technique> {
    vec![basic(), red(2), pcs()]
}

/// The extended comparisons' default (diurnal/hetero): one representative
/// per family.
pub fn extended_set() -> Vec<Technique> {
    vec![basic(), red(3), ri(90.0), pcs()]
}

/// The extended comparisons' `--smoke` shrink: Basic vs PCS.
pub fn extended_smoke_set() -> Vec<Technique> {
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
        let vocabulary: Vec<String> = FAMILIES.iter().map(Family::form).collect();
        write!(
            f,
            "invalid technique `{}`: {}; valid techniques: {}",
            self.token,
            self.reason,
            vocabulary.join(", ")
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
/// [`Technique::name`]: `parse(&t.name())` yields `t` for every
/// technique.
///
/// # Errors
/// Returns a [`TechniqueParseError`] naming the valid vocabulary on an
/// unknown name or an out-of-range family parameter.
pub fn parse(name: &str) -> Result<Technique, TechniqueParseError> {
    let token = name.trim();
    let lower = token.to_ascii_lowercase();
    if lower == "hier" {
        return Ok(pcs_hier(DEFAULT_GROUP_CAP));
    }
    FAMILIES
        .iter()
        .find_map(|family| family.parse(token, &lower))
        .unwrap_or_else(|| Err(err(token, "not a registered technique")))
}

/// Parses a comma-separated technique list (`"red-3,ri-99,pcs"`).
///
/// # Errors
/// Fails on the first invalid token (empty tokens included), with the
/// valid vocabulary in the message, and on a technique named twice (by
/// value, so `pcs,PCS` and `ri-90,ri-90.0` are repeats): a
/// repeated column would be counted twice in every cross-cell summary.
pub fn parse_list(list: &str) -> Result<Vec<Technique>, TechniqueParseError> {
    let mut out: Vec<Technique> = Vec::new();
    for token in list.split(',') {
        if token.trim().is_empty() {
            return Err(err(token, "empty technique name"));
        }
        let technique = parse(token)?;
        if out.contains(&technique) {
            return Err(err(
                token,
                format!("`{}` is selected more than once", technique.name()),
            ));
        }
        out.push(technique);
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
pub fn resolve(selected: Option<&[String]>, default_set: Vec<Technique>) -> Vec<Technique> {
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

    #[test]
    fn registry_names_round_trip() {
        for technique in registry() {
            let name = technique.name();
            let reparsed = parse(&name).unwrap_or_else(|e| panic!("{name} must parse: {e}"));
            assert_eq!(reparsed, technique, "{name} round-trips");
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = registry().iter().map(|t| t.name()).collect();
        for name in &names {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
    }

    #[test]
    fn parse_accepts_the_issue_examples() {
        let techniques = parse_list("red-3,ri-99,pcs").unwrap();
        let names: Vec<String> = techniques.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["RED-3", "RI-99", "PCS"]);
        // Round-trip the rendered names straight back.
        let again = parse_list(&names.join(",")).unwrap();
        assert_eq!(again.iter().map(|t| t.name()).collect::<Vec<_>>(), names);
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
            "pcs-h<cap>",
            "pcs-n<sigma>",
            "ll",
            "oracle",
            "cap",
        ] {
            assert!(message.contains(valid), "{message} must list {valid}");
        }
        for gone in ["pcs+red<k>", "pcs-b<n>"] {
            assert!(!message.contains(gone), "{message} must not list {gone}");
        }
        assert!(parse("red-1").is_err(), "k = 1 is just basic");
        assert!(parse("red-9").is_err(), "beyond the simulator's group cap");
        assert!(parse("ri-0").is_err());
        assert!(parse("ri-100").is_err());
        assert!(parse("pcs+red2").is_err(), "the hybrid family is gone");
        assert!(parse("pcs-b1").is_err(), "the budgeted family is gone");
        assert!(parse("pcs-h0").is_err(), "a zero group cap is degenerate");
        assert!(parse("pcs-h1025").is_err(), "beyond the group-cap limit");
        assert!(parse_list("pcs,,basic").is_err());
        assert!(parse_list("").is_err());
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
        let names = |set: Vec<Technique>| set.iter().map(|t| t.name()).collect::<Vec<_>>();
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
            resolved.iter().map(|t| t.name()).collect::<Vec<_>>(),
            vec!["Basic", "PCS"]
        );
        assert_eq!(resolve(None, paper_set()).len(), 6);
    }
}

/// Tests of the paper's §VI-A techniques: Basic, RED-k, RI-p and PCS.
#[cfg(test)]
mod builtin {
    mod tests {
        use crate::techniques::{pcs, red, ri, Technique};

        #[test]
        fn paper_names_are_unchanged() {
            assert_eq!(Technique::Basic.name(), "Basic");
            assert_eq!(red(3).name(), "RED-3");
            assert_eq!(red(5).name(), "RED-5");
            assert_eq!(ri(90.0).name(), "RI-90");
            assert_eq!(ri(99.0).name(), "RI-99");
            assert_eq!(pcs().name(), "PCS");
        }

        #[test]
        fn ri_rendering_is_minimal_exact() {
            // The regression the old `{:.0}` formatting could not survive:
            // 99.5 and 99.51 rendered identically ("RI-100") and neither
            // could round-trip through a parser.
            assert_eq!(ri(99.5).name(), "RI-99.5");
            assert_eq!(ri(99.51).name(), "RI-99.51");
            assert_ne!(ri(99.5).name(), ri(99.51).name());
            assert_eq!(ri(50.0).name(), "RI-50");
            // Integral CLI percents stay integral: the percent is stored,
            // never reconstructed from a fraction.
            assert_eq!(ri(29.0).name(), "RI-29");
            assert_eq!(ri(7.0).name(), "RI-7");
        }

        #[test]
        fn replication_matches_policies() {
            for technique in [red(2), red(5), ri(99.0), Technique::Basic, pcs()] {
                assert_eq!(
                    technique.replication(),
                    technique.make_policy().replication(),
                    "{} technique and policy must agree",
                    technique.name()
                );
            }
        }

        #[test]
        #[should_panic(expected = "2..=8")]
        fn red_rejects_k1() {
            let _ = red(1);
        }
    }
}

/// Tests of the hierarchical family, `PCS-H<cap>`.
#[cfg(test)]
mod hier {
    mod tests {
        use crate::techniques::pcs_hier;

        #[test]
        fn names_render_the_cap() {
            assert_eq!(pcs_hier(64).name(), "PCS-H64");
            assert_eq!(pcs_hier(640).name(), "PCS-H640");
        }

        #[test]
        fn replication_matches_policy() {
            let technique = pcs_hier(64);
            assert_eq!(
                technique.replication(),
                technique.make_policy().replication()
            );
            assert_eq!(technique.placement(), None, "flat PCS's placement");
        }

        #[test]
        #[should_panic(expected = "1..=1024")]
        fn zero_cap_is_rejected() {
            let _ = pcs_hier(0);
        }

        #[test]
        #[should_panic(expected = "1..=1024")]
        fn oversized_cap_is_rejected() {
            let _ = pcs_hier(1025);
        }
    }
}

//! Multi-stage service topologies (paper Figure 1).
//!
//! An online service processes each request through `S` sequential stages;
//! stage `j` parallelises the request across its components and the stage
//! latency is the max over them (paper Eq. 3), so the overall latency is
//! `Σⱼ max latencies` (Eq. 4). The reproduction's reference topology is the
//! Nutch search engine: segmenting → searching (wide fan-out) →
//! aggregating.
//!
//! Each stage is built from a [`ComponentClass`] carrying the ground-truth
//! parameters the simulator needs: base service time on an idle node,
//! service-time variability, per-resource contention *sensitivity* (how
//! strongly that class suffers from each kind of pressure), and the demand
//! the component itself contributes to its node when busy.

use pcs_types::{ContentionVector, ResourceVector};

/// How strongly a component class's service time inflates under each kind
/// of resource contention. These are ground-truth parameters of the
/// simulator — the predictor never sees them and must learn their effect
/// from profiled samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownSensitivity {
    /// Sensitivity to core-usage pressure.
    pub core: f64,
    /// Sensitivity to shared-cache MPKI (per MPKI unit).
    pub cache: f64,
    /// Sensitivity to disk-bandwidth pressure.
    pub disk: f64,
    /// Sensitivity to network-bandwidth pressure.
    pub net: f64,
}

impl SlowdownSensitivity {
    /// A class insensitive to all contention (for tests).
    pub const NONE: SlowdownSensitivity = SlowdownSensitivity {
        core: 0.0,
        cache: 0.0,
        disk: 0.0,
        net: 0.0,
    };

    /// Ground-truth slowdown factor (≥ 1) for a contention vector.
    ///
    /// Per-resource inflation is smooth, convex at low pressure and
    /// *saturating* at high pressure: a pinned component VM always keeps
    /// its own fair CPU/blkio/network share, so co-runner interference
    /// (pipeline pressure, cache pollution, bandwidth queueing) is bounded
    /// rather than unboundedly multiplicative:
    ///
    /// * core:  `1 + s·1.15·u²/(1 + u²)` — ×1.58 at u = 1, ×2.15 asymptote;
    /// * cache: `1 + s·0.016·MPKI/(1 + MPKI/70)` — misses stall cycles
    ///   roughly linearly, flattening once the LLC is effectively thrashed;
    /// * disk:  `1 + s·0.75·u²/(1 + u²)` — ×1.38 at u = 1, ×1.75 asymptote;
    /// * net:   `1 + s·0.55·u²/(1 + u²)` — ×1.28 at u = 1, ×1.55 asymptote.
    ///
    /// The factors multiply across resources: contention on independent
    /// resources compounds.
    pub fn slowdown(&self, u: &ContentionVector) -> f64 {
        fn saturating(util: f64, coeff: f64) -> f64 {
            let u2 = util * util;
            coeff * u2 / (1.0 + u2)
        }
        let f_core = 1.0 + self.core * saturating(u.core_usage, 1.15);
        let f_cache = 1.0 + self.cache * 0.016 * u.cache_mpki / (1.0 + u.cache_mpki / 70.0);
        let f_disk = 1.0 + self.disk * saturating(u.disk_util, 0.75);
        let f_net = 1.0 + self.net * saturating(u.net_util, 0.55);
        f_core * f_cache * f_disk * f_net
    }
}

/// A class of homogeneous components (paper §VI-D: "only one out of all
/// homogeneous components needs to be profiled").
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentClass {
    /// Display name ("searching", ...).
    pub name: String,
    /// Mean service time (seconds) on an idle node.
    pub base_service_secs: f64,
    /// Squared coefficient of variation of the intrinsic service time
    /// (before contention inflation).
    pub service_scv: f64,
    /// Ground-truth contention sensitivity.
    pub sensitivity: SlowdownSensitivity,
    /// Demand this component contributes to its node when running at full
    /// utilisation; scaled by actual utilisation in the simulator.
    pub own_demand: ResourceVector,
}

impl ComponentClass {
    /// Creates a class.
    ///
    /// # Panics
    /// Panics on non-positive base service time or negative SCV.
    pub fn new(
        name: impl Into<String>,
        base_service_secs: f64,
        service_scv: f64,
        sensitivity: SlowdownSensitivity,
        own_demand: ResourceVector,
    ) -> Self {
        assert!(
            base_service_secs > 0.0 && base_service_secs.is_finite(),
            "base service time must be positive"
        );
        assert!(
            service_scv >= 0.0 && service_scv.is_finite(),
            "service SCV must be non-negative"
        );
        assert!(own_demand.is_valid(), "own demand must be valid");
        ComponentClass {
            name: name.into(),
            base_service_secs,
            service_scv,
            sensitivity,
            own_demand,
        }
    }
}

/// One sequential stage: `count` parallel components of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Display name.
    pub name: String,
    /// Index into the topology's class table.
    pub class: usize,
    /// Number of parallel components at this stage.
    pub count: usize,
}

/// A multi-stage service: an ordered list of stages over a class table.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTopology {
    classes: Vec<ComponentClass>,
    stages: Vec<Stage>,
}

impl ServiceTopology {
    /// Builds a topology from classes and stages.
    ///
    /// # Panics
    /// Panics if any stage references a missing class, has zero components,
    /// or the topology has no stages.
    pub fn new(classes: Vec<ComponentClass>, stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "a service needs at least one stage");
        for s in &stages {
            assert!(
                s.class < classes.len(),
                "stage '{}' references missing class {}",
                s.name,
                s.class
            );
            assert!(s.count > 0, "stage '{}' must have components", s.name);
        }
        ServiceTopology { classes, stages }
    }

    /// The Nutch web search engine of paper Figure 1: one segmenting
    /// component, `searchers` parallel searching components, one
    /// aggregating component.
    ///
    /// Base service times are chosen so the searching stage dominates (as
    /// in web search) and the service stays stable at the paper's heaviest
    /// load (500 req/s) *provided* components sit on lightly-contended
    /// nodes — exactly the regime where scheduling matters.
    pub fn nutch(searchers: usize) -> Self {
        assert!(searchers > 0, "need at least one searching component");
        let classes = vec![
            // Segmenting: CPU-bound text chopping; tiny per-request work.
            ComponentClass::new(
                "segmenting",
                0.000_25,
                0.10,
                SlowdownSensitivity {
                    core: 1.0,
                    cache: 0.5,
                    disk: 0.1,
                    net: 0.3,
                },
                ResourceVector::new(1.0, 2.0, 1.0, 4.0),
            ),
            // Searching: index lookups; cache- and disk-sensitive. The
            // heavy stage whose tail dominates the service.
            ComponentClass::new(
                "searching",
                0.000_70,
                0.15,
                SlowdownSensitivity {
                    core: 0.9,
                    cache: 1.0,
                    disk: 0.9,
                    net: 0.4,
                },
                ResourceVector::new(1.0, 3.0, 8.0, 2.0),
            ),
            // Aggregating: result merging; network-sensitive.
            ComponentClass::new(
                "aggregating",
                0.000_40,
                0.10,
                SlowdownSensitivity {
                    core: 0.7,
                    cache: 0.4,
                    disk: 0.1,
                    net: 1.0,
                },
                ResourceVector::new(0.8, 1.5, 0.5, 10.0),
            ),
        ];
        let stages = vec![
            Stage {
                name: "segment".into(),
                class: 0,
                count: 1,
            },
            Stage {
                name: "search".into(),
                class: 1,
                count: searchers,
            },
            Stage {
                name: "aggregate".into(),
                class: 2,
                count: 1,
            },
        ];
        ServiceTopology::new(classes, stages)
    }

    /// A deep sequential pipeline: `depth` stages of `width` parallel
    /// components each, cycling through the three Nutch-like classes
    /// (CPU-, cache/disk- and network-sensitive). Eq. 4 sums `depth`
    /// stage maxima, so tail quality degrades with depth unless the
    /// scheduler keeps *every* stage's straggler in check — the stress
    /// case for hierarchical scheduling at cluster scale.
    ///
    /// # Panics
    /// Panics unless `depth` and `width` are positive.
    pub fn deep_chain(depth: usize, width: usize) -> Self {
        assert!(depth > 0, "need at least one stage");
        assert!(width > 0, "need at least one component per stage");
        let classes = ServiceTopology::nutch(1).classes;
        let stages = (0..depth)
            .map(|s| Stage {
                name: format!("chain{s}"),
                class: s % classes.len(),
                count: width,
            })
            .collect();
        ServiceTopology::new(classes, stages)
    }

    /// A wide scatter-gather service: one router, `workers` parallel
    /// search-like workers, `mergers` parallel aggregators. The worker
    /// stage's max dominates Eq. 4 (one straggler among hundreds sets
    /// the latency), so tail quality hinges on the scheduler finding the
    /// single worst co-location in a huge candidate space.
    ///
    /// # Panics
    /// Panics unless `workers` and `mergers` are positive.
    pub fn wide_fanout(workers: usize, mergers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(mergers > 0, "need at least one merger");
        let classes = ServiceTopology::nutch(1).classes;
        let stages = vec![
            Stage {
                name: "route".into(),
                class: 0,
                count: 1,
            },
            Stage {
                name: "fanout".into(),
                class: 1,
                count: workers,
            },
            Stage {
                name: "merge".into(),
                class: 2,
                count: mergers,
            },
        ];
        ServiceTopology::new(classes, stages)
    }

    /// A minimal single-stage, single-class topology (tests/examples).
    pub fn single_stage(count: usize, class: ComponentClass) -> Self {
        ServiceTopology::new(
            vec![class],
            vec![Stage {
                name: "stage0".into(),
                class: 0,
                count,
            }],
        )
    }

    /// The ordered stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The component-class table.
    pub fn classes(&self) -> &[ComponentClass] {
        &self.classes
    }

    /// Class of a stage.
    pub fn stage_class(&self, stage: usize) -> &ComponentClass {
        &self.classes[self.stages[stage].class]
    }

    /// Total number of components across all stages.
    pub fn component_count(&self) -> usize {
        self.stages.iter().map(|s| s.count).sum()
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_when_idle() {
        let s = SlowdownSensitivity {
            core: 1.0,
            cache: 1.0,
            disk: 1.0,
            net: 1.0,
        };
        assert!((s.slowdown(&ContentionVector::ZERO) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_monotone_in_each_dimension() {
        let s = SlowdownSensitivity {
            core: 1.0,
            cache: 1.0,
            disk: 1.0,
            net: 1.0,
        };
        let mut prev = 0.0;
        for i in 0..40 {
            let u = i as f64 * 0.05; // crosses saturation at 1.0
            let f = s.slowdown(&ContentionVector::new(u, 0.0, 0.0, 0.0));
            assert!(f > prev, "core slowdown must be strictly increasing");
            prev = f;
        }
        // Cache dimension.
        let low = s.slowdown(&ContentionVector::new(0.0, 5.0, 0.0, 0.0));
        let high = s.slowdown(&ContentionVector::new(0.0, 25.0, 0.0, 0.0));
        assert!(high > low);
    }

    #[test]
    fn slowdown_is_bounded_under_extreme_pressure() {
        // A pinned VM keeps its fair share: interference saturates instead
        // of growing without bound.
        let s = SlowdownSensitivity {
            core: 1.0,
            cache: 1.0,
            disk: 1.0,
            net: 1.0,
        };
        let extreme = s.slowdown(&ContentionVector::new(50.0, 500.0, 50.0, 50.0));
        assert!(extreme < 12.0, "slowdown must saturate, got {extreme}");
        // And the asymptote per dimension matches the documented bounds.
        let core_only = s.slowdown(&ContentionVector::new(1e6, 0.0, 0.0, 0.0));
        assert!((core_only - 2.15).abs() < 1e-3);
    }

    #[test]
    fn insensitive_class_never_slows() {
        let u = ContentionVector::new(2.0, 40.0, 2.0, 2.0);
        assert_eq!(SlowdownSensitivity::NONE.slowdown(&u), 1.0);
    }

    #[test]
    fn slowdowns_compound_across_resources() {
        let s = SlowdownSensitivity {
            core: 1.0,
            cache: 1.0,
            disk: 1.0,
            net: 1.0,
        };
        let core_only = s.slowdown(&ContentionVector::new(0.8, 0.0, 0.0, 0.0));
        let disk_only = s.slowdown(&ContentionVector::new(0.0, 0.0, 0.8, 0.0));
        let both = s.slowdown(&ContentionVector::new(0.8, 0.0, 0.8, 0.0));
        assert!((both - core_only * disk_only).abs() < 1e-12);
    }

    #[test]
    fn nutch_topology_shape() {
        let t = ServiceTopology::nutch(100);
        assert_eq!(t.stage_count(), 3);
        assert_eq!(t.component_count(), 102);
        assert_eq!(t.stages()[1].count, 100);
        assert_eq!(t.stage_class(1).name, "searching");
        // Searching dominates the idle-node latency budget.
        assert!(t.stage_class(1).base_service_secs > t.stage_class(0).base_service_secs);
        assert!(t.stage_class(1).base_service_secs > t.stage_class(2).base_service_secs);
    }

    #[test]
    fn deep_chain_shape() {
        let t = ServiceTopology::deep_chain(8, 12);
        assert_eq!(t.stage_count(), 8);
        assert_eq!(t.component_count(), 96);
        // Classes cycle so consecutive stages stress different resources.
        assert_ne!(t.stages()[0].class, t.stages()[1].class);
        assert_eq!(t.stages()[0].class, t.stages()[3].class);
    }

    #[test]
    fn wide_fanout_shape() {
        let t = ServiceTopology::wide_fanout(90, 5);
        assert_eq!(t.stage_count(), 3);
        assert_eq!(t.component_count(), 96);
        assert_eq!(t.stages()[1].count, 90);
        assert_eq!(t.stage_class(1).name, "searching");
    }

    #[test]
    #[should_panic(expected = "missing class")]
    fn stage_with_bad_class_rejected() {
        let _ = ServiceTopology::new(
            vec![],
            vec![Stage {
                name: "s".into(),
                class: 0,
                count: 1,
            }],
        );
    }
}

//! Resource demand vectors and node capacities.
//!
//! The paper's Table II enumerates four classes of shared resources whose
//! contention drives component service-time variability:
//!
//! | Shared resource                           | Contention information      |
//! |-------------------------------------------|------------------------------|
//! | processing units / pipelines / prefetchers| core usage                   |
//! | LLC, ITLB, DTLB                           | MPKI                         |
//! | disk bandwidth                            | read+write MB/s              |
//! | network bandwidth                         | send+receive MB/s            |
//!
//! A [`ResourceVector`] is an *absolute demand*: how many cores, how much
//! MPKI pollution, how many MB/s a program (batch job or component) asks of
//! its node. Demands are additive across co-located programs, which is what
//! makes the paper's Table III update arithmetic (`U ± U_ci`) well defined.
//! A [`NodeCapacity`] normalises an aggregate demand into the observed
//! [`ContentionVector`] form.

use crate::contention::ContentionVector;
use crate::PcsError;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// One of the four shared-resource classes from paper Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Floating point / vector processing units, pipelines, data prefetchers
    /// — observed as core usage.
    Core,
    /// LLC, ITLB and DTLB — observed as misses per kilo-instruction.
    Cache,
    /// Disk bandwidth — observed as read+write MB/s.
    DiskBw,
    /// Network bandwidth — observed as send+receive MB/s.
    NetBw,
}

impl ResourceKind {
    /// All four resource kinds, in canonical (Table II) order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Core,
        ResourceKind::Cache,
        ResourceKind::DiskBw,
        ResourceKind::NetBw,
    ];

    /// Canonical index of this kind (0..4), used to index fixed arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Core => 0,
            ResourceKind::Cache => 1,
            ResourceKind::DiskBw => 2,
            ResourceKind::NetBw => 3,
        }
    }

    /// Short lowercase name used in reports and model dumps.
    pub const fn name(self) -> &'static str {
        match self {
            ResourceKind::Core => "core",
            ResourceKind::Cache => "cache",
            ResourceKind::DiskBw => "diskBW",
            ResourceKind::NetBw => "networkBW",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An absolute resource demand: what one program (batch job VM or service
/// component) asks of its hosting node.
///
/// Demands add linearly across co-residents; saturation effects are applied
/// later, when a node normalises its aggregate demand into a
/// [`ContentionVector`] and when the ground-truth
/// slowdown model maps contention to service-time inflation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU demand in cores (1.0 = one saturated core).
    pub cores: f64,
    /// Shared-cache pollution in MPKI contributed to co-runners.
    pub mpki: f64,
    /// Disk read+write bandwidth demand in MB/s.
    pub disk_mbps: f64,
    /// Network send+receive bandwidth demand in MB/s.
    pub net_mbps: f64,
}

impl ResourceVector {
    /// The zero demand.
    pub const ZERO: ResourceVector = ResourceVector {
        cores: 0.0,
        mpki: 0.0,
        disk_mbps: 0.0,
        net_mbps: 0.0,
    };

    /// Creates a demand vector from its four components.
    pub const fn new(cores: f64, mpki: f64, disk_mbps: f64, net_mbps: f64) -> Self {
        ResourceVector {
            cores,
            mpki,
            disk_mbps,
            net_mbps,
        }
    }

    /// Reads one dimension by resource kind.
    #[inline]
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Core => self.cores,
            ResourceKind::Cache => self.mpki,
            ResourceKind::DiskBw => self.disk_mbps,
            ResourceKind::NetBw => self.net_mbps,
        }
    }

    /// Writes one dimension by resource kind.
    #[inline]
    pub fn set(&mut self, kind: ResourceKind, value: f64) {
        match kind {
            ResourceKind::Core => self.cores = value,
            ResourceKind::Cache => self.mpki = value,
            ResourceKind::DiskBw => self.disk_mbps = value,
            ResourceKind::NetBw => self.net_mbps = value,
        }
    }

    /// Element-wise subtraction that clamps at zero, for removing a
    /// program's demand from a node aggregate without numerical underflow.
    #[must_use]
    pub fn saturating_sub(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cores: (self.cores - rhs.cores).max(0.0),
            mpki: (self.mpki - rhs.mpki).max(0.0),
            disk_mbps: (self.disk_mbps - rhs.disk_mbps).max(0.0),
            net_mbps: (self.net_mbps - rhs.net_mbps).max(0.0),
        }
    }

    /// Scales every dimension by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        ResourceVector {
            cores: self.cores * factor,
            mpki: self.mpki * factor,
            disk_mbps: self.disk_mbps * factor,
            net_mbps: self.net_mbps * factor,
        }
    }

    /// True if every dimension is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.cores) && ok(self.mpki) && ok(self.disk_mbps) && ok(self.net_mbps)
    }

    /// The L1 magnitude of the demand, a crude "how big is this program"
    /// scalar used only for diagnostics.
    pub fn magnitude(&self) -> f64 {
        self.cores + self.mpki + self.disk_mbps + self.net_mbps
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            cores: self.cores + rhs.cores,
            mpki: self.mpki + rhs.mpki,
            disk_mbps: self.disk_mbps + rhs.disk_mbps,
            net_mbps: self.net_mbps + rhs.net_mbps,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            cores: self.cores - rhs.cores,
            mpki: self.mpki - rhs.mpki,
            disk_mbps: self.disk_mbps - rhs.disk_mbps,
            net_mbps: self.net_mbps - rhs.net_mbps,
        }
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, rhs: f64) -> ResourceVector {
        self.scaled(rhs)
    }
}

/// Capacity of one physical node, mirroring the paper's testbed machines
/// (two 6-core Xeon E5645 processors, 1 Gb ethernet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCapacity {
    /// Number of physical cores.
    pub cores: f64,
    /// Disk bandwidth in MB/s.
    pub disk_mbps: f64,
    /// Network bandwidth in MB/s.
    pub net_mbps: f64,
}

impl NodeCapacity {
    /// A machine like the paper's testbed nodes: 12 cores, a SATA-era disk
    /// (~200 MB/s) and 1 Gb ethernet (~125 MB/s).
    pub const XEON_E5645: NodeCapacity = NodeCapacity {
        cores: 12.0,
        disk_mbps: 200.0,
        net_mbps: 125.0,
    };

    /// Creates a capacity description.
    ///
    /// # Panics
    /// Panics if [`NodeCapacity::validate`] rejects it.
    pub fn new(cores: f64, disk_mbps: f64, net_mbps: f64) -> Self {
        let capacity = NodeCapacity {
            cores,
            disk_mbps,
            net_mbps,
        };
        if let Err(err) = capacity.validate() {
            panic!("{err}");
        }
        capacity
    }

    /// Checks that every capacity is finite and positive.
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] naming the first capacity that is not.
    pub fn validate(&self) -> Result<(), PcsError> {
        for (parameter, value, what) in [
            ("cores", self.cores, "core count"),
            ("disk_mbps", self.disk_mbps, "disk bandwidth"),
            ("net_mbps", self.net_mbps, "network bandwidth"),
        ] {
            crate::ensure!(
                value > 0.0 && value.is_finite(),
                parameter,
                "node must have positive {what}, got {value}"
            );
        }
        Ok(())
    }

    /// Normalises an absolute aggregate demand into the observed
    /// contention-vector form of paper Table II: core usage and bandwidth
    /// utilisation become fractions of capacity (not clamped — a value
    /// above 1.0 means oversubscription, like a per-core load average);
    /// MPKI passes through unchanged because it is already a rate per
    /// instruction rather than a share of a fixed capacity.
    pub fn normalize(&self, demand: &ResourceVector) -> ContentionVector {
        ContentionVector {
            core_usage: demand.cores / self.cores,
            cache_mpki: demand.mpki,
            disk_util: demand.disk_mbps / self.disk_mbps,
            net_util: demand.net_mbps / self.net_mbps,
        }
    }

    /// Converts an observed contention vector back into absolute demand
    /// units on this node (inverse of [`NodeCapacity::normalize`]).
    pub fn denormalize(&self, contention: &ContentionVector) -> ResourceVector {
        ResourceVector {
            cores: contention.core_usage * self.cores,
            mpki: contention.cache_mpki,
            disk_mbps: contention.disk_util * self.disk_mbps,
            net_mbps: contention.net_util * self.net_mbps,
        }
    }
}

impl Default for NodeCapacity {
    fn default() -> Self {
        NodeCapacity::XEON_E5645
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> ResourceVector {
        ResourceVector::new(6.0, 10.0, 100.0, 50.0)
    }

    #[test]
    fn kinds_have_stable_indices() {
        for (i, kind) in ResourceKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(ResourceKind::DiskBw.name(), "diskBW");
    }

    #[test]
    fn get_set_round_trip() {
        let mut v = ResourceVector::ZERO;
        for (i, kind) in ResourceKind::ALL.into_iter().enumerate() {
            v.set(kind, i as f64 + 1.0);
        }
        assert_eq!(v.get(ResourceKind::Core), 1.0);
        assert_eq!(v.get(ResourceKind::Cache), 2.0);
        assert_eq!(v.get(ResourceKind::DiskBw), 3.0);
        assert_eq!(v.get(ResourceKind::NetBw), 4.0);
    }

    #[test]
    fn addition_is_elementwise() {
        let sum = demand() + demand();
        assert_eq!(sum.cores, 12.0);
        assert_eq!(sum.mpki, 20.0);
        assert_eq!(sum.disk_mbps, 200.0);
        assert_eq!(sum.net_mbps, 100.0);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let small = ResourceVector::new(1.0, 1.0, 1.0, 1.0);
        let diff = small.saturating_sub(&demand());
        assert_eq!(diff, ResourceVector::ZERO);
    }

    #[test]
    fn normalization_divides_by_capacity() {
        let cap = NodeCapacity::XEON_E5645;
        let u = cap.normalize(&demand());
        assert!((u.core_usage - 0.5).abs() < 1e-12);
        assert!((u.cache_mpki - 10.0).abs() < 1e-12);
        assert!((u.disk_util - 0.5).abs() < 1e-12);
        assert!((u.net_util - 0.4).abs() < 1e-12);
    }

    #[test]
    fn normalize_denormalize_round_trip() {
        let cap = NodeCapacity::new(8.0, 100.0, 50.0);
        let d = demand();
        let back = cap.denormalize(&cap.normalize(&d));
        assert!((back.cores - d.cores).abs() < 1e-12);
        assert!((back.mpki - d.mpki).abs() < 1e-12);
        assert!((back.disk_mbps - d.disk_mbps).abs() < 1e-12);
        assert!((back.net_mbps - d.net_mbps).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_exceeds_one() {
        let cap = NodeCapacity::new(4.0, 100.0, 50.0);
        let u = cap.normalize(&ResourceVector::new(6.0, 0.0, 150.0, 75.0));
        assert!(u.core_usage > 1.0);
        assert!(u.disk_util > 1.0);
        assert!(u.net_util > 1.0);
    }

    #[test]
    #[should_panic(expected = "positive core count")]
    fn zero_core_capacity_rejected() {
        let _ = NodeCapacity::new(0.0, 1.0, 1.0);
    }

    #[test]
    fn validity_checks() {
        assert!(demand().is_valid());
        assert!(!ResourceVector::new(-1.0, 0.0, 0.0, 0.0).is_valid());
        assert!(!ResourceVector::new(f64::NAN, 0.0, 0.0, 0.0).is_valid());
    }
}

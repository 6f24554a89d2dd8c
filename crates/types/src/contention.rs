//! The contention vector `U` of paper Table II.
//!
//! `U = {U_core, U_cache, U_diskBW, U_networkBW}` is what the online
//! monitors observe for a component: the node-level pressure on each of the
//! four shared-resource classes. The performance model (paper Eq. 1) maps a
//! contention vector to a predicted service time; the performance matrix
//! (paper Table III) shifts contention vectors when evaluating candidate
//! migrations.

use crate::resources::ResourceKind;
use std::ops::{Add, Sub};

/// Number of contention dimensions (the four Table II resource classes).
pub const CONTENTION_DIMS: usize = 4;

/// The observed contention vector `U` for a component on its node.
///
/// * `core_usage` — fraction of the node's cores demanded by all resident
///   programs. Can exceed 1.0 under oversubscription (analogous to a
///   normalised load average).
/// * `cache_mpki` — aggregate misses-per-kilo-instruction pressure on the
///   shared LLC/ITLB/DTLB.
/// * `disk_util` — fraction of disk bandwidth demanded (again, >1.0 means
///   the disk is oversubscribed and requests queue).
/// * `net_util` — fraction of network bandwidth demanded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentionVector {
    /// Core-usage share of node capacity (Table II row 1).
    pub core_usage: f64,
    /// Shared cache MPKI (Table II row 2).
    pub cache_mpki: f64,
    /// Disk-bandwidth share of node capacity (Table II row 3).
    pub disk_util: f64,
    /// Network-bandwidth share of node capacity (Table II row 4).
    pub net_util: f64,
}

impl ContentionVector {
    /// The zero (idle node) contention vector.
    pub const ZERO: ContentionVector = ContentionVector {
        core_usage: 0.0,
        cache_mpki: 0.0,
        disk_util: 0.0,
        net_util: 0.0,
    };

    /// Creates a contention vector from its four components.
    pub const fn new(core_usage: f64, cache_mpki: f64, disk_util: f64, net_util: f64) -> Self {
        ContentionVector {
            core_usage,
            cache_mpki,
            disk_util,
            net_util,
        }
    }

    /// Reads one dimension by resource kind.
    #[inline]
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Core => self.core_usage,
            ResourceKind::Cache => self.cache_mpki,
            ResourceKind::DiskBw => self.disk_util,
            ResourceKind::NetBw => self.net_util,
        }
    }

    /// Writes one dimension by resource kind.
    #[inline]
    pub fn set(&mut self, kind: ResourceKind, value: f64) {
        match kind {
            ResourceKind::Core => self.core_usage = value,
            ResourceKind::Cache => self.cache_mpki = value,
            ResourceKind::DiskBw => self.disk_util = value,
            ResourceKind::NetBw => self.net_util = value,
        }
    }

    /// The vector as a fixed array in canonical Table II order, the feature
    /// layout consumed by the regression substrate.
    #[inline]
    pub fn as_array(&self) -> [f64; CONTENTION_DIMS] {
        [
            self.core_usage,
            self.cache_mpki,
            self.disk_util,
            self.net_util,
        ]
    }

    /// Element-wise subtraction clamped at zero; removing a co-runner's
    /// share can never drive observed contention negative.
    #[must_use]
    pub fn saturating_sub(&self, rhs: &ContentionVector) -> ContentionVector {
        ContentionVector {
            core_usage: (self.core_usage - rhs.core_usage).max(0.0),
            cache_mpki: (self.cache_mpki - rhs.cache_mpki).max(0.0),
            disk_util: (self.disk_util - rhs.disk_util).max(0.0),
            net_util: (self.net_util - rhs.net_util).max(0.0),
        }
    }

    /// Scales every dimension by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> ContentionVector {
        ContentionVector {
            core_usage: self.core_usage * factor,
            cache_mpki: self.cache_mpki * factor,
            disk_util: self.disk_util * factor,
            net_util: self.net_util * factor,
        }
    }

    /// True if every dimension is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.core_usage) && ok(self.cache_mpki) && ok(self.disk_util) && ok(self.net_util)
    }

    /// Euclidean distance to another contention vector, used by tests and
    /// diagnostics to compare monitored vs ground-truth contention.
    pub fn distance(&self, other: &ContentionVector) -> f64 {
        let d = *self - *other;
        (d.core_usage * d.core_usage
            + d.cache_mpki * d.cache_mpki
            + d.disk_util * d.disk_util
            + d.net_util * d.net_util)
            .sqrt()
    }
}

impl Add for ContentionVector {
    type Output = ContentionVector;
    fn add(self, rhs: ContentionVector) -> ContentionVector {
        ContentionVector {
            core_usage: self.core_usage + rhs.core_usage,
            cache_mpki: self.cache_mpki + rhs.cache_mpki,
            disk_util: self.disk_util + rhs.disk_util,
            net_util: self.net_util + rhs.net_util,
        }
    }
}

impl Sub for ContentionVector {
    type Output = ContentionVector;
    fn sub(self, rhs: ContentionVector) -> ContentionVector {
        ContentionVector {
            core_usage: self.core_usage - rhs.core_usage,
            cache_mpki: self.cache_mpki - rhs.cache_mpki,
            disk_util: self.disk_util - rhs.disk_util,
            net_util: self.net_util - rhs.net_util,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_round_trip_preserves_order() {
        let u = ContentionVector::new(0.5, 12.0, 0.3, 0.1);
        let arr = u.as_array();
        assert_eq!(arr, [0.5, 12.0, 0.3, 0.1]);
    }

    #[test]
    fn get_matches_kind_order() {
        let u = ContentionVector::new(0.5, 12.0, 0.3, 0.1);
        for kind in ResourceKind::ALL {
            assert_eq!(u.get(kind), u.as_array()[kind.index()]);
        }
    }

    #[test]
    fn add_sub_are_inverses() {
        let a = ContentionVector::new(0.5, 12.0, 0.3, 0.1);
        let b = ContentionVector::new(0.2, 3.0, 0.1, 0.05);
        let back = (a + b) - b;
        assert!(back.distance(&a) < 1e-12);
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = ContentionVector::new(0.1, 1.0, 0.0, 0.0);
        let b = ContentionVector::new(0.5, 5.0, 0.2, 0.3);
        let diff = a.saturating_sub(&b);
        assert!(diff.is_valid());
        assert_eq!(diff, ContentionVector::ZERO);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = ContentionVector::new(0.5, 12.0, 0.3, 0.1);
        let b = ContentionVector::new(0.1, 2.0, 0.9, 0.4);
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-15);
    }

    #[test]
    fn validity_rejects_nan_and_negative() {
        assert!(ContentionVector::ZERO.is_valid());
        assert!(!ContentionVector::new(-0.1, 0.0, 0.0, 0.0).is_valid());
        assert!(!ContentionVector::new(0.0, f64::INFINITY, 0.0, 0.0).is_valid());
    }
}

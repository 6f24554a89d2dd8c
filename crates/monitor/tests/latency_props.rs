//! `LatencyRecorder::summary` against the sorted-buffer reference, bit
//! for bit.
//!
//! The reference is what the recorder's summary has always meant: every
//! sample's `as_secs_f64` value, sorted by `f64::total_cmp`, then
//! `percentile_sorted` at 0.50/0.95/0.99, the `Moments::from_slice`
//! mean and the last value as the maximum. The recorder keeps counts per
//! microsecond instead of the samples, so the property covers the places
//! a histogram walk can slip: empty and tiny populations, runs of equal
//! values, both sides of the dense-array bound (65,535 and 65,536 µs)
//! and the raw list of long latencies, out to values past 2^32 µs.

use pcs_monitor::{LatencyRecorder, LatencySummary};
use pcs_queueing::{percentile_sorted, Moments};
use pcs_types::SimDuration;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference summary over a sorted copy of the samples.
fn reference(samples: &[SimDuration]) -> LatencySummary {
    let mut sorted: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    sorted.sort_by(f64::total_cmp);
    let Some(&max) = sorted.last() else {
        return LatencySummary::EMPTY;
    };
    LatencySummary {
        count: sorted.len(),
        mean: Moments::from_slice(&sorted).mean(),
        p50: percentile_sorted(&sorted, 0.50).unwrap(),
        p95: percentile_sorted(&sorted, 0.95).unwrap(),
        p99: percentile_sorted(&sorted, 0.99).unwrap(),
        max,
    }
}

/// A summary's count and the bit patterns of its five values.
fn bits(s: &LatencySummary) -> (usize, [u64; 5]) {
    (
        s.count,
        [s.mean, s.p50, s.p95, s.p99, s.max].map(f64::to_bits),
    )
}

fn summarise(samples: &[SimDuration]) -> LatencySummary {
    let mut recorder = LatencyRecorder::new();
    for &s in samples {
        recorder.record(s);
    }
    assert_eq!(recorder.len(), samples.len());
    recorder.summary()
}

/// One sample in microseconds. Half the draws come from region `mix`,
/// so some cases are almost all duplicates and others almost all long
/// latencies.
fn draw(mix: u8, rng: &mut SmallRng) -> u64 {
    let region = if rng.gen_bool(0.5) {
        mix
    } else {
        rng.gen_range(0..5u8)
    };
    match region {
        // A handful of values, repeated many times.
        0 => [3, 250, 1_200, 9_999][rng.gen_range(0..4usize)],
        // Either side of the dense-array bound.
        1 => [0, 65_534, 65_535, 65_536, 65_537][rng.gen_range(0..5usize)],
        // Anywhere in the dense range.
        2 => rng.gen_range(0..65_536u64),
        // Long latencies up to a few seconds.
        3 => rng.gen_range(65_536..4_000_000u64),
        // Far past 2^32 µs, up to the largest duration.
        _ => {
            if rng.gen_bool(0.1) {
                u64::MAX
            } else {
                rng.gen_range(1u64 << 32..1u64 << 60)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summary_is_bit_identical_to_the_sorted_reference(
        seed in 0u64..u64::MAX,
        size in 0usize..8,
        len in 0usize..=10_000,
        mix in 0u8..5,
    ) {
        // A third of the cases hold 0, 1 or 2 samples.
        let n = if size < 3 { size } else { len };
        let mut rng = SmallRng::seed_from_u64(seed);
        let samples: Vec<SimDuration> = (0..n)
            .map(|_| SimDuration::from_micros(draw(mix, &mut rng)))
            .collect();
        prop_assert_eq!(bits(&summarise(&samples)), bits(&reference(&samples)));
    }
}

#[test]
fn edge_populations_match_the_reference() {
    for us in [
        &[][..],
        &[0],
        &[65_535],
        &[65_536],
        &[65_536, 65_535],
        &[u64::MAX, 1 << 33, 65_536, 7],
        &[42; 1_000],
        &[1 << 40, 1 << 40, 1 << 40],
    ] {
        let samples: Vec<SimDuration> = us.iter().map(|&v| SimDuration::from_micros(v)).collect();
        assert_eq!(
            bits(&summarise(&samples)),
            bits(&reference(&samples)),
            "{us:?}"
        );
    }
}

//! Contention sampling with the paper's two cadences and measurement noise.
//!
//! Paper §VI-A ("Measurement method"): *"The monitor obtains the request
//! arrival rate and the system-level contention information once every
//! second and the micro-architectural contention information once every
//! minute."* System-level dimensions (core usage, disk/net bandwidth) are
//! cheap `/proc` reads; MPKI needs hardware performance counters and is
//! sampled far less often — so between counter reads the monitor reports a
//! *stale* MPKI value. The sampler reproduces both the cadence split and
//! multiplicative measurement noise.

use pcs_queueing::standard_normal;
use pcs_types::{ensure, ContentionVector, PcsError, SimDuration, SimTime};
use rand::Rng;

/// Sampling cadences and noise level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Period between system-level samples (core usage, disk/net BW).
    /// Paper: 1 second.
    pub system_period: SimDuration,
    /// Period between micro-architectural samples (MPKI). Paper: 1 minute.
    pub microarch_period: SimDuration,
    /// Relative standard deviation of multiplicative measurement noise
    /// applied to every sampled dimension (0 = perfect observation).
    pub noise_rel_std: f64,
}

impl SamplerConfig {
    /// The paper's measurement method: 1 s system-level, 60 s
    /// micro-architectural, 1 % measurement noise.
    pub const PAPER: SamplerConfig = SamplerConfig {
        system_period: SimDuration::from_secs(1),
        microarch_period: SimDuration::from_secs(60),
        noise_rel_std: 0.01,
    };

    /// A noise-free, single-cadence config for deterministic tests.
    pub fn perfect(period: SimDuration) -> Self {
        SamplerConfig {
            system_period: period,
            microarch_period: period,
            noise_rel_std: 0.0,
        }
    }

    /// Checks that both periods are non-zero and the noise level finite
    /// and non-negative.
    ///
    /// # Errors
    /// [`PcsError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), PcsError> {
        ensure!(
            !self.system_period.is_zero(),
            "sampler.system_period",
            "system sampling period must be non-zero"
        );
        ensure!(
            !self.microarch_period.is_zero(),
            "sampler.microarch_period",
            "micro-architectural sampling period must be non-zero"
        );
        ensure!(
            self.noise_rel_std >= 0.0 && self.noise_rel_std.is_finite(),
            "sampler.noise_rel_std",
            "noise level must be finite and non-negative, got {}",
            self.noise_rel_std
        );
        Ok(())
    }
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig::PAPER
    }
}

/// Samples one node's contention on the paper's cadences, remembering the
/// last micro-architectural reading between (infrequent) counter reads.
#[derive(Debug, Clone)]
pub struct ContentionSampler {
    config: SamplerConfig,
    next_system: SimTime,
    next_microarch: SimTime,
    /// Last MPKI reading (reported until the next counter read).
    stale_mpki: f64,
    /// Samples collected since the last drain.
    window: Vec<ContentionVector>,
}

impl ContentionSampler {
    /// Creates a sampler that fires from `start` onwards.
    ///
    /// # Panics
    /// Panics if [`SamplerConfig::validate`] rejects `config`.
    pub fn new(config: SamplerConfig, start: SimTime) -> Self {
        if let Err(err) = config.validate() {
            panic!("{err}");
        }
        ContentionSampler {
            config,
            next_system: start,
            next_microarch: start,
            stale_mpki: 0.0,
            window: Vec::new(),
        }
    }

    /// When the sampler next needs to observe the node.
    pub fn next_due(&self) -> SimTime {
        self.next_system.min(self.next_microarch)
    }

    /// Feeds the ground-truth contention at `now`. If a sampling period has
    /// elapsed, records a (noisy, possibly MPKI-stale) observation into the
    /// current window and schedules the next sample.
    ///
    /// Returns the recorded observation, if one was taken.
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        ground_truth: &ContentionVector,
        rng: &mut R,
    ) -> Option<ContentionVector> {
        let system_due = now >= self.next_system;
        let microarch_due = now >= self.next_microarch;
        if !system_due && !microarch_due {
            return None;
        }
        if microarch_due {
            self.stale_mpki = self.noisy(ground_truth.cache_mpki, rng);
            while self.next_microarch <= now {
                self.next_microarch += self.config.microarch_period;
            }
        }
        if system_due {
            while self.next_system <= now {
                self.next_system += self.config.system_period;
            }
        }
        let sample = ContentionVector {
            core_usage: self.noisy(ground_truth.core_usage, rng),
            cache_mpki: self.stale_mpki,
            disk_util: self.noisy(ground_truth.disk_util, rng),
            net_util: self.noisy(ground_truth.net_util, rng),
        };
        self.window.push(sample);
        Some(sample)
    }

    /// Drains the samples collected since the last drain — called by the
    /// predictor at the end of each scheduling interval.
    pub fn drain_window(&mut self) -> Vec<ContentionVector> {
        std::mem::take(&mut self.window)
    }

    /// [`ContentionSampler::drain_window`] into a reusable buffer: the
    /// caller's buffer is cleared and swapped with the window, so steady
    /// ticking recycles two allocations instead of growing fresh ones.
    pub fn drain_window_into(&mut self, out: &mut Vec<ContentionVector>) {
        out.clear();
        std::mem::swap(&mut self.window, out);
    }

    /// Discards the current window without reading it — for runs whose
    /// scheduler never consumes samples, so the window cannot grow for
    /// the whole horizon.
    pub fn discard_window(&mut self) {
        self.window.clear();
    }

    /// Number of samples waiting in the current window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The sampler's configuration.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    fn noisy<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        if self.config.noise_rel_std == 0.0 {
            return value;
        }
        let factor = 1.0 + self.config.noise_rel_std * standard_normal(rng);
        (value * factor).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn truth() -> ContentionVector {
        ContentionVector::new(0.5, 20.0, 0.3, 0.2)
    }

    #[test]
    fn perfect_sampler_reports_ground_truth() {
        let cfg = SamplerConfig::perfect(SimDuration::from_secs(1));
        let mut s = ContentionSampler::new(cfg, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);
        let sample = s.observe(SimTime::ZERO, &truth(), &mut rng).unwrap();
        assert_eq!(sample, truth());
    }

    #[test]
    fn respects_system_cadence() {
        let cfg = SamplerConfig::perfect(SimDuration::from_secs(1));
        let mut s = ContentionSampler::new(cfg, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(s.observe(SimTime::ZERO, &truth(), &mut rng).is_some());
        // 500 ms later: not due yet.
        assert!(s
            .observe(SimTime::from_millis(500), &truth(), &mut rng)
            .is_none());
        // 1 s later: due.
        assert!(s
            .observe(SimTime::from_secs(1), &truth(), &mut rng)
            .is_some());
        assert_eq!(s.window_len(), 2);
    }

    #[test]
    fn mpki_is_stale_between_counter_reads() {
        let cfg = SamplerConfig {
            system_period: SimDuration::from_secs(1),
            microarch_period: SimDuration::from_secs(60),
            noise_rel_std: 0.0,
        };
        let mut s = ContentionSampler::new(cfg, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);

        let first = s.observe(SimTime::ZERO, &truth(), &mut rng).unwrap();
        assert_eq!(first.cache_mpki, 20.0);

        // MPKI ground truth changes, but the next system-level sample still
        // reports the stale counter reading.
        let changed = ContentionVector::new(0.5, 35.0, 0.3, 0.2);
        let second = s
            .observe(SimTime::from_secs(1), &changed, &mut rng)
            .unwrap();
        assert_eq!(second.cache_mpki, 20.0, "MPKI must be stale before 60s");
        assert_eq!(second.core_usage, 0.5);

        // After the minute boundary the counter is re-read.
        let third = s
            .observe(SimTime::from_secs(60), &changed, &mut rng)
            .unwrap();
        assert_eq!(third.cache_mpki, 35.0);
    }

    #[test]
    fn drain_empties_the_window() {
        let cfg = SamplerConfig::perfect(SimDuration::from_secs(1));
        let mut s = ContentionSampler::new(cfg, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..5 {
            s.observe(SimTime::from_secs(t), &truth(), &mut rng);
        }
        assert_eq!(s.window_len(), 5);
        let drained = s.drain_window();
        assert_eq!(drained.len(), 5);
        assert_eq!(s.window_len(), 0);
    }

    #[test]
    fn noise_is_unbiased_and_non_negative() {
        let cfg = SamplerConfig {
            system_period: SimDuration::from_secs(1),
            microarch_period: SimDuration::from_secs(1),
            noise_rel_std: 0.05,
        };
        let mut s = ContentionSampler::new(cfg, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut sum = 0.0;
        let n = 20_000;
        for t in 0..n {
            let sample = s
                .observe(SimTime::from_secs(t as u64), &truth(), &mut rng)
                .unwrap();
            assert!(sample.is_valid());
            sum += sample.core_usage;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 0.5).abs() < 0.01,
            "noise must be unbiased, mean {mean}"
        );
    }

    #[test]
    fn next_due_tracks_earliest_cadence() {
        let cfg = SamplerConfig::PAPER;
        let mut s = ContentionSampler::new(cfg, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(s.next_due(), SimTime::ZERO);
        s.observe(SimTime::ZERO, &truth(), &mut rng);
        assert_eq!(s.next_due(), SimTime::from_secs(1));
    }
}

//! Request arrival processes.
//!
//! The paper's extended model assumes Poisson request arrivals (the M in
//! M/G/1), and the evaluation sweeps fixed rates of 10–500 requests/second
//! "to compare the latency reduction techniques under online services'
//! diurnal variation in load". An [`ArrivalPattern`] names the shape —
//! fixed-rate Poisson, a sinusoidally modulated (diurnal) rate, or a
//! two-state Markov-modulated Poisson process — and [`Arrivals`] samples
//! it around a base rate.

use pcs_queueing::{Exponential, ServiceDistribution};
use pcs_types::{SimDuration, SimTime};
use rand::Rng;

/// Declarative description of an arrival process, kept in simulation
/// configs (plain data: `Clone`/`Debug`/comparable). [`Arrivals::new`]
/// starts the process around a base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Homogeneous Poisson arrivals at the configured base rate — the
    /// paper's fixed-rate evaluation setting.
    Steady,
    /// The configured base rate modulated sinusoidally,
    /// `λ(t) = base · (1 + amplitude·sin(2πt/period))` — the paper's
    /// "diurnal variation in load" made explicit.
    ///
    /// Sampled by thinning-free local approximation: the interarrival is
    /// drawn from the instantaneous rate, which is accurate when the
    /// period is much longer than a typical interarrival gap.
    Diurnal {
        /// Relative modulation depth in `[0, 1)`.
        amplitude: f64,
        /// Length of one load cycle.
        period: SimDuration,
    },
    /// A two-state Markov-modulated Poisson process (MMPP): arrivals are
    /// Poisson at `base · low` in the calm state and `base · high` in the
    /// bursty state, with exponentially distributed dwell times in each.
    ///
    /// With equal mean dwell times the long-run average rate is
    /// `base · (low + high) / 2`, so `low + high = 2` keeps the offered
    /// load comparable to the fixed-rate setting while concentrating it
    /// into bursts — the arrival-side analogue of the batch churn the
    /// paper uses on the service side.
    ///
    /// Sampling is exact: an interarrival candidate is drawn from the
    /// current state's rate; if it crosses the next state switch, the draw
    /// restarts from the switch point at the new state's rate (valid by
    /// memorylessness of the exponential in both processes).
    Mmpp {
        /// Rate multiplier of the calm state (`0 < low <= high`).
        low: f64,
        /// Rate multiplier of the bursty state.
        high: f64,
        /// Mean dwell time in each state (exponentially distributed).
        mean_dwell: SimDuration,
    },
}

/// A running arrival process: an [`ArrivalPattern`] around a base rate,
/// plus the position of the MMPP modulating chain.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    pattern: ArrivalPattern,
    base_rate: f64,
    /// Whether the MMPP chain is currently in the bursty state (it starts
    /// calm).
    in_burst: bool,
    /// When the MMPP chain next switches state (`None` until the first
    /// draw).
    next_switch: Option<SimTime>,
}

impl Arrivals {
    /// Starts `pattern` around `base_rate` (req/s). The caller validates
    /// both (the simulator does in its config check); a non-positive rate
    /// panics at the first draw.
    pub fn new(pattern: ArrivalPattern, base_rate: f64) -> Self {
        Arrivals {
            pattern,
            base_rate,
            in_burst: false,
            next_switch: None,
        }
    }

    /// Samples the gap from `now` until the next arrival. Calls must come
    /// in time order (the MMPP chain advances with them).
    pub fn next_interarrival<R: Rng + ?Sized>(&mut self, now: SimTime, rng: &mut R) -> SimDuration {
        let ArrivalPattern::Mmpp { mean_dwell, .. } = self.pattern else {
            return gap(self.rate_at(now), rng);
        };
        let mean_dwell_rate = 1.0 / mean_dwell.as_secs_f64();
        let mut cursor = now;
        let mut next_switch = match self.next_switch {
            Some(t) if t > now => t,
            // First draw, or a stale switch time (both exponentials are
            // memoryless, so restarting the dwell clock is exact).
            stale => {
                if stale.is_some() {
                    self.in_burst = !self.in_burst;
                }
                now + gap(mean_dwell_rate, rng)
            }
        };
        loop {
            let candidate = cursor + gap(self.rate_at(cursor), rng);
            if candidate <= next_switch {
                self.next_switch = Some(next_switch);
                return candidate - now;
            }
            cursor = next_switch;
            self.in_burst = !self.in_burst;
            next_switch = cursor + gap(mean_dwell_rate, rng);
        }
    }

    /// The instantaneous arrival rate (req/s) at `now`. For the MMPP this
    /// is the chain's current-state rate, exact for `now` between the last
    /// sampled arrival and the pending state switch.
    fn rate_at(&self, now: SimTime) -> f64 {
        match self.pattern {
            ArrivalPattern::Steady => self.base_rate,
            ArrivalPattern::Diurnal { amplitude, period } => {
                let phase = 2.0 * std::f64::consts::PI * now.as_secs_f64() / period.as_secs_f64();
                self.base_rate * (1.0 + amplitude * phase.sin())
            }
            ArrivalPattern::Mmpp { low, high, .. } => {
                self.base_rate * if self.in_burst { high } else { low }
            }
        }
    }
}

/// One exponential gap at `rate` (1/s).
fn gap<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> SimDuration {
    SimDuration::from_secs_f64(Exponential::new(rate).sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const STEADY: ArrivalPattern = ArrivalPattern::Steady;

    fn mmpp(low: f64, high: f64, dwell_secs: u64) -> ArrivalPattern {
        ArrivalPattern::Mmpp {
            low,
            high,
            mean_dwell: SimDuration::from_secs(dwell_secs),
        }
    }

    fn diurnal(amplitude: f64, period_secs: u64) -> ArrivalPattern {
        ArrivalPattern::Diurnal {
            amplitude,
            period: SimDuration::from_secs(period_secs),
        }
    }

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        let mut p = Arrivals::new(STEADY, 100.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| p.next_interarrival(SimTime::ZERO, &mut rng).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!(
            (mean - 0.01).abs() / 0.01 < 0.02,
            "mean interarrival {mean} should be ~10ms"
        );
    }

    #[test]
    fn poisson_rate_is_constant() {
        let p = Arrivals::new(STEADY, 42.0);
        assert_eq!(p.rate_at(SimTime::ZERO), 42.0);
        assert_eq!(p.rate_at(SimTime::from_secs(1000)), 42.0);
    }

    #[test]
    fn diurnal_rate_oscillates_around_base() {
        let d = Arrivals::new(diurnal(0.5, 86_400), 100.0);
        let quarter = SimTime::from_secs(86_400 / 4); // sin peak
        let three_quarter = SimTime::from_secs(3 * 86_400 / 4); // sin trough
        assert!((d.rate_at(quarter) - 150.0).abs() < 1.0);
        assert!((d.rate_at(three_quarter) - 50.0).abs() < 1.0);
        assert!((d.rate_at(SimTime::ZERO) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_rate_never_non_positive() {
        let d = Arrivals::new(diurnal(0.99, 3600), 10.0);
        for s in 0..3600 {
            assert!(d.rate_at(SimTime::from_secs(s)) > 0.0);
        }
    }

    #[test]
    fn pattern_builds_matching_process() {
        let steady = Arrivals::new(STEADY, 120.0);
        assert_eq!(steady.rate_at(SimTime::from_secs(999)), 120.0);

        let mut diurnal = Arrivals::new(diurnal(0.5, 100), 100.0);
        assert!((diurnal.rate_at(SimTime::from_secs(25)) - 150.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(!diurnal.next_interarrival(SimTime::ZERO, &mut rng).is_zero());

        let mmpp = Arrivals::new(mmpp(0.25, 1.75, 4), 100.0);
        assert!(
            (mmpp.rate_at(SimTime::ZERO) - 25.0).abs() < 1e-9,
            "starts calm"
        );
    }

    /// Replays a process sequentially (the simulator's call pattern) and
    /// returns the arrival times.
    fn arrivals(pattern: ArrivalPattern, rate: f64, seed: u64, horizon_secs: u64) -> Vec<SimTime> {
        let mut p = Arrivals::new(pattern, rate);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        loop {
            t = t + p.next_interarrival(t, &mut rng);
            if t > SimTime::from_secs(horizon_secs) {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn mmpp_long_run_rate_matches_base() {
        // low + high = 2 with equal dwell times: long-run mean = base.
        let arrivals = arrivals(mmpp(0.25, 1.75, 2), 200.0, 9, 400);
        let rate = arrivals.len() as f64 / 400.0;
        assert!(
            (rate - 200.0).abs() / 200.0 < 0.1,
            "long-run MMPP rate {rate} should approach the base 200 req/s"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion of counts over 1 s windows: 1 for Poisson,
        // substantially larger for a strongly modulated MMPP.
        let dispersion = |times: &[SimTime], horizon: u64| {
            let mut counts = vec![0f64; horizon as usize];
            for t in times {
                let bin = (t.as_secs_f64().floor() as usize).min(counts.len() - 1);
                counts[bin] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var =
                counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
            var / mean
        };
        let bursty = arrivals(mmpp(0.25, 1.75, 4), 100.0, 3, 300);
        let steady = arrivals(STEADY, 100.0, 3, 300);
        let d_bursty = dispersion(&bursty, 300);
        let d_steady = dispersion(&steady, 300);
        assert!(
            d_bursty > 3.0 * d_steady,
            "MMPP dispersion {d_bursty} must dwarf Poisson's {d_steady}"
        );
    }

    #[test]
    fn mmpp_is_deterministic_per_seed() {
        let p = mmpp(0.5, 1.5, 3);
        let a = arrivals(p, 150.0, 42, 60);
        let b = arrivals(p, 150.0, 42, 60);
        assert_eq!(a, b);
        let c = arrivals(p, 150.0, 43, 60);
        assert_ne!(a, c);
    }
}

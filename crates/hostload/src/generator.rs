//! Synthetic host-load generation.
//!
//! The generator layers two processes, following the qualitative
//! findings of the host-load measurement literature (Dinda's PSC
//! traces):
//!
//! 1. a mean-reverting **AR(1)** base `x' = μ + φ(x − μ) + ε`
//!    producing the strong short-lag autocorrelation of load averages,
//!    and
//! 2. **Pareto-duration on/off bursts** adding the heavy-tailed
//!    epochal behaviour responsible for self-similarity (Hurst
//!    parameter ≈ 0.8–0.95).
//!
//! Samples are clamped to `[0, 8]`. The three presets mirror
//! the paper's *none / light / heavy* background-load conditions.

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::SimDuration;

use crate::trace::LoadTrace;

/// The clamp ceiling: at most eight runnable background processes.
const MAX_LOAD: f64 = 8.0;

/// The paper's three background-load intensities (Figure 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LoadLevel {
    /// No background load at all.
    #[default]
    None,
    /// Light load: mean ≈ 0.25 runnable processes, rare bursts.
    Light,
    /// Heavy load: mean ≈ 1.0 runnable process, frequent multi-process
    /// bursts.
    Heavy,
}

impl LoadLevel {
    /// All three levels, in presentation order.
    pub const ALL: [LoadLevel; 3] = [LoadLevel::None, LoadLevel::Light, LoadLevel::Heavy];

    /// Short lowercase label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            LoadLevel::None => "none",
            LoadLevel::Light => "light",
            LoadLevel::Heavy => "heavy",
        }
    }
}

impl std::fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configurable synthetic load-trace generator.
///
/// ```
/// use gridvm_hostload::generator::{LoadLevel, TraceGenerator};
/// use gridvm_simcore::rng::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let trace = TraceGenerator::preset(LoadLevel::Heavy).generate(3_000, &mut rng);
/// assert_eq!(trace.len(), 3_000);
/// assert!(trace.mean() > 0.5, "heavy load should be substantial");
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    mean: f64,
    phi: f64,
    sigma: f64,
    burst_rate: f64,
    burst_height: f64,
    burst_alpha: f64,
    burst_min_len: f64,
    interval: SimDuration,
}

impl TraceGenerator {
    /// Creates a generator with explicit AR and burst parameters.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative, `phi` is outside `[0, 1)` or
    /// `sigma` is negative.
    pub fn new(mean: f64, phi: f64, sigma: f64) -> Self {
        assert!(mean >= 0.0, "negative mean load");
        assert!((0.0..1.0).contains(&phi), "phi must be in [0,1)");
        assert!(sigma >= 0.0, "negative sigma");
        TraceGenerator {
            mean,
            phi,
            sigma,
            burst_rate: 0.0,
            burst_height: 0.0,
            burst_alpha: 1.5,
            burst_min_len: 2.0,
            interval: SimDuration::from_millis(1000),
        }
    }

    /// The generator matching one of the paper's load levels.
    pub fn preset(level: LoadLevel) -> Self {
        match level {
            LoadLevel::None => TraceGenerator::new(0.0, 0.0, 0.0),
            LoadLevel::Light => {
                let mut g = TraceGenerator::new(0.2, 0.95, 0.05);
                g = g.with_bursts(0.01, 0.8, 1.5, 3.0);
                g
            }
            LoadLevel::Heavy => {
                let mut g = TraceGenerator::new(0.9, 0.97, 0.08);
                g = g.with_bursts(0.04, 1.5, 1.3, 5.0);
                g
            }
        }
    }

    /// Adds Pareto-duration on/off bursts: bursts begin per-sample
    /// with probability `rate`, add `height` load, and last
    /// `Pareto(min_len, alpha)` samples.
    ///
    /// # Panics
    ///
    /// Panics on negative `rate`/`height` or non-positive
    /// `alpha`/`min_len`.
    pub fn with_bursts(mut self, rate: f64, height: f64, alpha: f64, min_len: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "burst rate must be in [0,1]");
        assert!(height >= 0.0, "negative burst height");
        assert!(alpha > 0.0 && min_len > 0.0, "non-positive burst shape");
        self.burst_rate = rate;
        self.burst_height = height;
        self.burst_alpha = alpha;
        self.burst_min_len = min_len;
        self
    }

    /// Overrides the sampling interval (default 1 s, Dinda's rate).
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "zero sampling interval");
        self.interval = interval;
        self
    }

    /// Generates a trace of `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn generate(&self, len: usize, rng: &mut SimRng) -> LoadTrace {
        assert!(len > 0, "generate: zero-length trace");
        let mut samples = Vec::with_capacity(len);
        let mut x = self.mean;
        let mut burst_remaining = 0u64;
        for _ in 0..len {
            x = self.mean + self.phi * (x - self.mean) + rng.normal(0.0, self.sigma);
            x = x.clamp(0.0, MAX_LOAD);
            let mut v = x;
            if burst_remaining > 0 {
                burst_remaining -= 1;
                v += self.burst_height;
            } else if self.burst_rate > 0.0 && rng.chance(self.burst_rate) {
                burst_remaining = rng
                    .pareto(self.burst_min_len, self.burst_alpha)
                    .min(len as f64) as u64;
                v += self.burst_height;
            }
            samples.push(v.clamp(0.0, MAX_LOAD));
        }
        LoadTrace::from_samples(self.interval, samples)
            .expect("generator produced an invalid trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn none_preset_is_silent() {
        let mut rng = SimRng::seed_from(1);
        let t = TraceGenerator::preset(LoadLevel::None).generate(100, &mut rng);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.peak(), 0.0);
    }

    #[test]
    fn light_and_heavy_means_are_ordered() {
        let mut rng = SimRng::seed_from(2);
        let light = TraceGenerator::preset(LoadLevel::Light).generate(5_000, &mut rng);
        let heavy = TraceGenerator::preset(LoadLevel::Heavy).generate(5_000, &mut rng);
        assert!(light.mean() > 0.05, "light mean {}", light.mean());
        assert!(light.mean() < 0.6, "light mean {}", light.mean());
        assert!(heavy.mean() > 0.7, "heavy mean {}", heavy.mean());
        assert!(heavy.mean() > 2.0 * light.mean());
    }

    #[test]
    fn samples_stay_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        let t = TraceGenerator::preset(LoadLevel::Heavy).generate(10_000, &mut rng);
        assert!(t.samples().iter().all(|s| (0.0..=MAX_LOAD).contains(s)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = TraceGenerator::preset(LoadLevel::Light);
        let a = g.generate(500, &mut SimRng::seed_from(7));
        let b = g.generate(500, &mut SimRng::seed_from(7));
        assert_eq!(a, b);
        let c = g.generate(500, &mut SimRng::seed_from(8));
        assert_ne!(a, c);
    }

    #[test]
    fn load_is_strongly_autocorrelated() {
        let mut rng = SimRng::seed_from(4);
        let t = TraceGenerator::preset(LoadLevel::Heavy).generate(8_000, &mut rng);
        let acf1 = analysis::autocorrelation(t.samples(), 1);
        assert!(acf1 > 0.8, "lag-1 autocorrelation {acf1} too weak");
    }

    #[test]
    fn load_is_long_range_dependent() {
        let mut rng = SimRng::seed_from(5);
        let t = TraceGenerator::preset(LoadLevel::Heavy).generate(8_192, &mut rng);
        let h = analysis::hurst_rs(t.samples());
        assert!(h > 0.65, "Hurst estimate {h} shows no LRD");
    }

    #[test]
    fn bursts_raise_the_peak() {
        let mut rng1 = SimRng::seed_from(6);
        let mut rng2 = SimRng::seed_from(6);
        let base = TraceGenerator::new(0.5, 0.9, 0.05).generate(4_000, &mut rng1);
        let bursty = TraceGenerator::new(0.5, 0.9, 0.05)
            .with_bursts(0.05, 2.0, 1.5, 4.0)
            .generate(4_000, &mut rng2);
        assert!(bursty.peak() > base.peak() + 1.0);
    }

    #[test]
    fn custom_interval_is_respected() {
        let mut rng = SimRng::seed_from(9);
        let t = TraceGenerator::preset(LoadLevel::Light)
            .with_interval(SimDuration::from_millis(100))
            .generate(10, &mut rng);
        assert_eq!(t.interval(), SimDuration::from_millis(100));
        assert_eq!(t.duration(), SimDuration::from_secs(1));
    }

    #[test]
    fn level_labels() {
        assert_eq!(LoadLevel::None.to_string(), "none");
        assert_eq!(LoadLevel::Light.label(), "light");
        assert_eq!(LoadLevel::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "phi")]
    fn invalid_phi_panics() {
        let _ = TraceGenerator::new(0.5, 1.0, 0.1);
    }
}

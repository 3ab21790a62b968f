//! Online statistics for experiment harnesses.
//!
//! The reproduction binaries report the same aggregates the paper
//! does: mean, standard deviation, minimum, maximum (Table 2) and mean
//! ± one standard deviation over 1000 samples (Figure 1). These are
//! accumulated with Welford's numerically stable one-pass algorithm.

use std::fmt;

/// One-pass mean/variance/min/max accumulator (Welford).
///
/// ```
/// use gridvm_simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.std_dev() - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
/// assert_eq!((s.min(), s.max()), (2.0, 9.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    // NOT derived: the derive would zero `min`/`max`, and a stats
    // accumulator reached through `Entry::or_default` would then
    // report a spurious 0.0 extremum.
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics on a NaN observation — a NaN in an experiment result is
    /// always a bug upstream and must not be silently absorbed.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "OnlineStats::record: NaN observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n; 0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n−1; 0 when fewer than 2 samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (what the paper's tables report).
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty OnlineStats");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty OnlineStats");
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.5, 2.5, 3.5, 10.0, -4.0, 0.25];
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    #[should_panic(expected = "min of empty")]
    fn empty_min_panics() {
        let _ = OnlineStats::new().min();
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let mut s = OnlineStats::new();
        s.record(42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!((s.min(), s.max()), (42.0, 42.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..37].iter().copied().collect();
        let right: OnlineStats = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), full.count());
        assert!((left.mean() - full.mean()).abs() < 1e-10);
        assert!((left.sample_variance() - full.sample_variance()).abs() < 1e-8);
        assert_eq!(left.min(), full.min());
        assert_eq!(left.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn merge_is_equivalent_to_concat(a in proptest::collection::vec(-1e6f64..1e6, 0..50),
                                         b in proptest::collection::vec(-1e6f64..1e6, 0..50)) {
            let mut merged: OnlineStats = a.iter().copied().collect();
            let rb: OnlineStats = b.iter().copied().collect();
            merged.merge(&rb);
            let joint: OnlineStats = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(merged.count(), joint.count());
            if !joint.is_empty() {
                prop_assert!((merged.mean() - joint.mean()).abs() < 1e-6);
                prop_assert!((merged.population_variance() - joint.population_variance()).abs() < 1e-3);
            }
        }

        #[test]
        fn variance_is_never_negative(xs in proptest::collection::vec(-1e9f64..1e9, 1..100)) {
            let s: OnlineStats = xs.iter().copied().collect();
            prop_assert!(s.population_variance() >= 0.0);
            prop_assert!(s.sample_variance() >= 0.0);
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.max() >= s.mean() - 1e-9);
        }
    }
}

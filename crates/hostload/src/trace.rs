//! The load-trace container: a fixed-interval series of load samples.
//!
//! *Load* here is the Unix load-average sense used by Dinda's traces:
//! the number of runnable background processes, as a non-negative
//! float sampled at a fixed interval. A load of `1.0` keeps one CPU
//! busy; `2.0` keeps two busy (or one busy with a 2-deep run queue).

use gridvm_simcore::time::{SimDuration, SimTime};

/// A fixed-interval host-load time series.
///
/// ```
/// use gridvm_hostload::trace::LoadTrace;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let t = LoadTrace::from_samples(SimDuration::from_secs(1), vec![0.0, 1.0, 2.0])?;
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.load_at(SimTime::from_secs(1)), 1.0);
/// // beyond the end, the trace wraps around
/// assert_eq!(t.load_at(SimTime::from_secs(4)), 1.0);
/// # Ok::<(), gridvm_hostload::trace::TraceError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LoadTrace {
    interval: SimDuration,
    samples: Vec<f64>,
}

/// Errors constructing or combining load traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The sample vector was empty.
    Empty,
    /// The sampling interval was zero.
    ZeroInterval,
    /// A sample was negative, NaN or infinite.
    InvalidSample {
        /// Index of the offending sample.
        index: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "load trace has no samples"),
            TraceError::ZeroInterval => write!(f, "load trace interval is zero"),
            TraceError::InvalidSample { index } => {
                write!(f, "load sample {index} is negative or not finite")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl LoadTrace {
    /// Builds a trace from samples taken every `interval`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `samples` is empty, `interval` is
    /// zero, or any sample is negative/non-finite.
    pub fn from_samples(interval: SimDuration, samples: Vec<f64>) -> Result<Self, TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        if interval.is_zero() {
            return Err(TraceError::ZeroInterval);
        }
        if let Some(index) = samples.iter().position(|s| !s.is_finite() || *s < 0.0) {
            return Err(TraceError::InvalidSample { index });
        }
        Ok(LoadTrace { interval, samples })
    }

    /// A trace that is identically zero for `len` samples — the
    /// paper's "none" background load.
    pub fn silent(interval: SimDuration, len: usize) -> Self {
        LoadTrace {
            interval,
            samples: vec![0.0; len.max(1)],
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the trace holds a single sample (it can never be
    /// truly empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Total covered duration (`len * interval`).
    pub fn duration(&self) -> SimDuration {
        self.interval * self.samples.len() as u64
    }

    /// The load at absolute time `t` (zero-order hold, wrapping past
    /// the end so playback can run indefinitely).
    pub fn load_at(&self, t: SimTime) -> f64 {
        let idx = (t.as_nanos() / self.interval.as_nanos()) as usize % self.samples.len();
        self.samples[idx]
    }

    /// Mean load over the whole trace.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Peak load over the whole trace.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0_f64, |a, b| a.max(*b))
    }

    /// Pointwise-scales every sample by `factor` (>= 0).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite factor.
    pub fn scaled(&self, factor: f64) -> LoadTrace {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scaled: invalid factor {factor}"
        );
        LoadTrace {
            interval: self.interval,
            samples: self.samples.iter().map(|s| s * factor).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            LoadTrace::from_samples(secs(1), vec![]),
            Err(TraceError::Empty)
        );
        assert_eq!(
            LoadTrace::from_samples(SimDuration::ZERO, vec![1.0]),
            Err(TraceError::ZeroInterval)
        );
        assert_eq!(
            LoadTrace::from_samples(secs(1), vec![0.5, -0.1]),
            Err(TraceError::InvalidSample { index: 1 })
        );
        assert_eq!(
            LoadTrace::from_samples(secs(1), vec![f64::NAN]),
            Err(TraceError::InvalidSample { index: 0 })
        );
    }

    #[test]
    fn load_at_holds_and_wraps() {
        let t = LoadTrace::from_samples(secs(10), vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(t.load_at(SimTime::ZERO), 1.0);
        assert_eq!(t.load_at(SimTime::from_secs(9)), 1.0);
        assert_eq!(t.load_at(SimTime::from_secs(10)), 2.0);
        assert_eq!(t.load_at(SimTime::from_secs(29)), 3.0);
        assert_eq!(t.load_at(SimTime::from_secs(30)), 1.0, "wraps");
        assert_eq!(t.duration(), secs(30));
    }

    #[test]
    fn silent_trace_is_zero_everywhere() {
        let t = LoadTrace::silent(secs(1), 5);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.peak(), 0.0);
        assert_eq!(t.load_at(SimTime::from_secs(123)), 0.0);
    }

    #[test]
    fn scaling_scales_mean() {
        let t = LoadTrace::from_samples(secs(1), vec![1.0, 2.0, 3.0]).unwrap();
        let s = t.scaled(0.5);
        assert!((s.mean() - 1.0).abs() < 1e-12);
        assert_eq!(s.peak(), 1.5);
    }

    #[test]
    fn error_display_is_meaningful() {
        assert!(TraceError::Empty.to_string().contains("no samples"));
        assert!(TraceError::InvalidSample { index: 3 }
            .to_string()
            .contains("sample 3"));
    }
}

//! Trace playback: converting a load trace into the background CPU
//! demand a simulated host applies while a test task runs.
//!
//! This mirrors the paper's experimental method ("background load was
//! produced by host load trace playback of load traces collected on
//! the Pittsburgh Supercomputing Center's Alpha Cluster"): the trace
//! value at time *t* is the number of runnable background processes,
//! which the host's background-load model turns into a run queue.

use gridvm_simcore::time::SimTime;

use crate::trace::LoadTrace;

/// Plays a [`LoadTrace`] from its start, wrapping indefinitely.
///
/// ```
/// use gridvm_hostload::{LoadTrace, TracePlayback};
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let trace = LoadTrace::from_samples(SimDuration::from_secs(1), vec![0.0, 2.4])?;
/// let pb = TracePlayback::new(trace);
/// assert_eq!(pb.load_at(SimTime::ZERO), 0.0);
/// assert_eq!(pb.load_at(SimTime::from_secs(3)), 2.4); // wrapped
/// # Ok::<(), gridvm_hostload::trace::TraceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TracePlayback {
    trace: LoadTrace,
}

impl TracePlayback {
    /// Starts playback at the beginning of the trace.
    pub fn new(trace: LoadTrace) -> Self {
        TracePlayback { trace }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &LoadTrace {
        &self.trace
    }

    /// Instantaneous load at simulation time `t`.
    pub fn load_at(&self, t: SimTime) -> f64 {
        self.trace.load_at(t)
    }
}

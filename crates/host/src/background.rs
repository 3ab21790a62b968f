//! Background load as schedulable tasks.
//!
//! Dinda's playback tool spins up processes so that the instantaneous
//! number of runnable background processes tracks the recorded load
//! average. We model the same thing: a [`BackgroundLoad`] owns a pool
//! of *infinite* tasks; at any instant the first `ceil(load(t))` of
//! them are runnable (the last one duty-modulated by the fractional
//! part so that e.g. load 0.3 presents one process runnable 30% of
//! the time).

use gridvm_hostload::LoadTrace;
use gridvm_sched::TaskId;
use gridvm_simcore::time::SimTime;

/// Trace-driven background load bound to a pool of host task ids.
#[derive(Clone, Debug)]
pub struct BackgroundLoad {
    trace: LoadTrace,
    pool: Vec<TaskId>,
}

impl BackgroundLoad {
    /// Binds a trace, played from its start and wrapping, to a pool
    /// of (already registered) task ids. The pool size caps the
    /// instantaneous process count.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool.
    pub fn new(trace: LoadTrace, pool: Vec<TaskId>) -> Self {
        assert!(!pool.is_empty(), "background pool must not be empty");
        BackgroundLoad { trace, pool }
    }

    /// The task-id pool.
    pub fn pool(&self) -> &[TaskId] {
        &self.pool
    }

    /// The ids runnable at `now`: the first `n` pool members where
    /// `n` derives from the instantaneous load, with the fractional
    /// process made runnable in proportion to the fraction
    /// (deterministically, by comparing against the position within
    /// the trace sample — no randomness, so replications are exact).
    pub fn runnable_at(&self, now: SimTime) -> Vec<TaskId> {
        let load = self.trace.load_at(now);
        if load <= 0.0 {
            return Vec::new();
        }
        let whole = load.floor() as usize;
        let frac = load - load.floor();
        let mut n = whole.min(self.pool.len());
        if frac > 0.0 && n < self.pool.len() {
            // Duty-modulate the fractional process inside each trace
            // sample: runnable during the first `frac` of the sample.
            let interval = self.trace.interval().as_nanos();
            let pos = now.as_nanos() % interval;
            if (pos as f64) < interval as f64 * frac {
                n += 1;
            }
        }
        self.pool[..n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::time::SimDuration;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn ids(n: u64) -> Vec<TaskId> {
        (0..n).map(TaskId).collect()
    }

    #[test]
    fn zero_load_runs_nothing() {
        let bg = BackgroundLoad::new(LoadTrace::silent(secs(1), 3), ids(4));
        assert!(bg.runnable_at(SimTime::from_secs(2)).is_empty());
    }

    #[test]
    fn integer_load_runs_that_many() {
        let trace = LoadTrace::from_samples(secs(1), vec![2.0]).unwrap();
        let bg = BackgroundLoad::new(trace, ids(4));
        assert_eq!(bg.runnable_at(SimTime::ZERO).len(), 2);
    }

    #[test]
    fn fractional_load_duty_cycles_last_process() {
        let trace = LoadTrace::from_samples(secs(1), vec![0.5]).unwrap();
        let bg = BackgroundLoad::new(trace, ids(2));
        // First 0.5s of each sample: 1 runnable; second half: 0.
        assert_eq!(bg.runnable_at(SimTime::ZERO).len(), 1);
        assert_eq!(
            bg.runnable_at(SimTime::ZERO + SimDuration::from_millis(600))
                .len(),
            0
        );
        assert_eq!(bg.runnable_at(SimTime::from_secs(1)).len(), 1);
    }

    #[test]
    fn load_beyond_pool_is_capped() {
        let trace = LoadTrace::from_samples(secs(1), vec![10.0]).unwrap();
        let bg = BackgroundLoad::new(trace, ids(3));
        assert_eq!(bg.runnable_at(SimTime::ZERO).len(), 3);
    }

    #[test]
    fn mixed_load_tracks_trace() {
        let trace = LoadTrace::from_samples(secs(1), vec![0.0, 1.0, 2.5]).unwrap();
        let bg = BackgroundLoad::new(trace, ids(4));
        assert_eq!(bg.runnable_at(SimTime::from_secs(0)).len(), 0);
        assert_eq!(bg.runnable_at(SimTime::from_secs(1)).len(), 1);
        assert_eq!(
            bg.runnable_at(SimTime::from_secs(2)).len(),
            3,
            "2.5 early in sample"
        );
        assert_eq!(
            bg.runnable_at(SimTime::from_secs(2) + SimDuration::from_millis(700))
                .len(),
            2,
            "fraction expired"
        );
    }
}

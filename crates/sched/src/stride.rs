// audit:hot-path: the host simulator picks each quantum's tasks here
//! Stride scheduling: the deterministic proportional-share
//! counterpart of lottery scheduling.
//!
//! Each task has `stride = STRIDE1 / weight` and a `pass` value; the
//! scheduler always runs the lowest-pass runnable tasks and advances
//! their passes by stride × (used / quantum). Relative throughput
//! error is bounded by a single quantum, unlike lottery's
//! probabilistic convergence — the property the ablation bench
//! contrasts.

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::scheduler::{Scheduler, TaskId, TaskParams};

const STRIDE1: f64 = 1_000_000.0;

#[derive(Clone, Copy, Debug)]
struct Entry {
    stride: f64,
    pass: f64,
}

/// Stride scheduler. See the [module docs](self).
///
/// ```
/// use gridvm_sched::{Scheduler, StrideScheduler, TaskId, TaskParams};
/// use gridvm_simcore::rng::SimRng;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut s = StrideScheduler::new();
/// s.add_task(TaskId(1), TaskParams::with_weight(200));
/// s.add_task(TaskId(2), TaskParams::with_weight(100));
/// let mut rng = SimRng::seed_from(0);
/// // Deterministic: the higher-weight task runs first.
/// let picked = s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO,
///                       SimDuration::from_millis(10), &mut rng);
/// assert_eq!(picked, vec![TaskId(1)]);
/// ```
#[derive(Debug, Default)]
pub struct StrideScheduler {
    /// Keyed by `TaskId.0` — task ids are small and densely assigned.
    tasks: DenseMap<Entry>,
    last_quantum: SimDuration,
}

impl StrideScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        StrideScheduler::default()
    }

    /// The current pass value of a task (for tests/inspection).
    pub fn pass(&self, id: TaskId) -> Option<f64> {
        self.tasks.get(id.0).map(|e| e.pass)
    }
}

impl Scheduler for StrideScheduler {
    fn add_task(&mut self, id: TaskId, params: TaskParams) {
        assert!(params.weight > 0, "zero-weight task");
        // Join at the current minimum pass so new arrivals neither
        // monopolize nor starve.
        let min_pass = self
            .tasks
            .iter()
            .map(|(_, e)| e.pass)
            .fold(f64::INFINITY, f64::min);
        let pass = if min_pass.is_finite() { min_pass } else { 0.0 };
        self.tasks.insert(
            id.0,
            Entry {
                stride: STRIDE1 / f64::from(params.weight),
                pass,
            },
        );
    }

    fn remove_task(&mut self, id: TaskId) {
        self.tasks.remove(id.0);
    }

    fn select_into(
        &mut self,
        runnable: &[TaskId],
        cores: usize,
        _now: SimTime,
        quantum: SimDuration,
        _rng: &mut SimRng,
        out: &mut Vec<TaskId>,
    ) {
        out.clear();
        if runnable.is_empty() || cores == 0 {
            return;
        }
        self.last_quantum = quantum;
        let pass = |id: TaskId| {
            self.tasks
                .get(id.0)
                .unwrap_or_else(|| panic!("{id} not registered"))
                .pass
        };
        out.extend_from_slice(runnable);
        out.sort_by(|a, b| {
            let pa = pass(*a);
            let pb = pass(*b);
            pa.partial_cmp(&pb)
                .expect("pass values are finite")
                .then_with(|| a.cmp(b))
        });
        out.truncate(cores);
    }

    fn charge(&mut self, id: TaskId, used: SimDuration) {
        let quantum = if self.last_quantum.is_zero() {
            used
        } else {
            self.last_quantum
        };
        if let Some(e) = self.tasks.get_mut(id.0) {
            let frac = if quantum.is_zero() {
                1.0
            } else {
                used.as_secs_f64() / quantum.as_secs_f64()
            };
            e.pass += e.stride * frac.max(f64::EPSILON);
        }
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn q() -> SimDuration {
        SimDuration::from_millis(10)
    }

    fn run(
        s: &mut StrideScheduler,
        ids: &[TaskId],
        cores: usize,
        rounds: usize,
    ) -> BTreeMap<TaskId, u32> {
        let mut rng = SimRng::seed_from(0);
        let mut counts: BTreeMap<TaskId, u32> = BTreeMap::new();
        for _ in 0..rounds {
            for id in s.select(ids, cores, SimTime::ZERO, q(), &mut rng) {
                *counts.entry(id).or_default() += 1;
                s.charge(id, q());
            }
        }
        counts
    }

    #[test]
    fn exact_three_to_one_ratio() {
        let mut s = StrideScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_weight(300));
        s.add_task(TaskId(2), TaskParams::with_weight(100));
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], 1, 400);
        assert_eq!(counts[&TaskId(1)], 300);
        assert_eq!(counts[&TaskId(2)], 100);
    }

    #[test]
    fn equal_weights_alternate() {
        let mut s = StrideScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        s.add_task(TaskId(2), TaskParams::default());
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], 1, 100);
        assert_eq!(counts[&TaskId(1)], 50);
        assert_eq!(counts[&TaskId(2)], 50);
    }

    #[test]
    fn late_joiner_is_not_starved_and_does_not_monopolize() {
        let mut s = StrideScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        let _ = run(&mut s, &[TaskId(1)], 1, 1_000);
        s.add_task(TaskId(2), TaskParams::default());
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], 1, 100);
        let c2 = counts[&TaskId(2)];
        assert!((45..=55).contains(&c2), "late joiner got {c2}/100");
    }

    #[test]
    fn partial_charge_advances_pass_proportionally() {
        let mut s = StrideScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_weight(100));
        let mut rng = SimRng::seed_from(0);
        let _ = s.select(&[TaskId(1)], 1, SimTime::ZERO, q(), &mut rng);
        s.charge(TaskId(1), SimDuration::from_millis(5)); // half quantum
        let half = s.pass(TaskId(1)).unwrap();
        let _ = s.select(&[TaskId(1)], 1, SimTime::ZERO, q(), &mut rng);
        s.charge(TaskId(1), q());
        let full = s.pass(TaskId(1)).unwrap();
        assert!(
            (full - 3.0 * half).abs() < half * 1e-9,
            "half {half} full {full}"
        );
    }

    #[test]
    fn multicore_selects_lowest_passes() {
        let mut s = StrideScheduler::new();
        for i in 1..=4 {
            s.add_task(TaskId(i), TaskParams::default());
        }
        // Push task 1 and 2 passes up.
        s.charge(TaskId(1), q());
        s.charge(TaskId(2), q());
        let mut rng = SimRng::seed_from(0);
        let ids: Vec<TaskId> = (1..=4).map(TaskId).collect();
        let mut picked = s.select(&ids, 2, SimTime::ZERO, q(), &mut rng);
        picked.sort();
        assert_eq!(picked, vec![TaskId(3), TaskId(4)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Long-run allocation matches ticket ratios within one
        /// quantum of error per task (the stride guarantee).
        #[test]
        fn allocation_error_is_bounded(w1 in 1u32..20, w2 in 1u32..20, rounds in 100usize..500) {
            let mut s = StrideScheduler::new();
            s.add_task(TaskId(1), TaskParams::with_weight(w1 * 10));
            s.add_task(TaskId(2), TaskParams::with_weight(w2 * 10));
            let counts = {
                let mut rng = SimRng::seed_from(1);
                let mut counts: BTreeMap<TaskId, u32> = BTreeMap::new();
                for _ in 0..rounds {
                    for id in s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO,
                                        SimDuration::from_millis(10), &mut rng) {
                        *counts.entry(id).or_default() += 1;
                        s.charge(id, SimDuration::from_millis(10));
                    }
                }
                counts
            };
            let c1 = f64::from(counts.get(&TaskId(1)).copied().unwrap_or(0));
            let expected = rounds as f64 * f64::from(w1) / f64::from(w1 + w2);
            // Stride error bound: within ~2 quanta for two tasks.
            prop_assert!((c1 - expected).abs() <= 2.0,
                         "got {} expected {} (w1={} w2={} rounds={})", c1, expected, w1, w2, rounds);
        }
    }
}

// audit:hot-path: the host simulator picks each quantum's tasks here
//! Weighted fair queueing (Demers, Keshav, Shenker) adapted to CPU
//! quanta — the paper's second proportional-share option \[8\].
//!
//! Each task keeps a *virtual finish time*: when selected, a task's
//! finish tag advances by `used / weight` measured in system virtual
//! time. The scheduler always runs the tasks with the smallest finish
//! tags. Unlike stride scheduling, WFQ tracks a global virtual clock
//! that advances with the *work done*, which makes it robust to tasks
//! that block and later return (their tags are floored to the current
//! virtual time instead of letting them catch up unboundedly).

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::scheduler::{Scheduler, TaskId, TaskParams};

#[derive(Clone, Copy, Debug)]
struct Entry {
    weight: f64,
    finish: f64,
}

/// Weighted-fair-queueing scheduler. See the [module docs](self).
///
/// ```
/// use gridvm_sched::{Scheduler, TaskId, TaskParams, WfqScheduler};
/// use gridvm_simcore::rng::SimRng;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut s = WfqScheduler::new();
/// s.add_task(TaskId(1), TaskParams::with_weight(100));
/// let mut rng = SimRng::seed_from(0);
/// let picked = s.select(&[TaskId(1)], 1, SimTime::ZERO,
///                       SimDuration::from_millis(10), &mut rng);
/// assert_eq!(picked, vec![TaskId(1)]);
/// ```
#[derive(Debug, Default)]
pub struct WfqScheduler {
    /// Keyed by `TaskId.0` — task ids are small and densely assigned.
    tasks: DenseMap<Entry>,
    virtual_time: f64,
}

impl WfqScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        WfqScheduler::default()
    }

    /// The system virtual time (for tests/inspection).
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }
}

impl Scheduler for WfqScheduler {
    fn add_task(&mut self, id: TaskId, params: TaskParams) {
        assert!(params.weight > 0, "zero-weight task");
        self.tasks.insert(
            id.0,
            Entry {
                weight: f64::from(params.weight),
                finish: self.virtual_time,
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
        _quantum: SimDuration,
        _rng: &mut SimRng,
        out: &mut Vec<TaskId>,
    ) {
        out.clear();
        if runnable.is_empty() || cores == 0 {
            return;
        }
        // Floor returning tasks to the current virtual time so a task
        // that slept cannot accumulate unbounded credit.
        for id in runnable {
            let e = self
                .tasks
                .get_mut(id.0)
                .unwrap_or_else(|| panic!("{id} not registered"));
            if e.finish < self.virtual_time {
                e.finish = self.virtual_time;
            }
        }
        let finish = |id: TaskId| self.tasks.get(id.0).expect("floored above").finish;
        out.extend_from_slice(runnable);
        out.sort_by(|a, b| {
            let fa = finish(*a);
            let fb = finish(*b);
            fa.partial_cmp(&fb)
                .expect("finish tags are finite")
                .then_with(|| a.cmp(b))
        });
        out.truncate(cores);
        // Advance the system virtual clock to the smallest selected
        // tag: virtual time tracks the head of the schedule.
        if let Some(first) = out.first() {
            self.virtual_time = self.virtual_time.max(finish(*first));
        }
    }

    fn charge(&mut self, id: TaskId, used: SimDuration) {
        if let Some(e) = self.tasks.get_mut(id.0) {
            e.finish += used.as_secs_f64() / e.weight;
        }
    }

    fn name(&self) -> &'static str {
        "wfq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn q() -> SimDuration {
        SimDuration::from_millis(10)
    }

    fn run(s: &mut WfqScheduler, ids: &[TaskId], rounds: usize) -> BTreeMap<TaskId, u32> {
        let mut rng = SimRng::seed_from(0);
        let mut counts: BTreeMap<TaskId, u32> = BTreeMap::new();
        for _ in 0..rounds {
            for id in s.select(ids, 1, SimTime::ZERO, q(), &mut rng) {
                *counts.entry(id).or_default() += 1;
                s.charge(id, q());
            }
        }
        counts
    }

    #[test]
    fn weights_produce_proportional_service() {
        let mut s = WfqScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_weight(400));
        s.add_task(TaskId(2), TaskParams::with_weight(100));
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], 500);
        let r = f64::from(counts[&TaskId(1)]) / f64::from(counts[&TaskId(2)]);
        assert!((3.8..4.2).contains(&r), "ratio {r}");
    }

    #[test]
    fn sleeper_does_not_accumulate_credit() {
        let mut s = WfqScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        s.add_task(TaskId(2), TaskParams::default());
        // Task 2 "sleeps": only task 1 runnable for 1000 rounds.
        let _ = run(&mut s, &[TaskId(1)], 1_000);
        // Task 2 returns; over the next 100 rounds it must get about
        // half, not all, of the CPU.
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], 100);
        let c2 = counts[&TaskId(2)];
        assert!((45..=55).contains(&c2), "returning sleeper got {c2}/100");
    }

    #[test]
    fn virtual_time_is_monotone() {
        let mut s = WfqScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        s.add_task(TaskId(2), TaskParams::with_weight(300));
        let mut rng = SimRng::seed_from(1);
        let mut last = 0.0;
        for _ in 0..200 {
            for id in s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO, q(), &mut rng) {
                s.charge(id, q());
            }
            assert!(s.virtual_time() >= last);
            last = s.virtual_time();
        }
    }

    #[test]
    fn multicore_picks_distinct_lowest_tags() {
        let mut s = WfqScheduler::new();
        for i in 1..=3 {
            s.add_task(TaskId(i), TaskParams::default());
        }
        s.charge(TaskId(1), q()); // tag of 1 advances
        let mut rng = SimRng::seed_from(2);
        let ids: Vec<TaskId> = (1..=3).map(TaskId).collect();
        let mut picked = s.select(&ids, 2, SimTime::ZERO, q(), &mut rng);
        picked.sort();
        assert_eq!(picked, vec![TaskId(2), TaskId(3)]);
    }
}

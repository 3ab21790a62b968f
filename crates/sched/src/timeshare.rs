// audit:hot-path: the host simulator picks each quantum's tasks here
//! Weighted round-robin time sharing — the stand-in for the stock
//! Linux scheduler the paper's hosts ran.
//!
//! Each task accumulates credit proportional to its weight; every
//! quantum the scheduler picks the `cores` runnable tasks with the
//! highest credit and debits them for what they use. With equal
//! weights this degenerates to plain round-robin, which is all
//! Figure 1 needs; the weights let the ablation benches model `nice`.

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::scheduler::{Scheduler, TaskId, TaskParams};

#[derive(Clone, Copy, Debug)]
struct Entry {
    weight: u32,
    credit: f64,
}

/// Weighted round-robin scheduler. See the [module docs](self).
///
/// ```
/// use gridvm_sched::{Scheduler, TaskId, TaskParams, TimeShareScheduler};
/// use gridvm_simcore::rng::SimRng;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut s = TimeShareScheduler::new();
/// s.add_task(TaskId(1), TaskParams::default());
/// s.add_task(TaskId(2), TaskParams::default());
/// let mut rng = SimRng::seed_from(0);
/// let picked = s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO,
///                       SimDuration::from_millis(10), &mut rng);
/// assert_eq!(picked.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TimeShareScheduler {
    /// Keyed by `TaskId.0` — task ids are small and densely assigned.
    tasks: DenseMap<Entry>,
}

impl TimeShareScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        TimeShareScheduler::default()
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks are registered.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

impl Scheduler for TimeShareScheduler {
    fn add_task(&mut self, id: TaskId, params: TaskParams) {
        assert!(params.weight > 0, "zero-weight task");
        self.tasks.insert(
            id.0,
            Entry {
                weight: params.weight,
                credit: 0.0,
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
        // Accrue credit to every runnable task in proportion to its
        // weight, then run the highest-credit tasks.
        let total_weight: u64 = runnable
            .iter()
            .map(|id| {
                u64::from(
                    self.tasks
                        .get(id.0)
                        .unwrap_or_else(|| panic!("{id} not registered"))
                        .weight,
                )
            })
            .sum();
        let q = quantum.as_secs_f64();
        for id in runnable {
            let e = self.tasks.get_mut(id.0).expect("checked above");
            e.credit += q * f64::from(e.weight) / total_weight as f64 * cores as f64;
        }
        let credit = |id: TaskId| self.tasks.get(id.0).expect("checked above").credit;
        out.extend_from_slice(runnable);
        out.sort_by(|a, b| {
            let ca = credit(*a);
            let cb = credit(*b);
            cb.partial_cmp(&ca)
                .expect("credits are finite")
                .then_with(|| a.cmp(b))
        });
        out.truncate(cores);
    }

    fn charge(&mut self, id: TaskId, used: SimDuration) {
        if let Some(e) = self.tasks.get_mut(id.0) {
            e.credit -= used.as_secs_f64();
        }
    }

    fn name(&self) -> &'static str {
        "timeshare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn q() -> SimDuration {
        SimDuration::from_millis(10)
    }

    fn run_rounds(
        s: &mut TimeShareScheduler,
        runnable: &[TaskId],
        cores: usize,
        rounds: usize,
    ) -> BTreeMap<TaskId, u32> {
        let mut rng = SimRng::seed_from(1);
        let mut counts: BTreeMap<TaskId, u32> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            let picked = s.select(runnable, cores, now, q(), &mut rng);
            assert!(picked.len() <= cores);
            for id in &picked {
                *counts.entry(*id).or_default() += 1;
                s.charge(*id, q());
            }
            now += q();
        }
        counts
    }

    #[test]
    fn equal_weights_share_equally() {
        let mut s = TimeShareScheduler::new();
        let ids = [TaskId(1), TaskId(2), TaskId(3)];
        for id in ids {
            s.add_task(id, TaskParams::default());
        }
        let counts = run_rounds(&mut s, &ids, 1, 300);
        for id in ids {
            let c = counts[&id];
            assert!((95..=105).contains(&c), "{id} ran {c}/300");
        }
    }

    #[test]
    fn weights_bias_allocation() {
        let mut s = TimeShareScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_weight(300));
        s.add_task(TaskId(2), TaskParams::with_weight(100));
        let counts = run_rounds(&mut s, &[TaskId(1), TaskId(2)], 1, 400);
        let c1 = counts[&TaskId(1)] as f64;
        let c2 = counts[&TaskId(2)] as f64;
        let ratio = c1 / c2;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn multicore_runs_distinct_tasks() {
        let mut s = TimeShareScheduler::new();
        let ids = [TaskId(1), TaskId(2), TaskId(3)];
        for id in ids {
            s.add_task(id, TaskParams::default());
        }
        let mut rng = SimRng::seed_from(2);
        let picked = s.select(&ids, 2, SimTime::ZERO, q(), &mut rng);
        assert_eq!(picked.len(), 2);
        assert_ne!(picked[0], picked[1]);
    }

    #[test]
    fn fewer_tasks_than_cores_runs_all() {
        let mut s = TimeShareScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        let mut rng = SimRng::seed_from(3);
        let picked = s.select(&[TaskId(1)], 4, SimTime::ZERO, q(), &mut rng);
        assert_eq!(picked, vec![TaskId(1)]);
    }

    #[test]
    fn empty_runnable_picks_nothing() {
        let mut s = TimeShareScheduler::new();
        let mut rng = SimRng::seed_from(4);
        assert!(s.select(&[], 2, SimTime::ZERO, q(), &mut rng).is_empty());
    }

    #[test]
    fn removed_task_is_forgotten() {
        let mut s = TimeShareScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        s.remove_task(TaskId(1));
        assert!(s.is_empty());
        // charging a removed task must not panic
        s.charge(TaskId(1), q());
    }
}

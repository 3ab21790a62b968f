// audit:hot-path: the host simulator picks each quantum's tasks here
//! Periodic real-time reservations with earliest-deadline-first
//! dispatch — the paper's "compiled into a real-time schedule, mapping
//! each virtual machine into one or more periodic real-time tasks"
//! (Section 3.2), in the style of RED-Linux \[35\] and resource
//! kernels \[26\].
//!
//! A reserved task receives `slice` of CPU every `period`; admission
//! control rejects reservation sets whose total utilization exceeds
//! the core count. Unreserved (best-effort) tasks run round-robin in
//! whatever capacity the reservations leave over, so the scheduler is
//! work-conserving.

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::scheduler::{Reservation, Scheduler, TaskId, TaskParams};

#[derive(Clone, Copy, Debug)]
struct RtEntry {
    res: Reservation,
    /// CPU remaining in the current period.
    budget: SimDuration,
    /// End of the current period == deadline.
    deadline: SimTime,
}

/// EDF scheduler with periodic reservations and best-effort overflow.
///
/// ```
/// use gridvm_sched::{EdfScheduler, Scheduler, TaskId, TaskParams};
/// use gridvm_simcore::time::SimDuration;
///
/// let mut s = EdfScheduler::new();
/// s.add_task(TaskId(1), TaskParams::with_reservation(
///     SimDuration::from_millis(100), SimDuration::from_millis(30)));
/// assert!((s.reserved_utilization() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct EdfScheduler {
    /// Keyed by `TaskId.0` — task ids are small and densely assigned.
    reserved: DenseMap<RtEntry>,
    best_effort: DenseMap<f64>, // round-robin credit
    /// Scratch buffers reused across quanta so steady-state selection
    /// allocates nothing.
    rt_scratch: Vec<(SimTime, TaskId)>,
    be_scratch: Vec<TaskId>,
}

impl EdfScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        EdfScheduler::default()
    }

    /// Total utilization of admitted reservations, in CPUs.
    pub fn reserved_utilization(&self) -> f64 {
        // Summed in ascending task-id order so the float total does
        // not depend on registration history.
        self.reserved
            .sorted_keys()
            .into_iter()
            .map(|k| {
                self.reserved
                    .get(k)
                    .expect("key just listed")
                    .res
                    .utilization()
            })
            .sum()
    }

    /// Remaining budget of a reserved task (for tests).
    pub fn budget(&self, id: TaskId) -> Option<SimDuration> {
        self.reserved.get(id.0).map(|e| e.budget)
    }

    fn replenish(&mut self, now: SimTime) {
        for (_, e) in self.reserved.iter_mut() {
            while now >= e.deadline {
                e.deadline += e.res.period;
                e.budget = e.res.slice;
            }
        }
    }
}

impl Scheduler for EdfScheduler {
    /// Registers a task.
    ///
    /// Tasks with a reservation join the EDF set; tasks without join
    /// the best-effort round-robin set. No admission test runs here:
    /// an oversubscribed reserved set is accepted, and
    /// [`reserved_utilization`](EdfScheduler::reserved_utilization)
    /// reports its load.
    fn add_task(&mut self, id: TaskId, params: TaskParams) {
        match params.reservation {
            Some(res) => {
                self.reserved.insert(
                    id.0,
                    RtEntry {
                        res,
                        budget: res.slice,
                        deadline: SimTime::ZERO + res.period,
                    },
                );
            }
            None => {
                self.best_effort.insert(id.0, 0.0);
            }
        }
    }

    fn remove_task(&mut self, id: TaskId) {
        self.reserved.remove(id.0);
        self.best_effort.remove(id.0);
    }

    fn select_into(
        &mut self,
        runnable: &[TaskId],
        cores: usize,
        now: SimTime,
        quantum: SimDuration,
        _rng: &mut SimRng,
        out: &mut Vec<TaskId>,
    ) {
        out.clear();
        if runnable.is_empty() || cores == 0 {
            return;
        }
        self.replenish(now);
        // Reserved tasks with budget, earliest deadline first.
        let mut rt = std::mem::take(&mut self.rt_scratch);
        rt.clear();
        for id in runnable {
            if let Some(e) = self.reserved.get(id.0) {
                if e.budget > SimDuration::ZERO {
                    rt.push((e.deadline, *id));
                }
            }
        }
        rt.sort();
        out.extend(rt.iter().take(cores).map(|&(_, id)| id));
        self.rt_scratch = rt;
        // Fill remaining cores with best-effort tasks (highest RR
        // credit first), then with out-of-budget reserved tasks so the
        // host stays work-conserving.
        if out.len() < cores {
            let mut be = std::mem::take(&mut self.be_scratch);
            be.clear();
            be.extend(
                runnable
                    .iter()
                    .filter(|id| self.best_effort.contains_key(id.0) && !out.contains(id)),
            );
            let q = quantum.as_secs_f64();
            for id in &be {
                if let Some(c) = self.best_effort.get_mut(id.0) {
                    *c += q;
                }
            }
            let credit = |id: TaskId| *self.best_effort.get(id.0).expect("filtered above");
            be.sort_by(|a, b| {
                let ca = credit(*a);
                let cb = credit(*b);
                cb.partial_cmp(&ca)
                    .expect("credits are finite")
                    .then_with(|| a.cmp(b))
            });
            for id in &be {
                if out.len() == cores {
                    break;
                }
                out.push(*id);
            }
            self.be_scratch = be;
        }
        if out.len() < cores {
            for id in runnable {
                if out.len() == cores {
                    break;
                }
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        }
    }

    fn charge(&mut self, id: TaskId, used: SimDuration) {
        if let Some(e) = self.reserved.get_mut(id.0) {
            e.budget = e.budget.saturating_sub(used);
        } else if let Some(c) = self.best_effort.get_mut(id.0) {
            *c -= used.as_secs_f64();
        }
    }

    fn name(&self) -> &'static str {
        "edf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Runs `rounds` quanta of `quantum` on one core and returns the
    /// quanta granted per task.
    fn run(
        s: &mut EdfScheduler,
        ids: &[TaskId],
        quantum: SimDuration,
        rounds: usize,
    ) -> BTreeMap<TaskId, u32> {
        let mut rng = SimRng::seed_from(0);
        let mut counts: BTreeMap<TaskId, u32> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            for id in s.select(ids, 1, now, quantum, &mut rng) {
                *counts.entry(id).or_default() += 1;
                s.charge(id, quantum);
            }
            now += quantum;
        }
        counts
    }

    #[test]
    fn reservation_gets_its_slice() {
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_reservation(ms(100), ms(30)));
        s.add_task(TaskId(2), TaskParams::default()); // best effort
                                                      // 1000 quanta of 10ms = 10s = 100 periods
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], ms(10), 1_000);
        // Reserved task: 3 quanta per 10-quanta period = 300.
        assert_eq!(counts[&TaskId(1)], 300);
        assert_eq!(counts[&TaskId(2)], 700);
    }

    #[test]
    fn reserved_task_preempts_best_effort_at_period_start() {
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_reservation(ms(50), ms(10)));
        s.add_task(TaskId(2), TaskParams::default());
        let mut rng = SimRng::seed_from(1);
        let first = s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO, ms(10), &mut rng);
        assert_eq!(first, vec![TaskId(1)], "budgeted RT task runs first");
    }

    #[test]
    fn earliest_deadline_wins() {
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_reservation(ms(200), ms(20)));
        s.add_task(TaskId(2), TaskParams::with_reservation(ms(50), ms(10)));
        let mut rng = SimRng::seed_from(2);
        let picked = s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO, ms(10), &mut rng);
        assert_eq!(picked, vec![TaskId(2)], "shorter period = earlier deadline");
    }

    #[test]
    fn work_conserving_when_reservations_idle() {
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_reservation(ms(100), ms(10)));
        // Only the reserved task is runnable; after its budget is
        // spent it must still be allowed to soak idle CPU.
        let counts = run(&mut s, &[TaskId(1)], ms(10), 100);
        assert_eq!(counts[&TaskId(1)], 100, "sole task gets every quantum");
    }

    #[test]
    fn budget_replenishes_each_period() {
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_reservation(ms(100), ms(30)));
        let mut rng = SimRng::seed_from(3);
        let _ = s.select(&[TaskId(1)], 1, SimTime::ZERO, ms(10), &mut rng);
        s.charge(TaskId(1), ms(30));
        assert_eq!(s.budget(TaskId(1)), Some(SimDuration::ZERO));
        // At t=100ms the period rolls over.
        let _ = s.select(
            &[TaskId(1)],
            1,
            SimTime::from_nanos(100_000_000),
            ms(10),
            &mut rng,
        );
        assert_eq!(s.budget(TaskId(1)), Some(ms(30)));
    }

    #[test]
    fn best_effort_tasks_round_robin_fairly() {
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        s.add_task(TaskId(2), TaskParams::default());
        let counts = run(&mut s, &[TaskId(1), TaskId(2)], ms(10), 200);
        let c1 = counts[&TaskId(1)];
        assert!((95..=105).contains(&c1), "best-effort split {c1}/200");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridvm_simcore::rng::SimRng;
    use proptest::prelude::*;

    proptest! {
        /// The EDF guarantee: any admitted reservation set (total
        /// utilization <= 1 core) receives at least its slice every
        /// period, to within one quantum, no matter what best-effort
        /// load shares the host.
        #[test]
        fn admitted_reservations_never_miss(
            slices_ms in proptest::collection::vec(1u64..30, 1..4),
            be_tasks in 0usize..3,
        ) {
            let period = SimDuration::from_millis(100);
            let total: u64 = slices_ms.iter().sum();
            prop_assume!(total <= 90); // admitted with headroom for quantum granularity
            let mut s = EdfScheduler::new();
            let mut ids = Vec::new();
            for (i, ms_slice) in slices_ms.iter().enumerate() {
                let id = TaskId(i as u64);
                s.add_task(id, crate::scheduler::TaskParams::with_reservation(
                    period, SimDuration::from_millis(*ms_slice)));
                ids.push(id);
            }
            for j in 0..be_tasks {
                let id = TaskId(100 + j as u64);
                s.add_task(id, crate::scheduler::TaskParams::default());
                ids.push(id);
            }
            // Run 10 whole periods at 1 ms quanta on one core.
            let quantum = SimDuration::from_millis(1);
            let mut granted = vec![0u64; slices_ms.len()];
            let mut rng = SimRng::seed_from(1);
            for step in 0..1000u64 {
                let now = SimTime::ZERO + quantum * step;
                for id in s.select(&ids, 1, now, quantum, &mut rng) {
                    s.charge(id, quantum);
                    if (id.0 as usize) < slices_ms.len() {
                        granted[id.0 as usize] += 1;
                    }
                }
            }
            for (i, ms_slice) in slices_ms.iter().enumerate() {
                // 10 periods of guarantee, minus one quantum of edge.
                let need = ms_slice * 10 - 1;
                prop_assert!(granted[i] >= need,
                    "task {} got {} ms of its {} ms x 10 guarantee", i, granted[i], ms_slice);
            }
        }
    }
}

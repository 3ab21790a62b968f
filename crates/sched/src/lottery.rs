// audit:hot-path: the host simulator picks each quantum's tasks here
//! Lottery scheduling (Waldspurger & Weihl, OSDI '94) — the
//! probabilistic proportional-share policy the paper cites \[34\] for
//! compiling owner constraints into scheduler proportions.
//!
//! Each task holds tickets; every quantum the scheduler holds one
//! lottery per core, drawing without replacement so a multicore host
//! never double-schedules a task.

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::scheduler::{Scheduler, TaskId, TaskParams};

/// Lottery scheduler. See the [module docs](self).
///
/// ```
/// use gridvm_sched::{LotteryScheduler, Scheduler, TaskId, TaskParams};
/// use gridvm_simcore::rng::SimRng;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut s = LotteryScheduler::new();
/// s.add_task(TaskId(1), TaskParams::with_weight(750));
/// s.add_task(TaskId(2), TaskParams::with_weight(250));
/// let mut rng = SimRng::seed_from(42);
/// let picked = s.select(&[TaskId(1), TaskId(2)], 1, SimTime::ZERO,
///                       SimDuration::from_millis(10), &mut rng);
/// assert_eq!(picked.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LotteryScheduler {
    /// Keyed by `TaskId.0` — task ids are small and densely assigned.
    tickets: DenseMap<u32>,
    quanta_granted: DenseMap<u64>,
    /// Scratch ticket pool reused across quanta so steady-state draws
    /// allocate nothing.
    draw_pool: Vec<(TaskId, u32)>,
}

impl LotteryScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        LotteryScheduler::default()
    }

    /// Total quanta granted to `id` so far (for fairness assertions).
    pub fn quanta_granted(&self, id: TaskId) -> u64 {
        self.quanta_granted.get(id.0).copied().unwrap_or(0)
    }
}

impl Scheduler for LotteryScheduler {
    fn add_task(&mut self, id: TaskId, params: TaskParams) {
        assert!(params.weight > 0, "zero-ticket task");
        self.tickets.insert(id.0, params.weight);
    }

    fn remove_task(&mut self, id: TaskId) {
        self.tickets.remove(id.0);
        self.quanta_granted.remove(id.0);
    }

    fn select_into(
        &mut self,
        runnable: &[TaskId],
        cores: usize,
        _now: SimTime,
        _quantum: SimDuration,
        rng: &mut SimRng,
        out: &mut Vec<TaskId>,
    ) {
        out.clear();
        if runnable.is_empty() || cores == 0 {
            return;
        }
        let mut pool = std::mem::take(&mut self.draw_pool);
        pool.clear();
        for id in runnable {
            let t = *self
                .tickets
                .get(id.0)
                .unwrap_or_else(|| panic!("{id} not registered"));
            pool.push((*id, t));
        }
        for _ in 0..cores.min(runnable.len()) {
            let total: u64 = pool.iter().map(|(_, t)| u64::from(*t)).sum();
            if total == 0 {
                break;
            }
            let mut draw = rng.next_below(total);
            let mut winner_idx = pool.len() - 1;
            for (i, (_, t)) in pool.iter().enumerate() {
                if draw < u64::from(*t) {
                    winner_idx = i;
                    break;
                }
                draw -= u64::from(*t);
            }
            let (winner, _) = pool.swap_remove(winner_idx);
            match self.quanta_granted.get_mut(winner.0) {
                Some(n) => *n += 1,
                None => {
                    self.quanta_granted.insert(winner.0, 1);
                }
            }
            out.push(winner);
        }
        self.draw_pool = pool;
    }

    fn charge(&mut self, _id: TaskId, _used: SimDuration) {
        // Lottery scheduling is memoryless: no per-quantum state.
    }

    fn name(&self) -> &'static str {
        "lottery"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> SimDuration {
        SimDuration::from_millis(10)
    }

    #[test]
    fn ticket_ratio_drives_long_run_share() {
        let mut s = LotteryScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_weight(300));
        s.add_task(TaskId(2), TaskParams::with_weight(100));
        let ids = [TaskId(1), TaskId(2)];
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            s.select(&ids, 1, SimTime::ZERO, q(), &mut rng);
        }
        let r = s.quanta_granted(TaskId(1)) as f64 / s.quanta_granted(TaskId(2)) as f64;
        assert!((2.6..3.4).contains(&r), "observed ratio {r}");
    }

    #[test]
    fn draws_without_replacement_on_multicore() {
        let mut s = LotteryScheduler::new();
        let ids = [TaskId(1), TaskId(2), TaskId(3)];
        for id in ids {
            s.add_task(id, TaskParams::default());
        }
        let mut rng = SimRng::seed_from(8);
        for _ in 0..100 {
            let picked = s.select(&ids, 2, SimTime::ZERO, q(), &mut rng);
            assert_eq!(picked.len(), 2);
            assert_ne!(picked[0], picked[1]);
        }
    }

    #[test]
    fn all_tasks_run_when_cores_exceed_tasks() {
        let mut s = LotteryScheduler::new();
        s.add_task(TaskId(1), TaskParams::default());
        s.add_task(TaskId(2), TaskParams::default());
        let mut rng = SimRng::seed_from(9);
        let mut picked = s.select(&[TaskId(1), TaskId(2)], 8, SimTime::ZERO, q(), &mut rng);
        picked.sort();
        assert_eq!(picked, vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut s = LotteryScheduler::new();
            for i in 0..5 {
                s.add_task(TaskId(i), TaskParams::with_weight(100 + i as u32));
            }
            s
        };
        let ids: Vec<TaskId> = (0..5).map(TaskId).collect();
        let mut s1 = build();
        let mut s2 = build();
        let mut r1 = SimRng::seed_from(10);
        let mut r2 = SimRng::seed_from(10);
        for _ in 0..100 {
            assert_eq!(
                s1.select(&ids, 2, SimTime::ZERO, q(), &mut r1),
                s2.select(&ids, 2, SimTime::ZERO, q(), &mut r2)
            );
        }
    }

    #[test]
    fn starvation_free_even_with_tiny_ticket_count() {
        let mut s = LotteryScheduler::new();
        s.add_task(TaskId(1), TaskParams::with_weight(10_000));
        s.add_task(TaskId(2), TaskParams::with_weight(1));
        let ids = [TaskId(1), TaskId(2)];
        let mut rng = SimRng::seed_from(11);
        for _ in 0..100_000 {
            s.select(&ids, 1, SimTime::ZERO, q(), &mut rng);
        }
        assert!(
            s.quanta_granted(TaskId(2)) > 0,
            "1-ticket task never ran in 100k lotteries"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Long-run lottery allocation tracks ticket ratios within
        /// statistical tolerance for arbitrary two-task ticket splits.
        #[test]
        fn allocation_tracks_tickets(t1 in 1u32..50, t2 in 1u32..50) {
            let mut s = LotteryScheduler::new();
            s.add_task(TaskId(1), TaskParams::with_weight(t1 * 20));
            s.add_task(TaskId(2), TaskParams::with_weight(t2 * 20));
            let ids = [TaskId(1), TaskId(2)];
            let mut rng = SimRng::seed_from(42);
            let rounds = 4_000u32;
            for _ in 0..rounds {
                s.select(&ids, 1, SimTime::ZERO, SimDuration::from_millis(10), &mut rng);
            }
            let expected = f64::from(rounds) * f64::from(t1) / f64::from(t1 + t2);
            let got = s.quanta_granted(TaskId(1)) as f64;
            // Binomial std dev bound: 4 sigma of sqrt(n*p*(1-p)).
            let p = f64::from(t1) / f64::from(t1 + t2);
            let sigma = (f64::from(rounds) * p * (1.0 - p)).sqrt();
            prop_assert!((got - expected).abs() <= 4.0 * sigma + 1.0,
                "got {} expected {} (sigma {})", got, expected, sigma);
        }
    }
}

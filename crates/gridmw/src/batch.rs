//! A PBS-style space-shared batch queue (the paper's \[3\]): the
//! job-submission layer many 2003 grids actually ran, and the
//! natural consumer of VM startup latencies — every batch job that
//! runs in a freshly instantiated VM pays Table 2's costs before its
//! first useful cycle.
//!
//! Two policies are implemented:
//!
//! * [`QueuePolicy::Fifo`] — strict first-come-first-served.
//! * [`QueuePolicy::EasyBackfill`] — EASY backfilling: the head job
//!   gets a reservation at the earliest instant enough nodes free
//!   up; later jobs may jump ahead only if they cannot delay that
//!   reservation.

use std::collections::BinaryHeap;

use gridvm_simcore::time::{SimDuration, SimTime};

/// Scheduling policy of the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueuePolicy {
    /// Strict FIFO: nothing overtakes the queue head.
    Fifo,
    /// EASY backfilling.
    EasyBackfill,
}

/// One batch job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchJob {
    /// Job name (for reports).
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Actual runtime (we assume accurate estimates; EASY uses this
    /// as the walltime bound).
    pub runtime: SimDuration,
}

impl BatchJob {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes or zero runtime.
    pub fn new(name: impl Into<String>, nodes: usize, runtime: SimDuration) -> Self {
        assert!(nodes > 0, "job with zero nodes");
        assert!(!runtime.is_zero(), "job with zero runtime");
        BatchJob {
            name: name.into(),
            nodes,
            runtime,
        }
    }
}

/// When a job ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The job.
    pub job: BatchJob,
    /// Submission instant.
    pub submitted: SimTime,
    /// Start instant.
    pub started: SimTime,
    /// Completion instant.
    pub finished: SimTime,
}

impl BatchOutcome {
    /// Queue wait time.
    pub fn wait(&self) -> SimDuration {
        self.started.duration_since(self.submitted)
    }
}

/// Errors from batch scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A job requests more nodes than the machine has.
    TooWide {
        /// The job's name.
        job: String,
        /// Nodes requested.
        requested: usize,
        /// Nodes available in total.
        total: usize,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::TooWide {
                job,
                requested,
                total,
            } => write!(
                f,
                "job {job:?} wants {requested} nodes, machine has {total}"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Running {
    end: SimTime,
    nodes: usize,
}

impl Ord for Running {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap by end time
        other.end.cmp(&self.end)
    }
}

impl PartialOrd for Running {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates a space-shared machine of `total_nodes` running the
/// submitted jobs under `policy`. `submissions` is `(submit_time,
/// job)` in any order; per-VM startup overhead (e.g. a Table 2
/// scenario's mean) can be folded in by the caller via
/// [`with_startup_overhead`].
///
/// Returns outcomes in completion order.
///
/// # Errors
///
/// [`BatchError::TooWide`] if any job can never fit.
pub fn schedule(
    submissions: &[(SimTime, BatchJob)],
    total_nodes: usize,
    policy: QueuePolicy,
) -> Result<Vec<BatchOutcome>, BatchError> {
    assert!(total_nodes > 0, "machine with zero nodes");
    for (_, job) in submissions {
        if job.nodes > total_nodes {
            return Err(BatchError::TooWide {
                job: job.name.clone(),
                requested: job.nodes,
                total: total_nodes,
            });
        }
    }
    let mut pending: Vec<(SimTime, BatchJob)> = submissions.to_vec();
    pending.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.name.cmp(&b.1.name)));
    let mut queue: Vec<(SimTime, BatchJob)> = Vec::new();
    let mut running: BinaryHeap<Running> = BinaryHeap::new();
    let mut free = total_nodes;
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_submit = 0usize;

    loop {
        // Admit all submissions up to `now`.
        while next_submit < pending.len() && pending[next_submit].0 <= now {
            queue.push(pending[next_submit].clone());
            next_submit += 1;
        }
        // Start whatever the policy allows.
        start_eligible(&mut queue, &mut running, &mut free, now, policy, &mut out);
        // Advance time to the next event.
        let next_completion = running.peek().map(|r| r.end);
        let next_arrival = pending.get(next_submit).map(|(t, _)| *t);
        now = match (next_completion, next_arrival) {
            (Some(c), Some(a)) => c.min(a),
            (Some(c), None) => c,
            (None, Some(a)) => a,
            (None, None) => break,
        };
        // Retire completions at `now`.
        while running.peek().is_some_and(|r| r.end <= now) {
            let done = running.pop().expect("peeked");
            free += done.nodes;
        }
    }
    out.sort_by_key(|o| (o.finished, o.started, o.job.name.clone()));
    Ok(out)
}

fn start_eligible(
    queue: &mut Vec<(SimTime, BatchJob)>,
    running: &mut BinaryHeap<Running>,
    free: &mut usize,
    now: SimTime,
    policy: QueuePolicy,
    out: &mut Vec<BatchOutcome>,
) {
    // Start from the head while it fits.
    while let Some((submitted, job)) = queue.first().cloned() {
        if job.nodes <= *free {
            *free -= job.nodes;
            running.push(Running {
                end: now + job.runtime,
                nodes: job.nodes,
            });
            out.push(BatchOutcome {
                finished: now + job.runtime,
                started: now,
                submitted,
                job,
            });
            queue.remove(0);
        } else {
            break;
        }
    }
    if queue.is_empty() || policy == QueuePolicy::Fifo {
        return;
    }
    // EASY backfill: compute the head's shadow start.
    let head_nodes = queue[0].1.nodes;
    let mut avail = *free;
    let mut ends: Vec<Running> = running.clone().into_sorted_vec();
    // into_sorted_vec of our reversed Ord yields descending end; fix:
    ends.sort_by_key(|r| r.end);
    let mut shadow = now;
    let mut spare_at_shadow = avail;
    for r in &ends {
        if avail >= head_nodes {
            break;
        }
        avail += r.nodes;
        shadow = r.end;
        spare_at_shadow = avail - head_nodes.min(avail);
    }
    if avail < head_nodes {
        return; // cannot ever start with current running set (wait)
    }
    // Backfill later jobs that fit now and do not delay the shadow.
    let mut i = 1;
    while i < queue.len() {
        let (submitted, job) = queue[i].clone();
        let fits_now = job.nodes <= *free;
        let ends_before_shadow = now + job.runtime <= shadow;
        let within_spare = job.nodes <= spare_at_shadow;
        if fits_now && (ends_before_shadow || within_spare) {
            *free -= job.nodes;
            if !ends_before_shadow {
                spare_at_shadow -= job.nodes;
            }
            running.push(Running {
                end: now + job.runtime,
                nodes: job.nodes,
            });
            out.push(BatchOutcome {
                finished: now + job.runtime,
                started: now,
                submitted,
                job,
            });
            queue.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Returns a copy of `job` with a VM-instantiation prologue folded
/// into its runtime — how a VM-based grid turns Table 2's startup
/// latency into batch cost.
pub fn with_startup_overhead(job: &BatchJob, startup: SimDuration) -> BatchJob {
    BatchJob {
        name: job.name.clone(),
        nodes: job.nodes,
        runtime: job.runtime + startup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn job(name: &str, nodes: usize, secs: u64) -> BatchJob {
        BatchJob::new(name, nodes, d(secs))
    }

    #[test]
    fn fifo_runs_in_order() {
        let subs = vec![
            (t(0), job("a", 4, 100)),
            (t(0), job("b", 4, 100)),
            (t(0), job("c", 4, 100)),
        ];
        let out = schedule(&subs, 4, QueuePolicy::Fifo).unwrap();
        assert_eq!(out[0].job.name, "a");
        assert_eq!(out[0].started, t(0));
        assert_eq!(out[1].started, t(100));
        assert_eq!(out[2].started, t(200));
    }

    #[test]
    fn parallel_jobs_share_the_machine() {
        let subs = vec![(t(0), job("a", 2, 100)), (t(0), job("b", 2, 100))];
        let out = schedule(&subs, 4, QueuePolicy::Fifo).unwrap();
        assert_eq!(out[0].started, t(0));
        assert_eq!(out[1].started, t(0), "both fit at once");
    }

    #[test]
    fn fifo_head_blocks_small_jobs() {
        // Wide head cannot start until the long job finishes; FIFO
        // makes the small job wait behind it even though it fits now.
        let subs = vec![
            (t(0), job("long", 3, 1000)),
            (t(1), job("wide-head", 4, 10)),
            (t(2), job("small", 1, 10)),
        ];
        let out = schedule(&subs, 4, QueuePolicy::Fifo).unwrap();
        let small = out.iter().find(|o| o.job.name == "small").unwrap();
        assert!(small.started >= t(1000), "FIFO: small waits for the head");
    }

    #[test]
    fn backfill_lets_small_jobs_through_without_delaying_head() {
        let subs = vec![
            (t(0), job("long", 3, 1000)),
            (t(1), job("wide-head", 4, 10)),
            (t(2), job("small", 1, 10)),
        ];
        let out = schedule(&subs, 4, QueuePolicy::EasyBackfill).unwrap();
        let small = out.iter().find(|o| o.job.name == "small").unwrap();
        let head = out.iter().find(|o| o.job.name == "wide-head").unwrap();
        assert_eq!(small.started, t(2), "small backfills immediately");
        assert_eq!(head.started, t(1000), "head not delayed");
    }

    #[test]
    fn backfill_rejects_jobs_that_would_delay_head() {
        // A backfill candidate that runs past the shadow and uses the
        // head's nodes must wait.
        let subs = vec![
            (t(0), job("long", 3, 100)),
            (t(1), job("head", 4, 10)),
            (t(2), job("greedy", 1, 5000)), // would hold a node past t=100
        ];
        let out = schedule(&subs, 4, QueuePolicy::EasyBackfill).unwrap();
        let head = out.iter().find(|o| o.job.name == "head").unwrap();
        assert_eq!(head.started, t(100), "head starts exactly at shadow");
        let greedy = out.iter().find(|o| o.job.name == "greedy").unwrap();
        assert!(greedy.started >= t(100), "greedy could not backfill");
    }

    #[test]
    fn too_wide_jobs_are_rejected() {
        let subs = vec![(t(0), job("huge", 9, 10))];
        assert!(matches!(
            schedule(&subs, 8, QueuePolicy::Fifo),
            Err(BatchError::TooWide { requested: 9, .. })
        ));
    }

    #[test]
    fn startup_overhead_stretches_runtime() {
        let j = job("a", 1, 100);
        let slow = with_startup_overhead(&j, d(69)); // reboot/DiskFS mean
        let fast = with_startup_overhead(&j, d(12)); // restore/DiskFS mean
        assert_eq!(slow.runtime, d(169));
        assert_eq!(fast.runtime, d(112));
    }

    #[test]
    fn outcomes_account_waits() {
        let subs = vec![(t(0), job("a", 4, 50)), (t(10), job("b", 4, 50))];
        let out = schedule(&subs, 4, QueuePolicy::Fifo).unwrap();
        let b = out.iter().find(|o| o.job.name == "b").unwrap();
        assert_eq!(b.wait(), d(40));
        assert_eq!(b.finished, t(100));
    }

    #[test]
    fn backfill_never_oversubscribes() {
        // Dense random-ish mix; verify the node bound holds at every
        // start instant.
        let mut subs = Vec::new();
        for i in 0..40u64 {
            subs.push((
                t(i * 3),
                job(&format!("j{i}"), (i % 5 + 1) as usize, 20 + (i * 7) % 90),
            ));
        }
        let nodes = 6;
        let out = schedule(&subs, nodes, QueuePolicy::EasyBackfill).unwrap();
        assert_eq!(out.len(), 40);
        // Check instantaneous usage at each start event.
        for probe in &out {
            let used: usize = out
                .iter()
                .filter(|o| o.started <= probe.started && o.finished > probe.started)
                .map(|o| o.job.nodes)
                .sum();
            assert!(used <= nodes, "oversubscribed at {}: {used}", probe.started);
        }
    }

    #[test]
    fn backfill_beats_fifo_on_makespan_or_ties() {
        let mut subs = Vec::new();
        for i in 0..30u64 {
            subs.push((
                t(i),
                job(&format!("j{i}"), (i % 4 + 1) as usize, 10 + (i * 13) % 120),
            ));
        }
        let fifo = schedule(&subs, 5, QueuePolicy::Fifo).unwrap();
        let easy = schedule(&subs, 5, QueuePolicy::EasyBackfill).unwrap();
        let makespan = |v: &[BatchOutcome]| v.iter().map(|o| o.finished).max().unwrap();
        assert!(makespan(&easy) <= makespan(&fifo));
        let avg_wait = |v: &[BatchOutcome]| {
            v.iter().map(|o| o.wait().as_secs_f64()).sum::<f64>() / v.len() as f64
        };
        assert!(avg_wait(&easy) <= avg_wait(&fifo) + 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Node capacity is never exceeded and every job runs exactly
        /// once, under both policies.
        #[test]
        fn conservation(jobs in proptest::collection::vec((0u64..100, 1usize..4, 1u64..60), 1..25),
                        fifo in proptest::bool::ANY) {
            let subs: Vec<(SimTime, BatchJob)> = jobs
                .iter()
                .enumerate()
                .map(|(i, (at, n, rt))| {
                    (SimTime::from_secs(*at),
                     BatchJob::new(format!("j{i}"), *n, SimDuration::from_secs(*rt)))
                })
                .collect();
            let nodes = 4;
            let policy = if fifo { QueuePolicy::Fifo } else { QueuePolicy::EasyBackfill };
            let out = schedule(&subs, nodes, policy).unwrap();
            prop_assert_eq!(out.len(), subs.len());
            for probe in &out {
                prop_assert!(probe.started >= probe.submitted);
                prop_assert_eq!(probe.finished, probe.started + probe.job.runtime);
                let used: usize = out
                    .iter()
                    .filter(|o| o.started <= probe.started && o.finished > probe.started)
                    .map(|o| o.job.nodes)
                    .sum();
                prop_assert!(used <= nodes);
            }
        }
    }
}

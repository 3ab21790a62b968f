//! The quantum-stepped multicore execution loop.

use std::collections::{BTreeMap, BTreeSet};

use gridvm_hostload::LoadTrace;
use gridvm_sched::{Scheduler, TaskId};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::background::BackgroundLoad;
use crate::task::{TaskOutcome, TaskSpec};

use gridvm_simcore::metrics::Counter;

/// World switches charged to completed tasks (hot: once per task,
/// thousands of tasks per replication).
static WORLD_SWITCHES: Counter = Counter::new("host.world_switches");
/// Tasks run to completion.
static TASKS_COMPLETED: Counter = Counter::new("host.tasks_completed");

/// Static configuration of a simulated physical host.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Number of CPUs.
    pub cores: usize,
    /// Clock rate in cycles per second.
    pub clock_hz: f64,
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// Base context-switch cost charged when a task is switched onto
    /// a core (on top of any per-task overhead).
    pub switch_cost: SimDuration,
}

impl Default for HostConfig {
    /// The paper's Figure 1 compute node: a dual Pentium III/800 MHz
    /// with a 10 ms scheduling quantum and a ~5 µs context switch.
    fn default() -> Self {
        HostConfig {
            cores: 2,
            clock_hz: 800e6,
            quantum: SimDuration::from_millis(10),
            switch_cost: SimDuration::from_micros(5),
        }
    }
}

impl HostConfig {
    /// Validates and returns the config.
    ///
    /// # Panics
    ///
    /// Panics on zero cores, non-positive clock, or zero quantum.
    pub fn validated(self) -> Self {
        assert!(self.cores > 0, "host needs at least one core");
        assert!(self.clock_hz > 0.0, "non-positive clock rate");
        assert!(!self.quantum.is_zero(), "zero scheduling quantum");
        self
    }
}

#[derive(Debug)]
struct RunningTask {
    spec: TaskSpec,
    /// Dedicated-CPU time still needed (already inflated by the work
    /// multiplier); `None` for infinite background tasks.
    remaining: Option<SimDuration>,
    cpu_time: SimDuration,
    overhead_time: SimDuration,
    switches: u64,
    submitted_at: SimTime,
}

/// Errors from driving a [`HostSim`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostError {
    /// The awaited task did not finish within the time cap.
    Timeout {
        /// The task that was being awaited.
        task: TaskId,
        /// The cap that elapsed.
        cap: SimDuration,
    },
    /// The task id is unknown.
    UnknownTask(
        /// The offending id.
        TaskId,
    ),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Timeout { task, cap } => {
                write!(f, "{task} did not complete within {cap}")
            }
            HostError::UnknownTask(id) => write!(f, "unknown task {id}"),
        }
    }
}

impl std::error::Error for HostError {}

/// A simulated multicore host. See the [crate docs](crate).
///
/// ```
/// use gridvm_host::{HostConfig, HostSim, TaskSpec};
/// use gridvm_sched::SchedulerKind;
/// use gridvm_simcore::rng::SimRng;
/// use gridvm_simcore::time::SimDuration;
/// use gridvm_simcore::units::CpuWork;
///
/// let mut host = HostSim::new(HostConfig::default(),
///                             SchedulerKind::TimeShare.build(),
///                             SimRng::seed_from(1));
/// // 0.8 Gcycles at 800 MHz = 1 s of dedicated CPU.
/// let tid = host.spawn(TaskSpec::compute(CpuWork::from_cycles(800_000_000)));
/// let outcome = host.run_until_complete(tid, SimDuration::from_secs(10))?;
/// assert!((outcome.wall_time().as_secs_f64() - 1.0).abs() < 0.02);
/// # Ok::<(), gridvm_host::sim::HostError>(())
/// ```
pub struct HostSim {
    config: HostConfig,
    scheduler: Box<dyn Scheduler>,
    rng: SimRng,
    now: SimTime,
    next_id: u64,
    tasks: BTreeMap<TaskId, RunningTask>,
    finished: BTreeMap<TaskId, TaskOutcome>,
    background: Option<BackgroundLoad>,
    ran_last: BTreeSet<TaskId>,
    /// Scratch buffer handed to `Scheduler::select_into` each quantum
    /// so the hot loop does not allocate.
    picked_buf: Vec<TaskId>,
}

impl std::fmt::Debug for HostSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostSim")
            .field("now", &self.now)
            .field("scheduler", &self.scheduler.name())
            .field("live_tasks", &self.tasks.len())
            .field("finished", &self.finished.len())
            .finish()
    }
}

impl HostSim {
    /// Creates a host with the given scheduler and RNG stream.
    pub fn new(config: HostConfig, scheduler: Box<dyn Scheduler>, rng: SimRng) -> Self {
        HostSim {
            config: config.validated(),
            scheduler,
            rng,
            now: SimTime::ZERO,
            next_id: 0,
            tasks: BTreeMap::new(),
            finished: BTreeMap::new(),
            background: None,
            ran_last: BTreeSet::new(),
            picked_buf: Vec::new(),
        }
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Current simulated time on this host.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submits a finite task; it becomes runnable immediately.
    pub fn spawn(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.scheduler.add_task(id, spec.params);
        let remaining = spec
            .work
            .at_rate(self.config.clock_hz)
            .mul_f64(spec.work_multiplier);
        self.tasks.insert(
            id,
            RunningTask {
                spec,
                remaining: Some(remaining),
                cpu_time: SimDuration::ZERO,
                overhead_time: SimDuration::ZERO,
                switches: 0,
                submitted_at: self.now,
            },
        );
        id
    }

    /// Installs trace-driven background load: a pool of `pool_size`
    /// infinite tasks whose instantaneous runnable count follows the
    /// trace. `per_task` configures how each load process is
    /// scheduled and what switch overhead it pays (load inside a VM
    /// pays VMM costs).
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero or background load was already
    /// installed.
    pub fn set_background(&mut self, trace: LoadTrace, pool_size: usize, per_task: TaskSpec) {
        assert!(pool_size > 0, "background pool must not be empty");
        assert!(self.background.is_none(), "background already installed");
        let mut pool = Vec::with_capacity(pool_size);
        for _ in 0..pool_size {
            let id = TaskId(self.next_id);
            self.next_id += 1;
            self.scheduler.add_task(id, per_task.params);
            self.tasks.insert(
                id,
                RunningTask {
                    spec: per_task,
                    remaining: None,
                    cpu_time: SimDuration::ZERO,
                    overhead_time: SimDuration::ZERO,
                    switches: 0,
                    submitted_at: self.now,
                },
            );
            pool.push(id);
        }
        self.background = Some(BackgroundLoad::new(trace, pool));
    }

    /// The outcome of a finished task, if it has finished.
    pub fn outcome(&self, id: TaskId) -> Option<&TaskOutcome> {
        self.finished.get(&id)
    }

    /// The dedicated-host wall time of `spec` on an otherwise idle
    /// host: inflated work plus one scheduling switch. Used as the
    /// slowdown baseline.
    pub fn baseline(&self, spec: &TaskSpec) -> SimDuration {
        spec.work
            .at_rate(self.config.clock_hz)
            .mul_f64(spec.work_multiplier)
            + self.config.switch_cost
            + spec.switch_overhead
    }

    /// Runs one scheduling quantum.
    pub fn step(&mut self) {
        let quantum = self.config.quantum;
        let now = self.now;
        // Build the runnable set: unfinished finite tasks whose duty
        // mask is on, plus the background processes active right now.
        let mut runnable: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|(id, t)| {
                let is_bg = self
                    .background
                    .as_ref()
                    .is_some_and(|bg| bg.pool().contains(id));
                if is_bg {
                    return false; // handled below
                }
                t.remaining.is_some() && t.spec.duty.is_none_or(|d| d.is_runnable(now))
            })
            .map(|(id, _)| *id)
            .collect();
        if let Some(bg) = &self.background {
            runnable.extend(bg.runnable_at(now));
        }
        runnable.sort_unstable();
        if runnable.is_empty() {
            self.now += quantum;
            self.ran_last.clear();
            return;
        }
        // Reuse the host-owned pick buffer: the scheduler writes into
        // it, so the steady-state quantum loop performs no allocation.
        let mut picked = std::mem::take(&mut self.picked_buf);
        self.scheduler.select_into(
            &runnable,
            self.config.cores,
            now,
            quantum,
            &mut self.rng,
            &mut picked,
        );
        debug_assert!(
            picked.len() <= self.config.cores,
            "scheduler oversubscribed"
        );
        let mut ran_now = BTreeSet::new();
        for &id in &picked {
            debug_assert!(runnable.contains(&id), "scheduler picked unrunnable {id}");
            let switched = !self.ran_last.contains(&id);
            let task = self.tasks.get_mut(&id).expect("picked task exists");
            let overhead = if switched {
                self.config.switch_cost + task.spec.switch_overhead
            } else {
                SimDuration::ZERO
            };
            if switched {
                task.switches += 1;
            }
            let avail = quantum.saturating_sub(overhead);
            match task.remaining {
                Some(rem) if rem <= avail => {
                    // Completes inside this quantum.
                    let used = overhead + rem;
                    task.cpu_time += rem;
                    task.overhead_time += overhead;
                    let outcome = TaskOutcome {
                        submitted_at: task.submitted_at,
                        completed_at: now + used,
                        cpu_time: task.cpu_time,
                        overhead_time: task.overhead_time,
                        switches: task.switches,
                    };
                    WORLD_SWITCHES.add(task.switches);
                    TASKS_COMPLETED.add(1);
                    self.scheduler.charge(id, used);
                    self.scheduler.remove_task(id);
                    self.tasks.remove(&id);
                    self.finished.insert(id, outcome);
                    // The core idles for the rest of the quantum; at
                    // 10 ms quanta this under-counts throughput by
                    // less than one quantum per completion.
                }
                Some(rem) => {
                    let task = self.tasks.get_mut(&id).expect("still present");
                    task.remaining = Some(rem - avail);
                    task.cpu_time += avail;
                    task.overhead_time += overhead;
                    self.scheduler.charge(id, quantum);
                    ran_now.insert(id);
                }
                None => {
                    // Infinite background task: consumes the quantum.
                    task.cpu_time += avail;
                    task.overhead_time += overhead;
                    self.scheduler.charge(id, quantum);
                    ran_now.insert(id);
                }
            }
        }
        self.picked_buf = picked;
        self.ran_last = ran_now;
        self.now += quantum;
    }

    /// Runs until `id` completes or `cap` of simulated time elapses
    /// from now.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownTask`] if `id` was never spawned;
    /// [`HostError::Timeout`] if the cap elapses first.
    pub fn run_until_complete(
        &mut self,
        id: TaskId,
        cap: SimDuration,
    ) -> Result<TaskOutcome, HostError> {
        if !self.tasks.contains_key(&id) && !self.finished.contains_key(&id) {
            return Err(HostError::UnknownTask(id));
        }
        let deadline = self.now + cap;
        loop {
            if let Some(out) = self.finished.get(&id) {
                return Ok(*out);
            }
            if self.now >= deadline {
                return Err(HostError::Timeout { task: id, cap });
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_hostload::LoadTrace;
    use gridvm_sched::duty::DutyCycle;
    use gridvm_sched::{SchedulerKind, TaskParams};
    use gridvm_simcore::units::CpuWork;

    fn host(kind: SchedulerKind) -> HostSim {
        HostSim::new(HostConfig::default(), kind.build(), SimRng::seed_from(1))
    }

    /// 1 second of dedicated CPU at the default 800 MHz clock.
    fn one_sec_work() -> CpuWork {
        CpuWork::from_cycles(800_000_000)
    }

    #[test]
    fn lone_task_runs_at_native_speed() {
        let mut h = host(SchedulerKind::TimeShare);
        let id = h.spawn(TaskSpec::compute(one_sec_work()));
        let out = h
            .run_until_complete(id, SimDuration::from_secs(5))
            .expect("completes");
        let wall = out.wall_time().as_secs_f64();
        assert!((wall - 1.0).abs() < 0.02, "wall {wall}");
        assert_eq!(out.switches, 1, "scheduled once, never preempted");
    }

    #[test]
    fn two_tasks_one_core_each_take_twice_as_long() {
        let mut h = HostSim::new(
            HostConfig {
                cores: 1,
                ..HostConfig::default()
            },
            SchedulerKind::TimeShare.build(),
            SimRng::seed_from(2),
        );
        let a = h.spawn(TaskSpec::compute(one_sec_work()));
        let b = h.spawn(TaskSpec::compute(one_sec_work()));
        let oa = h.run_until_complete(a, SimDuration::from_secs(10)).unwrap();
        let ob = h.run_until_complete(b, SimDuration::from_secs(10)).unwrap();
        let last = oa.wall_time().max(ob.wall_time()).as_secs_f64();
        assert!((last - 2.0).abs() < 0.05, "last finisher at {last}");
    }

    #[test]
    fn two_tasks_two_cores_run_in_parallel() {
        let mut h = host(SchedulerKind::TimeShare);
        let a = h.spawn(TaskSpec::compute(one_sec_work()));
        let b = h.spawn(TaskSpec::compute(one_sec_work()));
        let oa = h.run_until_complete(a, SimDuration::from_secs(10)).unwrap();
        let ob = h.run_until_complete(b, SimDuration::from_secs(10)).unwrap();
        assert!(oa.wall_time().as_secs_f64() < 1.05);
        assert!(ob.wall_time().as_secs_f64() < 1.05);
    }

    #[test]
    fn work_multiplier_inflates_cpu_time() {
        let mut h = host(SchedulerKind::TimeShare);
        let id = h.spawn(TaskSpec::compute(one_sec_work()).with_work_multiplier(1.10));
        let out = h.run_until_complete(id, SimDuration::from_secs(5)).unwrap();
        let wall = out.wall_time().as_secs_f64();
        assert!((wall - 1.10).abs() < 0.02, "wall {wall}");
    }

    #[test]
    fn switch_overhead_accumulates_under_contention() {
        let mut h = HostSim::new(
            HostConfig {
                cores: 1,
                ..HostConfig::default()
            },
            SchedulerKind::TimeShare.build(),
            SimRng::seed_from(3),
        );
        let vm_like =
            TaskSpec::compute(one_sec_work()).with_switch_overhead(SimDuration::from_micros(500));
        let a = h.spawn(vm_like);
        let _b = h.spawn(TaskSpec::compute(one_sec_work()));
        let out = h.run_until_complete(a, SimDuration::from_secs(10)).unwrap();
        assert!(
            out.switches > 50,
            "expected many preemptions, got {}",
            out.switches
        );
        assert!(
            out.overhead_time > SimDuration::from_millis(25),
            "overhead {}",
            out.overhead_time
        );
    }

    #[test]
    fn background_load_slows_contending_task() {
        // Load 2.0 on a 2-core host with a test task: 3 runnable on 2
        // cores -> test task gets 2/3 of a CPU.
        let trace = LoadTrace::from_samples(SimDuration::from_secs(1), vec![2.0]).unwrap();
        let mut h = host(SchedulerKind::TimeShare);
        h.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
        let id = h.spawn(TaskSpec::compute(one_sec_work()));
        let out = h
            .run_until_complete(id, SimDuration::from_secs(20))
            .unwrap();
        let slow = out.slowdown_vs(h.baseline(&TaskSpec::compute(one_sec_work())));
        assert!((1.4..1.6).contains(&slow), "slowdown {slow}");
    }

    #[test]
    fn no_load_means_no_slowdown_on_spare_core() {
        let trace = LoadTrace::from_samples(SimDuration::from_secs(1), vec![1.0]).unwrap();
        let mut h = host(SchedulerKind::TimeShare);
        h.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
        let id = h.spawn(TaskSpec::compute(one_sec_work()));
        let out = h
            .run_until_complete(id, SimDuration::from_secs(20))
            .unwrap();
        let slow = out.slowdown_vs(h.baseline(&TaskSpec::compute(one_sec_work())));
        assert!(slow < 1.05, "one load proc + one test on two cores: {slow}");
    }

    #[test]
    fn duty_cycled_task_takes_proportionally_longer() {
        let mut h = host(SchedulerKind::TimeShare);
        let duty = DutyCycle::new(SimDuration::from_millis(100), 0.5);
        let id = h.spawn(TaskSpec::compute(one_sec_work()).with_duty(duty));
        let out = h
            .run_until_complete(id, SimDuration::from_secs(10))
            .unwrap();
        let wall = out.wall_time().as_secs_f64();
        assert!((1.9..2.2).contains(&wall), "50% duty wall {wall}");
    }

    #[test]
    fn timeout_is_reported() {
        let mut h = host(SchedulerKind::TimeShare);
        let id = h.spawn(TaskSpec::compute(one_sec_work()));
        let err = h
            .run_until_complete(id, SimDuration::from_millis(100))
            .unwrap_err();
        assert!(matches!(err, HostError::Timeout { .. }));
        assert!(err.to_string().contains("did not complete"));
    }

    #[test]
    fn unknown_task_is_reported() {
        let mut h = host(SchedulerKind::TimeShare);
        let err = h
            .run_until_complete(TaskId(999), SimDuration::from_secs(1))
            .unwrap_err();
        assert_eq!(err, HostError::UnknownTask(TaskId(999)));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut h = host(SchedulerKind::Lottery);
            let trace =
                LoadTrace::from_samples(SimDuration::from_secs(1), vec![1.0, 0.5, 2.0]).unwrap();
            h.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
            let id = h.spawn(TaskSpec::compute(one_sec_work()));
            h.run_until_complete(id, SimDuration::from_secs(30))
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn edf_reservation_bounds_vm_impact_on_owner() {
        // Owner reserves 50% via reservation; a greedy background VM
        // must not push the owner task below its slice.
        let mut h = host(SchedulerKind::Edf);
        let owner = h.spawn(TaskSpec::compute(one_sec_work()).with_params(
            TaskParams::with_reservation(
                SimDuration::from_millis(100),
                SimDuration::from_millis(50),
            ),
        ));
        // Greedy best-effort VM on the other... same single core:
        let trace = LoadTrace::from_samples(SimDuration::from_secs(1), vec![4.0]).unwrap();
        let mut h1 = HostSim::new(
            HostConfig {
                cores: 1,
                ..HostConfig::default()
            },
            SchedulerKind::Edf.build(),
            SimRng::seed_from(4),
        );
        let owner1 = h1.spawn(TaskSpec::compute(one_sec_work()).with_params(
            TaskParams::with_reservation(
                SimDuration::from_millis(100),
                SimDuration::from_millis(50),
            ),
        ));
        h1.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
        let o1 = h1
            .run_until_complete(owner1, SimDuration::from_secs(30))
            .unwrap();
        // With a guaranteed 50% slice, 1s of work finishes in ~2s even
        // under a 4-deep background queue.
        let wall = o1.wall_time().as_secs_f64();
        assert!((1.9..2.3).contains(&wall), "reserved owner wall {wall}");
        // And on the 2-core host without contention it finishes ~1s.
        let o = h
            .run_until_complete(owner, SimDuration::from_secs(30))
            .unwrap();
        assert!(o.wall_time().as_secs_f64() < 2.1);
    }
}

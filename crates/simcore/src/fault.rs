//! Seeded, deterministic fault injection.
//!
//! The paper's operational claim — ISA-level VMs make grid sessions
//! *recoverable units* — only means something if sessions survive
//! faults injected *mid-flight*. This module is the single source of
//! those faults: a [`FaultPlan`] is an explicit schedule of typed
//! [`FaultEvent`]s, built by hand or materialized from seeded random
//! processes ([`FaultPlan::seeded`]), that every layer of the stack
//! consults instead of rolling its own dice. Same seed + same plan ⇒
//! the same faults at the same simulated times, for any thread count.
//!
//! Consumption semantics are explicit: a [`FaultFeed`] wraps a plan
//! with a consumed-bitmap so each injected fault fires **at most
//! once** — retry loops cannot spin forever on one event, and replays
//! are bit-identical.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A typed fault, targeting one layer of the stack.
///
/// All payload fields are integers (percentages, durations) so plans
/// are `Eq`/hashable and digests are exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The physical host dies; everything running on it is lost.
    HostCrash,
    /// The host degrades: work takes `percent` % longer.
    HostSlowdown {
        /// Added runtime, percent of nominal.
        percent: u32,
    },
    /// The link partitions and heals after `heal_after`.
    LinkPartition {
        /// Outage duration.
        heal_after: SimDuration,
    },
    /// One in-flight exchange on the link is lost.
    LinkLoss,
    /// A latency spike adds `extra` to one exchange.
    LatencySpike {
        /// Extra one-way latency.
        extra: SimDuration,
    },
    /// One storage operation fails with an I/O error.
    StorageIoError,
    /// The disk degrades: accesses take `percent` % longer.
    StorageSlow {
        /// Added access time, percent of nominal.
        percent: u32,
    },
    /// One NFS/proxy RPC times out.
    NfsTimeout,
}

/// The architectural layer a fault kind targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultLayer {
    /// Physical host (crash, slowdown).
    Host,
    /// Virtual-network link/tunnel (partition, loss, latency).
    Link,
    /// Block storage (I/O error, slow disk).
    Storage,
    /// Virtual file system / NFS proxy (RPC timeout).
    Vfs,
}

impl FaultKind {
    /// The layer this kind targets.
    pub fn layer(&self) -> FaultLayer {
        match self {
            FaultKind::HostCrash | FaultKind::HostSlowdown { .. } => FaultLayer::Host,
            FaultKind::LinkPartition { .. }
            | FaultKind::LinkLoss
            | FaultKind::LatencySpike { .. } => FaultLayer::Link,
            FaultKind::StorageIoError | FaultKind::StorageSlow { .. } => FaultLayer::Storage,
            FaultKind::NfsTimeout => FaultLayer::Vfs,
        }
    }

    /// Stable metrics-counter name for this kind.
    pub fn counter_name(&self) -> &'static str {
        match self {
            FaultKind::HostCrash => "fault.host_crash",
            FaultKind::HostSlowdown { .. } => "fault.host_slowdown",
            FaultKind::LinkPartition { .. } => "fault.link_partition",
            FaultKind::LinkLoss => "fault.link_loss",
            FaultKind::LatencySpike { .. } => "fault.latency_spike",
            FaultKind::StorageIoError => "fault.storage_io_error",
            FaultKind::StorageSlow { .. } => "fault.storage_slow",
            FaultKind::NfsTimeout => "fault.nfs_timeout",
        }
    }
}

/// One scheduled fault: when, where, what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection time.
    pub at: SimTime,
    /// Target label, chosen by convention per deployment (e.g. a host
    /// name `"V0"`, the inter-host link `"lan"`, a data path `"nfs"`).
    pub target: String,
    /// What happens.
    pub kind: FaultKind,
}

/// One seeded random fault process: a Poisson arrival stream of one
/// fault kind over a set of targets.
#[derive(Clone, Debug)]
pub struct FaultProcess {
    /// The fault each arrival injects (payload fields used verbatim).
    pub kind: FaultKind,
    /// Mean inter-arrival time of the (exponential) process.
    pub mean_interval: SimDuration,
    /// Targets; each arrival picks one uniformly.
    pub targets: Vec<String>,
}

/// A deterministic fault schedule.
///
/// ```
/// use gridvm_simcore::fault::{FaultKind, FaultPlan};
/// use gridvm_simcore::time::SimTime;
///
/// let plan = FaultPlan::new()
///     .with("V0", SimTime::from_secs(40), FaultKind::HostCrash);
/// assert_eq!(plan.events().len(), 1);
/// assert_eq!(plan.events()[0].target, "V0");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the happy path).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one explicit fault, keeping the schedule sorted by time
    /// (stable: same-time events keep insertion order).
    pub fn with(mut self, target: impl Into<String>, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent {
            at,
            target: target.into(),
            kind,
        });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Materializes a plan from seeded random processes over a finite
    /// horizon. Each process draws its own split RNG stream, so adding
    /// a process does not perturb the arrivals of another, and the
    /// same `(seed, horizon, processes)` always yields the same plan.
    pub fn seeded(seed: u64, horizon: SimDuration, processes: &[FaultProcess]) -> Self {
        let root = SimRng::seed_from(seed);
        let mut events = Vec::new();
        for (i, p) in processes.iter().enumerate() {
            if p.targets.is_empty() || p.mean_interval.is_zero() {
                continue;
            }
            let mut rng = root.split(&format!("fault-process.{i}"));
            let mean = p.mean_interval.as_secs_f64();
            let mut t = SimDuration::from_secs_f64(rng.exponential(mean));
            while t < horizon {
                let target = rng.pick(&p.targets).clone();
                events.push(FaultEvent {
                    at: SimTime::ZERO + t,
                    target,
                    kind: p.kind,
                });
                t += SimDuration::from_secs_f64(rng.exponential(mean));
            }
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Merges another plan into this one (stable time order).
    pub fn merged(mut self, other: &FaultPlan) -> Self {
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The schedule, sorted by injection time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether `target` has a [`FaultKind::HostCrash`] at or before
    /// `now` — i.e. the host is already down from the perspective of a
    /// resource selector (which may not peek at *future* faults).
    pub fn host_down(&self, target: &str, now: SimTime) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == FaultKind::HostCrash && e.at <= now && e.target == target)
    }

    /// Order-sensitive FNV-1a digest of the whole schedule; two plans
    /// agree iff they inject the same faults at the same times in the
    /// same order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.events {
            h.mix(&e.at.as_nanos().to_le_bytes());
            h.mix(e.target.as_bytes());
            h.mix(format!("{:?}", e.kind).as_bytes());
        }
        h.finish()
    }
}

/// A consuming cursor over a [`FaultPlan`]: each event fires at most
/// once, so retry loops converge and replays stay deterministic.
#[derive(Clone, Debug)]
pub struct FaultFeed {
    plan: FaultPlan,
    consumed: Vec<bool>,
}

impl FaultFeed {
    /// Wraps a plan (cloned; plans are small).
    pub fn new(plan: &FaultPlan) -> Self {
        FaultFeed {
            consumed: vec![false; plan.events.len()],
            plan: plan.clone(),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Takes (consumes) the earliest unconsumed event with
    /// `start <= at < end` matching `pred`, if any.
    ///
    /// Returns a borrow of the event rather than a clone: polling
    /// loops call this once per recovery window, and the event's
    /// `target: String` made every miss-then-match poll an
    /// allocation. Callers that need to retain the event clone it
    /// explicitly.
    pub fn take_matching(
        &mut self,
        start: SimTime,
        end: SimTime,
        pred: impl Fn(&FaultEvent) -> bool,
    ) -> Option<&FaultEvent> {
        let mut found = None;
        for (i, e) in self.plan.events.iter().enumerate() {
            if self.consumed[i] {
                continue;
            }
            if e.at >= end {
                break; // sorted: nothing later can match the window
            }
            if e.at >= start && pred(e) {
                found = Some(i);
                break;
            }
        }
        let i = found?;
        self.consumed[i] = true;
        Some(&self.plan.events[i])
    }

    /// Takes the earliest unconsumed event for `target` whose kind's
    /// layer matches, within `[start, end)`. Borrows like
    /// [`take_matching`](FaultFeed::take_matching).
    pub fn take_for(
        &mut self,
        target: &str,
        layer: FaultLayer,
        start: SimTime,
        end: SimTime,
    ) -> Option<&FaultEvent> {
        self.take_matching(start, end, |e| {
            e.target == target && e.kind.layer() == layer
        })
    }

    /// Peeks (without consuming) at the earliest unconsumed event in
    /// `[start, end)` matching `pred`.
    pub fn peek_matching(
        &self,
        start: SimTime,
        end: SimTime,
        pred: impl Fn(&FaultEvent) -> bool,
    ) -> Option<&FaultEvent> {
        self.plan
            .events
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.consumed[*i])
            .map(|(_, e)| e)
            .take_while(|e| e.at < end)
            .find(|e| e.at >= start && pred(e))
    }

    /// How many events have not fired yet.
    pub fn remaining(&self) -> usize {
        self.consumed.iter().filter(|c| !**c).count()
    }
}

/// Incremental FNV-1a (the digest primitive shared by trace logs and
/// fault plans).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Offset-basis start state.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes into the digest.
    pub fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn explicit_plans_stay_time_sorted() {
        let plan = FaultPlan::new()
            .with("b", t(30), FaultKind::StorageIoError)
            .with("a", t(10), FaultKind::HostCrash)
            .with("c", t(30), FaultKind::NfsTimeout);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Stable: the two t=30 events keep insertion order.
        assert_eq!(plan.events()[1].target, "b");
        assert_eq!(plan.events()[2].target, "c");
    }

    #[test]
    fn seeded_plans_reproduce_and_diverge() {
        let procs = [
            FaultProcess {
                kind: FaultKind::HostCrash,
                mean_interval: SimDuration::from_secs(120),
                targets: vec!["V0".into(), "V1".into()],
            },
            FaultProcess {
                kind: FaultKind::NfsTimeout,
                mean_interval: SimDuration::from_secs(40),
                targets: vec!["nfs".into()],
            },
        ];
        let horizon = SimDuration::from_secs(3_600);
        let a = FaultPlan::seeded(7, horizon, &procs);
        let b = FaultPlan::seeded(7, horizon, &procs);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = FaultPlan::seeded(8, horizon, &procs);
        assert_ne!(a.digest(), c.digest());
        assert!(!a.is_empty(), "an hour at these rates produces arrivals");
        assert!(a.events().iter().all(|e| e.at < SimTime::ZERO + horizon));
    }

    #[test]
    fn adding_a_process_does_not_perturb_existing_streams() {
        let base = [FaultProcess {
            kind: FaultKind::HostCrash,
            mean_interval: SimDuration::from_secs(300),
            targets: vec!["V0".into()],
        }];
        let extended = [
            base[0].clone(),
            FaultProcess {
                kind: FaultKind::LinkLoss,
                mean_interval: SimDuration::from_secs(60),
                targets: vec!["lan".into()],
            },
        ];
        let horizon = SimDuration::from_secs(7_200);
        let a = FaultPlan::seeded(3, horizon, &base);
        let b = FaultPlan::seeded(3, horizon, &extended);
        let crashes_a: Vec<_> = a
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::HostCrash)
            .collect();
        let crashes_b: Vec<_> = b
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::HostCrash)
            .collect();
        assert_eq!(crashes_a, crashes_b);
    }

    #[test]
    fn feed_consumes_each_event_once() {
        let plan = FaultPlan::new()
            .with("nfs", t(5), FaultKind::NfsTimeout)
            .with("nfs", t(6), FaultKind::NfsTimeout);
        let mut feed = FaultFeed::new(&plan);
        assert_eq!(feed.remaining(), 2);
        let first = feed
            .take_for("nfs", FaultLayer::Vfs, t(0), t(10))
            .expect("first event in window");
        assert_eq!(first.at, t(5));
        let second = feed
            .take_for("nfs", FaultLayer::Vfs, t(0), t(10))
            .expect("second event in window");
        assert_eq!(second.at, t(6));
        assert!(feed.take_for("nfs", FaultLayer::Vfs, t(0), t(10)).is_none());
        assert_eq!(feed.remaining(), 0);
    }

    #[test]
    fn feed_windows_and_layers_filter() {
        let plan = FaultPlan::new()
            .with("V0", t(10), FaultKind::HostCrash)
            .with("lan", t(20), FaultKind::LinkLoss);
        let mut feed = FaultFeed::new(&plan);
        // Wrong layer / wrong window: nothing fires.
        assert!(feed.take_for("V0", FaultLayer::Link, t(0), t(60)).is_none());
        assert!(feed
            .take_for("V0", FaultLayer::Host, t(11), t(60))
            .is_none());
        assert!(feed
            .peek_matching(t(0), t(60), |e| e.kind == FaultKind::LinkLoss)
            .is_some());
        assert!(feed.take_for("V0", FaultLayer::Host, t(0), t(60)).is_some());
        assert_eq!(feed.remaining(), 1);
    }

    #[test]
    fn host_down_only_sees_the_past() {
        let plan = FaultPlan::new().with("V1", t(100), FaultKind::HostCrash);
        assert!(!plan.host_down("V1", t(99)));
        assert!(plan.host_down("V1", t(100)));
        assert!(!plan.host_down("V0", t(500)));
    }

    #[test]
    fn kinds_map_to_layers_and_counters() {
        assert_eq!(FaultKind::HostCrash.layer(), FaultLayer::Host);
        assert_eq!(
            FaultKind::LinkPartition {
                heal_after: SimDuration::from_secs(1)
            }
            .layer(),
            FaultLayer::Link
        );
        assert_eq!(FaultKind::StorageIoError.layer(), FaultLayer::Storage);
        assert_eq!(FaultKind::NfsTimeout.layer(), FaultLayer::Vfs);
        assert_eq!(FaultKind::HostCrash.counter_name(), "fault.host_crash");
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = FaultPlan::new().with("x", t(1), FaultKind::LinkLoss);
        let b = FaultPlan::new().with("x", t(2), FaultKind::LinkLoss);
        let c = FaultPlan::new().with("y", t(1), FaultKind::LinkLoss);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(FaultPlan::new().digest(), Fnv::new().finish());
    }

    #[test]
    fn merged_plans_interleave_in_time_order() {
        let a = FaultPlan::new().with("x", t(5), FaultKind::LinkLoss);
        let b = FaultPlan::new().with("y", t(2), FaultKind::NfsTimeout);
        let m = a.merged(&b);
        assert_eq!(m.events()[0].target, "y");
        assert_eq!(m.events()[1].target, "x");
    }
}

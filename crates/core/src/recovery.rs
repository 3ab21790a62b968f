//! Self-healing grid sessions under injected faults.
//!
//! Section 3.1 argues that classic VMs make whole-environment
//! recovery a first-class grid operation: a session interrupted by a
//! compute-server failure can be resumed "from the most recent
//! checkpoint" on a different virtualized server, because the entire
//! computing environment — not just the process — is serializable.
//! This module drives the Figure 3 life cycle against a multi-host
//! [`Cluster`] and a seeded [`FaultPlan`], reacting to each injected
//! fault the way 2003-era middleware would:
//!
//! * **host crash** — detect, re-run resource selection through the
//!   information service (with per-RPC retries), transfer the last
//!   checkpoint image ([`SuspendImage`]) to a surviving host over the
//!   site LAN, resume there ([`migration`](crate::migration)-style
//!   monitor setup + warm state read), resubmit through GRAM and
//!   re-handshake the data sessions;
//! * **host/storage slowdown** — the guest's progress rate and its
//!   checkpoint overhead stretch accordingly;
//! * **link partition** — transfers wait for the scheduled heal up to
//!   a patience bound, then fail loudly;
//! * **link loss / NFS timeout** — individual RPCs fail and are
//!   retried under the middleware [`RetryPolicy`];
//! * **storage I/O error** — a checkpoint commit in flight fails the
//!   session with a typed error.
//!
//! Every consumed fault and every recovery phase is recorded in the
//! metrics registry and the session [`TraceLog`], so the chaos bench
//! and the golden-trace tests can pin the whole causal history from
//! one seed.

use gridvm_gridmw::gram::JobRequest;
use gridvm_gridmw::info::{InfoService, Query, ResourceId, ResourceKind};
use gridvm_gridmw::retry::{retry_rpc, RetryPolicy};
use gridvm_simcore::fault::{FaultEvent, FaultFeed, FaultKind, FaultPlan};
use gridvm_simcore::metrics;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::trace::TraceLog;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::BlockAddr;
use gridvm_storage::disk::AccessKind;
use gridvm_storage::image::ImageCatalog;
use gridvm_vfs::mount::Transport;
use gridvm_vmm::exec::{run_app, ExecMode, LocalDiskStorage};
use gridvm_vmm::snapshot::SuspendImage;
use gridvm_vnet::addr::{Ipv4Addr, MacAddr, Subnet};
use gridvm_vnet::dhcp::DhcpServer;
use gridvm_vnet::link::NetLink;

use crate::server::{paper_data_server, paper_image_server, ComputeServer};
use crate::session::{SessionError, SessionRequest, INFO_QUERY_COST, MOUNT_SETUP_RPCS};
use crate::startup::run_startup_at;

/// The grid identity compute nodes authorize (see
/// [`ComputeServer::paper_node`]).
const EXPERIMENTER: &str = "/O=Grid/CN=experimenter";

/// A multi-host deployment: the Figure 3 world with several
/// candidate compute servers, so a session has somewhere to go when
/// its host dies.
pub struct Cluster {
    /// The information service all hosts register with.
    pub info: InfoService,
    /// The candidate compute servers, named `node0..nodeN-1` — fault
    /// plans address them by these names.
    pub hosts: Vec<ComputeServer>,
    /// The VM-future record of each host (parallel to `hosts`).
    pub futures: Vec<ResourceId>,
    /// The image server `I`: the catalog of images it archives.
    pub image_server: ImageCatalog,
    /// The user's data server, when deployed.
    pub data_server: Option<gridvm_vfs::server::NfsServer>,
    /// Address allocation on the compute site's network.
    pub dhcp: DhcpServer,
    /// Each host's site-LAN access link (parallel to `hosts`); link
    /// faults address the destination host's name.
    pub links: Vec<NetLink>,
}

impl Cluster {
    /// A paper-style site: `n` dual-CPU compute nodes on a 100 Mbit/s
    /// LAN, one image server publishing `image`, and a data server
    /// holding `user`'s home tree.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn paper_lan(n: usize, image: &str, user: &str) -> Self {
        assert!(n > 0, "a cluster needs at least one host");
        let mut info = InfoService::new();
        let mut hosts = Vec::with_capacity(n);
        let mut futures = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("node{i}");
            let record = info.register(
                SimTime::ZERO,
                "compute-site",
                ResourceKind::PhysicalHost {
                    cores: 2,
                    clock_hz: 800e6,
                    memory_mib: 1024,
                },
            );
            let future = info.register(
                SimTime::ZERO,
                "compute-site",
                ResourceKind::VmFuture {
                    host: record,
                    images: vec![image.to_owned()],
                    available_slots: 4,
                },
            );
            futures.push(future);
            hosts.push(ComputeServer::paper_node(name));
            links.push(NetLink::new(
                SimDuration::from_micros(300),
                gridvm_simcore::units::Bandwidth::from_mbit_per_sec(100.0),
            ));
        }
        info.register(
            SimTime::ZERO,
            "image-site",
            ResourceKind::ImageServer {
                images: vec![image.to_owned()],
            },
        );
        Cluster {
            info,
            hosts,
            futures,
            image_server: paper_image_server(image),
            data_server: Some(paper_data_server(user, ByteSize::from_mib(8))),
            dhcp: DhcpServer::new(
                Subnet::new(Ipv4Addr::from_octets(10, 8, 0, 0), 24),
                SimDuration::from_secs(3600),
            ),
            links,
        }
    }

    /// The lowest-indexed host not crashed (per `plan`) as of `now`,
    /// excluding `avoid` (the host just lost). The information-service
    /// query result seeds the candidate order; the full host list is
    /// the deterministic fallback when partial query results miss
    /// every survivor.
    pub fn surviving_host(
        &mut self,
        plan: &FaultPlan,
        now: SimTime,
        avoid: Option<usize>,
        image: &str,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let alive =
            |i: &usize| -> bool { avoid != Some(*i) && !plan.host_down(&self.hosts[*i].name, now) };
        let candidates = self
            .info
            .query_at(now, &Query::CanInstantiate(image.to_owned()), 4, rng);
        let mut from_query: Vec<usize> = candidates
            .iter()
            .filter_map(|r| self.futures.iter().position(|f| *f == r.id))
            .filter(alive)
            .collect();
        from_query.sort_unstable();
        from_query
            .first()
            .copied()
            .or_else(|| (0..self.hosts.len()).find(alive))
    }
}

/// Tunables of the recovery machinery.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// How often the guest's state is checkpointed (work-time between
    /// consistent suspend images).
    pub checkpoint_interval: SimDuration,
    /// Cost of writing one checkpoint image (charged as a rate
    /// overhead on guest progress).
    pub checkpoint_cost: SimDuration,
    /// Time for the middleware to notice a dead host (missed
    /// heartbeats).
    pub detect_timeout: SimDuration,
    /// How long a recovery transfer waits for a partitioned link to
    /// heal before giving up.
    pub partition_patience: SimDuration,
    /// The per-RPC retry policy for information-service and transfer
    /// calls.
    pub retry: RetryPolicy,
}

impl Default for RecoveryConfig {
    /// 30 s checkpoints costing 2 s each, 2 s failure detection, 120 s
    /// partition patience, default middleware retries.
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: SimDuration::from_secs(30),
            checkpoint_cost: SimDuration::from_secs(2),
            detect_timeout: SimDuration::from_secs(2),
            partition_patience: SimDuration::from_secs(120),
            retry: RetryPolicy::default(),
        }
    }
}

/// Why a chaos session ended without completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosError {
    /// Establishment failed before the application started.
    Establish(
        /// The underlying session error.
        SessionError,
    ),
    /// Every candidate host had crashed.
    NoSurvivingHost {
        /// When the search gave up.
        at: SimTime,
    },
    /// A retried operation spent its whole budget.
    RetryBudgetExhausted {
        /// Which operation gave up.
        op: &'static str,
        /// When it gave up.
        at: SimTime,
    },
    /// A storage fault hit a checkpoint commit in flight.
    StorageFault {
        /// Which operation the fault hit.
        op: &'static str,
        /// When.
        at: SimTime,
    },
    /// A partitioned link did not heal within the patience bound.
    PartitionTimeout {
        /// How long the heal would have taken (or the patience bound
        /// when no heal was scheduled).
        waited: SimDuration,
        /// When the transfer gave up.
        at: SimTime,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Establish(e) => write!(f, "session establishment failed: {e}"),
            ChaosError::NoSurvivingHost { at } => {
                write!(f, "no surviving host at {at}")
            }
            ChaosError::RetryBudgetExhausted { op, at } => {
                write!(f, "{op} exhausted its retry budget at {at}")
            }
            ChaosError::StorageFault { op, at } => {
                write!(f, "storage fault during {op} at {at}")
            }
            ChaosError::PartitionTimeout { waited, at } => {
                write!(f, "partition outlived patience ({waited} needed) at {at}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// One crash-recovery episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Host index that crashed.
    pub from_host: usize,
    /// Host index the session resumed on.
    pub to_host: usize,
    /// When the crash fired.
    pub crash_at: SimTime,
    /// When the guest was running again.
    pub resumed_at: SimTime,
    /// Guest work redone (progress past the last checkpoint).
    pub lost_work: SimDuration,
}

impl RecoveryRecord {
    /// Guest downtime: crash through resume.
    pub fn downtime(&self) -> SimDuration {
        self.resumed_at.duration_since(self.crash_at)
    }
}

/// A completed chaos session.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// End-to-end time, establishment through application completion.
    pub total: SimDuration,
    /// Establishment time (Figure 3 steps 1–5, fault-free portion).
    pub establish: SimDuration,
    /// VM startup time within establishment (the Table 2 quantity,
    /// for the attempt that finally stuck).
    pub startup_total: SimDuration,
    /// The application's fault-free wall time (what Table 2 would
    /// have measured).
    pub app_nominal: SimDuration,
    /// Each crash-recovery episode, in order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Host index the application finished on.
    pub finished_on: usize,
    /// The VM's leased address.
    pub address: Ipv4Addr,
}

impl ChaosReport {
    /// Number of suspend–transfer–resume migrations performed.
    pub fn migrations(&self) -> usize {
        self.recoveries.len()
    }
}

/// Counts the fault in the metrics registry and records it in the
/// trace.
fn note_fault(trace: &mut TraceLog, e: &FaultEvent) {
    metrics::counter_add(e.kind.counter_name(), 1);
    trace.record(e.at, "fault", format_args!("{:?} on {}", e.kind, e.target));
}

/// An information-service query under the retry policy: unconsumed
/// NFS-timeout faults due by an attempt's end fail that attempt.
fn info_query_with_retry(
    feed: &mut FaultFeed,
    cfg: &RecoveryConfig,
    trace: &mut TraceLog,
    t: SimTime,
    rng: &mut SimRng,
    op: &'static str,
) -> Result<SimTime, ChaosError> {
    let (finish, result) = retry_rpc(&cfg.retry, t, rng, |start, _| {
        let finish = start + INFO_QUERY_COST;
        match feed.take_matching(SimTime::ZERO, finish, |e| e.kind == FaultKind::NfsTimeout) {
            Some(e) => {
                note_fault(trace, e);
                (finish, Err(()))
            }
            None => (finish, Ok(())),
        }
    });
    match result {
        Ok(()) => Ok(finish),
        Err(_) => {
            trace.record(finish, "recovery", format_args!("{op} gave up"));
            Err(ChaosError::RetryBudgetExhausted { op, at: finish })
        }
    }
}

/// Runs a session end to end under `plan`, healing around injected
/// faults, starting at `SimTime::ZERO`.
///
/// On success the report carries every recovery episode; on failure
/// the error is typed and the trace records how far the session got.
/// `chaos.sessions_completed` / `chaos.sessions_failed` count the
/// outcomes.
///
/// # Errors
///
/// [`ChaosError`] — see its variants.
pub fn run_resilient_session(
    cluster: &mut Cluster,
    req: &SessionRequest,
    cfg: &RecoveryConfig,
    plan: &FaultPlan,
    rng: &mut SimRng,
    trace: &mut TraceLog,
) -> Result<ChaosReport, ChaosError> {
    let result = drive_session(cluster, req, cfg, plan, rng, trace);
    match &result {
        Ok(_) => metrics::counter_add("chaos.sessions_completed", 1),
        Err(e) => {
            metrics::counter_add("chaos.sessions_failed", 1);
            trace.record(SimTime::ZERO, "session", format_args!("failed: {e}"));
        }
    }
    result
}

fn drive_session(
    cluster: &mut Cluster,
    req: &SessionRequest,
    cfg: &RecoveryConfig,
    plan: &FaultPlan,
    rng: &mut SimRng,
    trace: &mut TraceLog,
) -> Result<ChaosReport, ChaosError> {
    let mut feed = FaultFeed::new(plan);
    let t0 = SimTime::ZERO;
    let mut t = t0;
    trace.record(t, "session", format_args!("establish for {}", req.user));

    // Steps 1–2: discovery, each a retried information-service query.
    t = info_query_with_retry(&mut feed, cfg, trace, t, rng, "future-discovery")?;
    t = info_query_with_retry(&mut feed, cfg, trace, t, rng, "image-discovery")?;
    if cluster.image_server.lookup(&req.image).is_err() {
        return Err(ChaosError::Establish(SessionError::NoImageServer(
            req.image.clone(),
        )));
    }
    let Some(mut host_idx) = cluster.surviving_host(plan, t, None, &req.image, rng) else {
        return Err(ChaosError::Establish(SessionError::NoMatchingFuture));
    };

    // Step 3: image data session.
    t += Transport::lan().round_trip_estimate() * MOUNT_SETUP_RPCS;

    // Step 4: VM startup via GRAM; a crash mid-startup moves the whole
    // submission to another host.
    let startup = loop {
        let host_name = cluster.hosts[host_idx].name.clone();
        let breakdown = run_startup_at(&mut cluster.hosts[host_idx], &req.startup, rng, t);
        let end = t + breakdown.total;
        match feed.take_matching(t, end, |e| {
            e.target == host_name && e.kind == FaultKind::HostCrash
        }) {
            None => {
                t = end;
                break breakdown;
            }
            Some(crash) => {
                note_fault(trace, crash);
                metrics::counter_add("recovery.startup_retries", 1);
                t = crash.at + cfg.detect_timeout;
                t = info_query_with_retry(&mut feed, cfg, trace, t, rng, "startup-reselect")?;
                host_idx = cluster
                    .surviving_host(plan, t, Some(host_idx), &req.image, rng)
                    .ok_or(ChaosError::NoSurvivingHost { at: t })?;
                trace.record(
                    t,
                    "recovery",
                    format_args!("startup moved to node{host_idx}"),
                );
            }
        }
    };

    // Step 4 (cont.): address the VM.
    let vm_record = cluster.info.register(
        t,
        "compute-site",
        ResourceKind::VmInstance {
            host: cluster.futures[host_idx],
            guest_os: req.startup.image.os.clone(),
            memory_mib: req.startup.vm.memory.as_u64() / (1024 * 1024),
        },
    );
    let mac = MacAddr::local(0xF0F0_0000 ^ vm_record.0);
    let lease = match cluster.dhcp.acquire(t, mac) {
        Ok(l) => l,
        Err(_) => {
            cluster.info.deregister(vm_record);
            return Err(ChaosError::Establish(SessionError::NoAddress));
        }
    };

    // Step 5: guest data session.
    if let Some(server) = &cluster.data_server {
        let data_path = format!("/home/{}/input.dat", req.user);
        if server.fs().resolve(&data_path).is_err() {
            return Err(ChaosError::Establish(SessionError::DataPathMissing(
                data_path,
            )));
        }
        t += Transport::wan().round_trip_estimate() * MOUNT_SETUP_RPCS;
    }
    let establish = t.duration_since(t0);
    trace.record(t, "session", format_args!("established on node{host_idx}"));

    // Step 6: the application, under checkpointing and crashes. The
    // fault-free wall time anchors the work-remaining accounting.
    let app_nominal = {
        let host = &mut cluster.hosts[host_idx];
        let cost_model = host.cost_model;
        let clock = host.host_config.clock_hz;
        let mut storage = LocalDiskStorage::new(&mut host.disk);
        run_app(
            &req.app,
            ExecMode::Virtualized,
            &cost_model,
            &mut storage,
            clock,
            t,
            rng,
        )
        .wall
    };
    let snapshot = SuspendImage::for_config(&req.startup.vm);
    let mut remaining = app_nominal;
    let mut recoveries = Vec::new();
    loop {
        let host_name = cluster.hosts[host_idx].name.clone();
        let horizon = t + remaining.mul_f64(8.0) + SimDuration::from_secs(3600);

        // Degradations active on this host stretch the stint.
        let mut host_slow = 0u32;
        while let Some(e) = feed.take_matching(SimTime::ZERO, horizon, |e| {
            e.target == host_name && matches!(e.kind, FaultKind::HostSlowdown { .. })
        }) {
            if let FaultKind::HostSlowdown { percent } = e.kind {
                host_slow = host_slow.max(percent);
            }
            note_fault(trace, e);
        }
        let mut disk_slow = 0u32;
        while let Some(e) = feed.take_matching(SimTime::ZERO, horizon, |e| {
            e.target == host_name && matches!(e.kind, FaultKind::StorageSlow { .. })
        }) {
            if let FaultKind::StorageSlow { percent } = e.kind {
                disk_slow = disk_slow.max(percent);
            }
            note_fault(trace, e);
            cluster.hosts[host_idx].disk.set_slowdown_percent(disk_slow);
        }
        let ckpt_cost = cfg.checkpoint_cost.mul_f64(1.0 + disk_slow as f64 / 100.0);
        let effective = (1.0 + host_slow as f64 / 100.0)
            * (1.0 + ckpt_cost.as_secs_f64() / cfg.checkpoint_interval.as_secs_f64());
        let planned_end = t + remaining.mul_f64(effective);

        let Some(crash) = feed.take_matching(t, planned_end, |e| {
            e.target == host_name && e.kind == FaultKind::HostCrash
        }) else {
            // Fault-free to the finish line.
            t = planned_end;
            break;
        };
        note_fault(trace, crash);
        let tc = crash.at;

        // Progress at the crash, rounded down to the last checkpoint.
        let progress = tc.duration_since(t).as_secs_f64() / effective;
        let interval = cfg.checkpoint_interval.as_secs_f64();
        let checkpoints = (progress / interval).floor();
        let saved = SimDuration::from_secs_f64(checkpoints * interval).min(remaining);
        let lost = SimDuration::from_secs_f64(progress).saturating_sub(saved);
        remaining = remaining.saturating_sub(saved);
        metrics::counter_add("recovery.checkpoints", checkpoints as u64);
        metrics::counter_add(
            "recovery.lost_work_ms",
            (lost.as_secs_f64() * 1000.0) as u64,
        );
        trace.record(
            tc,
            "recovery",
            format_args!("node{host_idx} lost; {checkpoints} checkpoints survive"),
        );

        // Detect, re-select, transfer, resume, resubmit, reconnect.
        let mut rt = tc + cfg.detect_timeout;
        rt = info_query_with_retry(&mut feed, cfg, trace, rt, rng, "crash-reselect")?;
        let next = cluster
            .surviving_host(plan, rt, Some(host_idx), &req.image, rng)
            .ok_or(ChaosError::NoSurvivingHost { at: rt })?;
        let next_name = cluster.hosts[next].name.clone();
        let lookahead = rt + cfg.partition_patience;

        // Storage fault at the destination kills the checkpoint
        // commit.
        if let Some(e) = feed.take_matching(SimTime::ZERO, lookahead, |e| {
            e.target == next_name && e.kind == FaultKind::StorageIoError
        }) {
            note_fault(trace, e);
            return Err(ChaosError::StorageFault {
                op: "checkpoint-commit",
                at: rt,
            });
        }

        // Partition on the destination's link: wait for the scheduled
        // heal, within patience.
        if let Some(e) = feed.take_matching(SimTime::ZERO, lookahead, |e| {
            e.target == next_name && matches!(e.kind, FaultKind::LinkPartition { .. })
        }) {
            note_fault(trace, e);
            if let FaultKind::LinkPartition { heal_after } = e.kind {
                if !heal_after.is_zero() {
                    cluster.links[next].schedule_outage(e.at, e.at + heal_after);
                }
            }
        }
        if !cluster.links[next].up_at(rt) {
            match cluster.links[next].outage_until(rt) {
                Some(heal) if heal.duration_since(rt) <= cfg.partition_patience => {
                    trace.record(
                        rt,
                        "recovery",
                        format_args!("waiting out partition to {heal}"),
                    );
                    rt = heal;
                }
                Some(heal) => {
                    return Err(ChaosError::PartitionTimeout {
                        waited: heal.duration_since(rt),
                        at: rt,
                    });
                }
                None => {
                    return Err(ChaosError::PartitionTimeout {
                        waited: cfg.partition_patience,
                        at: rt,
                    });
                }
            }
        }

        // Packet loss costs one retransmission under the policy.
        if let Some(e) = feed.take_matching(SimTime::ZERO, lookahead, |e| {
            e.target == next_name && e.kind == FaultKind::LinkLoss
        }) {
            note_fault(trace, e);
            metrics::counter_add("gridmw.rpc_retries", 1);
            let delay = cfg
                .retry
                .backoff(rng.split("transfer-loss"))
                .next()
                .unwrap_or(cfg.retry.base);
            rt = rt + cfg.retry.base + delay;
        }

        // Transfer the checkpoint image, write-through at the
        // destination (migration-style suspend/copy/resume).
        let payload = snapshot.total();
        let block = cluster.hosts[next].disk.profile().block_size;
        let sent = match cluster.links[next].send(rt, payload) {
            Ok(g) => g,
            Err(_) => {
                return Err(ChaosError::PartitionTimeout {
                    waited: cfg.partition_patience,
                    at: rt,
                });
            }
        };
        let written = cluster.hosts[next].disk.access_run(
            rt,
            BlockAddr(1 << 33),
            snapshot.blocks(block),
            AccessKind::Write,
        );
        rt = sent.finish.max(written.finish);

        // Resume: monitor setup plus a warm re-read of the image.
        let setup = cluster.hosts[next].cost_model.vm_restore_setup;
        let read = cluster.hosts[next].disk.access_run(
            rt + setup,
            BlockAddr(1 << 33),
            snapshot.blocks(block),
            AccessKind::Read,
        );
        rt = read.finish;

        // GRAM resubmission on the destination.
        let gram_req = JobRequest {
            executable: "vmware-resume".to_owned(),
            subject: EXPERIMENTER.to_owned(),
        };
        let (payload_start, _job) = cluster.hosts[next]
            .gram
            .resubmit(rt, &gram_req)
            .expect("compute nodes authorize the experimenter");
        rt = payload_start;

        // Reconnect the data sessions, through any latency spike on
        // the destination.
        let mut lan = Transport::lan();
        if let Some(e) = feed.take_matching(SimTime::ZERO, lookahead, |e| {
            e.target == next_name && matches!(e.kind, FaultKind::LatencySpike { .. })
        }) {
            note_fault(trace, e);
            if let FaultKind::LatencySpike { extra } = e.kind {
                lan.add_rpc_latency(extra);
            }
        }
        rt += lan.round_trip_estimate() * MOUNT_SETUP_RPCS;

        let record = RecoveryRecord {
            from_host: host_idx,
            to_host: next,
            crash_at: tc,
            resumed_at: rt,
            lost_work: lost,
        };
        metrics::counter_add("recovery.migrations", 1);
        metrics::counter_add(
            "recovery.downtime_ms",
            (record.downtime().as_secs_f64() * 1000.0) as u64,
        );
        trace.record(
            rt,
            "recovery",
            format_args!("resumed on node{next} after {}", record.downtime()),
        );
        recoveries.push(record);
        host_idx = next;
        t = rt;
    }

    trace.record(t, "session", format_args!("completed on node{host_idx}"));
    Ok(ChaosReport {
        total: t.duration_since(t0),
        establish,
        startup_total: startup.total,
        app_nominal,
        recoveries,
        finished_on: host_idx,
        address: lease.addr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::startup::{StartupConfig, StartupMode, StateAccess};
    use gridvm_simcore::units::CpuWork;
    use gridvm_vmm::machine::DiskMode;
    use gridvm_workloads::AppProfile;

    fn request() -> SessionRequest {
        SessionRequest {
            user: "userX".into(),
            image: "rh72".into(),
            min_cores: 2,
            startup: StartupConfig::table2(
                StartupMode::Restore,
                DiskMode::NonPersistent,
                StateAccess::DiskFs,
            ),
            // ~2 minutes of guest work: room for several checkpoints.
            app: AppProfile::new("chaos-app", CpuWork::from_cycles(96_000_000_000)),
        }
    }

    fn run(plan: &FaultPlan, seed: u64) -> Result<ChaosReport, ChaosError> {
        let mut cluster = Cluster::paper_lan(3, "rh72", "userX");
        let mut rng = SimRng::seed_from(seed);
        let mut trace = TraceLog::default();
        run_resilient_session(
            &mut cluster,
            &request(),
            &RecoveryConfig::default(),
            plan,
            &mut rng,
            &mut trace,
        )
    }

    #[test]
    fn fault_free_session_completes_without_recoveries() {
        let report = run(&FaultPlan::new(), 1).expect("clean run");
        assert!(report.recoveries.is_empty());
        assert_eq!(report.finished_on, 0);
        assert!(report.app_nominal > SimDuration::from_secs(60));
        assert!(report.total > report.establish + report.app_nominal);
    }

    #[test]
    fn mid_run_crash_recovers_on_another_host() {
        // Crash node0 one minute into the run: two 30 s checkpoints
        // survive, the session resumes on node1.
        let plan = FaultPlan::new().with("node0", SimTime::from_secs(80), FaultKind::HostCrash);
        let clean = run(&FaultPlan::new(), 1).expect("clean");
        let report = run(&plan, 1).expect("recovers");
        assert_eq!(report.migrations(), 1);
        let r = report.recoveries[0];
        assert_eq!(r.from_host, 0);
        assert_eq!(r.to_host, 1);
        assert_eq!(report.finished_on, 1);
        assert!(r.lost_work < RecoveryConfig::default().checkpoint_interval);
        assert!(
            report.total > clean.total,
            "recovery must cost wall time: {} vs {}",
            report.total,
            clean.total
        );
    }

    #[test]
    fn image_the_cluster_does_not_hold_fails_establishment() {
        let mut cluster = Cluster::paper_lan(3, "rh72", "userX");
        let mut req = request();
        req.image = "winxp".into();
        let err = run_resilient_session(
            &mut cluster,
            &req,
            &RecoveryConfig::default(),
            &FaultPlan::new(),
            &mut SimRng::seed_from(1),
            &mut TraceLog::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::Establish(SessionError::NoImageServer("winxp".into()))
        );
    }

    #[test]
    fn every_host_dead_is_a_typed_failure() {
        let mut plan = FaultPlan::new();
        for node in ["node0", "node1", "node2"] {
            plan = plan.with(node, SimTime::from_secs(70), FaultKind::HostCrash);
        }
        let err = run(&plan, 1).unwrap_err();
        assert!(matches!(err, ChaosError::NoSurvivingHost { .. }), "{err}");
    }

    #[test]
    fn unhealing_partition_fails_the_transfer() {
        let patience = RecoveryConfig::default().partition_patience;
        let plan = FaultPlan::new()
            .with("node0", SimTime::from_secs(80), FaultKind::HostCrash)
            .with(
                "node1",
                SimTime::from_secs(80),
                FaultKind::LinkPartition {
                    heal_after: patience * 3,
                },
            );
        let err = run(&plan, 1).unwrap_err();
        assert!(matches!(err, ChaosError::PartitionTimeout { .. }), "{err}");
    }

    #[test]
    fn short_partition_is_waited_out() {
        let plan = FaultPlan::new()
            .with("node0", SimTime::from_secs(80), FaultKind::HostCrash)
            .with(
                "node1",
                SimTime::from_secs(80),
                FaultKind::LinkPartition {
                    heal_after: SimDuration::from_secs(30),
                },
            );
        let report = run(&plan, 1).expect("waits out the partition");
        assert_eq!(report.migrations(), 1);
        assert!(
            report.recoveries[0].downtime() > SimDuration::from_secs(25),
            "downtime must include the partition wait: {}",
            report.recoveries[0].downtime()
        );
    }

    #[test]
    fn slowdown_stretches_the_run_without_failing_it() {
        let plan = FaultPlan::new().with(
            "node0",
            SimTime::from_secs(40),
            FaultKind::HostSlowdown { percent: 100 },
        );
        let clean = run(&FaultPlan::new(), 1).expect("clean");
        let slowed = run(&plan, 1).expect("slow but alive");
        assert!(slowed.recoveries.is_empty());
        assert!(slowed.total > clean.total);
    }

    #[test]
    fn identical_inputs_reproduce_identical_reports() {
        let plan = FaultPlan::new()
            .with("node0", SimTime::from_secs(80), FaultKind::HostCrash)
            .with("node1", SimTime::from_secs(100), FaultKind::LinkLoss);
        let a = run(&plan, 7).expect("run a");
        let b = run(&plan, 7).expect("run b");
        assert_eq!(a.total, b.total);
        assert_eq!(a.recoveries, b.recoveries);
    }

    #[test]
    fn error_display_names_the_cause() {
        let e = ChaosError::PartitionTimeout {
            waited: SimDuration::from_secs(200),
            at: SimTime::from_secs(90),
        };
        assert!(e.to_string().contains("partition"));
        let e = ChaosError::StorageFault {
            op: "checkpoint-commit",
            at: SimTime::from_secs(90),
        };
        assert!(e.to_string().contains("checkpoint-commit"));
    }
}

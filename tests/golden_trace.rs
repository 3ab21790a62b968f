//! Golden-trace regression anchor: one fixed seed and fault plan
//! must keep producing exactly this causal history. Any change to the
//! fault model, retry schedule, recovery timeline or trace wording
//! shows up here first — if a change is intentional, re-pin the
//! constants from the test's failure output.

use gridvm::core::recovery::{run_resilient_session, ChaosReport, Cluster, RecoveryConfig};
use gridvm::core::session::SessionRequest;
use gridvm::core::startup::{StartupConfig, StartupMode, StateAccess};
use gridvm::simcore::fault::{FaultKind, FaultPlan};
use gridvm::simcore::metrics;
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::time::{SimDuration, SimTime};
use gridvm::simcore::trace::TraceLog;
use gridvm::simcore::units::CpuWork;
use gridvm::vmm::machine::DiskMode;
use gridvm::workloads::AppProfile;

/// The paper's submission date, the workspace's canonical seed.
const SEED: u64 = 20030517;

fn scenario() -> (SessionRequest, FaultPlan) {
    let req = SessionRequest {
        user: "userX".into(),
        image: "rh72".into(),
        min_cores: 2,
        startup: StartupConfig::table2(
            StartupMode::Restore,
            DiskMode::NonPersistent,
            StateAccess::DiskFs,
        ),
        app: AppProfile::new("golden-app", CpuWork::from_cycles(96_000_000_000)),
    };
    // A deterministic script: an early NFS timeout (one retry), a
    // mid-run crash of the first host, packet loss on the recovery
    // path, and a latency spike on the reconnect.
    let plan = FaultPlan::new()
        .with(
            "nfs",
            SimTime::from_nanos(50_000_000),
            FaultKind::NfsTimeout,
        )
        .with("node0", SimTime::from_secs(80), FaultKind::HostCrash)
        .with("node1", SimTime::from_secs(81), FaultKind::LinkLoss)
        .with(
            "node1",
            SimTime::from_secs(82),
            FaultKind::LatencySpike {
                extra: SimDuration::from_millis(25),
            },
        );
    (req, plan)
}

fn run_golden() -> (ChaosReport, TraceLog) {
    let (req, plan) = scenario();
    let mut cluster = Cluster::paper_lan(3, "rh72", "userX");
    let mut rng = SimRng::seed_from(SEED);
    let mut trace = TraceLog::default();
    let report = run_resilient_session(
        &mut cluster,
        &req,
        &RecoveryConfig::default(),
        &plan,
        &mut rng,
        &mut trace,
    )
    .expect("the golden scenario completes");
    (report, trace)
}

#[test]
fn golden_scenario_digest_and_counters_are_pinned() {
    metrics::reset();
    let (report, trace) = run_golden();

    // The recovery actually happened as scripted.
    assert_eq!(report.migrations(), 1);
    assert_eq!(report.recoveries[0].from_host, 0);
    assert_eq!(report.recoveries[0].to_host, 1);
    assert_eq!(report.finished_on, 1);

    // Pinned values — re-derive from this output when a change to
    // the fault/recovery model is intentional.
    let m = metrics::take();
    let pinned_counters: &[(&str, u64)] = &[
        ("fault.nfs_timeout", 1),
        ("fault.host_crash", 1),
        ("fault.link_loss", 1),
        ("fault.latency_spike", 1),
        ("recovery.migrations", 1),
        ("recovery.checkpoints", 2),
        ("gridmw.rpc_retries", 2),
        ("chaos.sessions_completed", 1),
    ];
    for (name, want) in pinned_counters {
        assert_eq!(m.counter(name), *want, "counter {name}");
    }
    assert_eq!(
        report.total.as_nanos(),
        161_795_080_913,
        "end-to-end makespan drifted (trace digest {:#018x}, {} entries)",
        trace.digest(),
        trace.len()
    );
    assert_eq!(trace.len(), 9, "trace entry count");
    assert_eq!(trace.digest(), 0x8f42_c11e_d141_7e43, "trace digest");
}

#[test]
fn sharded_golden_vo_digest_is_pinned() {
    // The sharded counterpart of the golden anchor: the reference VO
    // world (4 sites, 8 sessions each, canonical seed) must keep
    // producing exactly this cross-site history at *every* shard
    // packing. Re-pin from the failure output only when a change to
    // the VO world or the synchronizer protocol is intentional.
    use gridvm::core::multisite::{build_vo, VoConfig};

    let run = |shards: usize| {
        let mut sim = build_vo(&VoConfig::paper_vo()).shards(shards);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        (
            sim.trace_digest(),
            sim.windows(),
            sim.messages(),
            sim.total_events(),
            m.counter("vo.sessions_completed"),
            m.counter("vo.hops"),
            m.counter("vo.recoveries"),
        )
    };
    let got = run(1);
    assert_eq!(got, run(4), "shard packing changed the golden history");
    let (digest, windows, messages, events, completed, hops, recoveries) = got;
    assert_eq!(completed, 32, "every session completes exactly once");
    assert_eq!(
        (digest, windows, messages, events, hops, recoveries),
        (0xf992_a241_1620_cf73, 10, 85, 1654, 85, 22),
        "sharded golden drifted"
    );
}

#[test]
fn sampled_golden_vo_scale_digest_is_pinned() {
    // The sampled-trace anchor: a small macro-scale VO (2 regions ×
    // 3 sites, 600 sessions, canonical seed) with per-site reservoir
    // rings and stratified sampling must keep producing exactly this
    // digest and this sampled/dropped split. Any change to the
    // sampling hash, seed-stream derivation, or the scale world's
    // event order shows up here first; re-pin from the failure output
    // only when that change is intentional.
    use gridvm::core::multisite::{build_vo_scale, VoScaleConfig};

    let cfg = VoScaleConfig {
        regions: 2,
        sites_per_region: 3,
        sessions: 600,
        steps_per_session: 8,
        trace_capacity: 64,
        trace_rate_per_mille: 100,
        ..VoScaleConfig::reference()
    };
    let run = |shards: usize| {
        let mut sim = build_vo_scale(&cfg).shards(shards);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        (
            sim.trace_digest(),
            sim.retained_trace_entries(),
            m.counter("trace.sampled"),
            m.counter("trace.dropped"),
            m.counter("vo.sessions_completed"),
            m.histogram("vo.slowdown_x1000").expect("histogram").p99(),
        )
    };
    let got = run(1);
    assert_eq!(got, run(4), "shard packing changed the sampled history");
    let (digest, retained, sampled, dropped, completed, p99) = got;
    assert_eq!(completed, 600, "every session completes exactly once");
    assert_eq!(
        sampled + dropped,
        600,
        "one sampling decision per completion"
    );
    assert_eq!(
        (digest, retained, sampled, dropped, p99),
        (0xd9be_3b1f_884d_fd45, 53, 53, 547, 43_007),
        "sampled golden drifted"
    );
}

#[test]
fn table1_pvfs_rows_are_pinned() {
    // The PVFS anchor: Table 1's `VM, PVFS` rows at `table1_macro
    // --quick` scale (1/100), built exactly as that binary builds
    // them — a presized state file on a WAN mount through a cold
    // proxy. Every simulated figure the data path feeds is pinned:
    // the guest report in ns, the RPCs that crossed the wire, and the
    // proxy's hits, misses and prefetched blocks. A change to how file
    // data is stored or moved must leave all of them bit-identical.
    use gridvm::core::NfsGuestStorage;
    use gridvm::simcore::units::ByteSize;
    use gridvm::storage::disk::{DiskModel, DiskProfile};
    use gridvm::vfs::mount::{Mount, Transport};
    use gridvm::vfs::proxy::{ProxyConfig, VfsProxy};
    use gridvm::vfs::server::NfsServer;
    use gridvm::vmm::exec::{run_app, ExecMode};
    use gridvm::vmm::VirtCostModel;
    use gridvm::workloads::spec;

    let run = |app: AppProfile| {
        let app = AppProfile::new(app.name(), app.user_work().mul_f64(0.01))
            .with_syscalls(app.syscalls() / 100)
            .with_reads(
                ByteSize::from_bytes(app.read_bytes().as_u64() / 100),
                app.io_pattern(),
            )
            .with_writes(ByteSize::from_bytes(app.write_bytes().as_u64() / 100))
            .with_memory_pressure(app.memory_pressure());
        let model = VirtCostModel::default();
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        let size = (app.io_bytes() + ByteSize::from_mib(64)).as_u64();
        let file = server
            .fs_mut()
            .create(root, "vmstate", SimTime::ZERO)
            .unwrap();
        server
            .fs_mut()
            .write(file, size - 1, &[0], SimTime::ZERO)
            .unwrap();
        let mount = Mount::new(
            Transport::wan(),
            server,
            Some(VfsProxy::new(ProxyConfig::default())),
        );
        let mut storage = NfsGuestStorage::new(mount, file, model.pvfs_client_per_block, "PVFS");
        let r = run_app(
            &app,
            ExecMode::Virtualized,
            &model,
            &mut storage,
            spec::MACRO_CLOCK_HZ,
            SimTime::ZERO,
            &mut SimRng::seed_from(SEED),
        );
        let mount = storage.mount();
        let proxy = mount.proxy().expect("PVFS mounts through a proxy");
        (
            [
                r.user.as_nanos(),
                r.sys.as_nanos(),
                r.io_wall.as_nanos(),
                r.wall.as_nanos(),
            ],
            [
                mount.rpcs_sent(),
                proxy.hits(),
                proxy.misses(),
                proxy.prefetched(),
            ],
        )
    };
    // ([user, sys, io_wall, wall] ns, [rpcs, hits, misses, prefetched])
    assert_eq!(
        run(spec::specseis()),
        (
            [
                165_563_268_000,
                1_491_999_000,
                18_185_591_376,
                167_055_267_000
            ],
            [3944, 3495, 438, 3496]
        ),
        "SPECseis PVFS row drifted"
    );
    assert_eq!(
        run(spec::specclimate()),
        (
            [96_780_208_000, 114_023_000, 727_722_986, 96_894_231_000],
            [154, 136, 18, 136]
        ),
        "SPECclimate PVFS row drifted"
    );
}

#[test]
fn golden_scenario_reproduces_itself() {
    let (a, ta) = run_golden();
    let (b, tb) = run_golden();
    assert_eq!(a.total, b.total);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(ta.digest(), tb.digest());
}

//! Cross-crate failure injection: the architecture must fail loudly
//! and consistently when authorization, capacity, connectivity or
//! state-machine preconditions are violated.

use gridvm::core::recovery::{run_resilient_session, ChaosError, Cluster, RecoveryConfig};
use gridvm::core::session::SessionRequest;
use gridvm::core::startup::{StartupConfig, StartupMode, StateAccess};
use gridvm::gridmw::accounts::{AccountError, AccountPool};
use gridvm::gridmw::gram::{GramError, GramServer, JobRequest};
use gridvm::sched::constraint::{compile, PolicyError};
use gridvm::simcore::fault::{FaultKind, FaultPlan};
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::time::{SimDuration, SimTime};
use gridvm::simcore::trace::TraceLog;
use gridvm::simcore::units::{Bandwidth, ByteSize, CpuWork};
use gridvm::storage::block::{BlockAddr, BlockStore, StorageError};
use gridvm::storage::disk::{DiskModel, DiskProfile};
use gridvm::vfs::mount::{Mount, Transport};
use gridvm::vfs::protocol::{NfsError, NfsRequest};
use gridvm::vfs::server::NfsServer;
use gridvm::vmm::machine::{DiskMode, Vm, VmConfig};
use gridvm::vnet::addr::{Ipv4Addr, MacAddr, Subnet};
use gridvm::vnet::dhcp::DhcpServer;
use gridvm::vnet::link::NetLink;
use gridvm::vnet::overlay::{Overlay, OverlayError};
use gridvm::vnet::tunnel::{EthernetTunnel, Vpn, VpnError};
use gridvm::workloads::AppProfile;

#[test]
fn unauthorized_user_cannot_start_vms() {
    let mut gram = GramServer::new();
    gram.authorize("/CN=alice");
    let mallory = JobRequest {
        executable: "vmware-start".into(),
        subject: "/CN=mallory".into(),
    };
    match gram.submit(SimTime::ZERO, &mallory) {
        Err(GramError::NotAuthorized(who)) => assert!(who.contains("mallory")),
        other => panic!("expected authorization failure, got {other:?}"),
    }
}

#[test]
fn overcommitted_owner_policy_never_compiles() {
    let err = compile(
        r#"
        host cores 1;
        owner reserve 0.5;
        vm "a" realtime period 100ms slice 80ms;
        "#,
    )
    .unwrap_err();
    assert!(matches!(err, PolicyError::Overcommitted { .. }));
    // The same absolute real-time demand fits a bigger host.
    assert!(compile(
        r#"
        host cores 2;
        owner reserve 0.5;
        vm "a" realtime period 100ms slice 80ms;
        "#
    )
    .is_ok());
}

#[test]
fn address_exhaustion_surfaces_and_recovers() {
    let mut dhcp = DhcpServer::new(
        Subnet::new(Ipv4Addr::from_octets(10, 9, 9, 0), 30),
        SimDuration::from_secs(10),
    );
    dhcp.acquire(SimTime::ZERO, MacAddr::local(1))
        .expect("first");
    dhcp.acquire(SimTime::ZERO, MacAddr::local(2))
        .expect("second");
    assert!(dhcp.acquire(SimTime::ZERO, MacAddr::local(3)).is_err());
    // Leases expire; the pool recovers without intervention.
    assert!(dhcp
        .acquire(SimTime::from_secs(11), MacAddr::local(3))
        .is_ok());
}

#[test]
fn vpn_survives_tunnel_loss_reporting_cleanly() {
    let dhcp = DhcpServer::new(
        Subnet::new(Ipv4Addr::from_octets(192, 168, 0, 0), 24),
        SimDuration::from_secs(600),
    );
    let mut vpn = Vpn::new(
        EthernetTunnel::new(NetLink::new(
            SimDuration::from_millis(20),
            Bandwidth::from_mbit_per_sec(10.0),
        )),
        dhcp,
    );
    let (addr, t) = vpn.join(SimTime::ZERO, MacAddr::local(5)).expect("joins");
    // The underlay dies mid-session.
    vpn.tunnel_mut().underlay_mut().set_down();
    let err = vpn
        .send_home(t, MacAddr::local(5), ByteSize::from_kib(4))
        .unwrap_err();
    assert!(matches!(err, VpnError::Tunnel(_)));
    // Membership (control-plane state) survives the outage, and the
    // data plane recovers when the link comes back.
    assert_eq!(vpn.address_of(MacAddr::local(5)), Some(addr));
    vpn.tunnel_mut().underlay_mut().set_up();
    assert!(vpn
        .send_home(t, MacAddr::local(5), ByteSize::from_kib(4))
        .is_ok());
}

#[test]
fn stale_handles_fail_across_the_full_stack() {
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let f = server
        .fs_mut()
        .create(root, "doomed", SimTime::ZERO)
        .expect("fresh");
    server
        .fs_mut()
        .remove(root, "doomed", SimTime::ZERO)
        .expect("removable");
    let mut mount = Mount::new(Transport::lan(), server, None);
    let (_, r) = mount.request(
        SimTime::ZERO,
        NfsRequest::Read {
            fh: f,
            offset: 0,
            len: 10,
        },
    );
    assert!(matches!(r, Err(NfsError::Stale(_))));
}

#[test]
fn stale_slot_derefs_are_typed_and_counted() {
    use gridvm::simcore::metrics;
    use gridvm::simcore::slot::SlotMap;

    metrics::reset();
    let mut arena: SlotMap<(), &'static str> = SlotMap::new();
    let h = arena.insert("ephemeral");
    assert_eq!(arena.remove(h), Ok("ephemeral"));

    // Every dereference flavour fails with the typed error that names
    // the held and current generations — no silent recycled reads.
    let stale = arena.get(h).expect_err("freed handle must not read");
    assert_eq!(stale.held, 0);
    assert_eq!(stale.current, Some(1), "free bumped the generation");
    assert!(arena.get_mut(h).is_err());
    assert!(arena.remove(h).is_err());

    // Slot reuse keeps the old handle stale: the recycled slot's new
    // generation does not resurrect it.
    let h2 = arena.insert("recycled");
    assert_eq!(arena.get(h2), Ok(&"recycled"));
    assert!(arena.get(h).is_err());
    assert!(!arena.contains(h), "contains is the non-counting query");

    // The slot.stale_derefs counter makes stale-pointer loops visible
    // in harvested metrics: one bump per failed deref above.
    assert_eq!(metrics::take().counter("slot.stale_derefs"), 4);
}

#[test]
fn storage_bounds_hold_through_layers() {
    let image = gridvm::storage::image::VmImage::redhat_guest("rh72");
    let mut overlay = gridvm::storage::cow::CowOverlay::new(image.base_store());
    let beyond = BlockAddr(image.disk_blocks());
    assert!(matches!(
        overlay.read(beyond),
        Err(StorageError::OutOfRange { .. })
    ));
    assert!(matches!(
        overlay.write(beyond, bytes::Bytes::from(vec![0u8; 4096])),
        Err(StorageError::OutOfRange { .. })
    ));
}

#[test]
fn vm_state_machine_rejects_skipped_steps() {
    let mut vm = Vm::new(VmConfig::paper_guest("rh72"));
    assert!(
        vm.mark_running(SimTime::ZERO).is_err(),
        "cannot run unbooted"
    );
    assert!(
        vm.begin_suspend(SimTime::ZERO).is_err(),
        "cannot suspend off"
    );
    assert!(
        vm.begin_migration(SimTime::ZERO).is_err(),
        "cannot migrate off"
    );
    vm.terminate(SimTime::ZERO)
        .expect("terminate from any live state");
    assert!(
        vm.begin_staging(SimTime::ZERO).is_err(),
        "terminated is final"
    );
}

#[test]
fn account_pool_exhaustion_reports_and_recovers() {
    let mut pool = AccountPool::new(&["g1"], SimDuration::from_secs(5));
    pool.acquire(SimTime::ZERO, "/CN=a").expect("first");
    assert_eq!(
        pool.acquire(SimTime::ZERO, "/CN=b"),
        Err(AccountError::PoolExhausted)
    );
    assert!(pool.acquire(SimTime::from_secs(6), "/CN=b").is_ok());
}

#[test]
fn partitioned_overlay_reports_unreachable() {
    let mut ov = Overlay::new();
    let a = ov.add_node();
    let b = ov.add_node();
    // No measurements at all: partition.
    assert_eq!(
        ov.route(a, b),
        Err(OverlayError::Unreachable { from: a, to: b })
    );
}

// ---- resilient-session failure paths -------------------------------
//
// The recovery layer must convert injected infrastructure faults into
// typed, displayable session errors — never a panic, never a hang.

fn chaos_request() -> SessionRequest {
    SessionRequest {
        user: "userX".into(),
        image: "rh72".into(),
        min_cores: 2,
        startup: StartupConfig::table2(
            StartupMode::Restore,
            DiskMode::NonPersistent,
            StateAccess::DiskFs,
        ),
        app: AppProfile::new("chaos-app", CpuWork::from_cycles(96_000_000_000)),
    }
}

fn run_chaos(plan: &FaultPlan) -> Result<gridvm::core::recovery::ChaosReport, ChaosError> {
    let mut cluster = Cluster::paper_lan(3, "rh72", "userX");
    let mut rng = SimRng::seed_from(20030517);
    let mut trace = TraceLog::default();
    run_resilient_session(
        &mut cluster,
        &chaos_request(),
        &RecoveryConfig::default(),
        plan,
        &mut rng,
        &mut trace,
    )
}

#[test]
fn partition_during_image_transfer_times_out_loudly() {
    // The crash forces a migration; the recovery target's link then
    // partitions for far longer than the session is willing to wait
    // for the suspend-image transfer.
    let patience = RecoveryConfig::default().partition_patience;
    let plan = FaultPlan::new()
        .with("node0", SimTime::from_secs(80), FaultKind::HostCrash)
        .with(
            "node1",
            SimTime::from_secs(80),
            FaultKind::LinkPartition {
                heal_after: patience * 4,
            },
        );
    let err = run_chaos(&plan).unwrap_err();
    match err {
        ChaosError::PartitionTimeout { waited, at } => {
            assert!(waited >= patience, "gave up before the patience budget");
            assert!(at >= SimTime::from_secs(80), "timeout predates the crash");
        }
        other => panic!("expected partition timeout, got {other}"),
    }
    assert!(err.to_string().contains("partition"), "{err}");
}

#[test]
fn storage_fault_during_checkpoint_commit_is_fatal_and_named() {
    // The destination host's disk throws an I/O error while the
    // suspended image (the COW checkpoint state) is being committed.
    let plan = FaultPlan::new()
        .with("node0", SimTime::from_secs(80), FaultKind::HostCrash)
        .with("node1", SimTime::from_secs(80), FaultKind::StorageIoError);
    let err = run_chaos(&plan).unwrap_err();
    match err {
        ChaosError::StorageFault { op, at } => {
            assert_eq!(op, "checkpoint-commit");
            assert!(at >= SimTime::from_secs(80));
        }
        other => panic!("expected storage fault, got {other}"),
    }
    assert!(err.to_string().contains("checkpoint-commit"), "{err}");
}

#[test]
fn retry_budget_exhaustion_fails_the_session_loudly() {
    // More NFS/MDS timeouts than the default six-attempt budget,
    // queued from the first instant: resource discovery can never get
    // an answer and must give up with a typed error naming the
    // operation, not spin forever.
    let budget = gridvm::gridmw::retry::RetryPolicy::default().max_attempts;
    let mut plan = FaultPlan::new();
    for i in 0..u64::from(budget) + 2 {
        plan = plan.with(
            "nfs",
            SimTime::from_nanos((i + 1) * 1_000_000),
            FaultKind::NfsTimeout,
        );
    }
    let err = run_chaos(&plan).unwrap_err();
    match err {
        ChaosError::RetryBudgetExhausted { op, at } => {
            assert!(!op.is_empty(), "exhaustion must name the operation");
            assert!(at > SimTime::ZERO, "six backed-off attempts take time");
        }
        other => panic!("expected retry exhaustion, got {other}"),
    }
    assert!(err.to_string().contains("retry budget"), "{err}");
}

#[test]
#[should_panic(expected = "TraceLog capacity must be positive")]
fn zero_capacity_trace_log_is_rejected_loudly() {
    // A zero-slot sampled log would drop every kept entry while its
    // `sampled` count looked healthy — construction must refuse
    // instead.
    let _ = gridvm::simcore::trace::TraceLog::with_sampling(0, 20, 1);
}

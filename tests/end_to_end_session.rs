//! End-to-end integration: a grid session established across every
//! subsystem, followed by a migration, with the information service,
//! DHCP, VPN and overlay all kept consistent.

use gridvm::core::migration::migrate;
use gridvm::core::server::{paper_data_server, paper_image_server, ComputeServer};
use gridvm::core::session::{GridSession, GridWorld, SessionRequest};
use gridvm::core::startup::{StartupConfig, StartupMode, StateAccess};
use gridvm::gridmw::info::{InfoService, Query, ResourceKind};
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::server::Pipe;
use gridvm::simcore::time::{SimDuration, SimTime};
use gridvm::simcore::units::{Bandwidth, ByteSize, CpuWork};
use gridvm::storage::cow::CowOverlay;
use gridvm::storage::image::VmImage;
use gridvm::vmm::machine::{DiskMode, Vm, VmConfig, VmState};
use gridvm::vnet::addr::{Ipv4Addr, Subnet};
use gridvm::vnet::dhcp::DhcpServer;
use gridvm::vnet::overlay::Overlay;
use gridvm::workloads::{AppProfile, IoPattern};

fn demo_world() -> GridWorld {
    let mut info = InfoService::new();
    let host = info.register(
        SimTime::ZERO,
        "uf",
        ResourceKind::PhysicalHost {
            cores: 2,
            clock_hz: 800e6,
            memory_mib: 1024,
        },
    );
    info.register(
        SimTime::ZERO,
        "uf",
        ResourceKind::VmFuture {
            host,
            images: vec!["rh72".into()],
            available_slots: 2,
        },
    );
    info.register(
        SimTime::ZERO,
        "nw",
        ResourceKind::ImageServer {
            images: vec!["rh72".into()],
        },
    );
    GridWorld {
        info,
        compute: ComputeServer::paper_node("uf-host"),
        image_server: paper_image_server("rh72"),
        data_server: Some(paper_data_server("alice", ByteSize::from_mib(16))),
        dhcp: DhcpServer::new(
            Subnet::new(Ipv4Addr::from_octets(10, 1, 2, 0), 24),
            SimDuration::from_secs(3600),
        ),
    }
}

fn request(mode: StartupMode) -> SessionRequest {
    SessionRequest {
        user: "alice".into(),
        image: "rh72".into(),
        min_cores: 2,
        startup: StartupConfig::table2(mode, DiskMode::NonPersistent, StateAccess::DiskFs),
        app: AppProfile::new("e2e-app", CpuWork::from_cycles(6_400_000_000))
            .with_syscalls(8_000)
            .with_reads(ByteSize::from_mib(8), IoPattern::Sequential)
            .with_writes(ByteSize::from_mib(2)),
    }
}

#[test]
fn session_then_query_then_teardown() {
    let mut world = demo_world();
    let mut rng = SimRng::seed_from(77);
    let report =
        GridSession::establish(&mut world, &request(StartupMode::Restore), &mut rng).expect("ok");

    // The VM is queryable as a running instance.
    let vms = world.info.query(&Query::Kind("vm"), 10, &mut rng);
    assert_eq!(vms.len(), 1);
    assert_eq!(vms[0].id, report.vm_record);

    // Its address is on the compute site's subnet and leased.
    assert!(Subnet::new(Ipv4Addr::from_octets(10, 1, 2, 0), 24).contains(report.address));
    assert_eq!(world.dhcp.active_leases(SimTime::ZERO + report.total), 1);

    // Teardown: deregister; the directory forgets it.
    world.info.deregister(report.vm_record);
    assert!(world
        .info
        .query(&Query::Kind("vm"), 10, &mut rng)
        .is_empty());
}

#[test]
fn restore_session_beats_reboot_session() {
    let run = |mode| {
        let mut world = demo_world();
        let mut rng = SimRng::seed_from(78);
        GridSession::establish(&mut world, &request(mode), &mut rng)
            .expect("ok")
            .startup
            .total
    };
    let restore = run(StartupMode::Restore);
    let reboot = run(StartupMode::Reboot);
    assert!(
        restore.as_secs_f64() * 2.0 < reboot.as_secs_f64(),
        "restore {restore} vs reboot {reboot}"
    );
}

#[test]
fn session_app_io_crosses_the_wan_with_proxy_wins() {
    let mut world = demo_world();
    let mut rng = SimRng::seed_from(79);
    let report =
        GridSession::establish(&mut world, &request(StartupMode::Restore), &mut rng).expect("ok");
    // The app is compute-dominated: I/O is overlapped, so wall ≈
    // user + sys even though the data lives across a WAN.
    assert_eq!(report.app.wall, report.app.user + report.app.sys);
}

#[test]
fn migration_after_session_keeps_environment() {
    // Boot a VM the long way, then migrate it and verify state.
    let mut vm = Vm::new(VmConfig::paper_guest("rh72"));
    vm.attach_disk(CowOverlay::new(VmImage::redhat_guest("rh72").base_store()));
    vm.begin_staging(SimTime::ZERO).expect("fresh");
    vm.begin_boot(SimTime::from_secs(1)).expect("staged");
    vm.mark_running(SimTime::from_secs(60)).expect("booted");

    let mut src = ComputeServer::paper_node("src");
    let mut dst = ComputeServer::paper_node("dst");
    let mut wire = Pipe::new(
        SimDuration::from_millis(5),
        Bandwidth::from_mbit_per_sec(100.0),
    );
    let mut overlay = Overlay::new();
    let user = overlay.add_node();
    let a = overlay.add_node();
    let b = overlay.add_node();
    overlay.update_measurement(user, a, SimDuration::from_millis(40));
    overlay.update_measurement(user, b, SimDuration::from_millis(10));
    overlay.update_measurement(a, b, SimDuration::from_millis(35));

    let report = migrate(
        &mut vm,
        &mut src,
        &mut dst,
        &mut wire,
        SimTime::from_secs(120),
        &mut SimRng::seed_from(80),
    )
    .expect("migrates");
    assert_eq!(vm.state(), VmState::Running);
    assert!(report.downtime() > SimDuration::from_secs(1));

    // After migration the overlay route to the VM's new site is the
    // cheaper one.
    let route = overlay.route(user, b).expect("connected");
    assert_eq!(route.latency, SimDuration::from_millis(10));

    // History records the full life cycle order.
    let states: Vec<VmState> = vm.history().iter().map(|(_, s)| *s).collect();
    assert_eq!(
        states,
        vec![
            VmState::Staging,
            VmState::Booting,
            VmState::Running,
            VmState::Migrating,
            VmState::Running
        ]
    );
}

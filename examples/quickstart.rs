//! Quickstart: stand up a one-site grid — information service, image
//! server, data server, a virtualized compute server — and establish
//! a full six-step VM session for a user, exactly as Figure 3 of the
//! paper describes.
//!
//! Run with: `cargo run --example quickstart`

use gridvm::core::server::{paper_data_server, paper_image_server, ComputeServer};
use gridvm::core::session::{GridSession, GridWorld, SessionRequest};
use gridvm::core::startup::{StartupConfig, StartupMode, StateAccess};
use gridvm::gridmw::info::{InfoService, ResourceKind};
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::time::{SimDuration, SimTime};
use gridvm::simcore::units::{ByteSize, CpuWork};
use gridvm::vmm::machine::DiskMode;
use gridvm::vnet::addr::{Ipv4Addr, Subnet};
use gridvm::vnet::dhcp::DhcpServer;
use gridvm::workloads::{AppProfile, IoPattern};

fn main() {
    // --- deploy the grid (Figure 3's entities) --------------------------
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
            available_slots: 4,
        },
    );
    info.register(
        SimTime::ZERO,
        "uf",
        ResourceKind::ImageServer {
            images: vec!["rh72".into()],
        },
    );
    let mut world = GridWorld {
        info,
        compute: ComputeServer::paper_node("uf-vmhost-01"),
        image_server: paper_image_server("rh72"),
        data_server: Some(paper_data_server("userX", ByteSize::from_mib(32))),
        dhcp: DhcpServer::new(
            Subnet::new(Ipv4Addr::from_octets(10, 8, 0, 0), 24),
            SimDuration::from_secs(3600),
        ),
    };

    // --- the user's request ------------------------------------------------
    let request = SessionRequest {
        user: "userX".into(),
        image: "rh72".into(),
        min_cores: 2,
        startup: StartupConfig::table2(
            StartupMode::Restore,
            DiskMode::NonPersistent,
            StateAccess::DiskFs,
        ),
        app: AppProfile::new("hello-grid", CpuWork::from_cycles(8_000_000_000))
            .with_syscalls(20_000)
            .with_reads(ByteSize::from_mib(16), IoPattern::Sequential)
            .with_writes(ByteSize::from_mib(4)),
    };

    // --- establish and report ------------------------------------------------
    let mut rng = SimRng::seed_from(42);
    let report = GridSession::establish(&mut world, &request, &mut rng)
        .expect("the demo grid satisfies the request");

    println!("six-step session established for {}", request.user);
    println!("  1. VM future discovery    {}", report.discover_future);
    println!("  2. image discovery        {}", report.discover_image);
    println!("  3. image data session     {}", report.image_session_setup);
    println!(
        "  4. VM startup ({})  {} -> address {}",
        request.startup.label(),
        report.startup.total,
        report.address
    );
    println!("  5. user data session      {}", report.data_session_setup);
    println!(
        "  6. application run        {} (user {}, sys {})",
        report.app.wall, report.app.user, report.app.sys
    );
    println!("  total                     {}", report.total);
    println!();
    println!(
        "the running VM is registered with the information service as {}",
        report.vm_record
    );
}

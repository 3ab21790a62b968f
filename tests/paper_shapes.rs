//! Integration tests asserting the paper's headline result *shapes*
//! across crates (small sample counts — the bench binaries run the
//! full versions).

use gridvm::core::server::ComputeServer;
use gridvm::core::startup::{run_startup, StartupConfig, StartupMode, StateAccess};
use gridvm::host::{HostConfig, HostSim, TaskSpec};
use gridvm::hostload::{LoadLevel, TraceGenerator};
use gridvm::sched::SchedulerKind;
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::stats::OnlineStats;
use gridvm::simcore::time::{SimDuration, SimTime};
use gridvm::simcore::units::{ByteSize, CpuWork};
use gridvm::storage::disk::{DiskModel, DiskProfile};
use gridvm::vmm::exec::{run_app, ExecMode, LocalDiskStorage};
use gridvm::vmm::machine::DiskMode;
use gridvm::vmm::VirtCostModel;
use gridvm::workloads::spec;

/// Figure 1 takeaway: with heavy background load, the test task on
/// the VM sees a typical slowdown within ~10% of the same scenario on
/// the physical machine.
#[test]
fn fig1_vm_slowdown_stays_near_physical() {
    let model = VirtCostModel::default();
    let config = HostConfig::default();
    let work = CpuWork::from_duration(SimDuration::from_secs(3), config.clock_hz);

    let measure = |on_vm: bool, seed: u64| -> f64 {
        let mut stats = OnlineStats::new();
        for i in 0..15 {
            let rng = SimRng::seed_from(seed + i);
            let mut host = HostSim::new(config, SchedulerKind::TimeShare.build(), rng.split("s"));
            let trace = TraceGenerator::preset(LoadLevel::Heavy)
                .with_interval(SimDuration::from_millis(250))
                .generate(600, &mut rng.split("t"));
            host.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
            let spec = if on_vm {
                model.guest_task(work, 0.0)
            } else {
                model.native_task(work)
            };
            let id = host.spawn(spec);
            let out = host
                .run_until_complete(id, SimDuration::from_secs(120))
                .expect("finishes");
            stats.record(out.slowdown_vs(host.baseline(&model.native_task(work))));
        }
        stats.mean()
    };

    let physical = measure(false, 100);
    let vm = measure(true, 100);
    assert!(
        vm - physical < 0.10,
        "VM-induced extra slowdown {:.3} vs physical {:.3}",
        vm - physical,
        physical
    );
    assert!(vm >= physical, "virtualization cannot be free");
}

/// Table 1 shape: VM overhead ~1% for SPECseis, ~4% for SPECclimate,
/// and PVFS adds only a little more — with the *ordering* preserved.
#[test]
fn table1_overheads_are_small_and_ordered() {
    let model = VirtCostModel::default();
    // 2% scale keeps the test fast; overheads are ratios.
    let shrink = |app: &gridvm::workloads::AppProfile| {
        gridvm::workloads::AppProfile::new(app.name(), app.user_work().mul_f64(0.02))
            .with_syscalls(app.syscalls() / 50)
            .with_reads(
                ByteSize::from_bytes(app.read_bytes().as_u64() / 50),
                app.io_pattern(),
            )
            .with_writes(ByteSize::from_bytes(app.write_bytes().as_u64() / 50))
            .with_memory_pressure(app.memory_pressure())
    };
    let run = |app: &gridvm::workloads::AppProfile, mode: ExecMode| {
        let mut disk = DiskModel::new(DiskProfile::ide_2003());
        run_app(
            app,
            mode,
            &model,
            &mut LocalDiskStorage::new(&mut disk),
            spec::MACRO_CLOCK_HZ,
            SimTime::ZERO,
            &mut SimRng::seed_from(5),
        )
    };

    let seis = shrink(&spec::specseis());
    let climate = shrink(&spec::specclimate());
    let seis_overhead =
        run(&seis, ExecMode::Virtualized).overhead_vs(&run(&seis, ExecMode::Native));
    let climate_overhead =
        run(&climate, ExecMode::Virtualized).overhead_vs(&run(&climate, ExecMode::Native));

    assert!(
        (0.005..0.03).contains(&seis_overhead),
        "seis overhead {seis_overhead} (paper 1.2%)"
    );
    assert!(
        (0.03..0.055).contains(&climate_overhead),
        "climate overhead {climate_overhead} (paper 4.0%)"
    );
    assert!(
        climate_overhead > seis_overhead,
        "climate pays more (memory pressure)"
    );
}

/// Table 2 shape: full ordering of the six scenarios.
#[test]
fn table2_scenario_ordering_holds() {
    let total = |mode, disk, access, seed| {
        let mut server = ComputeServer::paper_node("t2");
        let cfg = StartupConfig::table2(mode, disk, access);
        run_startup(&mut server, &cfg, &mut SimRng::seed_from(seed)).total_secs()
    };
    let reboot_persistent = total(
        StartupMode::Reboot,
        DiskMode::Persistent,
        StateAccess::DiskFs,
        1,
    );
    let reboot_fs = total(
        StartupMode::Reboot,
        DiskMode::NonPersistent,
        StateAccess::DiskFs,
        2,
    );
    let reboot_nfs = total(
        StartupMode::Reboot,
        DiskMode::NonPersistent,
        StateAccess::LoopbackNfs,
        3,
    );
    let restore_persistent = total(
        StartupMode::Restore,
        DiskMode::Persistent,
        StateAccess::DiskFs,
        4,
    );
    let restore_fs = total(
        StartupMode::Restore,
        DiskMode::NonPersistent,
        StateAccess::DiskFs,
        5,
    );
    let restore_nfs = total(
        StartupMode::Restore,
        DiskMode::NonPersistent,
        StateAccess::LoopbackNfs,
        6,
    );

    // The paper's orderings.
    assert!(restore_fs < restore_nfs, "{restore_fs} < {restore_nfs}");
    assert!(restore_nfs < reboot_fs, "{restore_nfs} < {reboot_fs}");
    assert!(reboot_fs < reboot_nfs, "{reboot_fs} < {reboot_nfs}");
    assert!(
        reboot_nfs < restore_persistent,
        "{reboot_nfs} < {restore_persistent}"
    );
    assert!(
        (restore_persistent - reboot_persistent).abs() < 40.0,
        "persistent rows are copy-dominated: {restore_persistent} vs {reboot_persistent}"
    );
    // Magnitudes: smallest observed startup ~12s, persistent > 4 min.
    assert!(restore_fs < 20.0, "fastest row {restore_fs} (paper 12.4)");
    assert!(
        reboot_persistent > 240.0,
        "persistent {reboot_persistent} (paper 273)"
    );
}

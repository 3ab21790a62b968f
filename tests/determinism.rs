//! Whole-suite determinism: the same seed must reproduce identical
//! results across every experiment surface, and different seeds must
//! actually vary. This is what makes the reproduction binaries'
//! numbers citable.

use gridvm::core::server::ComputeServer;
use gridvm::core::session::{GridSession, GridWorld, SessionRequest};
use gridvm::core::startup::{run_startup, StartupConfig, StartupMode, StateAccess};
use gridvm::gridmw::info::{InfoService, ResourceKind};
use gridvm::host::{HostConfig, HostSim, TaskSpec};
use gridvm::hostload::{LoadLevel, TraceGenerator};
use gridvm::sched::SchedulerKind;
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::time::{SimDuration, SimTime};
use gridvm::simcore::units::{ByteSize, CpuWork};
use gridvm::vmm::machine::DiskMode;
use gridvm::workloads::AppProfile;

#[test]
fn startup_samples_reproduce_per_seed() {
    let run = |seed| {
        let mut server = ComputeServer::paper_node("d");
        let cfg = StartupConfig::table2(
            StartupMode::Reboot,
            DiskMode::NonPersistent,
            StateAccess::LoopbackNfs,
        );
        run_startup(&mut server, &cfg, &mut SimRng::seed_from(seed))
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1).total, run(2).total);
}

#[test]
fn host_simulation_reproduces_per_seed() {
    let run = |seed| {
        let rng = SimRng::seed_from(seed);
        let mut host = HostSim::new(
            HostConfig::default(),
            SchedulerKind::Lottery.build(),
            rng.split("sched"),
        );
        let trace = TraceGenerator::preset(LoadLevel::Heavy).generate(300, &mut rng.split("t"));
        host.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
        let id = host.spawn(TaskSpec::compute(CpuWork::from_cycles(2_400_000_000)));
        host.run_until_complete(id, SimDuration::from_secs(120))
            .expect("finishes")
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).completed_at, run(10).completed_at);
}

#[test]
fn full_sessions_reproduce_per_seed() {
    let build_world = || {
        let mut info = InfoService::new().with_propagation(SimDuration::ZERO);
        let host = info.register(
            SimTime::ZERO,
            "s",
            ResourceKind::PhysicalHost {
                cores: 2,
                clock_hz: 800e6,
                memory_mib: 1024,
            },
        );
        info.register(
            SimTime::ZERO,
            "s",
            ResourceKind::VmFuture {
                host,
                images: vec!["rh72".into()],
                available_slots: 1,
            },
        );
        info.register(
            SimTime::ZERO,
            "s",
            ResourceKind::ImageServer {
                images: vec!["rh72".into()],
            },
        );
        GridWorld {
            info,
            compute: ComputeServer::paper_node("c"),
            image_server: gridvm::core::server::paper_image_server("rh72"),
            data_server: Some(gridvm::core::server::paper_data_server(
                "u",
                ByteSize::from_mib(4),
            )),
            dhcp: gridvm::vnet::dhcp::DhcpServer::new(
                gridvm::vnet::addr::Subnet::new(
                    gridvm::vnet::addr::Ipv4Addr::from_octets(10, 0, 0, 0),
                    24,
                ),
                SimDuration::from_secs(600),
            ),
        }
    };
    let req = SessionRequest {
        user: "u".into(),
        image: "rh72".into(),
        min_cores: 1,
        startup: StartupConfig::table2(
            StartupMode::Restore,
            DiskMode::NonPersistent,
            StateAccess::DiskFs,
        ),
        app: AppProfile::new("a", CpuWork::from_cycles(400_000_000)).with_syscalls(100),
    };
    let run = |seed| {
        let mut world = build_world();
        let report = GridSession::establish(&mut world, &req, &mut SimRng::seed_from(seed))
            .expect("session establishes");
        (report.total, report.address, report.app)
    };
    assert_eq!(run(4), run(4));
    assert_ne!(run(4).0, run(5).0);
}

#[test]
fn replication_runner_is_thread_count_invariant_for_fig1_work() {
    // Figure-1-shaped replication: a compute-bound test task on a
    // loaded host, measured against its dedicated-machine baseline.
    // Whatever --threads value fans these out, every per-replication
    // result and the merged metrics must be bit-identical.
    use gridvm::simcore::metrics;
    use gridvm::simcore::replication::{ReplicationCtx, ReplicationRunner};

    let sample = |ctx: &ReplicationCtx| {
        let rng = ctx.rng();
        let config = HostConfig::default();
        let mut host = HostSim::new(config, SchedulerKind::TimeShare.build(), rng.split("sched"));
        let trace = TraceGenerator::preset(LoadLevel::Heavy).generate(120, &mut rng.split("trace"));
        host.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
        let work = CpuWork::from_duration(SimDuration::from_secs(1), config.clock_hz);
        let id = host.spawn(TaskSpec::compute(work));
        let outcome = host
            .run_until_complete(id, SimDuration::from_secs(600))
            .expect("finishes");
        metrics::counter_add("fig1.samples", 1);
        outcome.completed_at
    };

    let serial = ReplicationRunner::new(1).run(20030517, 24, sample);
    let parallel = ReplicationRunner::new(8).run(20030517, 24, sample);
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.replication_metrics, parallel.replication_metrics);
    assert_eq!(serial.merged_metrics, parallel.merged_metrics);
    assert_eq!(serial.merged_metrics.counter("fig1.samples"), 24);
    // The host layer's own hooks must be identical too, not just the
    // test's counter.
    assert!(serial.merged_metrics.counter("host.world_switches") > 0);
}

#[test]
fn experiment_reports_are_thread_count_invariant() {
    use gridvm_bench::harness::{
        m, run_experiment, Experiment, Measurement, Options, SampleCtx, Scenario,
    };

    struct MiniFig1;

    impl Experiment for MiniFig1 {
        fn title(&self) -> &str {
            "mini fig1"
        }

        fn scenarios(&self, _opts: &Options) -> Vec<Scenario> {
            [LoadLevel::None, LoadLevel::Heavy]
                .iter()
                .enumerate()
                .map(|(i, level)| Scenario::new(i, format!("{level} load"), 6))
                .collect()
        }

        fn run_sample(
            &self,
            scenario: &Scenario,
            ctx: &SampleCtx,
            _opts: &Options,
        ) -> Vec<Measurement> {
            let rng = ctx.rng();
            let config = HostConfig::default();
            let mut host =
                HostSim::new(config, SchedulerKind::TimeShare.build(), rng.split("sched"));
            if scenario.index == 1 {
                let trace =
                    TraceGenerator::preset(LoadLevel::Heavy).generate(120, &mut rng.split("trace"));
                host.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
            }
            let work = CpuWork::from_duration(SimDuration::from_secs(1), config.clock_hz);
            let id = host.spawn(TaskSpec::compute(work));
            let outcome = host
                .run_until_complete(id, SimDuration::from_secs(600))
                .expect("finishes");
            vec![m("completed_s", outcome.completed_at.as_secs_f64())]
        }
    }

    let run = |threads: usize| {
        run_experiment(
            &MiniFig1,
            &Options {
                threads,
                ..Options::default()
            },
        )
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.scenarios.len(), parallel.scenarios.len());
    for (a, b) in serial.scenarios.iter().zip(&parallel.scenarios) {
        assert_eq!(a.measurements, b.measurements);
        assert_eq!(a.metrics, b.metrics);
    }
    assert_eq!(serial.metrics, parallel.metrics);
    assert!(serial.metrics.counter("host.world_switches") > 0);
}

mod session_replication_proptest {
    use super::*;
    use gridvm::simcore::replication::{ReplicationCtx, ReplicationRunner};
    use gridvm::simcore::trace::TraceLog;
    use proptest::prelude::*;

    /// Order-sensitive FNV-1a fold over every retained trace entry, so
    /// two runs agree iff they produced the same causal history in the
    /// same order.
    fn trace_digest(log: &TraceLog) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for e in log.entries() {
            mix(&e.time.as_nanos().to_le_bytes());
            mix(e.category.as_bytes());
            mix(e.message.as_bytes());
        }
        h
    }

    fn grid_world() -> GridWorld {
        let mut info = InfoService::new().with_propagation(SimDuration::ZERO);
        let host = info.register(
            SimTime::ZERO,
            "s",
            ResourceKind::PhysicalHost {
                cores: 2,
                clock_hz: 800e6,
                memory_mib: 1024,
            },
        );
        info.register(
            SimTime::ZERO,
            "s",
            ResourceKind::VmFuture {
                host,
                images: vec!["rh72".into()],
                available_slots: 1,
            },
        );
        info.register(
            SimTime::ZERO,
            "s",
            ResourceKind::ImageServer {
                images: vec!["rh72".into()],
            },
        );
        GridWorld {
            info,
            compute: ComputeServer::paper_node("c"),
            image_server: gridvm::core::server::paper_image_server("rh72"),
            data_server: Some(gridvm::core::server::paper_data_server(
                "u",
                ByteSize::from_mib(1),
            )),
            dhcp: gridvm::vnet::dhcp::DhcpServer::new(
                gridvm::vnet::addr::Subnet::new(
                    gridvm::vnet::addr::Ipv4Addr::from_octets(10, 0, 0, 0),
                    24,
                ),
                SimDuration::from_secs(600),
            ),
        }
    }

    /// One replication: a full gridmw session (discover → lease → DHCP
    /// → stage → boot → run app), its milestones recorded as a trace.
    /// Returns everything downstream assertions compare bit-for-bit.
    fn session_sample(ctx: &ReplicationCtx) -> (u64, u64) {
        let req = SessionRequest {
            user: "u".into(),
            image: "rh72".into(),
            min_cores: 1,
            startup: StartupConfig::table2(
                StartupMode::Restore,
                DiskMode::NonPersistent,
                StateAccess::DiskFs,
            ),
            app: AppProfile::new("a", CpuWork::from_cycles(200_000_000)).with_syscalls(50),
        };
        let mut world = grid_world();
        let mut rng = ctx.rng().split("session");
        let report =
            GridSession::establish(&mut world, &req, &mut rng).expect("session establishes");
        let mut log = TraceLog::with_capacity(64);
        log.record(
            SimTime::ZERO,
            "session",
            format_args!("lease {}", report.address),
        );
        log.record(
            SimTime::ZERO + report.startup.total,
            "session",
            format_args!("vm ready"),
        );
        log.record(
            SimTime::ZERO + report.total,
            "session",
            format_args!("app done after {:?}", report.app),
        );
        (report.total.as_nanos(), trace_digest(&log))
    }

    proptest! {
        /// A small gridmw session replicated under different thread
        /// counts produces identical per-replication results, identical
        /// metrics, and identical trace digests for every random seed.
        /// This is the end-to-end guarantee the container migrations
        /// and the audit layer protect.
        #[test]
        fn session_metrics_and_traces_are_thread_count_invariant(
            seed in 1u64..u64::MAX / 2,
            threads in 2usize..9,
        ) {
            let serial = ReplicationRunner::new(1).run(seed, 6, session_sample);
            let parallel = ReplicationRunner::new(threads).run(seed, 6, session_sample);
            prop_assert_eq!(&serial.results, &parallel.results);
            prop_assert_eq!(&serial.replication_metrics, &parallel.replication_metrics);
            prop_assert_eq!(&serial.merged_metrics, &parallel.merged_metrics);
            // Different replications see different seeds: the digests
            // must not be trivially constant.
            let digests: std::collections::BTreeSet<u64> =
                serial.results.iter().map(|(_, d)| *d).collect();
            prop_assert!(digests.len() > 1, "replication digests all identical");
        }
    }
}

#[test]
fn sharded_simulation_is_shard_and_thread_count_invariant() {
    // The conservative synchronizer's whole contract: the multi-site
    // VO world must produce bit-identical trace digests, metrics and
    // coordinator tallies at every shard/thread packing. CI adds an
    // extra leg via GRIDVM_SHARDS to sweep the same body under
    // different ambient counts.
    use gridvm::core::multisite::{build_vo, VoConfig};
    use gridvm::simcore::metrics;

    let cfg = VoConfig {
        sites: 6,
        sessions_per_site: 6,
        steps_per_session: 40,
        ..VoConfig::paper_vo()
    };
    let run = |shards: usize, threads: usize| {
        let mut sim = build_vo(&cfg).shards(shards).threads(threads);
        metrics::reset();
        sim.run();
        metrics::reset();
        (
            sim.trace_digest(),
            sim.merged_metrics(),
            sim.windows(),
            sim.messages(),
            sim.total_events(),
        )
    };
    let want = run(1, 1);
    assert!(want.3 > 0, "the sweep must actually cross shard boundaries");
    let mut sweep = vec![2usize, 4, 8];
    if let Some(extra) = std::env::var("GRIDVM_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        sweep.push(extra);
    }
    for shards in sweep {
        for threads in [1usize, 8] {
            assert_eq!(
                run(shards, threads),
                want,
                "divergence at shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn trace_generation_streams_are_label_isolated() {
    // Drawing from one component's stream must not perturb another's.
    let root = SimRng::seed_from(6);
    let t1 = TraceGenerator::preset(LoadLevel::Heavy).generate(100, &mut root.split("a"));
    // interleave unrelated draws
    let mut other = root.split("b");
    for _ in 0..1000 {
        other.next_u64();
    }
    let t2 = TraceGenerator::preset(LoadLevel::Heavy).generate(100, &mut root.split("a"));
    assert_eq!(t1, t2);
}

//! **Extension: chaos** — session survival under injected faults
//! (Section 3.1's fault-tolerance argument, measured).
//!
//! Sweeps the rate of a seeded random fault process (host crashes
//! plus background link partitions and NFS timeouts) over a
//! four-node cluster and reports, per intensity: the fraction of
//! sessions that complete, their mean makespan, and the
//! suspend–transfer–resume migrations performed per session. The
//! paper claims whole-environment recovery makes failures a
//! performance problem rather than a correctness problem — completed
//! sessions should degrade gracefully in makespan while the
//! completion fraction stays high until crashes outpace the cluster.

use gridvm_bench::harness::{
    m, run_main, Experiment, ExperimentReport, Measurement, Options, SampleCtx, Scenario,
};
use gridvm_core::recovery::{run_resilient_session, Cluster, RecoveryConfig};
use gridvm_core::session::SessionRequest;
use gridvm_core::startup::{StartupConfig, StartupMode, StateAccess};
use gridvm_simcore::fault::{FaultKind, FaultPlan, FaultProcess};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::trace::TraceLog;
use gridvm_simcore::units::CpuWork;
use gridvm_vmm::machine::DiskMode;
use gridvm_workloads::AppProfile;

const HOSTS: usize = 4;

/// Per-scenario fault intensity: mean time between host crashes
/// (`None` = fault-free baseline).
struct ChaosSweep {
    crash_mtbf_secs: [Option<u64>; 4],
}

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
        // ~2 minutes of guest work, several checkpoint intervals.
        app: AppProfile::new("chaos-app", CpuWork::from_cycles(96_000_000_000)),
    }
}

fn plan_for(seed: u64, mtbf: Option<u64>) -> FaultPlan {
    let Some(mtbf) = mtbf else {
        return FaultPlan::new();
    };
    let nodes: Vec<String> = (0..HOSTS).map(|i| format!("node{i}")).collect();
    let horizon = SimDuration::from_secs(3600);
    FaultPlan::seeded(
        seed,
        horizon,
        &[
            FaultProcess {
                kind: FaultKind::HostCrash,
                mean_interval: SimDuration::from_secs(mtbf),
                targets: nodes.clone(),
            },
            FaultProcess {
                kind: FaultKind::LinkPartition {
                    heal_after: SimDuration::from_secs(20),
                },
                mean_interval: SimDuration::from_secs(mtbf * 2),
                targets: nodes.clone(),
            },
            FaultProcess {
                kind: FaultKind::NfsTimeout,
                mean_interval: SimDuration::from_secs(mtbf * 2),
                targets: vec!["nfs".to_owned()],
            },
        ],
    )
}

impl Experiment for ChaosSweep {
    fn title(&self) -> &str {
        "Extension: completed sessions and makespan vs fault rate"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        let samples = if opts.quick { 1 } else { 3 };
        self.crash_mtbf_secs
            .iter()
            .enumerate()
            .map(|(i, mtbf)| {
                let label = match mtbf {
                    None => "fault-free".to_owned(),
                    Some(s) => format!("crash MTBF {s}s"),
                };
                Scenario::new(i, label, samples)
            })
            .collect()
    }

    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement> {
        let mtbf = self.crash_mtbf_secs[scenario.index];
        let sessions = if opts.quick { 4 } else { 10 };
        let mut completed = 0usize;
        let mut migrations = 0usize;
        let mut total_secs = 0.0f64;
        for s in 0..sessions {
            let seed = ctx.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(s as u64 + 1));
            let plan = plan_for(seed, mtbf);
            let mut cluster = Cluster::paper_lan(HOSTS, "rh72", "userX");
            let mut rng = SimRng::seed_from(seed);
            let mut trace = TraceLog::default();
            match run_resilient_session(
                &mut cluster,
                &request(),
                &RecoveryConfig::default(),
                &plan,
                &mut rng,
                &mut trace,
            ) {
                Ok(report) => {
                    completed += 1;
                    migrations += report.migrations();
                    total_secs += report.total.as_secs_f64();
                }
                Err(_) => {
                    // counted via chaos.sessions_failed
                }
            }
            // Every session ran to a verdict by a bounded time.
            assert!(
                trace
                    .entries()
                    .all(|e| e.time < SimTime::ZERO + SimDuration::from_secs(7200)),
                "runaway session"
            );
        }
        let mean_total = if completed > 0 {
            total_secs / completed as f64
        } else {
            0.0
        };
        vec![
            m("completed_frac", completed as f64 / sessions as f64),
            m("mean_total_s", mean_total),
            m(
                "migrations_per_session",
                migrations as f64 / sessions as f64,
            ),
        ]
    }

    fn epilogue(&self, report: &ExperimentReport, _opts: &Options) -> Option<String> {
        Some(format!(
            "sessions: {} completed, {} failed; {} migrations, {} host crashes injected\n\
             expected: completion fraction decays and makespan grows as crash MTBF shrinks; \
             fault-free rows show zero migrations",
            report.metrics.counter("chaos.sessions_completed"),
            report.metrics.counter("chaos.sessions_failed"),
            report.metrics.counter("recovery.migrations"),
            report.metrics.counter("fault.host_crash"),
        ))
    }
}

fn main() {
    run_main(&ChaosSweep {
        crash_mtbf_secs: [None, Some(300), Some(90), Some(30)],
    });
}

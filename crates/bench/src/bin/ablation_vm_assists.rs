//! **Ablation A4** — VM assists (Section 2.3): the paper argues VMM
//! overheads "can be made smaller with implementation
//! optimizations", citing IBM's VM assists. We re-run the Table 1
//! workloads and the Figure 1 heavy-load scenario under the baseline
//! VMware-3.0a-era cost model and under a model with assists, and
//! report how much of the virtualization tax the optimizations
//! recover.

use gridvm_bench::harness::{
    m, run_main, Experiment, ExperimentReport, Measurement, Options, SampleCtx, Scenario,
};
use gridvm_host::{HostConfig, HostSim, TaskSpec};
use gridvm_hostload::{LoadLevel, TraceGenerator};
use gridvm_sched::SchedulerKind;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::{ByteSize, CpuWork};
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vmm::exec::{run_app, ExecMode, LocalDiskStorage};
use gridvm_vmm::VirtCostModel;
use gridvm_workloads::{spec, AppProfile};

const HEAVY_LOAD: &str = "heavy-load VM slowdown (Fig 1)";

fn shrink(app: &AppProfile, factor: u64) -> AppProfile {
    AppProfile::new(app.name(), app.user_work().mul_f64(1.0 / factor as f64))
        .with_syscalls(app.syscalls() / factor)
        .with_reads(
            ByteSize::from_bytes(app.read_bytes().as_u64() / factor),
            app.io_pattern(),
        )
        .with_writes(ByteSize::from_bytes(app.write_bytes().as_u64() / factor))
        .with_memory_pressure(app.memory_pressure())
}

fn overhead(app: &AppProfile, model: &VirtCostModel, seed: u64) -> f64 {
    let run = |mode: ExecMode| {
        let mut disk = DiskModel::new(DiskProfile::ide_2003());
        run_app(
            app,
            mode,
            model,
            &mut LocalDiskStorage::new(&mut disk),
            spec::MACRO_CLOCK_HZ,
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
        )
    };
    run(ExecMode::Virtualized).overhead_vs(&run(ExecMode::Native)) * 100.0
}

/// One heavy-load slowdown sample; both cost models replay the same
/// seed so the trace and scheduling noise cancel in the comparison.
fn heavy_load_slowdown(model: &VirtCostModel, seed: u64) -> f64 {
    let config = HostConfig::default();
    let work = CpuWork::from_duration(SimDuration::from_secs(3), config.clock_hz);
    let root = SimRng::seed_from(seed);
    let mut host = HostSim::new(config, SchedulerKind::TimeShare.build(), root.split("s"));
    let trace = TraceGenerator::preset(LoadLevel::Heavy)
        .with_interval(SimDuration::from_millis(250))
        .generate(600, &mut root.split("t"));
    host.set_background(trace, 4, TaskSpec::compute(CpuWork::ZERO));
    let id = host.spawn(model.guest_task(work, 0.0));
    let out = host
        .run_until_complete(id, SimDuration::from_secs(120))
        .expect("finishes");
    out.slowdown_vs(host.baseline(&model.native_task(work)))
}

struct VmAssistsAblation;

impl Experiment for VmAssistsAblation {
    fn title(&self) -> &str {
        "Ablation A4: VM assists vs baseline trap-and-emulate"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        vec![
            Scenario::new(0, format!("{} VM overhead", spec::specseis().name()), 1),
            Scenario::new(1, format!("{} VM overhead", spec::specclimate().name()), 1),
            Scenario::new(2, HEAVY_LOAD, opts.samples_or(100)),
        ]
    }

    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement> {
        let baseline = VirtCostModel::default();
        let assisted = VirtCostModel::default().with_assists();
        match scenario.index {
            2 => vec![
                m("baseline", heavy_load_slowdown(&baseline, ctx.seed)),
                m("with_assists", heavy_load_slowdown(&assisted, ctx.seed)),
            ],
            i => {
                let factor = if opts.quick { 200 } else { 50 };
                let app = if i == 0 {
                    shrink(&spec::specseis(), factor)
                } else {
                    shrink(&spec::specclimate(), factor)
                };
                let base = overhead(&app, &baseline, ctx.seed);
                let fast = overhead(&app, &assisted, ctx.seed);
                vec![
                    m("baseline", base),
                    m("with_assists", fast),
                    m("recovered_pct", (1.0 - fast / base) * 100.0),
                ]
            }
        }
    }

    fn epilogue(&self, report: &ExperimentReport, _opts: &Options) -> Option<String> {
        let mut out = String::new();
        if let Some(s) = report.scenario(HEAVY_LOAD) {
            let base = s.mean("baseline");
            let fast = s.mean("with_assists");
            out.push_str(&format!(
                "heavy-load tax recovered: {:.0}% (slowdown {base:.4} -> {fast:.4})\n",
                (1.0 - (fast - 1.0) / (base - 1.0)) * 100.0
            ));
        }
        out.push_str(
            "expected: assists recover about half the VMM tax on the macro workloads;\n\
             the heavy-load slowdown barely moves because it is queueing, not\n\
             virtualization — which is itself the paper's Figure 1 point",
        );
        Some(out)
    }
}

fn main() {
    run_main(&VmAssistsAblation);
}

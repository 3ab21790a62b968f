//! **Figure 1** — microbenchmark: slowdown of a synthetic
//! compute-bound test task under background load, for twelve
//! scenarios: {none, light, heavy} × {load on physical | VM} ×
//! {test task on physical | VM}.
//!
//! Paper setup: dual Pentium III/800, VMware Workstation 3.0a guest
//! with 128 MB; load produced by host-load trace playback; 1000
//! samples per scenario; reported as mean ± one standard deviation.
//! Takeaway to reproduce: *"independently of load, the test tasks
//! see a typical slowdown of 10% or less when running on the virtual
//! machine case."*

use gridvm_bench::harness::{
    m, run_main, Experiment, ExperimentReport, Measurement, Options, SampleCtx, Scenario,
};
use gridvm_host::{HostConfig, HostSim, TaskSpec};
use gridvm_hostload::{LoadLevel, TraceGenerator};
use gridvm_sched::SchedulerKind;
use gridvm_simcore::time::SimDuration;
use gridvm_simcore::units::CpuWork;
use gridvm_vmm::VirtCostModel;

/// Where a task (load or test) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Placement {
    Physical,
    Vm,
}

impl Placement {
    fn label(self) -> &'static str {
        match self {
            Placement::Physical => "phys",
            Placement::Vm => "VM",
        }
    }
}

struct Fig1 {
    cases: Vec<(LoadLevel, Placement, Placement)>,
    config: HostConfig,
    model: VirtCostModel,
    test_work: CpuWork,
}

impl Fig1 {
    fn new() -> Self {
        let mut cases = Vec::new();
        for level in LoadLevel::ALL {
            for load_place in [Placement::Physical, Placement::Vm] {
                for test_place in [Placement::Physical, Placement::Vm] {
                    cases.push((level, load_place, test_place));
                }
            }
        }
        let config = HostConfig::default(); // dual PIII/800
        Fig1 {
            cases,
            config,
            model: VirtCostModel::default(),
            test_work: CpuWork::from_duration(SimDuration::from_secs(3), config.clock_hz),
        }
    }
}

impl Experiment for Fig1 {
    fn title(&self) -> &str {
        "Figure 1: microbenchmark slowdown under background load"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        let samples = opts.samples_or(if opts.quick { 40 } else { 1000 });
        self.cases
            .iter()
            .enumerate()
            .map(|(i, (level, load_place, test_place))| {
                Scenario::new(
                    i,
                    format!(
                        "{:5} load, load on {:4}, test on {:4}",
                        level.label(),
                        load_place.label(),
                        test_place.label()
                    ),
                    samples,
                )
            })
            .collect()
    }

    fn run_sample(
        &self,
        scenario: &Scenario,
        ctx: &SampleCtx,
        _opts: &Options,
    ) -> Vec<Measurement> {
        let (level, load_place, test_place) = self.cases[scenario.index];
        let rng = ctx.rng();
        let mut host = HostSim::new(
            self.config,
            SchedulerKind::TimeShare.build(),
            rng.split("sched"),
        );
        // Background load from a freshly generated trace segment.
        if level != LoadLevel::None {
            let trace = TraceGenerator::preset(level)
                .with_interval(SimDuration::from_millis(250))
                .generate(600, &mut rng.split("trace"));
            let per_task = match load_place {
                Placement::Physical => TaskSpec::compute(CpuWork::ZERO),
                Placement::Vm => TaskSpec::compute(CpuWork::ZERO)
                    .with_switch_overhead(self.model.switch_overhead()),
            };
            host.set_background(trace, 4, per_task);
        }
        let spec = match test_place {
            Placement::Physical => self.model.native_task(self.test_work),
            Placement::Vm => self.model.guest_task(self.test_work, 0.0),
        };
        let baseline = self.model.native_task(self.test_work);
        let id = host.spawn(spec);
        let outcome = host
            .run_until_complete(id, SimDuration::from_secs(600))
            .expect("test task finishes within 10 simulated minutes");
        vec![m("slowdown", outcome.slowdown_vs(host.baseline(&baseline)))]
    }

    fn epilogue(&self, report: &ExperimentReport, _opts: &Options) -> Option<String> {
        let vm_test_max = report
            .scenarios
            .iter()
            .filter(|s| self.cases[s.scenario.index].2 == Placement::Vm)
            .map(|s| s.mean("slowdown"))
            .fold(0.0f64, f64::max);
        Some(format!(
            "paper takeaway check: max mean slowdown with test task on VM = {vm_test_max:.3} \
             (paper: typically <= ~1.10)"
        ))
    }
}

fn main() {
    run_main(&Fig1::new());
}

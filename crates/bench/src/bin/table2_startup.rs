//! **Table 2** — VM startup times: mean/std/min/max over 10 samples
//! of `globusrun` wall-clock time for six scenarios:
//! {VM-reboot, VM-restore} × {Persistent, Non-persistent DiskFS,
//! Non-persistent LoopbackNFS}.
//!
//! Paper targets (seconds):
//!
//! | scenario                     | mean  |
//! |------------------------------|-------|
//! | reboot  / Persistent         | 273   |
//! | reboot  / DiskFS             | 69.2  |
//! | reboot  / LoopbackNFS        | 74.5  |
//! | restore / Persistent         | 269   |
//! | restore / DiskFS             | 12.4  |
//! | restore / LoopbackNFS        | 29.2  |

use gridvm_bench::harness::{
    m, run_main, Experiment, ExperimentReport, Measurement, Options, SampleCtx, Scenario,
};
use gridvm_core::server::ComputeServer;
use gridvm_core::startup::{run_startup, StartupConfig, StartupMode, StateAccess};
use gridvm_simcore::metrics;
use gridvm_vmm::machine::DiskMode;

struct Table2 {
    scenarios: Vec<(StartupConfig, f64)>,
}

impl Table2 {
    fn new() -> Self {
        let cases = [
            (
                StartupMode::Reboot,
                DiskMode::Persistent,
                StateAccess::DiskFs,
                273.0,
            ),
            (
                StartupMode::Reboot,
                DiskMode::NonPersistent,
                StateAccess::DiskFs,
                69.2,
            ),
            (
                StartupMode::Reboot,
                DiskMode::NonPersistent,
                StateAccess::LoopbackNfs,
                74.5,
            ),
            (
                StartupMode::Restore,
                DiskMode::Persistent,
                StateAccess::DiskFs,
                269.0,
            ),
            (
                StartupMode::Restore,
                DiskMode::NonPersistent,
                StateAccess::DiskFs,
                12.4,
            ),
            (
                StartupMode::Restore,
                DiskMode::NonPersistent,
                StateAccess::LoopbackNfs,
                29.2,
            ),
        ];
        Table2 {
            scenarios: cases
                .into_iter()
                .map(|(mode, disk, access, paper)| {
                    (StartupConfig::table2(mode, disk, access), paper)
                })
                .collect(),
        }
    }
}

impl Experiment for Table2 {
    fn title(&self) -> &str {
        "Table 2: VM startup times (globusrun wall clock, seconds)"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        self.scenarios
            .iter()
            .enumerate()
            .map(|(i, (cfg, _))| Scenario::new(i, cfg.label(), opts.samples_or(10)))
            .collect()
    }

    fn run_sample(
        &self,
        scenario: &Scenario,
        ctx: &SampleCtx,
        _opts: &Options,
    ) -> Vec<Measurement> {
        let (cfg, _) = &self.scenarios[scenario.index];
        let mut server = ComputeServer::paper_node("V");
        let b = run_startup(&mut server, cfg, &mut ctx.rng());
        // Phase breakdown lands in the metrics registry as nanosecond
        // totals, so the epilogue (and the JSON report) can show
        // per-phase means.
        for (name, phase) in [
            ("startup.middleware_in_ns", b.middleware_in),
            ("startup.image_copy_ns", b.image_copy),
            ("startup.monitor_setup_ns", b.monitor_setup),
            ("startup.state_load_ns", b.state_load),
            ("startup.guest_cpu_ns", b.guest_cpu),
            ("startup.middleware_out_ns", b.middleware_out),
        ] {
            metrics::counter_add(name, phase.as_nanos());
        }
        vec![m("total_s", b.total_secs())]
    }

    fn paper_reference(&self, scenario: &Scenario) -> Option<f64> {
        Some(self.scenarios[scenario.index].1)
    }

    fn epilogue(&self, report: &ExperimentReport, _opts: &Options) -> Option<String> {
        let mut out = String::new();
        for s in &report.scenarios {
            let phase =
                |name: &str| s.metrics.counter(name) as f64 / 1e9 / s.scenario.samples as f64;
            out.push_str(&format!(
                "{:<44} phase means: mw-in {:.1} copy {:.1} setup {:.1} load {:.1} \
                 cpu {:.1} mw-out {:.1}\n",
                s.scenario.label,
                phase("startup.middleware_in_ns"),
                phase("startup.image_copy_ns"),
                phase("startup.monitor_setup_ns"),
                phase("startup.state_load_ns"),
                phase("startup.guest_cpu_ns"),
                phase("startup.middleware_out_ns"),
            ));
        }
        out.push_str(
            "shape checks: restore << reboot (non-persistent); persistent >> all; NFS > DiskFS",
        );
        Some(out)
    }
}

fn main() {
    run_main(&Table2::new());
}

//! The Table 1 workload: SPECseis (scaled) and SPECclimate, each run
//! natively, in a VM on local disk and in a VM on PVFS — proxy-cached
//! NFS over the WAN.

use std::ops::Range;
use std::time::Instant;

use gridvm_core::NfsGuestStorage;
use gridvm_simcore::{metrics, ByteSize, SimDuration, SimRng, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::exec::{
    run_app, ExecMode, GuestRunReport, GuestStorage, LocalDiskStorage, IO_BLOCK,
};
use gridvm_vmm::VirtCostModel;
use gridvm_workloads::{spec, AppProfile};

use crate::probe::cpu_secs;
use crate::spans::Spans;
use crate::{Checks, Rep, Workload};

/// SPECseis runs at 1/16 of its size. Its PVFS export is a zero-filled
/// file as large as its 7.3 GiB of I/O, which at full size peaks near
/// 7.4 GiB RSS; 1/16 keeps the process under 1 GiB. Overheads are
/// ratios of CPU times and survive the scaling.
const SEIS_DIVISOR: u64 = 16;
/// Room the export keeps past the application's I/O, as in
/// `table1_macro`.
const EXPORT_SLACK: ByteSize = ByteSize::from_mib(64);

/// One Table 1 application, with the ranges its VM and PVFS overheads
/// (fractions of native CPU time) must land in. The paper reports
/// SPECseis +1.2% / +2.0% and SPECclimate +4.0% / +4.2%.
struct Case {
    app: AppProfile,
    vm: Range<f64>,
    pvfs: Range<f64>,
}

/// The three Table 1 rows of one application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rows {
    native: GuestRunReport,
    vm: GuestRunReport,
    pvfs: GuestRunReport,
}

fn scaled(app: &AppProfile, divisor: u64) -> AppProfile {
    AppProfile::new(app.name(), app.user_work().mul_f64(1.0 / divisor as f64))
        .with_syscalls(app.syscalls() / divisor)
        .with_reads(
            ByteSize::from_bytes(app.read_bytes().as_u64() / divisor),
            app.io_pattern(),
        )
        .with_writes(ByteSize::from_bytes(app.write_bytes().as_u64() / divisor))
        .with_memory_pressure(app.memory_pressure())
}

/// A PVFS export ready for one guest run: a fresh server holding a
/// presized state file, mounted over the WAN through a cold proxy.
struct Export {
    storage: NfsGuestStorage,
    file: FileHandle,
    size: u64,
}

fn build_export(app: &AppProfile, model: &VirtCostModel) -> Export {
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let size = (app.io_bytes() + EXPORT_SLACK).as_u64();
    let file = server
        .fs_mut()
        .create(root, "vmstate", SimTime::ZERO)
        .expect("fresh export");
    server
        .fs_mut()
        .write(file, size - 1, &[0], SimTime::ZERO)
        .expect("presize the state file");
    let mount = Mount::new(
        Transport::wan(),
        server,
        Some(VfsProxy::new(ProxyConfig::default())),
    );
    Export {
        storage: NfsGuestStorage::new(mount, file, model.pvfs_client_per_block, "PVFS"),
        file,
        size,
    }
}

/// Records a span around every `io_run` of the storage it wraps — a
/// wrapper through the public trait, so the program is timed as is.
struct Timed<'a> {
    inner: &'a mut dyn GuestStorage,
    spans: &'a mut Spans,
    secs: f64,
}

impl GuestStorage for Timed<'_> {
    fn io_run(&mut self, now: SimTime, start: BlockAddr, count: u64, write: bool) -> SimTime {
        let open = self.spans.enter("GuestStorage::io_run");
        let done = self.inner.io_run(now, start, count, write);
        self.secs += self.spans.exit(open);
        done
    }

    fn client_cpu_per_block(&self) -> SimDuration {
        self.inner.client_cpu_per_block()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// The `pvfs_io` workload.
pub struct PvfsBench {
    cases: Vec<Case>,
    model: VirtCostModel,
    seed: u64,
    /// The first repetition's rows and RPC count; every later one must
    /// reproduce them.
    first: Option<(Vec<Rows>, u64)>,
}

impl PvfsBench {
    /// The workload at `seed`, which seeds the guests' I/O streams.
    pub fn new(seed: u64) -> Self {
        PvfsBench {
            cases: vec![
                Case {
                    app: scaled(&spec::specseis(), SEIS_DIVISOR),
                    vm: 0.005..0.03,
                    pvfs: 0.01..0.04,
                },
                Case {
                    app: spec::specclimate(),
                    vm: 0.03..0.055,
                    pvfs: 0.03..0.06,
                },
            ],
            model: VirtCostModel::default(),
            seed,
            first: None,
        }
    }

    /// One `run_app` call against `storage` inside a span, through the
    /// timing wrapper when tracing. Returns the report, the call's
    /// seconds and the seconds spent in `io_run` (traced only).
    fn run_row(
        &self,
        app: &AppProfile,
        mode: ExecMode,
        storage: &mut dyn GuestStorage,
        spans: &mut Spans,
    ) -> (GuestRunReport, f64, f64) {
        let mut rng = SimRng::seed_from(self.seed);
        let hz = spec::MACRO_CLOCK_HZ;
        let open = spans.enter("run_app");
        let (report, io_s) = if spans.on() {
            let mut timed = Timed {
                inner: &mut *storage,
                spans: &mut *spans,
                secs: 0.0,
            };
            let report = run_app(
                app,
                mode,
                &self.model,
                &mut timed,
                hz,
                SimTime::ZERO,
                &mut rng,
            );
            (report, timed.secs)
        } else {
            let report = run_app(app, mode, &self.model, storage, hz, SimTime::ZERO, &mut rng);
            (report, 0.0)
        };
        (report, spans.exit(open), io_s)
    }
}

impl Workload for PvfsBench {
    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep {
        metrics::reset();
        let setup = Instant::now();
        let mut exports: Vec<Export> = self
            .cases
            .iter()
            .map(|case| {
                let open = spans.enter("export_build");
                let export = build_export(&case.app, &self.model);
                spans.exit(open);
                export
            })
            .collect();
        let setup_s = setup.elapsed().as_secs_f64();

        let cpu_before = cpu_secs();
        let started = Instant::now();
        let (mut run_app_s, mut local_io_s, mut nfs_io_s) = (0.0, 0.0, 0.0);
        let mut rows = Vec::with_capacity(self.cases.len());
        for (case, export) in self.cases.iter().zip(&mut exports) {
            let mut disk = DiskModel::new(DiskProfile::ide_2003());
            let mut local = LocalDiskStorage::new(&mut disk);
            let (native, call_s, io_s) =
                self.run_row(&case.app, ExecMode::Native, &mut local, spans);
            run_app_s += call_s;
            local_io_s += io_s;
            let mut disk = DiskModel::new(DiskProfile::ide_2003());
            let mut local = LocalDiskStorage::new(&mut disk);
            let (vm, call_s, io_s) =
                self.run_row(&case.app, ExecMode::Virtualized, &mut local, spans);
            run_app_s += call_s;
            local_io_s += io_s;
            let (pvfs, call_s, io_s) =
                self.run_row(&case.app, ExecMode::Virtualized, &mut export.storage, spans);
            run_app_s += call_s;
            nfs_io_s += io_s;
            rows.push(Rows { native, vm, pvfs });
        }
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = cpu_secs() - cpu_before;
        let counters = metrics::take();

        let (mut hits, mut misses, mut prefetched, mut rpcs) = (0, 0, 0, 0);
        for ((case, export), r) in self.cases.iter().zip(&exports).zip(&rows) {
            let name = case.app.name();
            let vm = r.vm.overhead_vs(&r.native);
            let pvfs = r.pvfs.overhead_vs(&r.native);
            checks.expect(case.vm.contains(&vm), || {
                format!("{name} VM overhead {vm:.4} outside {:?}", case.vm)
            });
            checks.expect(case.pvfs.contains(&pvfs) && pvfs >= vm, || {
                format!(
                    "{name} PVFS overhead {pvfs:.4} (VM {vm:.4}) outside {:?}",
                    case.pvfs
                )
            });
            // `NfsGuestStorage::io_run` hides write errors in release
            // builds, so check the export itself: the state file keeps its
            // presized length and was written after t = 0.
            let mount = export.storage.mount();
            let attr = mount.server().fs().getattr(export.file);
            checks.expect(
                matches!(&attr, Ok(a) if !a.is_dir && a.size == export.size && a.mtime > SimTime::ZERO),
                || format!("{name} state file after the run: {attr:?}"),
            );
            checks.expect(mount.rpcs_sent() > 0, || {
                format!("{name}: no RPC crossed the WAN")
            });
            let proxy = mount.proxy().expect("PVFS mounts through a proxy");
            hits += proxy.hits();
            misses += proxy.misses();
            prefetched += proxy.prefetched();
            rpcs += mount.rpcs_sent();
        }
        let outcome = (rows, rpcs);
        let first = self.first.get_or_insert_with(|| outcome.clone());
        checks.expect(*first == outcome, || {
            "a repetition changed the Table 1 reports or the RPC count".to_owned()
        });

        let nfs_blocks: f64 = self
            .cases
            .iter()
            .map(|c| c.app.io_bytes().blocks(IO_BLOCK) as f64)
            .sum();
        // The native and VM rows each replay the same blocks on local
        // disk.
        let local_blocks = 2.0 * nfs_blocks;
        Rep {
            setup_s,
            wall_s,
            cpu_s,
            work: nfs_blocks + local_blocks,
            layers: vec![
                ("vfs.export_build_s", setup_s),
                ("vmm.run_app_s", run_app_s),
                ("vmm.self_s", run_app_s - nfs_io_s - local_io_s),
                ("vmm.traps", counters.counter("vmm.traps") as f64),
                ("vfs.io_run_s", nfs_io_s),
                ("vfs.ns_per_block", nfs_io_s * 1e9 / nfs_blocks),
                ("vfs.proxy_hits", hits as f64),
                ("vfs.proxy_misses", misses as f64),
                (
                    "vfs.proxy_hit_ratio",
                    hits as f64 / (hits + misses).max(1) as f64,
                ),
                ("vfs.proxy_prefetched", prefetched as f64),
                ("vfs.rpc_round_trips", rpcs as f64),
                ("vfs.rpcs_per_block", rpcs as f64 / nfs_blocks),
                ("storage.io_run_s", local_io_s),
                ("storage.ns_per_block", local_io_s * 1e9 / local_blocks),
            ],
        }
    }
}

//! Substrate performance baseline: wall-clock throughput of the
//! simulation hot paths (event queue, engine loop, LRU and slot
//! containers, metrics, schedulers, overlay routing, proxy, mount,
//! guest PVFS and disk traffic, the sharded synchronizer).
//!
//! Unlike the reproduction binaries, the *measurements* here are host
//! wall-clock rates (operations per second), so values vary by
//! machine; the workloads themselves are still seeded and
//! deterministic. Run with `--json BENCH_simcore.json` to record a
//! perf trajectory point in the `gridvm-bench/v2` schema — the
//! committed `BENCH_simcore.json` at the repo root, recorded in v1, is
//! the first such point, and future substrate PRs are expected to re-run this binary
//! and compare.
//!
//! ```text
//! cargo run --release -p gridvm-bench --bin baseline -- \
//!     --threads 1 --json BENCH_simcore.json
//! ```
//!
//! Use `--threads 1` for recorded baselines: replications run
//! back-to-back instead of contending for cores mid-measurement.

use std::hint::black_box;
use std::time::Duration;

use gridvm_bench::harness::{self, m, Experiment, Measurement, Options, SampleCtx, Scenario};
use gridvm_bench::regional::{build_handoff, REGIONS};
use gridvm_core::multisite::{build_vo, VoConfig};
use gridvm_core::NfsGuestStorage;
use gridvm_sched::{SchedulerKind, TaskId, TaskParams};
use gridvm_simcore::engine::Engine;
use gridvm_simcore::event::EventQueue;
use gridvm_simcore::hist::Histogram;
use gridvm_simcore::lookahead::LookaheadMatrix;
use gridvm_simcore::lru::LruSet;
use gridvm_simcore::metrics::{self, Counter};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::slot::{DenseMap, SlotMap};
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::BlockAddr;
use gridvm_storage::cache::BufferCache;
use gridvm_storage::disk::{AccessKind, DiskModel, DiskProfile};
use gridvm_storage::image::VmImage;
use gridvm_storage::staging::copy_local;
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::protocol::NFS_BLOCK;
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::boot::{boot_read_runs, BootProfile};
use gridvm_vmm::exec::GuestStorage;
use gridvm_vnet::overlay::{NodeId, Overlay};
use gridvm_vnet::sites::SiteTopology;

struct Baseline;

/// Events/operations per sample at full size (quick mode divides by
/// 10).
const FULL_OPS: u64 = 100_000;

/// One sample of a scenario: `n` operations' worth of work (`n` is
/// [`FULL_OPS`], or a tenth of it under `--quick`), drawing its
/// randomness from the sample's generator, measured as
/// `ops_per_sec` plus whatever else the scenario reports.
type Body = fn(u64, &mut SimRng) -> Vec<Measurement>;

/// Every scenario, in report order. A label is also the scenario's
/// seed lineage and its `bench_gate` key, so renaming one re-seeds it
/// and orphans its mean in the committed `BENCH_simcore.json`. The
/// headline (the epilogue's first line) is the first entry.
///
/// The fixed-size shapes (routing sweeps and route churn, mount reads,
/// guest PVFS and disk traffic) repeat their workload on fresh state
/// built outside the timed region, a few milliseconds' worth at full
/// size, and count one operation per run, so `1e6 / ops_per_sec` is
/// one run's time in microseconds.
const SCENARIOS: &[(&str, Body)] = &[
    ("engine: chained events", |n, _| {
        // The Engine::run loop: one chained event at a time, the
        // dominant shape of every reproduction binary. The target
        // threads through the event's words, so the loop never
        // touches the allocator.
        let started = harness::wall_clock();
        let mut en: Engine<u64> = Engine::new();
        let mut world = 0u64;
        en.schedule_in(SimDuration::ZERO, [n, 0], chain);
        en.run(&mut world);
        assert_eq!(world, n);
        rate(n, started.elapsed())
    }),
    ("queue: push+pop random times", |n, rng| {
        let times: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
            .collect();
        let started = harness::wall_clock();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(*t, i);
        }
        while q.pop().is_some() {}
        rate(2 * n, started.elapsed())
    }),
    ("lru: touch-or-insert churn", |n, rng| {
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64() % 8192).collect();
        let started = harness::wall_clock();
        let mut lru = LruSet::new(4096);
        for k in &keys {
            if !lru.touch(k) {
                lru.insert(*k);
            }
        }
        rate(n, started.elapsed())
    }),
    ("proxy: block churn", |n, rng| {
        let churn = n / 10; // proxy ops are block-granular and pricier
        let bs = NFS_BLOCK.as_u64();
        let offsets: Vec<u64> = (0..churn).map(|_| (rng.next_u64() % 2048) * bs).collect();
        let cfg = ProxyConfig {
            cache_blocks: 1024,
            prefetch_depth: 0,
            ..ProxyConfig::default()
        };
        let started = harness::wall_clock();
        let mut proxy = VfsProxy::new(cfg);
        let fh = FileHandle(1);
        let mut pf = Vec::new();
        for o in &offsets {
            if proxy.try_read_hit(fh, *o, bs, SimTime::ZERO).is_none() {
                proxy.note_read_miss(fh, *o, bs, &mut pf);
            }
        }
        rate(churn, started.elapsed())
    }),
    ("overlay: routed packet churn", |n, rng| {
        // Per-packet route lookups against a probed mesh, with
        // periodic measurement churn forcing cache invalidation —
        // the shape of the overlay ablation runs.
        let mut ov = Overlay::new();
        let nodes: Vec<NodeId> = (0..24).map(|_| ov.add_node()).collect();
        ov.probe_mesh(SimTime::ZERO, |a, b| {
            Some(SimDuration::from_micros(
                200 + (u64::from(a.0) * 31 + u64::from(b.0) * 17) % 800,
            ))
        });
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .map(|_| {
                let a = nodes[(rng.next_u64() % 24) as usize];
                let b = nodes[(rng.next_u64() % 24) as usize];
                (a, b)
            })
            .collect();
        let churn: Vec<(NodeId, NodeId, u64)> = (0..n / 4096 + 1)
            .map(|_| {
                let a = nodes[(rng.next_u64() % 24) as usize];
                let b = nodes[(rng.next_u64() % 24) as usize];
                (a, b, 200 + rng.next_u64() % 800)
            })
            .collect();
        let started = harness::wall_clock();
        let mut latency = SimDuration::ZERO;
        for (i, (a, b)) in pairs.iter().enumerate() {
            if i % 4096 == 0 {
                let (x, y, us) = churn[i / 4096];
                if x != y {
                    ov.update_measurement(x, y, SimDuration::from_micros(us));
                }
            }
            let r = ov.route_ref(*a, *b).expect("full mesh is connected");
            latency += r.latency;
        }
        assert!(latency > SimDuration::ZERO);
        rate(n, started.elapsed())
    }),
    ("cache: buffer-cache insert churn", |n, rng| {
        // The buffer cache under VM-disk block churn: touch-or-insert
        // over a working set twice the capacity, the shape
        // `ablation_buffer_cache` sweeps.
        let addrs: Vec<BlockAddr> = (0..n).map(|_| BlockAddr(rng.next_u64() % 8192)).collect();
        let started = harness::wall_clock();
        let mut cache = BufferCache::new(4096);
        for a in &addrs {
            if !cache.touch(*a) {
                cache.insert(*a);
            }
        }
        rate(n, started.elapsed())
    }),
    ("slot: insert/remove/get churn", |n, rng| {
        // The slot layer itself: insert/remove/get churn over a live
        // set of ~1k entries — the per-entity state shape under
        // vnet/vfs/sched/storage hot paths.
        let ops: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let started = harness::wall_clock();
        let mut map: SlotMap<(), u64> = SlotMap::new();
        let mut live: Vec<gridvm_simcore::slot::Handle<()>> = Vec::new();
        let mut sum = 0u64;
        for op in &ops {
            match (op % 4, live.is_empty()) {
                (0, _) | (_, true) => live.push(map.insert(*op)),
                (1, false) => {
                    let h = live.swap_remove((op >> 2) as usize % live.len());
                    sum ^= map.remove(h).expect("live handle");
                }
                (_, false) => {
                    let h = live[(op >> 2) as usize % live.len()];
                    sum ^= *map.get(h).expect("live handle");
                }
            }
        }
        assert!(sum != 1, "keep the loop observable");
        rate(n, started.elapsed())
    }),
    ("shard: cross-shard mailbox churn", |n, rng| {
        // The conservative synchronizer under a hop-heavy VO: 6 sites
        // trading sessions at a 40% hop rate, run at 4 shards on 1
        // worker thread — mailbox drain, window accounting and
        // barrier turnover dominate, which is exactly the overhead
        // this scenario gates.
        let cfg = VoConfig {
            sites: 6,
            sessions_per_site: 8,
            steps_per_session: (n / 48).max(4) as u32,
            hop_per_mille: 400,
            crash_per_mille: 10,
            seed: rng.next_u64(),
            ..VoConfig::paper_vo()
        };
        let started = harness::wall_clock();
        let mut sim = build_vo(&cfg).shards(4).threads(1);
        sim.run();
        assert!(sim.messages() > 0, "hops must cross shard boundaries");
        rate(sim.total_events(), started.elapsed())
    }),
    ("shard: 4-site speedup 1 vs 4 shards", |n, rng| {
        // The acceptance scenario: a 4-site VO with >=100k events per
        // site at full size, executed at 1 shard and again at 4
        // shards. The digests must agree bit-for-bit; the sample
        // records the 4-shard throughput plus two speedup
        // measurements — the honest wall-clock ratio on this machine
        // and the machine-independent critical-path model ratio
        // (sum/max of per-shard window work).
        let cfg = VoConfig {
            sites: 4,
            sessions_per_site: 50,
            steps_per_session: (n / 50).max(4) as u32,
            hop_per_mille: 30,
            crash_per_mille: 10,
            work_draws: 16,
            seed: rng.next_u64(),
        };
        let started1 = harness::wall_clock();
        let mut one = build_vo(&cfg).shards(1).threads(1);
        one.run();
        let wall1 = started1.elapsed();
        let started4 = harness::wall_clock();
        let mut four = build_vo(&cfg).shards(4).threads(0);
        four.run();
        let wall4 = started4.elapsed();
        assert_eq!(
            one.trace_digest(),
            four.trace_digest(),
            "shard count changed the history"
        );
        assert_eq!(one.total_events(), four.total_events());
        let secs4 = wall4.as_secs_f64().max(1e-9);
        vec![
            m("ops_per_sec", four.total_events() as f64 / secs4),
            m("wall_us", secs4 * 1e6),
            m("speedup_wall_x", wall1.as_secs_f64().max(1e-9) / secs4),
            m("speedup_model_x", four.model_speedup()),
        ]
    }),
    ("metrics: histogram record+merge", |n, rng| {
        // The streaming-metrics hot path at macro scale: values land
        // in per-shard log-scale histograms which then roll up into
        // one VO-level summary — the shape of every ext_vo_scale
        // completion record. Gated so the record path stays O(1) and
        // the rollup stays an element-wise integer add.
        let values: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % 1_000_000).collect();
        let started = harness::wall_clock();
        let mut shards: Vec<Histogram> = (0..8).map(|_| Histogram::default()).collect();
        for (i, v) in values.iter().enumerate() {
            shards[i & 7].record(*v);
        }
        let mut merged = Histogram::default();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.count(), n);
        assert!(merged.p999() >= merged.p50());
        rate(n, started.elapsed())
    }),
    ("shard: regional per-pair windows", |n, _| {
        // The per-pair window payoff on a regional VO: the bursty
        // handoff workload run under a uniform matrix at the
        // topology's minimum latency (the global synchronizer) and
        // again under the topology's per-pair matrix. Histories must
        // match bit-for-bit; the sample records the per-pair
        // throughput plus the barrier-window reduction, which the
        // bench gate holds at >= 3x.
        // About n events: one token per region, 24-step bursts per
        // leg.
        let legs = (n / (u64::from(REGIONS) * 24)).max(8) as u32;
        let topo = SiteTopology::regional_vo(REGIONS, 2);
        let uniform =
            LookaheadMatrix::uniform(topo.sites(), topo.lookahead().expect("regional_vo meshes"));
        let mut global = build_handoff(legs)
            .with_lookahead(uniform)
            .shards(4)
            .threads(1);
        global.run();
        let started = harness::wall_clock();
        let mut paired = build_handoff(legs).shards(4).threads(1);
        paired.run();
        let wall = started.elapsed();
        assert_eq!(
            global.trace_digest(),
            paired.trace_digest(),
            "per-pair lookahead changed the history"
        );
        assert_eq!(global.total_events(), paired.total_events());
        assert!(
            paired.windows() * 3 <= global.windows(),
            "window reduction regressed: {} vs {}",
            paired.windows(),
            global.windows()
        );
        let secs = wall.as_secs_f64().max(1e-9);
        vec![
            m("ops_per_sec", paired.total_events() as f64 / secs),
            m("wall_us", secs * 1e6),
            m(
                "window_reduction_x",
                global.windows() as f64 / paired.windows().max(1) as f64,
            ),
        ]
    }),
    ("queue: steady-state pop+push, 1k pending", |n, rng| {
        // Engine::run's steady state on a long simulation: ~1k events
        // pending, pop the earliest and push a successor.
        let times: Vec<SimTime> = (0..1_000)
            .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
            .collect();
        let started = harness::wall_clock();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(*t, i);
        }
        let mut horizon: u64 = 1_000_000;
        for i in 0..n as usize {
            let (t, _) = q.pop().expect("queue stays warm");
            horizon = horizon.max(t.as_nanos() + 1);
            q.push(SimTime::from_nanos(horizon + (i as u64 * 7919) % 10_000), i);
        }
        assert_eq!(q.len(), times.len());
        rate(n, started.elapsed())
    }),
    ("metrics: counter adds by name", |n, _| {
        let started = harness::wall_clock();
        for _ in 0..n {
            metrics::counter_add("baseline.by_name", 1);
        }
        let elapsed = started.elapsed();
        assert_eq!(metrics::take().counter("baseline.by_name"), n);
        rate(n, elapsed)
    }),
    ("metrics: counter adds via handle", |n, _| {
        static BY_HANDLE: Counter = Counter::new("baseline.by_handle");
        let started = harness::wall_clock();
        for _ in 0..n {
            BY_HANDLE.add(1);
        }
        let elapsed = started.elapsed();
        assert_eq!(metrics::take().counter(BY_HANDLE.name()), n);
        rate(n, elapsed)
    }),
    ("dense: get/insert over a 2k-key universe", |n, rng| {
        let ops: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let started = harness::wall_clock();
        let mut map: DenseMap<u64> = DenseMap::new();
        let mut sum = 0u64;
        for op in &ops {
            let key = op % 2048;
            match map.get_mut(key) {
                Some(v) => {
                    *v = v.wrapping_add(*op);
                    sum ^= *v;
                }
                None => {
                    map.insert(key, *op);
                }
            }
        }
        black_box(sum);
        rate(n, started.elapsed())
    }),
    ("lru: in-order cycle over twice the capacity", |n, _| {
        // Keys 0..8192 in order against 4,096 entries: a scan longer
        // than the cache, so every touch misses and every insert evicts
        // ("lru: touch-or-insert churn" hits about half the time).
        let started = harness::wall_clock();
        let mut lru = LruSet::new(4096);
        for i in 0..n {
            let key = i % 8192;
            if !lru.touch(&key) {
                lru.insert(key);
            }
        }
        rate(n, started.elapsed())
    }),
    ("rng: doubles", |n, rng| {
        let started = harness::wall_clock();
        let mut acc = 0.0;
        for _ in 0..n {
            acc += rng.next_f64();
        }
        black_box(acc);
        rate(n, started.elapsed())
    }),
    ("overlay: all-pairs routes, 32 nodes", |n, _| {
        runs(n / 10_000, || full_mesh(32), all_pairs)
    }),
    ("overlay: degrade + reroute cycle, 16 nodes", |n, _| {
        runs(n / 1_000, || full_mesh(16), degrade_and_reroute)
    }),
    ("overlay: route churn, update every 256 packets", |n, _| {
        // Against "overlay: routed packet churn": sixteen times the
        // update rate, so more of the time goes to route recomputation,
        // and 24 fixed pairs in place of random ones.
        runs(n / 100_000, || full_mesh(24), route_churn)
    }),
    ("sched: timeshare select+charge, 32 runnable", |n, rng| {
        quanta(SchedulerKind::TimeShare, n, rng)
    }),
    ("sched: lottery select+charge, 32 runnable", |n, rng| {
        quanta(SchedulerKind::Lottery, n, rng)
    }),
    ("sched: stride select+charge, 32 runnable", |n, rng| {
        quanta(SchedulerKind::Stride, n, rng)
    }),
    ("sched: wfq select+charge, 32 runnable", |n, rng| {
        quanta(SchedulerKind::Wfq, n, rng)
    }),
    ("sched: edf select+charge, 32 runnable", |n, rng| {
        quanta(SchedulerKind::Edf, n, rng)
    }),
    ("proxy: strided block cycle over twice the cache", |n, _| {
        // Blocks i * 769 mod 2048 against 1,024 cached blocks: every
        // 2,048 reads visit all blocks in one fixed order, so every
        // read misses and evicts ("proxy: block churn" hits about half
        // the time).
        let reads = n / 10;
        let bs = NFS_BLOCK.as_u64();
        let cfg = ProxyConfig {
            cache_blocks: 1024,
            prefetch_depth: 0,
            ..ProxyConfig::default()
        };
        let started = harness::wall_clock();
        let mut proxy = VfsProxy::new(cfg);
        let fh = FileHandle(1);
        let mut pf = Vec::new();
        for i in 0..reads {
            let offset = (i * 769 % 2048) * bs;
            if proxy.try_read_hit(fh, offset, bs, SimTime::ZERO).is_none() {
                proxy.note_read_miss(fh, offset, bs, &mut pf);
            }
        }
        rate(reads, started.elapsed())
    }),
    ("proxy: sequential misses with prefetch", |n, _| {
        // A cold default proxy under a sequential read stream: each
        // miss installs the blocks it prefetched, so later reads hit.
        let reads = n / 10;
        let started = harness::wall_clock();
        let mut proxy = VfsProxy::new(ProxyConfig::default());
        let fh = FileHandle(1);
        let mut pf = Vec::new();
        let mut misses = 0u64;
        for i in 0..reads {
            let offset = i * 8192;
            if proxy
                .try_read_hit(fh, offset, 8192, SimTime::ZERO)
                .is_none()
            {
                proxy.note_read_miss(fh, offset, 8192, &mut pf);
                for &(o, l) in &pf {
                    proxy.install(fh, o, l);
                }
                misses += 1;
            }
        }
        black_box(misses);
        rate(reads, started.elapsed())
    }),
    ("mount: 4 MiB sequential read over LAN + proxy", |n, _| {
        // Reads a synthetic file, so most of the time goes to
        // generating its bytes.
        let setup = || {
            let mut server = NfsServer::new(ide_disk());
            let root = server.fs().root();
            let f = server
                .fs_mut()
                .create_synthetic(root, "f", ByteSize::from_mib(8), 3, SimTime::ZERO)
                .expect("fresh export");
            let proxy = VfsProxy::new(ProxyConfig::default());
            (Mount::new(Transport::lan(), server, Some(proxy)), f)
        };
        runs(n / 100_000, setup, |(mut mount, f)| {
            let (done, r) = mount.read_range(SimTime::ZERO, f, 0, 4 * 1024 * 1024);
            r.expect("read succeeds");
            done
        })
    }),
    ("guest PVFS: 64 zero-write runs of 64 blocks", |n, _| {
        // The proxy's write-behind path: each run goes into the
        // buffer in as few steps as its room allows, with a WRITE RPC
        // for each block that flushes it.
        runs(n / 10_000, pvfs_guest, |mut s| guest_runs(&mut s, true))
    }),
    ("guest PVFS: 64 read runs of 64 hole blocks", |n, _| {
        // Sequential reads of holes: the proxy's prefetch path, and
        // a hit run over the blocks each miss prefetched.
        runs(n / 10_000, pvfs_guest, |mut s| guest_runs(&mut s, false))
    }),
    ("cache: sequential inserts at capacity", |n, _| {
        // Addresses 0..8192 in order against 4,096 blocks: every touch
        // misses, each insert extends the newest extent and each
        // eviction trims the oldest one, where the random addresses of
        // "cache: buffer-cache insert churn" mostly make one-block
        // extents and split them on hits.
        let started = harness::wall_clock();
        let mut cache = BufferCache::new(4096);
        for i in 0..n {
            let a = BlockAddr(i % 8192);
            if !cache.touch(a) {
                cache.insert(a);
            }
        }
        rate(n, started.elapsed())
    }),
    ("disk: NFS-server boot reads, 8 instances", |n, _| {
        // Ablation A1's proxy-off traffic as the NFS daemon charges it
        // (`gridvm_vfs::server`): one `DiskModel::access` per 8 KiB
        // block of every boot run, for eight instances booting one
        // image. The first misses, the other seven hit block by block.
        let (image, boot_runs) = boot_image();
        let per_nfs_block = NFS_BLOCK.as_u64() / ByteSize::from(image.block_size).as_u64();
        runs(n / 50_000, ide_disk, |mut d| {
            let mut t = SimTime::ZERO;
            for _ in 0..8 {
                for (start, len) in &boot_runs {
                    let first = start.0 / per_nfs_block;
                    let last = (start.0 + len - 1) / per_nfs_block;
                    for block in first..=last {
                        // The daemon mixes the image's file handle (2)
                        // into the disk address: `fh << 40 | block`.
                        let addr = BlockAddr(2 << 40 | block);
                        t = d.access(t, addr, AccessKind::Read).finish;
                    }
                }
            }
            t
        })
    }),
    ("disk: boot access_runs, cold then warm", |n, _| {
        // One boot's scattered working set (12,800 blocks in runs of
        // one to five) through `access_run`, twice.
        let (_, boot_runs) = boot_image();
        runs(n / 10_000, ide_disk, |mut d| {
            let t = boot(&mut d, &boot_runs, 0, SimTime::ZERO);
            boot(&mut d, &boot_runs, 0, t)
        })
    }),
    ("disk: 2 GiB image copy, then boot from the copy", |n, _| {
        // Table 2's persistent rows: a 2 GiB `copy_local` (524,288
        // blocks read, then written, through a cache an eighth that
        // size) and a boot from the copy.
        let (image, boot_runs) = boot_image();
        runs(n / 20_000, ide_disk, |mut d| {
            let copy = image.disk_blocks();
            let r = copy_local(
                &mut d,
                image.disk_size.into(),
                BlockAddr(copy),
                SimTime::ZERO,
            );
            boot(&mut d, &boot_runs, copy, r.finished)
        })
    }),
];

impl Experiment for Baseline {
    fn title(&self) -> &str {
        "substrate perf baseline (wall-clock, machine-dependent)"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        SCENARIOS
            .iter()
            .enumerate()
            .map(|(i, (label, _))| Scenario::new(i, *label, opts.samples_or(5)))
            .collect()
    }

    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement> {
        let n = if opts.quick { FULL_OPS / 10 } else { FULL_OPS };
        (SCENARIOS[scenario.index].1)(n, &mut ctx.rng())
    }

    fn epilogue(&self, report: &harness::ExperimentReport, _opts: &Options) -> Option<String> {
        let engine = report.scenarios.first()?;
        let mut line = format!(
            "headline: event throughput {:.0} events/sec (engine chained-event loop, mean of {} samples)",
            engine.mean("ops_per_sec"),
            engine.stats("ops_per_sec").map(|s| s.count()).unwrap_or(0),
        );
        for s in &report.scenarios {
            if s.stats("speedup_wall_x").is_some() {
                line.push_str(&format!(
                    "\nshard speedup at 4 shards: {:.2}x wall on this machine, {:.2}x critical-path model",
                    s.mean("speedup_wall_x"),
                    s.mean("speedup_model_x"),
                ));
            }
            if s.stats("window_reduction_x").is_some() {
                line.push_str(&format!(
                    "\nper-pair lookahead on regional VO: {:.1}x fewer barrier windows at identical history",
                    s.mean("window_reduction_x"),
                ));
            }
        }
        Some(line)
    }
}

/// `ops_per_sec` and `wall_us` for `ops` operations in `elapsed`.
fn rate(ops: u64, elapsed: Duration) -> Vec<Measurement> {
    let secs = elapsed.as_secs_f64().max(1e-9);
    vec![
        m("ops_per_sec", ops as f64 / secs),
        m("wall_us", secs * 1e6),
    ]
}

/// Times `count` runs (at least one) of `work`, each on fresh state
/// from `setup`, which stays outside the timed region; one run counts
/// as one operation.
fn runs<S, R>(
    count: u64,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(S) -> R,
) -> Vec<Measurement> {
    let count = count.max(1);
    let mut busy = Duration::ZERO;
    for _ in 0..count {
        let state = setup();
        let started = harness::wall_clock();
        black_box(work(state));
        busy += started.elapsed();
    }
    rate(count, busy)
}

/// One self-rescheduling simulation event; the target count rides in
/// the event's first word.
fn chain(words: [u64; 2], w: &mut u64, en: &mut Engine<u64>) {
    *w += 1;
    if *w < words[0] {
        en.schedule_in(SimDuration::from_micros(10), words, chain);
    }
}

/// An `n`-node overlay with every pair probed.
fn full_mesh(n: u32) -> Overlay {
    let mut ov = Overlay::new();
    for _ in 0..n {
        ov.add_node();
    }
    ov.probe_mesh(SimTime::ZERO, |a, b| {
        Some(SimDuration::from_millis(
            5 + (u64::from(a.0) * 31 + u64::from(b.0) * 17) % 80,
        ))
    });
    ov
}

/// Routes every ordered pair of a freshly probed mesh.
fn all_pairs(mut ov: Overlay) -> SimDuration {
    let nodes = ov.nodes().to_vec();
    let mut total = SimDuration::ZERO;
    for a in &nodes {
        for z in &nodes {
            if a != z {
                total += ov.route(*a, *z).expect("connected").latency;
            }
        }
    }
    total
}

/// Sixteen cycles of degrading one link to 500 ms and rerouting
/// around it.
fn degrade_and_reroute(mut ov: Overlay) -> u64 {
    let nodes = ov.nodes().to_vec();
    for i in 0..16 {
        let a = nodes[i % nodes.len()];
        let z = nodes[(i * 7 + 3) % nodes.len()];
        if a != z {
            ov.update_measurement(a, z, SimDuration::from_millis(500));
            ov.route(a, z).expect("connected");
        }
    }
    ov.reroutes()
}

/// Routes 10k packets through a freshly probed 24-node mesh, cycling
/// through 24 fixed pairs, and updates one link's measurement every
/// 256 packets.
fn route_churn(mut ov: Overlay) -> SimDuration {
    let nodes = ov.nodes().to_vec();
    let mut total = SimDuration::ZERO;
    for i in 0..10_000usize {
        if i % 256 == 0 {
            let a = nodes[i / 256 % nodes.len()];
            let z = nodes[(i / 256 * 5 + 1) % nodes.len()];
            if a != z {
                ov.update_measurement(a, z, SimDuration::from_millis(5 + (i as u64 % 80)));
            }
        }
        let a = nodes[i * 7919 % nodes.len()];
        let z = nodes[(i * 104_729 + 1) % nodes.len()];
        if a != z {
            total += ov.route_ref(a, z).expect("connected").latency;
        }
    }
    total
}

/// `n / 50` scheduling quanta of `kind` over 32 runnable tasks on two
/// cores (every fourth task holds an EDF reservation), as `HostSim`
/// runs them: `select_into` a held buffer, then charge each pick a
/// full 10 ms quantum.
fn quanta(kind: SchedulerKind, n: u64, rng: &mut SimRng) -> Vec<Measurement> {
    let mut s = kind.build();
    let ids: Vec<TaskId> = (0..32).map(TaskId).collect();
    for id in &ids {
        let params = if kind == SchedulerKind::Edf && id.0 % 4 == 0 {
            TaskParams::with_reservation(SimDuration::from_millis(100), SimDuration::from_millis(2))
        } else {
            TaskParams::with_weight(100 + id.0 as u32)
        };
        s.add_task(*id, params);
    }
    let quantum = SimDuration::from_millis(10);
    let mut now = SimTime::ZERO;
    let mut picked = Vec::with_capacity(2);
    let decisions = n / 50;
    let started = harness::wall_clock();
    for _ in 0..decisions {
        s.select_into(&ids, 2, now, quantum, rng, &mut picked);
        for id in &picked {
            s.charge(*id, quantum);
        }
        now += quantum;
    }
    rate(decisions, started.elapsed())
}

/// Blocks per guest I/O run, as `vmm::exec::run_app` streams them.
const RUN: u64 = 64;
/// Runs per guest-traffic workload: 32 MiB of 8 KiB blocks.
const RUNS: u64 = 64;

/// A fresh Table 1 `VM, PVFS` guest store: a presized all-hole state
/// file on its own server, mounted over the WAN through a cold
/// default proxy.
fn pvfs_guest() -> NfsGuestStorage {
    let mut server = NfsServer::new(ide_disk());
    let root = server.fs().root();
    let fs = server.fs_mut();
    let file = fs
        .create(root, "vmstate", SimTime::ZERO)
        .expect("fresh export");
    let last = RUN * RUNS * NFS_BLOCK.as_u64() - 1;
    fs.write(file, last, &[0], SimTime::ZERO)
        .expect("presize the state file");
    let proxy = VfsProxy::new(ProxyConfig::default());
    let mount = Mount::new(Transport::wan(), server, Some(proxy));
    NfsGuestStorage::new(mount, file, SimDuration::ZERO, "PVFS")
}

/// Streams the whole state file through `storage` in 64-block runs.
fn guest_runs(storage: &mut NfsGuestStorage, write: bool) -> SimTime {
    let mut t = SimTime::ZERO;
    for k in 0..RUNS {
        t = storage.io_run(t, BlockAddr(k * RUN), RUN, write);
    }
    t
}

/// The stock guest image and its boot's read runs.
fn boot_image() -> (VmImage, Vec<(BlockAddr, u64)>) {
    let image = VmImage::redhat_guest("rh72");
    let runs = boot_read_runs(&image, &BootProfile::default());
    (image, runs)
}

/// A fresh `ide_2003` disk: a cold 65,536-block buffer cache.
fn ide_disk() -> DiskModel {
    DiskModel::new(DiskProfile::ide_2003())
}

/// Replays boot `runs` through `access_run` from block `offset` on.
fn boot(disk: &mut DiskModel, runs: &[(BlockAddr, u64)], offset: u64, mut t: SimTime) -> SimTime {
    for (start, len) in runs {
        t = disk
            .access_run(t, BlockAddr(start.0 + offset), *len, AccessKind::Read)
            .finish;
    }
    t
}

fn main() {
    harness::run_main(&Baseline);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_scenario_runs_under_a_unique_label_and_every_gated_label_exists() {
        let labels: BTreeSet<&str> = SCENARIOS.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels.len(), SCENARIOS.len(), "duplicate scenario label");
        for (label, body) in SCENARIOS {
            let ms = body(1_000, &mut SimRng::seed_from(1));
            let ops = ms.iter().find(|x| x.name == "ops_per_sec").unwrap().value;
            assert!(ops.is_finite() && ops > 0.0, "{label}: ops_per_sec {ops}");
        }
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let gated: Vec<&str> = ci
            .split("--gate \"")
            .skip(1)
            .map(|rest| rest.split_once('"').unwrap().0.rsplit_once('=').unwrap().0)
            .collect();
        assert!(!gated.is_empty(), "found no --gate in ci.yml");
        for label in gated {
            assert!(
                labels.contains(label),
                "CI gates {label:?}, which no scenario has"
            );
        }
    }
}

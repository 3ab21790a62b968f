//! Substrate performance baseline: wall-clock throughput of the
//! simulation hot paths (event queue, engine loop, LRU caches, proxy
//! churn, metrics counters).
//!
//! Unlike the reproduction binaries, the *measurements* here are host
//! wall-clock rates (operations per second), so values vary by
//! machine; the workloads themselves are still seeded and
//! deterministic. Run with `--json BENCH_simcore.json` to record a
//! perf trajectory point in the `gridvm-bench/v1` schema — the
//! committed `BENCH_simcore.json` at the repo root is the first such
//! point, and future substrate PRs are expected to re-run this binary
//! and compare.
//!
//! ```text
//! cargo run --release -p gridvm-bench --bin baseline -- \
//!     --threads 1 --json BENCH_simcore.json
//! ```
//!
//! Use `--threads 1` for recorded baselines: replications run
//! back-to-back instead of contending for cores mid-measurement.

use gridvm_bench::harness::{self, m, Experiment, Measurement, Options, SampleCtx, Scenario};
use gridvm_bench::regional::{build_handoff, REGIONS};
use gridvm_core::multisite::{build_vo, VoConfig};
use gridvm_simcore::engine::Engine;
use gridvm_simcore::event::EventQueue;
use gridvm_simcore::hist::Histogram;
use gridvm_simcore::lookahead::LookaheadMatrix;
use gridvm_simcore::lru::LruSet;
use gridvm_simcore::metrics::Counter;
use gridvm_simcore::slot::SlotMap;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_storage::cache::BufferCache;
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::protocol::NFS_BLOCK;
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vnet::overlay::{NodeId, Overlay};
use gridvm_vnet::sites::SiteTopology;

struct Baseline;

/// Scenario labels; `run_sample` dispatches on index.
const SCENARIOS: [&str; 11] = [
    "engine: chained events",
    "queue: push+pop random times",
    "lru: touch-or-insert churn",
    "proxy: block churn",
    "overlay: routed packet churn",
    "cache: buffer-cache insert churn",
    "slot: insert/remove/get churn",
    "shard: cross-shard mailbox churn",
    "shard: 4-site speedup 1 vs 4 shards",
    "metrics: histogram record+merge",
    "shard: regional per-pair windows",
];

/// Events/operations per sample at full size (quick mode divides by
/// 10).
const FULL_OPS: u64 = 100_000;

impl Baseline {
    fn ops(&self, opts: &Options) -> u64 {
        if opts.quick {
            FULL_OPS / 10
        } else {
            FULL_OPS
        }
    }
}

impl Experiment for Baseline {
    fn title(&self) -> &str {
        "substrate perf baseline (wall-clock, machine-dependent)"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        SCENARIOS
            .iter()
            .enumerate()
            .map(|(i, label)| Scenario::new(i, *label, opts.samples_or(5)))
            .collect()
    }

    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement> {
        // Counted through the pre-resolved fast path so the committed
        // baseline exercises it end-to-end.
        BASELINE_SAMPLES.add(1);
        let n = self.ops(opts);
        let mut rng = ctx.rng();
        let (ops, elapsed) = match scenario.index {
            0 => {
                // The Engine::run loop: one chained event at a time,
                // the dominant shape of every reproduction binary.
                // The target threads through the event's words, so the
                // loop never touches the allocator.
                let started = harness::wall_clock();
                let mut en: Engine<u64> = Engine::new();
                let mut world = 0u64;
                en.schedule_in(SimDuration::ZERO, [n, 0], chain);
                en.run(&mut world);
                assert_eq!(world, n);
                (n, started.elapsed())
            }
            1 => {
                let times: Vec<SimTime> = (0..n)
                    .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
                    .collect();
                let started = harness::wall_clock();
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(*t, i);
                }
                while q.pop().is_some() {}
                (2 * n, started.elapsed())
            }
            2 => {
                let keys: Vec<u64> = (0..n).map(|_| rng.next_u64() % 8192).collect();
                let started = harness::wall_clock();
                let mut lru = LruSet::new(4096);
                for k in &keys {
                    if !lru.touch(k) {
                        lru.insert(*k);
                    }
                }
                (n, started.elapsed())
            }
            3 => {
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
                (churn, started.elapsed())
            }
            4 => {
                // Per-packet route lookups against a probed mesh, with
                // periodic measurement churn forcing cache
                // invalidation — the shape of the overlay ablation
                // runs.
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
                (n, started.elapsed())
            }
            5 => {
                // The buffer cache under VM-disk block churn:
                // touch-or-insert over a working set twice the
                // capacity, the shape `ablation_buffer_cache` sweeps.
                let addrs: Vec<BlockAddr> =
                    (0..n).map(|_| BlockAddr(rng.next_u64() % 8192)).collect();
                let started = harness::wall_clock();
                let mut cache = BufferCache::new(4096);
                for a in &addrs {
                    if !cache.touch(*a) {
                        cache.insert(*a);
                    }
                }
                (n, started.elapsed())
            }
            6 => {
                // The slot layer itself: insert/remove/get churn over
                // a live set of ~1k entries — the per-entity state
                // shape under vnet/vfs/sched/storage hot paths.
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
                (n, started.elapsed())
            }
            7 => {
                // The conservative synchronizer under a hop-heavy VO:
                // 6 sites trading sessions at a 40% hop rate, run at 4
                // shards on 1 worker thread — mailbox drain, window
                // accounting and barrier turnover dominate, which is
                // exactly the overhead this scenario gates.
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
                (sim.total_events(), started.elapsed())
            }
            8 => {
                // The acceptance scenario: a 4-site VO with >=100k
                // events per site at full size, executed at 1 shard
                // and again at 4 shards. The digests must agree
                // bit-for-bit; the sample records the 4-shard
                // throughput plus two speedup measurements — the
                // honest wall-clock ratio on this machine and the
                // machine-independent critical-path model ratio
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
                return vec![
                    m("ops_per_sec", four.total_events() as f64 / secs4),
                    m("wall_us", secs4 * 1e6),
                    m("speedup_wall_x", wall1.as_secs_f64().max(1e-9) / secs4),
                    m("speedup_model_x", four.model_speedup()),
                ];
            }
            9 => {
                // The streaming-metrics hot path at macro scale:
                // values land in per-shard log-scale histograms which
                // then roll up into one VO-level summary — the shape
                // of every ext_vo_scale completion record. Gated so
                // the record path stays O(1) and the rollup stays an
                // element-wise integer add.
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
                (n, started.elapsed())
            }
            10 => {
                // The per-pair window payoff on a regional VO: the
                // bursty handoff workload run under a uniform matrix
                // at the topology's minimum latency (the global
                // synchronizer) and again under the topology's
                // per-pair matrix. Histories must match bit-for-bit;
                // the sample records the per-pair throughput plus the
                // barrier-window reduction, which the bench gate holds
                // at >= 3x.
                // About n events: one token per region, 24-step
                // bursts per leg.
                let legs = (n / (u64::from(REGIONS) * 24)).max(8) as u32;
                let topo = SiteTopology::regional_vo(REGIONS, 2);
                let uniform = LookaheadMatrix::uniform(
                    topo.sites(),
                    topo.lookahead().expect("regional_vo meshes"),
                );
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
                return vec![
                    m("ops_per_sec", paired.total_events() as f64 / secs),
                    m("wall_us", secs * 1e6),
                    m(
                        "window_reduction_x",
                        global.windows() as f64 / paired.windows().max(1) as f64,
                    ),
                ];
            }
            other => unreachable!("unknown scenario {other}"),
        };
        let secs = elapsed.as_secs_f64().max(1e-9);
        vec![
            m("ops_per_sec", ops as f64 / secs),
            m("wall_us", secs * 1e6),
        ]
    }

    fn epilogue(&self, report: &harness::ExperimentReport, _opts: &Options) -> Option<String> {
        let engine = report.scenario(SCENARIOS[0])?;
        let mut line = format!(
            "headline: event throughput {:.0} events/sec (engine chained-event loop, mean of {} samples)",
            engine.mean("ops_per_sec"),
            engine.stats("ops_per_sec").map(|s| s.count()).unwrap_or(0),
        );
        if let Some(shard) = report.scenario(SCENARIOS[8]) {
            line.push_str(&format!(
                "\nshard speedup at 4 shards: {:.2}x wall on this machine, {:.2}x critical-path model",
                shard.mean("speedup_wall_x"),
                shard.mean("speedup_model_x"),
            ));
        }
        if let Some(regional) = report.scenario(SCENARIOS[10]) {
            line.push_str(&format!(
                "\nper-pair lookahead on regional VO: {:.1}x fewer barrier windows at identical history",
                regional.mean("window_reduction_x"),
            ));
        }
        Some(line)
    }
}

/// One self-rescheduling simulation event; the target count rides in
/// the event's first word.
fn chain(words: [u64; 2], w: &mut u64, en: &mut Engine<u64>) {
    *w += 1;
    if *w < words[0] {
        en.schedule_in(SimDuration::from_micros(10), words, chain);
    }
}

/// Samples executed, recorded via the metrics counter fast path.
static BASELINE_SAMPLES: Counter = Counter::new("baseline.samples");

fn main() {
    harness::run_main(&Baseline);
}

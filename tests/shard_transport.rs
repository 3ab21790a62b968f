//! Cross-shard transport regressions: the zero-allocation delivery
//! path and the per-(src,dst) window protocol.
//!
//! Every engine event is a function pointer and two words, so local
//! dispatch is allocation-free by construction; these tests pin the
//! same property for the cross-shard mailboxes (every VO message rides
//! its delivery event's two words, and no site's outbox outgrows the
//! room it reserves up front) and pin the per-pair lookahead
//! protocol's contract:
//! under a topology's lookahead matrix and under the uniform matrix at
//! its minimum link latency (the global-lookahead protocol), at every
//! shard/thread packing, the window protocol reproduces the history —
//! trace digests, per-site checksums, metrics — of the sequential
//! reference executor (`ShardedSim::run_sequential`, no windows at
//! all), with strictly fewer barrier windows wherever the topology
//! has latency spread.

use gridvm::core::multisite::{
    build_vo, build_vo_scale, VoConfig, VoScaleConfig, VoScaleSite, VoSite,
};
use gridvm::simcore::lookahead::LookaheadMatrix;
use gridvm::simcore::metrics::{self, Metrics};
use gridvm::simcore::ShardedSim;
use gridvm::vnet::sites::SiteTopology;
use gridvm_bench::regional::{build_handoff, HandoffConfig, HandoffSite};
use proptest::prelude::*;

/// The global-lookahead protocol as a matrix: every pair of the
/// topology's sites at its minimum link latency.
fn global(topo: &SiteTopology) -> LookaheadMatrix {
    LookaheadMatrix::uniform(topo.sites(), topo.lookahead().expect("meshed"))
}

/// Everything two runs must agree on when they claim "same history",
/// regardless of lookahead matrix: the sampled trace digest, per-site
/// work checksums, cross-site message count, total executed events,
/// and every metric that is not synchronizer bookkeeping (`shard.*`
/// legitimately differs between matrices — that's the point of the
/// per-pair bound).
#[derive(Debug, PartialEq)]
struct History {
    digest: u64,
    checksums: Vec<u64>,
    messages: u64,
    total_events: u64,
    counters: Vec<(&'static str, u64)>,
    histogram_count: usize,
}

fn history(
    digest: u64,
    checksums: Vec<u64>,
    messages: u64,
    total_events: u64,
    m: &Metrics,
) -> History {
    History {
        digest,
        checksums,
        messages,
        total_events,
        counters: m
            .counters()
            .filter(|(name, _)| !name.starts_with("shard."))
            .collect(),
        histogram_count: m.histograms().count(),
    }
}

/// Runs a VO world with `run` (the window protocol or the sequential
/// reference) and returns its history and windows.
fn run_vo(mut sim: ShardedSim<VoSite>, run: fn(&mut ShardedSim<VoSite>)) -> (History, u64) {
    metrics::reset();
    run(&mut sim);
    metrics::reset();
    let checksums = (0..sim.sites())
        .map(|i| sim.with_site(i, |s, _| s.world.checksum))
        .collect();
    let m = sim.merged_metrics();
    (
        history(
            sim.trace_digest(),
            checksums,
            sim.messages(),
            sim.total_events(),
            &m,
        ),
        sim.windows(),
    )
}

#[test]
fn steady_state_vo_mailbox_traffic_is_allocation_free() {
    // Every cross-site hop in both VO worlds travels as its delivery
    // event's two words, and no site queues more in one window than
    // its outbox reserves, so steady-state mailbox traffic makes no
    // allocator calls.
    let cfg = VoConfig {
        sites: 6,
        hop_per_mille: 200,
        ..VoConfig::paper_vo()
    };
    let mut sim = build_vo(&cfg).shards(4);
    metrics::reset();
    sim.run();
    metrics::reset();
    let m = sim.merged_metrics();
    assert!(sim.messages() > 100, "the run must cross shard boundaries");
    assert_eq!(m.counter("shard.outbox_regrown"), 0, "outbox regrew");
}

#[test]
fn steady_state_vo_scale_mailbox_traffic_is_allocation_free() {
    let cfg = VoScaleConfig {
        regions: 2,
        sites_per_region: 3,
        sessions: 600,
        steps_per_session: 8,
        hop_per_mille: 200,
        ..VoScaleConfig::reference()
    };
    let mut sim = build_vo_scale(&cfg).shards(3).threads(2);
    metrics::reset();
    sim.run();
    metrics::reset();
    let m = sim.merged_metrics();
    assert!(sim.messages() > 100, "the run must cross shard boundaries");
    assert_eq!(m.counter("shard.outbox_regrown"), 0, "outbox regrew");
}

#[test]
fn per_pair_windows_cut_barriers_threefold_on_the_regional_handoff_world() {
    // The bursty handoff workload (one active site per region,
    // everything else idle) is where the per-pair protocol's wider
    // horizons pay: the nearest *activity* is a WAN region away even
    // though the nearest *link* is metro. Same history, >= 3x fewer
    // barrier windows — the bench gate's regional scenario asserts
    // the same bound from the recorded baseline.
    let cfg = HandoffConfig::reference();
    let run = |mut sim: ShardedSim<HandoffSite>, exec: fn(&mut ShardedSim<HandoffSite>)| {
        metrics::reset();
        exec(&mut sim);
        metrics::reset();
        let checksums: Vec<u64> = (0..cfg.regions as usize * 2)
            .map(|i| sim.with_site(i, |s, _| s.world.checksum))
            .collect();
        let m = sim.merged_metrics();
        (
            history(
                sim.trace_digest(),
                checksums,
                sim.messages(),
                sim.total_events(),
                &m,
            ),
            sim.windows(),
        )
    };
    let topo = SiteTopology::regional_vo(cfg.regions, 2);
    let windowed = |sim: ShardedSim<HandoffSite>| run(sim.shards(4).threads(2), ShardedSim::run);
    let (global_history, global_windows) =
        windowed(build_handoff(&cfg).with_lookahead(global(&topo)));
    let (paired_history, paired_windows) = windowed(build_handoff(&cfg));
    let (oracle_history, _) = run(build_handoff(&cfg), ShardedSim::run_sequential);
    assert_eq!(
        global_history, oracle_history,
        "the global protocol diverged from the sequential reference"
    );
    assert_eq!(
        paired_history, oracle_history,
        "per-pair lookahead diverged from the sequential reference"
    );
    assert!(
        paired_windows * 3 <= global_windows,
        "expected >= 3x fewer windows, got {paired_windows} vs {global_windows}"
    );
}

#[test]
fn per_pair_windows_match_global_history_on_the_scale_world() {
    // The always-active scale world is the adversarial case for the
    // per-pair protocol: every site has pending work, so horizons
    // collapse toward the metro latency and the window win is small.
    // What must hold unconditionally is the contract — identical
    // history, never *more* barriers than the global protocol.
    let cfg = VoScaleConfig {
        regions: 3,
        sites_per_region: 4,
        sessions: 2_000,
        steps_per_session: 10,
        hop_per_mille: 120,
        ..VoScaleConfig::reference()
    };
    let run = |mut sim: ShardedSim<VoScaleSite>, exec: fn(&mut ShardedSim<VoScaleSite>)| {
        metrics::reset();
        exec(&mut sim);
        metrics::reset();
        let checksums = (0..cfg.sites() as usize)
            .map(|i| sim.with_site(i, |s, _| s.world.checksum))
            .collect();
        let m = sim.merged_metrics();
        (
            history(
                sim.trace_digest(),
                checksums,
                sim.messages(),
                sim.total_events(),
                &m,
            ),
            sim.windows(),
        )
    };
    let topo = SiteTopology::regional_vo(cfg.regions, cfg.sites_per_region);
    let windowed = |sim: ShardedSim<VoScaleSite>| run(sim.shards(4), ShardedSim::run);
    let (global_history, global_windows) =
        windowed(build_vo_scale(&cfg).with_lookahead(global(&topo)));
    let (paired_history, paired_windows) = windowed(build_vo_scale(&cfg));
    let (oracle_history, _) = run(build_vo_scale(&cfg), ShardedSim::run_sequential);
    assert_eq!(
        global_history, oracle_history,
        "the global protocol diverged from the sequential reference"
    );
    assert_eq!(
        paired_history, oracle_history,
        "per-pair lookahead diverged from the sequential reference"
    );
    assert!(
        paired_windows <= global_windows,
        "per-pair widened windows: {paired_windows} vs {global_windows}"
    );
}

proptest! {
    /// For any workload shape and seed, the histories under the
    /// topology's matrix and under the uniform matrix at its minimum
    /// latency (the global protocol) are bit-identical to the
    /// sequential reference executor's, and invariant across the full
    /// shard {1,2,4,8} × thread {1,8} sweep. Windows may only shrink
    /// under the topology's matrix.
    #[test]
    fn per_pair_protocol_is_history_identical_for_any_seed(
        seed in 1u64..u64::MAX / 2,
        sites in 2u32..7,
        sessions_per_site in 2u32..7,
        steps_per_session in 10u32..40,
        hop_per_mille in 40u32..400,
    ) {
        let cfg = VoConfig {
            sites,
            sessions_per_site,
            steps_per_session,
            hop_per_mille,
            seed,
            ..VoConfig::paper_vo()
        };
        let uniform = global(&SiteTopology::paper_vo(sites));
        let global_vo = || build_vo(&cfg).with_lookahead(uniform.clone());
        let (oracle, _) = run_vo(build_vo(&cfg), ShardedSim::run_sequential);
        let (global, global_windows) = run_vo(global_vo(), ShardedSim::run);
        let (paired, paired_windows) = run_vo(build_vo(&cfg), ShardedSim::run);
        prop_assert_eq!(&global, &oracle, "the global protocol diverged from the reference");
        prop_assert_eq!(&paired, &oracle, "per-pair lookahead diverged from the reference");
        prop_assert!(
            paired_windows <= global_windows,
            "per-pair widened windows: {} vs {}", paired_windows, global_windows
        );
        for shards in [2usize, 4, 8] {
            for threads in [1usize, 8] {
                let sim = build_vo(&cfg).shards(shards).threads(threads);
                let (got, windows) = run_vo(sim, ShardedSim::run);
                prop_assert_eq!(
                    &got, &paired,
                    "per-pair diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    windows, paired_windows,
                    "window count must not depend on packing"
                );
                let sim = global_vo().shards(shards).threads(threads);
                let (got, windows) = run_vo(sim, ShardedSim::run);
                prop_assert_eq!(
                    &got, &global,
                    "global diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(windows, global_windows);
            }
        }
    }
}

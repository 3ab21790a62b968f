//! The regional handoff world: the bench workload behind the
//! `shard: regional per-pair windows` scenario.
//!
//! One migrating batch job ("token") per region of a
//! [`SiteTopology::regional_vo`] mesh. A token bursts through a run of
//! local work steps at its current site, then hands off to the site's
//! metro partner and goes idle there until the message lands — so at
//! any instant one site per region is active and the rest are silent.
//! That is exactly the shape wide-area VOs exhibit (compute bursts
//! punctuated by transfers) and exactly where the per-(src,dst)
//! lookahead protocol earns its keep: a global-lookahead synchronizer
//! barriers every `min link latency` (5 ms metro), while per-pair
//! horizons let each active site run to the nearest *other region* —
//! 20–45 ms of WAN away — cutting `shard.windows` several-fold at a
//! bit-identical history. A built world re-runs under the global
//! bound with [`ShardedSim::with_lookahead`] and
//! [`LookaheadMatrix::uniform`](gridvm_simcore::lookahead::LookaheadMatrix::uniform)
//! at [`SiteTopology::lookahead`], so the
//! bench can assert digest equality while comparing barrier counts.

use gridvm_simcore::engine::Engine;
use gridvm_simcore::metrics::Counter;
use gridvm_simcore::shard::{ShardWorld, ShardedSim, SiteId, SiteState};
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_vnet::sites::SiteTopology;

/// Work steps executed across all tokens (hot path).
static HANDOFF_STEPS: Counter = Counter::new("handoff.steps");
/// Completed handoff legs (burst + transfer to the metro partner).
static HANDOFF_LEGS: Counter = Counter::new("handoff.legs");

/// Regions in the [`SiteTopology::regional_vo`] mesh; each region
/// holds two metro sites and one token.
pub const REGIONS: u32 = 6;

/// Local work steps a token bursts through per leg. 24-step bursts
/// at [`STEP_GAP`] span ~24 ms against a 5 ms global lookahead, so
/// the per-pair protocol has several windows per burst to merge.
const BURST_STEPS: u64 = 24;

/// Spacing between a token's burst steps.
const STEP_GAP: SimDuration = SimDuration::from_millis(1);

/// One metro site of the handoff world.
#[derive(Debug)]
pub struct HandoffSite {
    partner: SiteId,
    partner_latency: SimDuration,
    /// Fold of every step's work product (digest-comparable).
    pub checksum: u64,
}

impl ShardWorld for HandoffSite {
    /// A token handed over by the metro partner: `[token, legs_left]`,
    /// the region that owns it and the handoffs it still owes after
    /// this one. Its next burst starts at once.
    fn deliver(words: [u64; 2], site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>) {
        let [token, legs_left] = words;
        burst([(token << 32) | BURST_STEPS, legs_left], site, en);
    }
}

/// One token work step; `[token << 32 | steps_left, legs_left]` ride
/// in the event's two words.
fn burst(
    args: [u64; 2],
    site: &mut SiteState<HandoffSite>,
    en: &mut Engine<SiteState<HandoffSite>>,
) {
    let [word, legs_left] = args;
    let (token, steps_left) = (word >> 32, word & 0xffff_ffff);
    HANDOFF_STEPS.add(1);
    let w = &mut site.world;
    w.checksum ^= (token.rotate_left((steps_left % 63) as u32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ en.now().as_nanos();
    if steps_left > 0 {
        en.schedule_in(
            STEP_GAP,
            [(token << 32) | (steps_left - 1), legs_left],
            burst,
        );
        return;
    }
    HANDOFF_LEGS.add(1);
    if legs_left > 0 {
        let (partner, at) = (w.partner, en.now() + w.partner_latency);
        site.send(partner, at, [token, legs_left - 1]);
    } else {
        site.trace
            .record(en.now(), "handoff", format_args!("token {token} retired"));
    }
}

/// Builds the handoff world over `regional_vo(REGIONS, 2)`: one
/// token per region starting its first burst at a per-region stagger,
/// handing off between the region's two metro sites until its `legs`
/// handoffs run out, synchronized by the topology's lookahead matrix.
/// Configure shards/threads on the returned sim and run it; compare
/// `windows()` against the same world under
/// [`LookaheadMatrix::uniform`](gridvm_simcore::lookahead::LookaheadMatrix::uniform)
/// at equal trace digests and checksums.
pub fn build_handoff(legs: u32) -> ShardedSim<HandoffSite> {
    let topo = SiteTopology::regional_vo(REGIONS, 2);
    let n = topo.sites() as u32;
    let mut sim = ShardedSim::new(
        topo.lookahead_matrix(),
        (0..n).map(|i| {
            let partner = SiteId(i ^ 1);
            HandoffSite {
                partner,
                partner_latency: topo.latency(SiteId(i), partner).expect("metro pair"),
                checksum: 0,
            }
        }),
    );
    for r in 0..REGIONS {
        sim.with_site((2 * r) as usize, |_, en| {
            // Stagger region starts so same-instant pileups don't mask
            // ordering differences between the protocols.
            let start = SimTime::ZERO + SimDuration::from_micros(137 * u64::from(r));
            en.schedule_at(
                start,
                [(u64::from(r) << 32) | BURST_STEPS, u64::from(legs)],
                burst,
            );
        });
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::lookahead::LookaheadMatrix;
    use gridvm_simcore::metrics;

    fn run(
        sim: ShardedSim<HandoffSite>,
        shards: usize,
        threads: usize,
    ) -> (u64, Vec<u64>, u64, u64) {
        let mut sim = sim.shards(shards).threads(threads);
        metrics::reset();
        sim.run();
        metrics::reset();
        let checksums = (0..sim.sites())
            .map(|i| sim.with_site(i, |s, _| s.world.checksum))
            .collect();
        (sim.trace_digest(), checksums, sim.messages(), sim.windows())
    }

    #[test]
    fn tokens_complete_their_legs_and_histories_match_across_protocols() {
        let legs = 12;
        let topo = SiteTopology::regional_vo(REGIONS, 2);
        let global =
            LookaheadMatrix::uniform(topo.sites(), topo.lookahead().expect("regional_vo meshes"));
        let (digest, checksums, messages, paired_windows) = run(build_handoff(legs), 4, 2);
        let (gdigest, gchecksums, gmessages, global_windows) =
            run(build_handoff(legs).with_lookahead(global), 4, 2);
        assert_eq!(digest, gdigest, "protocols diverged");
        assert_eq!(checksums, gchecksums);
        assert_eq!(messages, gmessages);
        let mut oracle = build_handoff(legs);
        metrics::reset();
        oracle.run_sequential();
        metrics::reset();
        assert_eq!(
            oracle.trace_digest(),
            digest,
            "diverged from the sequential reference"
        );
        assert_eq!(oracle.messages(), messages);
        assert_eq!(messages, u64::from(REGIONS) * u64::from(legs));
        assert!(
            paired_windows * 3 <= global_windows,
            "expected >= 3x fewer windows, got {paired_windows} vs {global_windows}"
        );
    }

    #[test]
    fn handoff_world_is_packing_invariant() {
        let want = run(build_handoff(8), 1, 1);
        for (shards, threads) in [(2, 1), (4, 4), (12, 3)] {
            assert_eq!(
                run(build_handoff(8), shards, threads),
                want,
                "shards={shards}"
            );
        }
    }
}

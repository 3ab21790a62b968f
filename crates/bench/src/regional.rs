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

/// Shape of one regional handoff run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffConfig {
    /// Regions in the [`SiteTopology::regional_vo`] mesh; each region
    /// holds two metro sites and one token.
    pub regions: u32,
    /// Local work steps a token bursts through per leg.
    pub burst_steps: u32,
    /// Spacing between a token's burst steps.
    pub step_gap: SimDuration,
    /// Handoffs each token performs before retiring.
    pub legs: u32,
}

impl HandoffConfig {
    /// The reference shape: 6 regions, 24-step bursts at 1 ms, 64
    /// legs — bursts span ~24 ms against a 5 ms global lookahead, so
    /// the per-pair protocol has several windows per burst to merge.
    pub fn reference() -> Self {
        HandoffConfig {
            regions: 6,
            burst_steps: 24,
            step_gap: SimDuration::from_millis(1),
            legs: 64,
        }
    }
}

/// A token handed to the metro partner: the cross-shard message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffMsg {
    /// Token id (the region that owns it).
    pub token: u64,
    /// Handoffs still owed after this one.
    pub legs_left: u32,
}

/// One metro site of the handoff world.
#[derive(Debug)]
pub struct HandoffSite {
    partner: SiteId,
    partner_latency: SimDuration,
    step_gap: SimDuration,
    burst_steps: u32,
    /// Fold of every step's work product (digest-comparable).
    pub checksum: u64,
    /// Legs completed at this site.
    pub legs_done: u64,
}

impl ShardWorld for HandoffSite {
    type Msg = HandoffMsg;

    fn deliver(msg: HandoffMsg, site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>) {
        let steps = u64::from(site.world.burst_steps);
        burst(
            [(msg.token << 32) | steps, u64::from(msg.legs_left)],
            site,
            en,
        );
    }

    fn encode_msg(msg: HandoffMsg) -> [u64; 2] {
        [msg.token, u64::from(msg.legs_left)]
    }

    fn decode_msg(words: [u64; 2]) -> HandoffMsg {
        HandoffMsg {
            token: words[0],
            legs_left: words[1] as u32,
        }
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
        let gap = w.step_gap;
        en.schedule_in(gap, [(token << 32) | (steps_left - 1), legs_left], burst);
        return;
    }
    w.legs_done += 1;
    HANDOFF_LEGS.add(1);
    if legs_left > 0 {
        let (partner, at) = (w.partner, en.now() + w.partner_latency);
        site.send(
            partner,
            at,
            HandoffMsg {
                token,
                legs_left: (legs_left - 1) as u32,
            },
        );
    } else {
        site.trace
            .record(en.now(), "handoff", format_args!("token {token} retired"));
    }
}

/// Builds the handoff world over `regional_vo(cfg.regions, 2)`: one
/// token per region starting its first burst at a per-region stagger,
/// handing off between the region's two metro sites until its legs
/// run out, synchronized by the topology's lookahead matrix.
/// Configure shards/threads on the returned sim and run it; compare
/// `windows()` against the same world under
/// [`LookaheadMatrix::uniform`](gridvm_simcore::lookahead::LookaheadMatrix::uniform)
/// at equal trace digests and checksums.
///
/// # Panics
///
/// Panics when `cfg.regions` is zero.
pub fn build_handoff(cfg: &HandoffConfig) -> ShardedSim<HandoffSite> {
    assert!(cfg.regions > 0, "a handoff world needs at least one region");
    let topo = SiteTopology::regional_vo(cfg.regions, 2);
    let n = topo.sites() as u32;
    let mut sim = ShardedSim::new(
        topo.lookahead_matrix(),
        (0..n).map(|i| {
            let partner = SiteId(i ^ 1);
            HandoffSite {
                partner,
                partner_latency: topo.latency(SiteId(i), partner).expect("metro pair"),
                step_gap: cfg.step_gap,
                burst_steps: cfg.burst_steps,
                checksum: 0,
                legs_done: 0,
            }
        }),
    );
    for r in 0..cfg.regions {
        sim.with_site((2 * r) as usize, |site, en| {
            let steps = u64::from(site.world.burst_steps);
            // Stagger region starts so same-instant pileups don't mask
            // ordering differences between the protocols.
            let start = SimTime::ZERO + SimDuration::from_micros(137 * u64::from(r));
            en.schedule_at(
                start,
                [(u64::from(r) << 32) | steps, u64::from(cfg.legs)],
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
        let cfg = HandoffConfig {
            legs: 12,
            ..HandoffConfig::reference()
        };
        let topo = SiteTopology::regional_vo(cfg.regions, 2);
        let global =
            LookaheadMatrix::uniform(topo.sites(), topo.lookahead().expect("regional_vo meshes"));
        let (digest, checksums, messages, paired_windows) = run(build_handoff(&cfg), 4, 2);
        let (gdigest, gchecksums, gmessages, global_windows) =
            run(build_handoff(&cfg).with_lookahead(global), 4, 2);
        assert_eq!(digest, gdigest, "protocols diverged");
        assert_eq!(checksums, gchecksums);
        assert_eq!(messages, gmessages);
        let mut oracle = build_handoff(&cfg);
        metrics::reset();
        oracle.run_sequential();
        metrics::reset();
        assert_eq!(
            oracle.trace_digest(),
            digest,
            "diverged from the sequential reference"
        );
        assert_eq!(oracle.messages(), messages);
        assert_eq!(messages, u64::from(cfg.regions) * u64::from(cfg.legs));
        assert!(
            paired_windows * 3 <= global_windows,
            "expected >= 3x fewer windows, got {paired_windows} vs {global_windows}"
        );
    }

    #[test]
    fn handoff_world_is_packing_invariant() {
        let cfg = HandoffConfig {
            legs: 8,
            ..HandoffConfig::reference()
        };
        let want = run(build_handoff(&cfg), 1, 1);
        for (shards, threads) in [(2, 1), (4, 4), (12, 3)] {
            assert_eq!(
                run(build_handoff(&cfg), shards, threads),
                want,
                "shards={shards}"
            );
        }
    }
}

//! Multi-site virtual-organization sessions over the sharded
//! conservative simulator: grid sessions doing work at their home
//! site, hopping across inter-site links (migration / remote data
//! sessions), and recovering from crashes — all routed through the
//! shard boundaries of [`gridvm_simcore::shard`].
//!
//! This is the macro-scenario world the PDES layer exists for: one
//! simulated virtual organization with many concurrent sessions per
//! site, where cross-site traffic (a session migrating to a remote
//! site, in the spirit of Section 3.1's VM migration) flows through
//! the deterministic per-site outboxes and everything local —
//! work steps, crash/retry recovery — stays on the site's own event
//! queue. Results are bit-identical at any shard/thread count; the
//! shard sweep in `tests/determinism.rs` and the sharded golden trace
//! pin exactly that.
//!
//! ```
//! use gridvm_core::multisite::{build_vo, VoConfig};
//!
//! let cfg = VoConfig { sites: 3, sessions_per_site: 4, steps_per_session: 20, ..VoConfig::paper_vo() };
//! let mut sim = build_vo(&cfg).shards(3);
//! sim.run();
//! let m = sim.merged_metrics();
//! assert_eq!(m.counter("vo.sessions_completed"), 3 * 4);
//! ```

use gridvm_simcore::engine::Engine;
use gridvm_simcore::metrics::{self, Counter};
use gridvm_simcore::replication::{derive_seed_sharded, derive_seed_stream};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::shard::{ShardWorld, ShardedSim, SiteId, SiteState};
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::trace::TraceLog;
use gridvm_vnet::sites::SiteTopology;

/// Shape of one multi-site VO experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoConfig {
    /// Number of sites (fully meshed via
    /// [`SiteTopology::paper_vo`]).
    pub sites: u32,
    /// Concurrent sessions started at each site.
    pub sessions_per_site: u32,
    /// Work steps each session executes before completing.
    pub steps_per_session: u32,
    /// Per-mille probability that a step hops the session to a remote
    /// site (a cross-shard mailbox message).
    pub hop_per_mille: u32,
    /// Per-mille probability that a step crashes and the session
    /// recovers locally after a retry delay.
    pub crash_per_mille: u32,
    /// Nominal spacing between a session's work steps (jittered per
    /// step by the site's RNG stream).
    pub step_spacing: SimDuration,
    /// RNG draws folded per step — the stand-in for scheduler/VMM
    /// bookkeeping cost, so per-event work is realistic in benches.
    pub work_draws: u32,
    /// Master seed; site `i` draws from
    /// [`derive_seed_sharded`]`(seed, 0, i)`.
    pub seed: u64,
}

impl VoConfig {
    /// The reference configuration: 4 sites, 8 sessions each, 50
    /// steps per session, 6% hop and 1.5% crash rates, 200 µs step
    /// spacing, seeded with the paper's publication date.
    pub fn paper_vo() -> Self {
        VoConfig {
            sites: 4,
            sessions_per_site: 8,
            steps_per_session: 50,
            hop_per_mille: 60,
            crash_per_mille: 15,
            step_spacing: SimDuration::from_micros(200),
            work_draws: 8,
            seed: 20030517,
        }
    }
}

/// One site's world: its seeded RNG stream, link latencies to every
/// peer, the session parameters, and tallies.
#[derive(Debug)]
pub struct VoSite {
    rng: SimRng,
    latency_to: Vec<SimDuration>,
    peers: u32,
    hop_per_mille: u32,
    crash_per_mille: u32,
    step_spacing: SimDuration,
    retry_delay: SimDuration,
    work_draws: u32,
    /// Work steps executed at this site.
    pub steps: u64,
    /// Sessions that finished at this site.
    pub completed: u64,
    /// Sessions this site handed to a remote site.
    pub hops_out: u64,
    /// Sessions that arrived here from a remote site.
    pub hops_in: u64,
    /// Crash→retry recoveries executed at this site.
    pub recoveries: u64,
    /// Fold of every step's work product — keeps the per-step work
    /// observable (and the whole history digest-comparable).
    pub checksum: u64,
}

impl ShardWorld for VoSite {
    /// A session hopping in from a remote site: `[session,
    /// steps_left]`, the words of its next work step.
    fn deliver(words: [u64; 2], site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>) {
        site.world.hops_in += 1;
        // The session resumes at its arrival instant on the new home
        // site's own queue and RNG stream.
        step(words, site, en);
    }

    fn flush_metrics(&mut self) {
        // The hot path tallies into plain fields (one integer add per
        // step); the run publishes them here, once per site.
        VO_STEPS.add(self.steps);
        VO_COMPLETED.add(self.completed);
        VO_HOPS.add(self.hops_out);
        VO_HOPS_IN.add(self.hops_in);
        VO_RECOVERIES.add(self.recoveries);
    }
}

/// One session work step; `[session, steps_left]` ride in the event's
/// two words.
fn step(args: [u64; 2], site: &mut SiteState<VoSite>, en: &mut Engine<SiteState<VoSite>>) {
    let [session, steps_left] = args;
    let my_id = site.id().0;
    let w = &mut site.world;
    w.steps += 1;
    // Deterministic per-step work: the scheduler/VMM bookkeeping this
    // session would cost, folded so the optimizer cannot drop it.
    let mut acc = session ^ steps_left;
    for _ in 0..w.work_draws {
        acc = acc.rotate_left(7) ^ w.rng.next_u64();
    }
    w.checksum ^= acc;
    if steps_left == 0 {
        w.completed += 1;
        site.trace
            .record(en.now(), "vo", format_args!("session {session} completed"));
        return;
    }
    let draw = w.rng.next_below(1000) as u32;
    if draw < w.hop_per_mille && w.peers > 1 {
        // Migrate to a uniformly chosen remote site; the arrival time
        // is one link latency out, which is >= the lookahead by the
        // topology's construction.
        let offset = 1 + w.rng.next_below(u64::from(w.peers) - 1) as u32;
        let dst = SiteId((my_id + offset) % w.peers);
        let at = en.now() + w.latency_to[dst.index()];
        w.hops_out += 1;
        site.send(dst, at, [session, steps_left - 1]);
    } else if draw < w.hop_per_mille + w.crash_per_mille {
        // Crash: the step is lost and retried after the recovery
        // delay, same site, same remaining work — the self-healing
        // session semantics of `recovery`, at shard scale.
        w.recoveries += 1;
        let delay = w.retry_delay;
        site.trace
            .record(en.now(), "vo", format_args!("session {session} recovering"));
        en.schedule_in(delay, [session, steps_left], step);
    } else {
        let jitter = w.rng.next_below(w.step_spacing.as_nanos() / 4 + 1);
        let delay = w.step_spacing + SimDuration::from_nanos(jitter);
        en.schedule_in(delay, [session, steps_left - 1], step);
    }
}

/// Builds the multi-site VO world over [`SiteTopology::paper_vo`]:
/// one [`VoSite`] per site with its own derived seed, every session's
/// first step scheduled, and the synchronizer driven by the
/// topology's per-(src,dst) lookahead matrix. Configure shards/threads
/// on the returned sim and [`run`](ShardedSim::run) it.
///
/// # Panics
///
/// Panics when `cfg.sites` is zero.
pub fn build_vo(cfg: &VoConfig) -> ShardedSim<VoSite> {
    assert!(cfg.sites > 0, "a VO needs at least one site");
    let topo = SiteTopology::paper_vo(cfg.sites);
    let retry_delay = SimDuration::from_nanos(cfg.step_spacing.as_nanos() * 4);
    let mut sim = ShardedSim::new(
        topo.lookahead_matrix(),
        (0..cfg.sites).map(|i| VoSite {
            rng: SimRng::seed_from(derive_seed_sharded(cfg.seed, 0, u64::from(i))),
            latency_to: (0..cfg.sites)
                .map(|j| {
                    if i == j {
                        SimDuration::ZERO
                    } else {
                        topo.latency(SiteId(i), SiteId(j)).expect("paper_vo meshes")
                    }
                })
                .collect(),
            peers: cfg.sites,
            hop_per_mille: cfg.hop_per_mille,
            crash_per_mille: cfg.crash_per_mille,
            step_spacing: cfg.step_spacing,
            retry_delay,
            work_draws: cfg.work_draws,
            steps: 0,
            completed: 0,
            hops_out: 0,
            hops_in: 0,
            recoveries: 0,
            checksum: 0,
        }),
    );
    for i in 0..cfg.sites as usize {
        sim.with_site(i, |site, en| {
            for k in 0..cfg.sessions_per_site {
                let session =
                    u64::from(site.id().0) * u64::from(cfg.sessions_per_site) + u64::from(k);
                // Stagger session starts across one spacing interval
                // so same-instant pileups don't mask ordering bugs.
                let start = site
                    .world
                    .rng
                    .next_below(cfg.step_spacing.as_nanos().max(1));
                en.schedule_at(
                    SimTime::ZERO + SimDuration::from_nanos(start),
                    [session, u64::from(cfg.steps_per_session)],
                    step,
                );
            }
        });
    }
    sim
}

// --- The macro-scale VO world -----------------------------------------
//
// `build_vo` carries tens of sessions; the macro-scale world carries
// 10⁵–10⁶ across hundreds of sites, which forces three structural
// changes. Sessions are not per-session state anywhere: a session is
// two u64 words riding inside its current event (id + remaining steps
// packed in one, the start instant in the other), so memory is
// O(active sessions), and active sessions are bounded by the arrival
// process, not the total. Observability is streaming: completions
// land in log-scale histograms (`vo.slowdown_x1000`, `vo.session_us`,
// `vo.complete_us` — constant memory, integer-exact merge) and traces
// go through seeded stratified sampling, so a million-session run
// reports p99 tails and a pinned sampled digest with bounded RSS.
// And load is shaped: each site's arrival generator follows a diurnal
// rate curve, flash-crowd bursts inject arrival spikes, and sites
// have heterogeneous capacities — a site driven past capacity
// stretches its sessions' step times, which is what the placement
// policies race against.

/// Per-step bookkeeping counter for the scale world (hot path).
static VO_STEPS: Counter = Counter::new("vo.steps");
/// Sessions started (regular arrivals + flash arrivals).
static VO_ARRIVALS: Counter = Counter::new("vo.arrivals");
/// Sessions started by flash-crowd bursts.
static VO_FLASH: Counter = Counter::new("vo.flash_arrivals");
/// Sessions completed.
static VO_COMPLETED: Counter = Counter::new("vo.sessions_completed");
/// Sessions handed to a remote site.
static VO_HOPS: Counter = Counter::new("vo.hops");
/// Sessions received from a remote site.
static VO_HOPS_IN: Counter = Counter::new("vo.hops_in");
/// Crash→retry recoveries (published at flush, tallied per site).
static VO_RECOVERIES: Counter = Counter::new("vo.recoveries");

/// Where a hopping session goes — the policies `ext_vo_scale` races.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// A uniformly random remote site.
    Uniform,
    /// A random site among the four lowest-latency peers — mostly
    /// intra-region moves.
    Nearest,
    /// A remote site drawn with probability proportional to its
    /// capacity tier — big sites absorb more migrating load.
    CapacityWeighted,
    /// No migration at all: sessions stay at their arrival site.
    Sticky,
}

impl Placement {
    /// All policies, in the order the experiment races them.
    pub const ALL: [Placement; 4] = [
        Placement::Uniform,
        Placement::Nearest,
        Placement::CapacityWeighted,
        Placement::Sticky,
    ];

    /// Stable label for scenario names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Placement::Uniform => "uniform",
            Placement::Nearest => "nearest",
            Placement::CapacityWeighted => "capacity-weighted",
            Placement::Sticky => "sticky",
        }
    }
}

/// Shape of one macro-scale VO experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoScaleConfig {
    /// Geographic regions ([`SiteTopology::regional_vo`]).
    pub regions: u32,
    /// Sites per region.
    pub sites_per_region: u32,
    /// Total sessions across the whole VO, split near-evenly across
    /// sites (site `i` gets the `i`-th share of the remainder).
    pub sessions: u64,
    /// Work steps per session. Must fit the packed event word
    /// (< 2^20).
    pub steps_per_session: u32,
    /// Per-mille probability that a step migrates the session.
    pub hop_per_mille: u32,
    /// Nominal spacing between a session's steps at an uncongested
    /// site.
    pub step_spacing: SimDuration,
    /// RNG draws folded per step (scheduler/VMM bookkeeping stand-in).
    pub work_draws: u32,
    /// Mean gap between regular session arrivals at one site, at the
    /// diurnal curve's average rate.
    pub mean_arrival_gap: SimDuration,
    /// One full diurnal cycle (8 phases) of the arrival-rate curve.
    pub diurnal_period: SimDuration,
    /// How strongly the diurnal curve swings the arrival rate
    /// (0 = flat, 1000 = the full curve shape).
    pub diurnal_amplitude_per_mille: u32,
    /// Number of flash-crowd bursts per site.
    pub flash_crowds: u32,
    /// Fraction of each site's sessions arriving in bursts rather
    /// than through the diurnal process.
    pub flash_fraction_per_mille: u32,
    /// Concurrent sessions a tier-0 site absorbs before congestion
    /// stretches step times; tier `i % 4` sites get `(1 + tier) ×`
    /// this.
    pub capacity_base: u64,
    /// Where hopping sessions go.
    pub placement: Placement,
    /// Per-site sampled trace-ring capacity.
    pub trace_capacity: usize,
    /// Per-mille trace sampling rate, one for every category (the
    /// world records only `vo` entries).
    pub trace_rate_per_mille: u32,
    /// Master seed; site `i` draws workload randomness from
    /// [`derive_seed_sharded`]`(seed, 0, i)` and trace-sampling
    /// decisions from stream 1 of that seed.
    pub seed: u64,
}

impl VoScaleConfig {
    /// The reference configuration: 48 sites in 8 regions, 20k
    /// sessions, 16 steps each, diurnal arrivals with 3 flash crowds
    /// carrying 20% of the load, and 2% per-mille trace sampling.
    /// `ext_vo_scale` scales sessions and sites up from here.
    pub fn reference() -> Self {
        VoScaleConfig {
            regions: 8,
            sites_per_region: 6,
            sessions: 20_000,
            steps_per_session: 16,
            hop_per_mille: 40,
            step_spacing: SimDuration::from_micros(200),
            work_draws: 4,
            mean_arrival_gap: SimDuration::from_micros(500),
            diurnal_period: SimDuration::from_millis(200),
            diurnal_amplitude_per_mille: 800,
            flash_crowds: 3,
            flash_fraction_per_mille: 200,
            capacity_base: 32,
            placement: Placement::Uniform,
            trace_capacity: 512,
            trace_rate_per_mille: 20,
            seed: 20030517,
        }
    }

    /// Total sites.
    pub fn sites(&self) -> u32 {
        self.regions * self.sites_per_region
    }

    /// Sessions assigned to site `i` (near-even split).
    fn sessions_at(&self, i: u32) -> u64 {
        let n = u64::from(self.sites());
        self.sessions / n + u64::from(u64::from(i) < self.sessions % n)
    }

    /// First session id of site `i`'s contiguous id range.
    fn session_base(&self, i: u32) -> u64 {
        let n = u64::from(self.sites());
        let (q, r) = (self.sessions / n, self.sessions % n);
        u64::from(i) * q + u64::from(i).min(r)
    }
}

/// Bits of the packed `meta` word holding `steps_left`.
const STEP_BITS: u32 = 20;

/// The diurnal arrival-rate shape, per-mille of the mean rate over 8
/// phases of the cycle (sums to 8000, so the full-amplitude curve
/// preserves the configured mean rate): a quiet night, a morning
/// ramp, an afternoon peak, an evening tail.
const DIURNAL_SHAPE: [u64; 8] = [550, 400, 550, 900, 1300, 1550, 1450, 1300];

/// One site of the macro-scale world.
#[derive(Debug)]
pub struct VoScaleSite {
    rng: SimRng,
    latency_to: Vec<SimDuration>,
    /// Up to four lowest-latency peers (the `Nearest` policy's menu).
    near_peers: Vec<u32>,
    /// Cumulative capacity weights over all sites (the
    /// `CapacityWeighted` policy's table).
    cap_cum: Vec<u64>,
    peers: u32,
    hop_per_mille: u32,
    step_spacing: SimDuration,
    work_draws: u32,
    placement: Placement,
    /// Congestion knee: concurrent sessions before step times
    /// stretch.
    pub capacity: u64,
    mean_gap_ns: u64,
    phase_ns: u64,
    diurnal_amp: u64,
    burst_gap_ns: u64,
    ideal_ns: u64,
    /// Sessions currently resident at this site.
    pub active: u64,
    /// High-water mark of `active`.
    pub peak_active: u64,
    /// Sessions that finished at this site.
    pub completed: u64,
    /// Sessions this site handed to a remote site.
    pub hops_out: u64,
    /// Fold of every step's work product (digest-comparable).
    pub checksum: u64,
}

impl VoScaleSite {
    fn note_arrival(&mut self) {
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
    }

    /// The destination of a hop under this site's placement policy.
    fn choose_dst(&mut self, my_id: u32) -> SiteId {
        match self.placement {
            Placement::Uniform => {
                let offset = 1 + self.rng.next_below(u64::from(self.peers) - 1) as u32;
                SiteId((my_id + offset) % self.peers)
            }
            Placement::Nearest => {
                let k = self.rng.next_below(self.near_peers.len() as u64) as usize;
                SiteId(self.near_peers[k])
            }
            Placement::CapacityWeighted => {
                let total = *self.cap_cum.last().expect("at least one site");
                let r = self.rng.next_below(total);
                let mut dst = self.cap_cum.partition_point(|&c| c <= r) as u32;
                if dst == my_id {
                    dst = (dst + 1) % self.peers;
                }
                SiteId(dst)
            }
            Placement::Sticky => unreachable!("sticky sessions never hop"),
        }
    }

    /// The gap to the next regular arrival: the diurnal-curve rate at
    /// `now`, amplitude-scaled, jittered by the site's RNG stream.
    fn arrival_gap(&mut self, now: SimTime) -> SimDuration {
        let phase = ((now.as_nanos() / self.phase_ns) % 8) as usize;
        // Blend the shape toward flat (1000‰) by the amplitude.
        let shape = DIURNAL_SHAPE[phase];
        let mult = (1000 + (shape as i64 - 1000) * self.diurnal_amp as i64 / 1000) as u64;
        let base = (self.mean_gap_ns * 1000 / mult).max(4);
        let jitter = self.rng.next_below(base / 2 + 1);
        SimDuration::from_nanos(base * 3 / 4 + jitter)
    }
}

impl ShardWorld for VoScaleSite {
    /// A migrating session: `[session_id << 20 | steps_left, start]`,
    /// the words of its next work step and its entire state, so the
    /// simulation holds nothing per session between events.
    fn deliver(words: [u64; 2], site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>) {
        VO_HOPS_IN.add(1);
        site.world.note_arrival();
        scale_step(words, site, en);
    }
}

/// One session work step of the scale world; the session's packed
/// state rides in the event's two words.
fn scale_step(
    args: [u64; 2],
    site: &mut SiteState<VoScaleSite>,
    en: &mut Engine<SiteState<VoScaleSite>>,
) {
    let [meta, start] = args;
    let (session, steps_left) = (meta >> STEP_BITS, meta & ((1 << STEP_BITS) - 1));
    VO_STEPS.add(1);
    let my_id = site.id().0;
    let w = &mut site.world;
    let mut acc = meta ^ start;
    for _ in 0..w.work_draws {
        acc = acc.rotate_left(7) ^ w.rng.next_u64();
    }
    w.checksum ^= acc;
    if steps_left == 0 {
        w.active -= 1;
        w.completed += 1;
        VO_COMPLETED.add(1);
        let now_ns = en.now().as_nanos();
        let elapsed = now_ns - start;
        // The streaming tail summaries: integer histograms, constant
        // memory, no per-session keys anywhere.
        let slowdown = (elapsed.saturating_mul(1000) / w.ideal_ns).max(1000);
        metrics::histogram_record("vo.slowdown_x1000", slowdown);
        metrics::histogram_record("vo.session_us", elapsed / 1000);
        metrics::histogram_record("vo.complete_us", now_ns / 1000);
        site.trace.record(
            en.now(),
            "vo",
            format_args!("session {session} done x{slowdown}"),
        );
        return;
    }
    let draw = w.rng.next_below(1000) as u32;
    if draw < w.hop_per_mille && w.peers > 1 && w.placement != Placement::Sticky {
        let dst = w.choose_dst(my_id);
        let at = en.now() + w.latency_to[dst.index()];
        w.active -= 1;
        w.hops_out += 1;
        VO_HOPS.add(1);
        site.send(dst, at, [(session << STEP_BITS) | (steps_left - 1), start]);
    } else {
        // Congested sites stretch step times: the slowdown signal the
        // placement policies trade against migration latency.
        let congestion = 1 + w.active / w.capacity;
        let jitter = w.rng.next_below(w.step_spacing.as_nanos() / 4 + 1);
        let delay = (w.step_spacing + SimDuration::from_nanos(jitter)) * congestion;
        en.schedule_in(
            delay,
            [(session << STEP_BITS) | (steps_left - 1), start],
            scale_step,
        );
    }
}

/// Starts one session at this site, now: the arrival instant becomes
/// the session's `start` word and its first step runs immediately.
fn start_session(
    session: u64,
    steps: u64,
    site: &mut SiteState<VoScaleSite>,
    en: &mut Engine<SiteState<VoScaleSite>>,
) {
    VO_ARRIVALS.add(1);
    site.world.note_arrival();
    let now_ns = en.now().as_nanos();
    scale_step([(session << STEP_BITS) | steps, now_ns], site, en);
}

/// The self-rescheduling diurnal arrival generator:
/// `[remaining << STEP_BITS | steps, next_session_id]`. One pending
/// event per site drives the whole arrival process, so queue memory
/// is O(active sessions + sites), never O(total sessions).
fn diurnal_arrive(
    args: [u64; 2],
    site: &mut SiteState<VoScaleSite>,
    en: &mut Engine<VoScaleSiteState>,
) {
    let [packed, session] = args;
    let (remaining, steps) = (packed >> STEP_BITS, packed & ((1 << STEP_BITS) - 1));
    start_session(session, steps, site, en);
    if remaining > 1 {
        let gap = site.world.arrival_gap(en.now());
        en.schedule_in(
            gap,
            [((remaining - 1) << STEP_BITS) | steps, session + 1],
            diurnal_arrive,
        );
    }
}

/// The flash-crowd generator: same shape as [`diurnal_arrive`] but at
/// burst pace — a spike of arrivals that shoves the site past its
/// capacity knee.
fn burst_arrive(
    args: [u64; 2],
    site: &mut SiteState<VoScaleSite>,
    en: &mut Engine<VoScaleSiteState>,
) {
    let [packed, session] = args;
    let (remaining, steps) = (packed >> STEP_BITS, packed & ((1 << STEP_BITS) - 1));
    VO_FLASH.add(1);
    start_session(session, steps, site, en);
    if remaining > 1 {
        let w = &mut site.world;
        let gap = w.burst_gap_ns / 2 + w.rng.next_below(w.burst_gap_ns / 2 + 1);
        en.schedule_in(
            SimDuration::from_nanos(gap),
            [((remaining - 1) << STEP_BITS) | steps, session + 1],
            burst_arrive,
        );
    }
}

/// Shorthand for the engine world type of the scale world.
type VoScaleSiteState = SiteState<VoScaleSite>;

/// Builds the macro-scale VO world over
/// [`SiteTopology::regional_vo`]: one [`VoScaleSite`] per site with
/// its own derived RNG and trace-sampling streams, a sampled
/// [`TraceLog`], heterogeneous capacity (tier `i % 4`), one diurnal
/// arrival generator, and `flash_crowds` burst generators. Configure
/// shards/threads on the returned sim and [`run`](ShardedSim::run)
/// it; session tails land in the `vo.slowdown_x1000` /
/// `vo.session_us` / `vo.complete_us` histograms of
/// [`merged_metrics`](ShardedSim::merged_metrics).
///
/// # Panics
///
/// Panics when the topology is empty, when `steps_per_session`
/// overflows the packed event word, or when the session-id range
/// would collide with the step bits.
pub fn build_vo_scale(cfg: &VoScaleConfig) -> ShardedSim<VoScaleSite> {
    let n = cfg.sites();
    assert!(n > 0, "a VO needs at least one site");
    assert!(
        cfg.steps_per_session > 0 && cfg.steps_per_session < (1 << STEP_BITS),
        "steps_per_session must fit the packed event word (1..2^{STEP_BITS})"
    );
    assert!(
        cfg.sessions < (1 << (64 - STEP_BITS)),
        "session ids must fit the packed event word"
    );
    let topo = SiteTopology::regional_vo(cfg.regions, cfg.sites_per_region);
    let capacity_of = |i: u32| cfg.capacity_base.max(1) * (1 + u64::from(i % 4));
    let mut cap_cum = Vec::with_capacity(n as usize);
    let mut acc = 0u64;
    for i in 0..n {
        acc += capacity_of(i);
        cap_cum.push(acc);
    }
    let mut sim = ShardedSim::new(
        topo.lookahead_matrix(),
        (0..n).map(|i| {
            let latency_to: Vec<SimDuration> = (0..n)
                .map(|j| {
                    if i == j {
                        SimDuration::ZERO
                    } else {
                        topo.latency(SiteId(i), SiteId(j))
                            .expect("regional_vo meshes")
                    }
                })
                .collect();
            // The four lowest-latency peers, ties broken by id — the
            // Nearest policy's deterministic menu.
            let mut by_latency: Vec<u32> = (0..n).filter(|&j| j != i).collect();
            by_latency.sort_by_key(|&j| (latency_to[j as usize], j));
            by_latency.truncate(4);
            VoScaleSite {
                rng: SimRng::seed_from(derive_seed_sharded(cfg.seed, 0, u64::from(i))),
                latency_to,
                near_peers: by_latency,
                cap_cum: cap_cum.clone(),
                peers: n,
                hop_per_mille: cfg.hop_per_mille,
                step_spacing: cfg.step_spacing,
                work_draws: cfg.work_draws,
                placement: cfg.placement,
                capacity: capacity_of(i),
                mean_gap_ns: cfg.mean_arrival_gap.as_nanos().max(1),
                phase_ns: (cfg.diurnal_period.as_nanos() / 8).max(1),
                diurnal_amp: u64::from(cfg.diurnal_amplitude_per_mille.min(1000)),
                burst_gap_ns: (cfg.step_spacing.as_nanos() / 8).max(1),
                ideal_ns: u64::from(cfg.steps_per_session) * cfg.step_spacing.as_nanos().max(1),
                active: 0,
                peak_active: 0,
                completed: 0,
                hops_out: 0,
                checksum: 0,
            }
        }),
    );
    let steps = u64::from(cfg.steps_per_session);
    for i in 0..n {
        let site_sessions = cfg.sessions_at(i);
        let base = cfg.session_base(i);
        sim.with_site(i as usize, |site, en| {
            // Sampled per-site trace segment: O(capacity) retained
            // entries regardless of event volume, with the sampling
            // decisions on their own seed stream so they survive
            // workload changes.
            let site_seed = derive_seed_sharded(cfg.seed, 0, u64::from(i));
            site.trace = TraceLog::with_sampling(
                cfg.trace_capacity.max(1),
                cfg.trace_rate_per_mille,
                derive_seed_stream(site_seed, 1),
            );
            if site_sessions == 0 {
                return;
            }
            let flash_total = site_sessions * u64::from(cfg.flash_fraction_per_mille.min(1000))
                / 1000
                * u64::from(u32::from(cfg.flash_crowds > 0));
            let regular = site_sessions - flash_total;
            if regular > 0 {
                // Stagger generator starts across one mean gap so
                // sites don't fire in lockstep.
                let start = site.world.rng.next_below(site.world.mean_gap_ns);
                en.schedule_at(
                    SimTime::ZERO + SimDuration::from_nanos(start),
                    [(regular << STEP_BITS) | steps, base],
                    diurnal_arrive,
                );
            }
            if flash_total > 0 {
                // Bursts land at deterministic fractions of the
                // regular arrival span.
                let span_ns = (regular.max(1) * site.world.mean_gap_ns).max(8);
                let crowds = u64::from(cfg.flash_crowds);
                let mut next_id = base + regular;
                for k in 0..crowds {
                    let size = flash_total / crowds + u64::from(k < flash_total % crowds);
                    if size == 0 {
                        continue;
                    }
                    let at = span_ns * (k + 1) / (crowds + 1);
                    en.schedule_at(
                        SimTime::ZERO + SimDuration::from_nanos(at),
                        [(size << STEP_BITS) | steps, next_id],
                        burst_arrive,
                    );
                    next_id += size;
                }
            }
        });
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VoConfig {
        VoConfig {
            sites: 3,
            sessions_per_site: 4,
            steps_per_session: 25,
            ..VoConfig::paper_vo()
        }
    }

    #[test]
    fn every_session_completes_exactly_once() {
        let cfg = small();
        let mut sim = build_vo(&cfg);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(
            m.counter("vo.sessions_completed"),
            u64::from(cfg.sites * cfg.sessions_per_site)
        );
        assert_eq!(
            m.counter("vo.hops"),
            m.counter("vo.hops_in"),
            "no lost hops"
        );
        assert_eq!(m.counter("vo.hops"), sim.messages());
        assert!(m.counter("vo.recoveries") > 0, "seeded crashes occurred");
        let completed: u64 = (0..3)
            .map(|i| sim.with_site(i, |s, _| s.world.completed))
            .sum();
        assert_eq!(completed, u64::from(cfg.sites * cfg.sessions_per_site));
    }

    #[test]
    fn shard_and_thread_packing_do_not_change_the_world() {
        let run = |shards: usize, threads: usize| {
            let mut sim = build_vo(&small()).shards(shards).threads(threads);
            metrics::reset();
            sim.run();
            metrics::reset();
            let checksums: Vec<u64> = (0..3)
                .map(|i| sim.with_site(i, |s, _| s.world.checksum))
                .collect();
            (sim.trace_digest(), sim.merged_metrics(), checksums)
        };
        let want = run(1, 1);
        for (shards, threads) in [(2, 1), (3, 2), (3, 3), (8, 4)] {
            assert_eq!(
                run(shards, threads),
                want,
                "shards={shards} threads={threads}"
            );
        }
    }

    fn small_scale() -> VoScaleConfig {
        VoScaleConfig {
            regions: 2,
            sites_per_region: 3,
            sessions: 600,
            steps_per_session: 8,
            ..VoScaleConfig::reference()
        }
    }

    #[test]
    fn scale_world_completes_every_session_with_bounded_state() {
        let cfg = small_scale();
        let mut sim = build_vo_scale(&cfg);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(m.counter("vo.sessions_completed"), cfg.sessions);
        assert_eq!(m.counter("vo.arrivals"), cfg.sessions);
        assert!(m.counter("vo.flash_arrivals") > 0, "bursts fired");
        assert_eq!(m.counter("vo.hops"), m.counter("vo.hops_in"));
        let slow = m.histogram("vo.slowdown_x1000").expect("recorded");
        assert_eq!(slow.count(), cfg.sessions);
        assert!(slow.min() >= 1000, "slowdown is at least 1.0x");
        assert!(slow.p99() >= slow.p50());
        assert!(m.histogram("vo.session_us").is_some());
        assert!(m.histogram("vo.complete_us").is_some());
        // No per-session series anywhere: the whole registry stays a
        // handful of named entries.
        assert!(
            m.tracked_entries() < 32,
            "tracked {} series",
            m.tracked_entries()
        );
        // Sampled traces: retained entries bounded, stream accounted.
        assert!(sim.retained_trace_entries() <= cfg.sites() as usize * cfg.trace_capacity);
        assert_eq!(
            m.counter("trace.sampled") + m.counter("trace.dropped"),
            cfg.sessions,
            "every completion trace passed the sampler"
        );
        let active: u64 = (0..6)
            .map(|i| sim.with_site(i, |s, _| s.world.active))
            .sum();
        assert_eq!(active, 0, "no session left resident");
        let peak: u64 = (0..6)
            .map(|i| sim.with_site(i, |s, _| s.world.peak_active))
            .max()
            .unwrap();
        assert!(peak > 0);
    }

    #[test]
    fn scale_world_is_shard_and_thread_invariant() {
        let run = |shards: usize, threads: usize| {
            let mut sim = build_vo_scale(&small_scale())
                .shards(shards)
                .threads(threads);
            metrics::reset();
            sim.run();
            metrics::reset();
            let checksums: Vec<u64> = (0..6)
                .map(|i| sim.with_site(i, |s, _| s.world.checksum))
                .collect();
            (sim.trace_digest(), sim.merged_metrics(), checksums)
        };
        let want = run(1, 1);
        for (shards, threads) in [(2, 2), (6, 3)] {
            assert_eq!(
                run(shards, threads),
                want,
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn placement_policies_choose_differently_but_all_complete() {
        let mut by_policy = Vec::new();
        for placement in Placement::ALL {
            let cfg = VoScaleConfig {
                placement,
                hop_per_mille: 200,
                ..small_scale()
            };
            let mut sim = build_vo_scale(&cfg);
            metrics::reset();
            sim.run();
            metrics::reset();
            let m = sim.merged_metrics();
            assert_eq!(
                m.counter("vo.sessions_completed"),
                cfg.sessions,
                "{} completes",
                placement.label()
            );
            by_policy.push((placement, m.counter("vo.hops")));
        }
        let sticky = by_policy
            .iter()
            .find(|(p, _)| *p == Placement::Sticky)
            .unwrap();
        assert_eq!(sticky.1, 0, "sticky never migrates");
        for (p, hops) in &by_policy {
            if *p != Placement::Sticky {
                assert!(*hops > 0, "{} migrates", p.label());
            }
        }
    }

    #[test]
    fn session_shares_cover_the_total_exactly() {
        let cfg = VoScaleConfig {
            sessions: 1001,
            ..small_scale()
        };
        let total: u64 = (0..cfg.sites()).map(|i| cfg.sessions_at(i)).sum();
        assert_eq!(total, 1001);
        for i in 1..cfg.sites() {
            assert_eq!(
                cfg.session_base(i),
                cfg.session_base(i - 1) + cfg.sessions_at(i - 1),
                "contiguous id ranges"
            );
        }
    }

    #[test]
    #[should_panic(expected = "packed event word")]
    fn oversized_step_counts_are_rejected() {
        let cfg = VoScaleConfig {
            steps_per_session: 1 << 20,
            ..VoScaleConfig::reference()
        };
        let _ = build_vo_scale(&cfg);
    }

    #[test]
    fn recoveries_retry_with_delay_and_still_complete() {
        // Crank the crash rate: sessions must still all finish, later.
        let mut cfg = small();
        cfg.crash_per_mille = 300;
        cfg.hop_per_mille = 0;
        let mut sim = build_vo(&cfg);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(
            m.counter("vo.sessions_completed"),
            u64::from(cfg.sites * cfg.sessions_per_site)
        );
        assert_eq!(sim.messages(), 0, "hops disabled");
        assert!(m.counter("vo.recoveries") > 50);
    }
}

//! Sharded conservative parallel simulation: per-site event queues
//! synchronized in lookahead windows.
//!
//! The paper's target is a *grid* — many administrative sites, each
//! dynamically instantiating VMs, separated by wide-area links whose
//! latency bounds how soon one site can affect another. If every
//! cross-site message sent at `t` arrives no earlier than
//! `t + latency`, each site can execute independently up to the
//! earliest instant any *other* site's pending work could reach it —
//! its **horizon** — without ever receiving a message from the past.
//!
//! ## The window protocol
//!
//! A [`ShardedSim`] owns one `SiteRuntime` per site — its own
//! [`Engine`], world state, [`TraceLog`] segment and (by caller
//! convention) seeded RNG stream — and a
//! [`LookaheadMatrix`], whose entry `la(s, d)` bounds how soon anything
//! sent at site `s` can reach site `d`. `run` repeats:
//!
//! 1. **Drain mailboxes** in ascending source site id: each site's
//!    non-empty outbox is swapped with one scratch buffer, and its
//!    messages, in send order, are scheduled into their destinations.
//!    The buffers' capacity circulates, so steady-state traffic
//!    allocates nothing. A message timestamped before its
//!    destination's already-executed bound is a *lookahead violation*
//!    and panics. That is the drain's only check: a message sent less
//!    than its pair's lookahead ahead that still lands after the
//!    bound is delivered (see the reference executor below). On the
//!    way the drain records every site's earliest pending event
//!    `t_s`.
//! 2. **Compute horizons**: site `i`'s is `min over active sources
//!    s ≠ i of (t_s + la(s, i))`, all sites in one pass over the
//!    matrix. Where metro and WAN latencies mix, these are far wider
//!    than the minimum link latency; the classic global protocol is
//!    the special case [`LookaheadMatrix::uniform`].
//! 3. **Execute the window**: each site runs its events strictly
//!    before its horizon, in chunks of at most its minimum round trip
//!    past its next event, and each send it queues caps the window at
//!    `arrival + la(dst → site)`, the earliest that send could echo
//!    back. Sites are grouped into `shards` by `site_id % shards`, and
//!    shards onto threads by `shard % threads`: thread `t` borrows
//!    every site of its shards mutably and runs them in ascending id.
//!    Thread 0 is the caller; the others are helpers spawned in a
//!    scope for this window alone. With one thread the caller runs
//!    every site in place and spawns nothing.
//! 4. **Join**: the scope ends once every thread has run its sites,
//!    which hands every site back to the caller, and each helper
//!    hands back the metrics it recorded, which the caller merges
//!    into its own context; repeat until no events remain anywhere.
//!
//! ## Why results are bit-identical at any shard/thread count
//!
//! The protocol's unit is the **site**, not the shard: the drain
//! order, the horizons (a function of the drained event times and the
//! matrix alone) and each site's execution (its engine's
//! `(time, seq)` order over local state) do not depend on how sites
//! are packed into shards or shards onto threads, which only decide
//! *which OS thread* runs a site's window. Traces live per site and
//! digest in site order. A site records its metrics into the context
//! of whichever thread runs its window. Metrics hold only counters
//! and histograms, which merge by integer addition, so the run's
//! registry is the same whichever thread recorded what and in
//! whatever order the helpers' contexts merge.
//!
//! Two lookahead matrices over one world cut different windows. They
//! report the same history and the same metrics apart from
//! `shard.windows` when no message arrives at the same instant as
//! another event at its destination. Otherwise they can differ: a
//! message takes its queue sequence number, which breaks same-instant
//! ties, at the window boundary that delivers it, and where those
//! boundaries fall depends on the matrix. ROADMAP.md's item on making
//! same-instant order part of the model would remove that dependence.
//!
//! A panic in a site's window — an event handler's, a self-send's —
//! is caught on the thread running the site, which then runs none of
//! its later sites. The run re-raises the panic of the lowest failing
//! site. Every packing runs that site, because every site below it on
//! its thread succeeded, so a failing run fails with the same message
//! at any thread count. The drain's lookahead violation is caught on
//! the caller. Either way the caller's metrics context is restored
//! before the panic resumes. A failed sim cannot be run again, and
//! every accessor that reads site state panics saying the run failed.
//!
//! ## The reference executor
//!
//! [`ShardedSim::run_sequential`] runs the same sites with no windows:
//! the earliest pending instant anywhere runs next, and each message
//! goes straight into its destination's queue. Tests check the window
//! protocol against it under both a topology's matrix and `uniform`,
//! so a defect in the horizon, echo-chunking or drain logic cannot
//! hide behind a comparison of the protocol with itself.
//!
//! The two executors check the lookahead differently. The reference
//! checks every message against the send contract, arrival at least
//! `now + la(src, dst)`, and panics on any shortfall. The window
//! protocol cannot see when a message was sent; its drain rejects only
//! a message that lands inside its destination's already-executed
//! window. So a world that sends short of the lookahead can complete
//! under `run` and panic under `run_sequential`. For example, take
//! three sites with a 1 ms direct latency between sites 1 and 2 and
//! 10 ms elsewhere; site 2 holds an event at t = 0, and at t = 0
//! site 0 sends site 1 a message 5 ms ahead.
//!
//! ## Allocation-free delivery
//!
//! A message is two words, the two an engine event carries:
//! [`SiteState::send`] queues `(destination, arrival, words)`, 32
//! bytes, and delivery schedules the words at the destination as an
//! ordinary engine event whose handler is the world's
//! [`deliver`](ShardWorld::deliver). Each site has one outbox, which
//! reserves room for `OUTBOX_RESERVE` (128) messages up front and
//! trades buffers with the drain's scratch `Vec` at every window
//! boundary; a site that queues more in one window regrows its
//! buffer, counted by `shard.outbox_regrown`. So steady-state mailbox
//! traffic makes zero allocator calls, and the mailboxes' memory grows
//! with the sites, not with the pairs of sites.
//!
//! No lock, atomic or barrier coordinates the threads. Each window
//! lends every site by `&mut` to exactly one thread, and the scope's
//! join returns them, so the borrow checker proves that a site has one
//! owner per window. `clippy.toml` holds this module to that as it
//! does every workspace crate, by disallowing locks and atomics:
//! ad-hoc cross-thread coordination is how scheduling order leaks into
//! results.
//!
//! A site's outbox is private to this module: only [`SiteState::send`]
//! fills it and only the two executors' drains empty it, so no code
//! elsewhere can reach a site's messages around the mailbox protocol.
//! Reading it from outside does not compile:
//!
//! ```compile_fail,E0616
//! use gridvm_simcore::shard::{ShardWorld, SiteState};
//!
//! fn queued<W: ShardWorld>(site: &SiteState<W>) -> usize {
//!     site.outbox.len()
//! }
//! ```
//!
//! A two-site world, end to end:
//!
//! ```
//! use gridvm_simcore::shard::{ShardWorld, ShardedSim, SiteId, SiteState};
//! use gridvm_simcore::engine::Engine;
//! use gridvm_simcore::lookahead::LookaheadMatrix;
//! use gridvm_simcore::time::{SimDuration, SimTime};
//!
//! struct Counter { received: u64 }
//! impl ShardWorld for Counter {
//!     // The message's two words, exactly as its sender packed them.
//!     fn deliver(words: [u64; 2], site: &mut SiteState<Self>, _: &mut Engine<SiteState<Self>>) {
//!         site.world.received += words[0];
//!     }
//! }
//!
//! let lookahead = LookaheadMatrix::uniform(2, SimDuration::from_millis(5));
//! let mut sim = ShardedSim::new(lookahead, (0..2).map(|_| Counter { received: 0 }));
//! sim.with_site(0, |_, en| {
//!     en.schedule_at(SimTime::ZERO, [7, 0], |words, site, en| {
//!         site.send(SiteId(1), en.now() + SimDuration::from_millis(5), words);
//!     });
//! });
//! sim.run();
//! assert_eq!(sim.with_site(1, |site, _| site.world.received), 7);
//! ```

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use crate::engine::Engine;
use crate::lookahead::LookaheadMatrix;
use crate::metrics::{self, Counter, Metrics};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

/// Outbox buffers that regrew — a non-zero count means some site
/// queued more than [`OUTBOX_RESERVE`] messages in one window and
/// steady-state sends are hitting the allocator.
static OUTBOX_REGROWN: Counter = Counter::new("shard.outbox_regrown");

/// Messages each outbox (and the drain's scratch buffer) has room for
/// from the start: at least twice the most any site of a shipped world
/// queues in one window, 53 on the 200k-session VO race
/// (EXPERIMENTS.md, "One outbox per site").
const OUTBOX_RESERVE: usize = 128;

/// A site's queued cross-site messages, `(destination, arrival,
/// words)` in send order.
type Outbox = Vec<(SiteId, SimTime, [u64; 2])>;

/// Identifies one site — the unit of the conservative protocol and
/// the owner of one event queue, trace segment and RNG stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(
    /// Zero-based site index.
    pub u32,
);

impl SiteId {
    /// The site index as a `usize`, for indexing site tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A per-site world that can run under a [`ShardedSim`].
///
/// `Send` because each window lends a site (engine, world, pending
/// events) to whichever thread runs its shard; the borrow is
/// exclusive, and it ends before the next window.
pub trait ShardWorld: Send + Sized + 'static {
    /// Applies one delivered message, the two words its sender passed
    /// to [`SiteState::send`], at its arrival instant. It is the
    /// handler of an ordinary event on the destination site's engine,
    /// so it may schedule follow-ups and send further messages.
    fn deliver(words: [u64; 2], site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>);
}

/// The world type each site's [`Engine`] executes over: the caller's
/// per-site state plus the site's identity, trace segment and
/// outbox.
pub struct SiteState<W: ShardWorld> {
    id: SiteId,
    /// The caller's per-site world state.
    pub world: W,
    /// This site's trace segment. Digested in site-id order by
    /// [`ShardedSim::trace_digest`].
    pub trace: TraceLog,
    /// Messages sent since the last drain, to every destination. The
    /// drain swaps it with its scratch buffer, so the capacity
    /// circulates across windows.
    outbox: Outbox,
}

impl<W: ShardWorld> SiteState<W> {
    /// This site's identity.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Queues a cross-site message, two words handed unchanged to the
    /// destination world's [`deliver`](ShardWorld::deliver) at the
    /// absolute instant `at`, behind every message this site sent
    /// before it. The message is moved into the destination's engine
    /// when the window ends. The contract is that `at` is at least the
    /// pair's lookahead past the instant it was sent (guaranteed when
    /// `at` is `now + link_latency`, since the lookahead matrix never
    /// exceeds any link latency).
    ///
    /// # Panics
    ///
    /// Panics on a self-send: local follow-ups are ordinary scheduled
    /// events, not mailbox traffic, and are not subject to lookahead.
    /// A contract violation is caught later and only in part:
    /// [`run_sequential`](ShardedSim::run_sequential) panics on every
    /// message sent less than its pair's lookahead ahead, while
    /// [`run`](ShardedSim::run)'s drain panics only when such a
    /// message lands inside its destination's already-executed window
    /// and otherwise delivers it.
    pub fn send(&mut self, dst: SiteId, at: SimTime, words: [u64; 2]) {
        assert!(
            dst != self.id,
            "{}: self-send through the mailbox; schedule a local event instead",
            self.id
        );
        if self.outbox.len() == self.outbox.capacity() {
            OUTBOX_REGROWN.add(1);
        }
        self.outbox.push((dst, at, words));
    }
}

/// One site's execution state: its engine, world and the bounds of
/// its windows.
///
/// Aligned to 128 bytes, a pair of cache lines, because a window lends
/// neighbouring sites to different threads and a site's engine and
/// world are written on every event: without it, two threads' hot
/// fields share a line. The 4-site `baseline` world at two threads
/// ran 10–22% slower that way (EXPERIMENTS.md, "Metrics that merge
/// exactly").
#[repr(align(128))]
struct SiteRuntime<W: ShardWorld> {
    en: Engine<SiteState<W>>,
    state: SiteState<W>,
    /// The running maximum of the bounds the site actually guaranteed:
    /// it has executed everything strictly before `safe`, so the drain
    /// rejects a message arriving earlier as a lookahead violation.
    safe: u64,
}

/// A conservatively synchronized multi-site simulation.
///
/// Results — traces, metrics, digests — are bit-identical for every
/// shard and thread count; see the [module docs](self) for the
/// argument. After a failed run every method that reads site state
/// panics: [`with_site`](Self::with_site) and the trace and metrics
/// accessors.
pub struct ShardedSim<W: ShardWorld> {
    sites: Vec<SiteRuntime<W>>,
    matrix: LookaheadMatrix,
    shards: usize,
    threads: usize,
    windows: u64,
    messages: u64,
    total_events: u64,
    critical_events: u64,
    /// The run's registry: everything its sites recorded, plus the
    /// coordinator's counters.
    metrics: Metrics,
    ran: bool,
    /// Set when a run fails: some site stopped mid-event, so no site's
    /// state may be read.
    failed: bool,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Creates a sharded simulation over one world per site,
    /// synchronized by a per-(src,dst) lookahead matrix — a
    /// topology's `SiteTopology::lookahead_matrix` (in `gridvm-vnet`),
    /// or [`LookaheadMatrix::uniform`] for one latency everywhere.
    /// Defaults to one shard and one thread.
    ///
    /// # Panics
    ///
    /// Panics when the matrix does not cover one site per world.
    pub fn new(matrix: LookaheadMatrix, worlds: impl IntoIterator<Item = W>) -> Self {
        let sites: Vec<_> = worlds
            .into_iter()
            .enumerate()
            .map(|(i, world)| SiteRuntime {
                en: Engine::new(),
                state: SiteState {
                    id: SiteId(i as u32),
                    world,
                    trace: TraceLog::default(),
                    outbox: Vec::with_capacity(OUTBOX_RESERVE),
                },
                safe: 0,
            })
            .collect();
        assert_covers(&matrix, sites.len());
        ShardedSim {
            sites,
            matrix,
            shards: 1,
            threads: 1,
            windows: 0,
            messages: 0,
            total_events: 0,
            critical_events: 0,
            metrics: Metrics::new(),
            ran: false,
            failed: false,
        }
    }

    /// Replaces the lookahead matrix — how a comparison re-runs a
    /// built world under [`LookaheadMatrix::uniform`] at its
    /// topology's minimum latency. Any matrix whose entries are at
    /// most the latencies the world sends at runs the world safely,
    /// and gives the same history when no message arrives at the same
    /// instant as another event at its destination (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics when the matrix does not cover exactly this sim's sites.
    pub fn with_lookahead(mut self, matrix: LookaheadMatrix) -> Self {
        assert_covers(&matrix, self.sites.len());
        self.matrix = matrix;
        self
    }

    /// Sets the shard count: sites are grouped by `site_id % shards`
    /// for window execution and critical-path accounting. Does not
    /// affect results.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        self.shards = shards;
        self
    }

    /// Sets the thread count, the caller's own thread included:
    /// `threads(1)` runs every window on the caller's thread and
    /// spawns nothing, `threads(n)` spawns `n - 1` scoped helpers for
    /// each window, and `0` means one thread per available core.
    /// Clamped to the shard count at run time. Does not affect
    /// results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        self
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// Runs `f` with exclusive access to one site's state and engine
    /// — how callers seed initial events before [`run`](Self::run)
    /// and inspect per-site results after it.
    pub fn with_site<R>(
        &mut self,
        site: usize,
        f: impl FnOnce(&mut SiteState<W>, &mut Engine<SiteState<W>>) -> R,
    ) -> R {
        let rt = &mut self.inspect()[site];
        f(&mut rt.state, &mut rt.en)
    }

    /// Windows executed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-site messages delivered through the mailboxes.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Events executed across all sites.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Total events over critical-path events: the speedup an ideal
    /// `shards`-way execution of the recorded window schedule reaches
    /// when per-event cost dominates.
    pub fn model_speedup(&self) -> f64 {
        if self.critical_events == 0 {
            return 1.0;
        }
        self.total_events as f64 / self.critical_events as f64
    }

    /// Trace entries currently retained across all sites: with
    /// sampled per-site logs ([`TraceLog::with_sampling`]) this stays
    /// O(sites × capacity) however many events the run executes.
    pub fn retained_trace_entries(&mut self) -> usize {
        self.inspect().iter().map(|rt| rt.state.trace.len()).sum()
    }

    /// Sum of `trace.sampled` over all sites' logs (0 when no site
    /// samples).
    pub fn sampled_trace_entries(&mut self) -> u64 {
        self.inspect()
            .iter()
            .map(|rt| rt.state.trace.sampled())
            .sum()
    }

    /// FNV-1a digest over every site's trace digest, in site-id order
    /// — the sharded golden-trace anchor.
    pub fn trace_digest(&mut self) -> u64 {
        let mut h = crate::fault::Fnv::new();
        for rt in self.inspect() {
            h.mix(&u64::from(rt.state.id.0).to_le_bytes());
            h.mix(&rt.state.trace.digest().to_le_bytes());
        }
        h.finish()
    }

    /// The run's metrics: everything its sites recorded, plus the
    /// coordinator's counters (`shard.windows`, `shard.messages`,
    /// `shard.outbox_regrown`).
    pub fn merged_metrics(&mut self) -> Metrics {
        self.inspect();
        self.metrics.clone()
    }

    /// Every site, for reading or seeding its state; refused after a
    /// failed run, since some site stopped mid-event.
    fn inspect(&mut self) -> &mut [SiteRuntime<W>] {
        assert!(
            !self.failed,
            "ShardedSim: the run failed, so its sites cannot be inspected"
        );
        &mut self.sites
    }

    /// Runs the windowed protocol to completion: until no site has a
    /// pending event and every mailbox is empty. The caller's
    /// thread-local [`metrics`] context is saved before the run and
    /// restored afterwards with the run's registry
    /// ([`merged_metrics`](Self::merged_metrics)) folded in, so a
    /// sharded run composes with
    /// [`crate::replication::ReplicationRunner`].
    ///
    /// # Panics
    ///
    /// Panics on a second call and on a lookahead violation: a
    /// cross-site message timestamped inside an already-executed
    /// window. A panic in any site's window, such as an event
    /// handler's, resurfaces here with its original payload (the
    /// lowest failing site's, at any packing), after the caller's
    /// metrics context is restored without the run's activity. Every
    /// accessor that reads site state panics after a failed run.
    pub fn run(&mut self) {
        self.execute(Self::run_windows);
    }

    /// Runs the world to completion with no windows, horizons or
    /// helper threads: the sequential reference executor the window
    /// protocol is tested against. It repeatedly runs the earliest
    /// pending instant anywhere (every event one site holds at it, the
    /// lowest site id first on a tie) and schedules each message sent
    /// there straight into its destination's engine. It shares none
    /// of [`run`](Self::run)'s horizon, echo-chunking or drain code;
    /// results read through the same accessors, `windows()` at 0.
    ///
    /// A message enters its destination's queue when sent here and at
    /// the next window boundary under `run`, so the two agree on every
    /// world in which no message arrives at the same instant as
    /// another event at its destination.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run), and on a message sent less than its
    /// pair's lookahead ahead.
    pub fn run_sequential(&mut self) {
        self.execute(|sim| panic::catch_unwind(AssertUnwindSafe(|| sim.run_queue())).err());
    }

    /// Runs `body` in an emptied metrics context, keeps what it
    /// recorded there as the run's registry and folds that into the
    /// caller's restored context. On the panic `body` reports, it
    /// drops the partial registry, restores the caller's context,
    /// marks the sim failed and re-raises.
    fn execute(&mut self, body: impl FnOnce(&mut Self) -> Option<Payload>) {
        assert!(!self.ran, "ShardedSim::run is single-shot");
        self.ran = true;
        if self.sites.is_empty() {
            return;
        }
        let ambient = metrics::take();
        let failure = body(self);
        let recorded = metrics::take();
        metrics::merge_current(&ambient);
        if let Some(payload) = failure {
            self.failed = true;
            panic::resume_unwind(payload);
        }
        self.metrics = recorded;
        self.metrics.counter_add("shard.windows", self.windows);
        self.metrics.counter_add("shard.messages", self.messages);
        // Materialize the zero-allocation counter even when nothing
        // incremented it: a steady-state run *proves* its fast path
        // by showing it at 0 rather than omitting it.
        self.metrics.counter_add("shard.outbox_regrown", 0);
        metrics::merge_current(&self.metrics);
    }

    /// [`run_sequential`](Self::run_sequential)'s loop: one site's
    /// earliest instant at a time, each message checked against its
    /// pair's lookahead and scheduled at once.
    fn run_queue(&mut self) {
        let mut sent = Vec::with_capacity(OUTBOX_RESERVE);
        while let Some((now, src)) = self
            .sites
            .iter()
            .enumerate()
            .filter_map(|(i, rt)| rt.en.next_event_time().map(|t| (t, i)))
            .min()
        {
            let rt = &mut self.sites[src];
            let end = now + SimDuration::from_nanos(1);
            self.total_events += rt.en.run_before(&mut rt.state, end);
            std::mem::swap(&mut rt.state.outbox, &mut sent);
            for (dst, at, words) in sent.drain(..) {
                let la = self.matrix.lookahead_nanos(src, dst.index());
                assert!(
                    at.as_nanos() >= now.as_nanos().saturating_add(la),
                    "lookahead violation: site{src} sent a message at {now} for {at}, \
                     less than its {} lookahead to {dst} ahead",
                    SimDuration::from_nanos(la)
                );
                self.sites[dst.index()]
                    .en
                    .schedule_at(at, words, W::deliver);
                self.messages += 1;
            }
        }
        self.critical_events = self.total_events;
    }

    /// The window loop. Between windows the caller drains the
    /// mailboxes (recording every site's next event time) and computes
    /// every horizon; [`run_window`] then lends the sites to the
    /// window's threads. A panic in the drain, or the lowest failing
    /// site's in a window, stops the loop and is returned.
    fn run_windows(&mut self) -> Option<Payload> {
        let shards = self.shards.min(self.sites.len());
        let threads = self.threads.min(shards);
        // Earliest pending event per site, nanos; `u64::MAX` when idle.
        let mut times = vec![u64::MAX; self.sites.len()];
        let mut horizons = vec![0; self.sites.len()];
        let mut scratch = Vec::with_capacity(OUTBOX_RESERVE);
        // Each thread's events per shard, reused every window.
        let mut tallies = vec![vec![0; shards]; threads];
        loop {
            let (sites, matrix) = (&mut self.sites, &self.matrix);
            match panic::catch_unwind(AssertUnwindSafe(|| {
                drain(sites, matrix, &mut times, &mut scratch)
            })) {
                Ok(delivered) => self.messages += delivered,
                Err(payload) => return Some(payload),
            }
            if times.iter().all(|&t| t == u64::MAX) {
                return None;
            }
            // One pass over the whole matrix while it is hot in cache,
            // rather than a column per site-window.
            for (i, h) in horizons.iter_mut().enumerate() {
                *h = horizon(matrix, &times, i);
            }
            let share = run_window(sites, &mut tallies, &horizons, matrix);
            if let Some((_, payload)) = share.failure {
                return Some(payload);
            }
            self.windows += 1;
            self.total_events += share.events;
            self.critical_events += share.busiest;
        }
    }
}

impl<W: ShardWorld> fmt::Debug for ShardedSim<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSim")
            .field("sites", &self.sites.len())
            .field("shards", &self.shards)
            .field("threads", &self.threads)
            .field("windows", &self.windows)
            .finish()
    }
}

/// A caught panic's payload.
type Payload = Box<dyn Any + Send>;

/// Panics unless `matrix` covers exactly `sites` sites.
fn assert_covers(matrix: &LookaheadMatrix, sites: usize) {
    assert_eq!(
        matrix.sites(),
        sites,
        "lookahead matrix covers a different site count than the sim"
    );
}

/// What a thread reports for its sites' share of one window.
struct Share {
    /// Events its sites executed.
    events: u64,
    /// Events its busiest shard executed.
    busiest: u64,
    /// Its first site to panic, by index, with the payload.
    failure: Option<(usize, Payload)>,
}

/// Runs one window over every site. With one tally (one thread) the
/// caller runs every site in place. Otherwise thread `t` of `threads`
/// gets every site with `id % shards % threads == t`, where `shards`
/// is the tallies' length: thread 0's share runs on the caller and
/// the rest on helpers spawned for this window, each handed its own
/// partition and tally. The shares combine by sum and maximum, which
/// commute, and the lowest failing site wins, so the result does not
/// depend on the packing. Each helper hands back the metrics its
/// sites recorded, and the caller merges them into its own context.
fn run_window<W: ShardWorld>(
    sites: &mut [SiteRuntime<W>],
    tallies: &mut [Vec<u64>],
    horizons: &[u64],
    matrix: &LookaheadMatrix,
) -> Share {
    let threads = tallies.len();
    if threads == 1 {
        return run_share(sites.iter_mut(), &mut tallies[0], horizons, matrix);
    }
    let shards = tallies[0].len();
    let mut parts: Vec<Vec<&mut SiteRuntime<W>>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, rt) in sites.iter_mut().enumerate() {
        parts[i % shards % threads].push(rt);
    }
    std::thread::scope(|scope| {
        let mut work = parts.into_iter().zip(tallies);
        let (mine, my_tally) = work.next().expect("a window has a first thread");
        let helpers: Vec<_> = work
            .map(|(part, tally)| {
                scope.spawn(move || {
                    let share = run_share(part, tally, horizons, matrix);
                    (share, metrics::take())
                })
            })
            .collect();
        let mut share = run_share(mine, my_tally, horizons, matrix);
        for helper in helpers {
            let (other, recorded) = helper
                .join()
                .expect("a window thread catches its sites' panics");
            metrics::merge_current(&recorded);
            share.events += other.events;
            share.busiest = share.busiest.max(other.busiest);
            share.failure = [share.failure, other.failure]
                .into_iter()
                .flatten()
                .min_by_key(|&(site, _)| site);
        }
        share
    })
}

/// Runs one thread's sites, in ascending id, each to its horizon,
/// adding each site's events to its shard's entry of `per_shard`
/// (`site_id % per_shard.len()`). A site's panic is caught, and the
/// thread runs none of its later sites.
fn run_share<'a, W: ShardWorld>(
    sites: impl IntoIterator<Item = &'a mut SiteRuntime<W>>,
    per_shard: &mut [u64],
    horizons: &[u64],
    matrix: &LookaheadMatrix,
) -> Share {
    per_shard.fill(0);
    let mut failure = None;
    for rt in sites {
        let i = rt.state.id.index();
        match panic::catch_unwind(AssertUnwindSafe(|| {
            run_site_window(rt, horizons[i], matrix)
        })) {
            Ok(ran) => per_shard[i % per_shard.len()] += ran,
            Err(payload) => {
                failure = Some((i, payload));
                break;
            }
        }
    }
    Share {
        events: per_shard.iter().sum(),
        busiest: per_shard.iter().copied().max().unwrap_or(0),
        failure,
    }
}

/// Moves every queued cross-site message into its destination engine:
/// sources in ascending site id, each source's messages in send order,
/// so every destination receives its messages in the same order at
/// any packing. Each non-empty outbox is swapped with `scratch`, so
/// buffer capacity circulates instead of being reallocated every
/// window. Returns how many messages were delivered.
///
/// On the way it records each site's earliest pending event in
/// `times` (`u64::MAX` when idle): a source's when its turn comes,
/// and a destination's again after each message lands.
fn drain<W: ShardWorld>(
    sites: &mut [SiteRuntime<W>],
    matrix: &LookaheadMatrix,
    times: &mut [u64],
    scratch: &mut Outbox,
) -> u64 {
    let next = |rt: &SiteRuntime<W>| rt.en.next_event_time().map_or(u64::MAX, SimTime::as_nanos);
    let mut delivered = 0u64;
    for src in 0..sites.len() {
        let rt = &mut sites[src];
        times[src] = next(rt);
        if rt.state.outbox.is_empty() {
            continue;
        }
        std::mem::swap(&mut rt.state.outbox, scratch);
        delivered += scratch.len() as u64;
        for (dst, at, words) in scratch.drain(..) {
            let rt = &mut sites[dst.index()];
            assert!(
                at.as_nanos() >= rt.safe,
                "lookahead violation: site{src} sent {dst} a message for {at}, inside \
                 {dst}'s already-executed window ending at {}: it was sent less than \
                 its {} lookahead to {dst} ahead",
                SimTime::from_nanos(rt.safe),
                SimDuration::from_nanos(matrix.lookahead_nanos(src, dst.index()))
            );
            rt.en.schedule_at(at, words, W::deliver);
            times[dst.index()] = next(rt);
        }
    }
    delivered
}

/// Site `i`'s horizon for this window: the earliest instant any
/// *other* site's pending work could reach it,
/// `min over active s != i of (t_s + la(s, i))`, or `u64::MAX` when
/// none can. A pure function of the drained event times and the
/// matrix, hence independent of packing. The site's *own* sends are
/// bounded during execution ([`run_site_window`]), where they are
/// known.
fn horizon(matrix: &LookaheadMatrix, times: &[u64], i: usize) -> u64 {
    let mut h = u64::MAX;
    for (s, &t_s) in times.iter().enumerate() {
        if s != i && t_s != u64::MAX {
            h = h.min(t_s.saturating_add(matrix.lookahead_nanos(s, i)));
        }
    }
    h
}

/// Executes one site's share of a window, up to its cross-source
/// horizon `h_cross`. Returns how many events ran.
///
/// The site self-limits against its own sends: it runs in chunks of
/// at most its minimum round trip past its next event, and after each
/// chunk every send the chunk queued caps the rest of the window at
/// the earliest instant it could echo back, `arrival + la(dst →
/// site)`. The bound actually guaranteed raises `rt.safe` for the
/// drain's check.
fn run_site_window<W: ShardWorld>(
    rt: &mut SiteRuntime<W>,
    h_cross: u64,
    matrix: &LookaheadMatrix,
) -> u64 {
    match rt.en.next_event_time() {
        Some(next) if next.as_nanos() < h_cross => {}
        _ => {
            rt.safe = rt.safe.max(h_cross);
            return 0;
        }
    }
    let me = rt.state.id.index();
    let rt_self = matrix.round_trip_nanos(me);
    let mut ran = 0u64;
    // The earliest echo of the sends folded so far. The outbox was
    // drained at the window boundary, so it holds only this window's
    // sends.
    let (mut echo, mut folded) = (u64::MAX, 0);
    let achieved = loop {
        for &(dst, at, _) in &rt.state.outbox[folded..] {
            let back = matrix.lookahead_nanos(dst.index(), me);
            echo = echo.min(at.as_nanos().saturating_add(back));
        }
        folded = rt.state.outbox.len();
        let bound = h_cross.min(echo);
        let Some(next) = rt.en.next_event_time() else {
            break bound;
        };
        let next_ns = next.as_nanos();
        if next_ns >= bound {
            break bound;
        }
        let chunk = bound.min(next_ns.saturating_add(rt_self));
        if chunk == u64::MAX {
            // Unreachable from every side — no message can ever
            // arrive or echo back; run to completion.
            let before = rt.en.executed();
            rt.en.run(&mut rt.state);
            ran += rt.en.executed() - before;
            break u64::MAX;
        }
        ran += rt.en.run_before(&mut rt.state, SimTime::from_nanos(chunk));
    };
    // Max keeps the threshold monotone if a later horizon computes
    // lower.
    rt.safe = rt.safe.max(achieved);
    ran
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::derive_seed_sharded;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    const LAT: SimDuration = SimDuration::from_millis(5);

    struct PingWorld {
        rng: SimRng,
        peers: u32,
        received: u64,
    }

    impl ShardWorld for PingWorld {
        fn deliver(
            [token, _]: [u64; 2],
            site: &mut SiteState<Self>,
            en: &mut Engine<SiteState<Self>>,
        ) {
            site.world.received += 1;
            metrics::counter_add("ping.received", 1);
            site.trace
                .record(en.now(), "ping", format_args!("got token {token}"));
        }
    }

    fn tick(
        [left, _]: [u64; 2],
        site: &mut SiteState<PingWorld>,
        en: &mut Engine<SiteState<PingWorld>>,
    ) {
        metrics::counter_add("ping.ticks", 1);
        let jitter = site.world.rng.next_below(400);
        if left.is_multiple_of(3) {
            let dst = SiteId((site.id().0 + 1) % site.world.peers);
            site.send(dst, en.now() + LAT, [left, 0]);
        }
        if left > 0 {
            en.schedule_in(SimDuration::from_micros(800 + jitter), [left - 1, 0], tick);
        } else {
            site.trace
                .record(en.now(), "ping", format_args!("{} drained", site.id()));
        }
    }

    /// A ring of `n` sites where each sends to its successor `LAT`
    /// out, synchronized at `LAT` between every pair.
    fn build(n: u32, ticks: u64) -> ShardedSim<PingWorld> {
        let mut sim = ShardedSim::new(
            LookaheadMatrix::uniform(n as usize, LAT),
            (0..n).map(|i| PingWorld {
                rng: SimRng::seed_from(derive_seed_sharded(0xabad_5eed, 0, u64::from(i))),
                peers: n,
                received: 0,
            }),
        );
        for i in 0..n as usize {
            sim.with_site(i, |site, en| {
                let offset = SimDuration::from_micros(100 + 37 * u64::from(site.id().0));
                en.schedule_at(SimTime::ZERO + offset, [ticks, 0], tick);
            });
        }
        sim
    }

    /// The ring's own topology: `LAT` between neighbours, relayed
    /// (and so wider) between everything else.
    fn ring_matrix(n: u32) -> LookaheadMatrix {
        LookaheadMatrix::shortest_paths(n as usize, |a, b| {
            let gap = a.0.abs_diff(b.0);
            (gap == 1 || gap == n - 1).then_some(LAT)
        })
    }

    type Fingerprint = (u64, u64, u64, u64, Metrics);

    fn fingerprint(sim: ShardedSim<PingWorld>) -> Fingerprint {
        fingerprint_by(sim, ShardedSim::run)
    }

    fn fingerprint_by(
        mut sim: ShardedSim<PingWorld>,
        run: fn(&mut ShardedSim<PingWorld>),
    ) -> Fingerprint {
        metrics::reset();
        run(&mut sim);
        metrics::reset();
        (
            sim.trace_digest(),
            sim.windows(),
            sim.messages(),
            sim.total_events(),
            sim.merged_metrics(),
        )
    }

    #[test]
    fn results_are_invariant_across_shard_and_thread_counts() {
        let want = fingerprint(build(5, 40));
        assert!(want.1 > 1, "protocol actually windowed: {} windows", want.1);
        assert!(want.2 > 0, "messages flowed");
        let ring = fingerprint(build(5, 40).with_lookahead(ring_matrix(5)));
        // The ring's matrix widens horizons between non-neighbours
        // but never changes the schedule: same history, same metrics
        // apart from the window count.
        assert_eq!(
            (ring.0, ring.2, ring.3),
            (want.0, want.2, want.3),
            "the ring matrix changed the history"
        );
        let world_metrics = |m: &Metrics| {
            m.counters()
                .filter(|(name, _)| *name != "shard.windows")
                .collect::<Vec<_>>()
        };
        assert_eq!(world_metrics(&ring.4), world_metrics(&want.4));
        // Both matrices execute the sequential reference's history.
        let oracle = fingerprint_by(build(5, 40), ShardedSim::run_sequential);
        assert_eq!(
            (oracle.0, oracle.1, oracle.2, oracle.3),
            (want.0, 0, want.2, want.3),
            "the window protocol diverged from the sequential reference"
        );
        assert_eq!(world_metrics(&oracle.4), world_metrics(&want.4));
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 4] {
                let got = fingerprint(build(5, 40).shards(shards).threads(threads));
                assert_eq!(got.0, want.0, "digest at shards={shards} threads={threads}");
                assert_eq!(got.1, want.1, "windows at shards={shards}");
                assert_eq!(got.2, want.2, "messages at shards={shards}");
                assert_eq!(got.3, want.3, "events at shards={shards}");
                assert_eq!(
                    got.4, want.4,
                    "metrics at shards={shards} threads={threads}"
                );
                let got = fingerprint(
                    build(5, 40)
                        .with_lookahead(ring_matrix(5))
                        .shards(shards)
                        .threads(threads),
                );
                assert_eq!(
                    (got.0, got.1, got.2, got.3),
                    (ring.0, ring.1, ring.2, ring.3),
                    "ring matrix at shards={shards} threads={threads}"
                );
                assert_eq!(got.4, ring.4, "ring metrics at shards={shards}");
            }
        }
    }

    #[test]
    fn inline_encoding_keeps_delivery_allocation_free() {
        let mut sim = build(4, 30);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert!(m.counter("shard.messages") > 0, "messages flowed");
        assert_eq!(
            m.counter("shard.outbox_regrown"),
            0,
            "no outbox outgrew its reservation"
        );
    }

    #[test]
    fn sites_never_share_a_cache_line_pair() {
        assert_eq!(std::mem::align_of::<SiteRuntime<Idle>>(), 128);
        assert_eq!(std::mem::size_of::<SiteRuntime<Idle>>() % 128, 0);
    }

    #[test]
    fn outbox_entries_take_four_words() {
        // The destination (padded to a word), the arrival and the
        // message's two words.
        fn entry_size<T>(_: &Vec<T>) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!(entry_size(&Outbox::new()), 32);
        assert_eq!(std::mem::size_of::<(SiteId, SimTime, [u64; 2])>(), 32);
    }

    /// A world with no behaviour of its own: tests drive it through
    /// closures scheduled on its sites.
    struct Idle;

    impl ShardWorld for Idle {
        fn deliver(_: [u64; 2], _: &mut SiteState<Self>, _: &mut Engine<SiteState<Self>>) {}
    }

    fn idle(n: usize) -> ShardedSim<Idle> {
        ShardedSim::new(LookaheadMatrix::uniform(n, LAT), (0..n).map(|_| Idle))
    }

    #[test]
    fn undersized_outboxes_count_their_regrowth() {
        // One more message in one window than an outbox reserves
        // forces regrowth, and the counter says so — deterministically,
        // since buffer circulation is part of the coordinator's fixed
        // drain order.
        let mut sim = idle(2);
        sim.with_site(0, |_, en| {
            en.schedule_at(SimTime::ZERO, [0; 2], |_, site, en| {
                for _ in 0..=OUTBOX_RESERVE {
                    site.send(SiteId(1), en.now() + LAT, [0; 2]);
                }
            });
        });
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(m.counter("shard.messages"), OUTBOX_RESERVE as u64 + 1);
        assert!(
            m.counter("shard.outbox_regrown") > 0,
            "an outbox must regrow past its reservation"
        );
    }

    /// A world that logs the words delivered to it, in order.
    struct Log(Vec<[u64; 2]>);

    impl ShardWorld for Log {
        fn deliver(words: [u64; 2], site: &mut SiteState<Self>, _: &mut Engine<SiteState<Self>>) {
            site.world.0.push(words);
        }
    }

    /// The two words that carry payload `k`, with high bits set in
    /// both, so a delivery that truncates or drops either word shows.
    fn payload(k: u64) -> [u64; 2] {
        [0xa5a5_0000_0000_0000 | k, !k]
    }

    /// Runs a 3-site `Log` world in which, at time zero, site 0 sends
    /// payloads 1 to site 2, 2 to site 1 and 3 to site 2, and site 1
    /// sends 4 and 5 to site 2, all arriving `LAT` later; returns the
    /// words sites 2 and 1 delivered, in order.
    fn same_instant_deliveries(
        threads: usize,
        run: fn(&mut ShardedSim<Log>),
    ) -> (Vec<[u64; 2]>, Vec<[u64; 2]>) {
        let mut sim = ShardedSim::new(
            LookaheadMatrix::uniform(3, LAT),
            (0..3).map(|_| Log(Vec::new())),
        )
        .shards(3)
        .threads(threads);
        sim.with_site(0, |_, en| {
            en.schedule_at(SimTime::ZERO, [0; 2], |_, site, en| {
                for (dst, k) in [(2, 1), (1, 2), (2, 3)] {
                    site.send(SiteId(dst), en.now() + LAT, payload(k));
                }
            });
        });
        sim.with_site(1, |_, en| {
            en.schedule_at(SimTime::ZERO, [0; 2], |_, site, en| {
                for k in [4, 5] {
                    site.send(SiteId(2), en.now() + LAT, payload(k));
                }
            });
        });
        metrics::reset();
        run(&mut sim);
        metrics::reset();
        let mut got = |i| sim.with_site(i, |site, _| site.world.0.clone());
        (got(2), got(1))
    }

    #[test]
    fn drains_deliver_by_ascending_source_then_send_order() {
        // Every message arrives at the same instant, so each site's
        // delivery order is the order the messages entered its queue:
        // site 0's sends before site 1's, each source's in send order.
        // `deliver` sees both words exactly as they were sent.
        let want = (
            [1, 3, 4, 5].map(payload).to_vec(),
            [2].map(payload).to_vec(),
        );
        for threads in [1, 2, 8] {
            let got = same_instant_deliveries(threads, ShardedSim::run);
            assert_eq!(got, want, "run at threads={threads}");
        }
        let got = same_instant_deliveries(1, ShardedSim::run_sequential);
        assert_eq!(got, want, "sequential reference");
    }

    #[test]
    fn messages_arrive_and_are_counted() {
        let mut sim = build(3, 30);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(m.counter("ping.received"), sim.messages());
        assert_eq!(m.counter("shard.windows"), sim.windows());
        let received: u64 = (0..3)
            .map(|i| sim.with_site(i, |s, _| s.world.received))
            .sum();
        assert_eq!(received, sim.messages());
        // 30 ticks → sends at every third countdown value (11 per
        // site), delivered exactly once each.
        assert_eq!(sim.messages(), 3 * 11);
    }

    #[test]
    fn run_folds_metrics_into_the_callers_context() {
        metrics::reset();
        metrics::counter_add("ambient.before", 2);
        let mut sim = build(2, 10);
        sim.run();
        let m = metrics::take();
        assert_eq!(m.counter("ambient.before"), 2, "ambient context survives");
        assert_eq!(m.counter("shard.windows"), sim.windows());
        assert!(m.counter("ping.ticks") >= 2 * 10);
        assert!(
            m.counter("sim.events_executed") >= m.counter("ping.ticks"),
            "engine accounting rides along"
        );
    }

    #[test]
    fn critical_path_accounting_models_shard_parallelism() {
        let mut serial = build(4, 30);
        metrics::reset();
        serial.run();
        metrics::reset();
        // One shard is its own critical path.
        assert!((serial.model_speedup() - 1.0).abs() < 1e-12);

        let mut sharded = build(4, 30).shards(4);
        metrics::reset();
        sharded.run();
        metrics::reset();
        assert_eq!(sharded.total_events(), serial.total_events());
        assert!(
            sharded.model_speedup() > 2.0,
            "4 near-symmetric sites across 4 shards: got {:.2}",
            sharded.model_speedup()
        );
        assert!(sharded.model_speedup() <= 4.0 + 1e-12);
    }

    /// An event handler on an `Idle` site.
    type IdleHandler = fn([u64; 2], &mut SiteState<Idle>, &mut Engine<SiteState<Idle>>);

    /// Runs an 8-site, 8-shard `Idle` world on `threads` threads with
    /// `first` scheduled at time zero on site 3, and returns the
    /// message of the panic the run must fail with.
    fn failure_at(threads: usize, run: fn(&mut ShardedSim<Idle>), first: IdleHandler) -> String {
        let run = panic::catch_unwind(|| {
            let mut sim = idle(8).shards(8).threads(threads);
            sim.with_site(3, |_, en| {
                en.schedule_at(SimTime::ZERO, [0; 2], first);
            });
            run(&mut sim);
        });
        message(&run.expect_err("the run must fail"))
    }

    /// The message a panic payload carries.
    fn message(payload: &Payload) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .expect("a message payload")
    }

    /// Asserts the run fails with `expected` at 1, 2 and 8 threads
    /// (on the caller alone, and with the failure on a helper thread),
    /// and so does the sequential reference.
    fn fails_loudly(expected: &str, first: IdleHandler) {
        for threads in [1, 2, 8] {
            let message = failure_at(threads, ShardedSim::run, first);
            assert!(
                message.contains(expected),
                "threads={threads}: failed with {message:?}, not {expected:?}"
            );
        }
        let message = failure_at(1, ShardedSim::run_sequential, first);
        assert!(
            message.contains(expected),
            "sequential reference failed with {message:?}, not {expected:?}"
        );
    }

    #[test]
    fn sends_below_the_lookahead_fail_loudly() {
        // Arriving now, a lookahead short of the earliest legal
        // instant: the destination may already have run past it.
        fails_loudly("lookahead violation", |_, site, en| {
            site.send(SiteId(4), en.now(), [0; 2]);
        });
    }

    #[test]
    fn self_sends_fail_loudly() {
        fails_loudly("self-send", |_, site, en| {
            site.send(site.id(), en.now() + LAT, [0; 2]);
        });
    }

    #[test]
    fn handler_panics_fail_loudly() {
        fails_loudly("handler exploded", |_, site, en| {
            // Fail in a later window, after the helpers have run one.
            en.schedule_in(LAT + LAT, [0; 2], |_, site, _| {
                panic!("{}: handler exploded", site.id());
            });
            site.send(SiteId(4), en.now() + LAT, [0; 2]);
        });
    }

    #[test]
    fn failed_runs_restore_the_callers_metrics_context() {
        for threads in [1, 2, 8] {
            metrics::reset();
            metrics::counter_add("ambient.before", 3);
            let mut sim = idle(8).shards(8).threads(threads);
            sim.with_site(3, |_, en| {
                en.schedule_at(SimTime::ZERO, [0; 2], |_, site, _| {
                    metrics::counter_add("site.before_failure", 1);
                    panic!("{}: handler exploded", site.id());
                });
            });
            let failed = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
            assert!(failed.is_err(), "threads={threads}: the run must fail");
            // No site registry is left installed and none of the run's
            // activity leaks into the caller's context.
            assert_eq!(
                metrics::take().counters().collect::<Vec<_>>(),
                [("ambient.before", 3)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn same_window_failures_raise_the_lowest_site() {
        // Sites 1 and 2 fail at the same instant on different shards.
        // Every packing runs site 1, since no site below it fails, so
        // every packing raises its panic, whichever shard runs first.
        fn failure(threads: usize, run: fn(&mut ShardedSim<Idle>)) -> String {
            let mut sim = idle(8).shards(2).threads(threads);
            for i in [1, 2] {
                sim.with_site(i, |_, en| {
                    en.schedule_at(SimTime::ZERO, [0; 2], |_, site, _| {
                        panic!("{}: handler exploded", site.id());
                    });
                });
            }
            let failed = panic::catch_unwind(AssertUnwindSafe(|| run(&mut sim)));
            message(&failed.expect_err("the run must fail"))
        }
        for threads in [1, 2, 8] {
            assert_eq!(
                failure(threads, ShardedSim::run),
                "site1: handler exploded",
                "threads={threads}"
            );
        }
        assert_eq!(
            failure(1, ShardedSim::run_sequential),
            "site1: handler exploded",
            "sequential reference"
        );
    }

    #[test]
    fn failed_runs_refuse_inspection() {
        type Read = fn(&mut ShardedSim<Idle>);
        let reads: [(&str, Read); 3] = [
            ("with_site(0)", |sim| sim.with_site(0, |_, _| ())),
            ("trace_digest", |sim| {
                sim.trace_digest();
            }),
            ("merged_metrics", |sim| {
                sim.merged_metrics();
            }),
        ];
        for threads in [1, 2, 8] {
            let mut sim = idle(8).shards(8).threads(threads);
            sim.with_site(3, |_, en| {
                en.schedule_at(SimTime::ZERO, [0; 2], |_, site, _| {
                    panic!("{}: handler exploded", site.id());
                });
            });
            let failed = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
            assert!(failed.is_err(), "threads={threads}: the run must fail");
            // Site 0 never panicked, but its state is not a state of
            // the simulation either.
            for (what, read) in reads {
                let refused = panic::catch_unwind(AssertUnwindSafe(|| read(&mut sim)));
                let why = message(&refused.expect_err("a failed sim refuses inspection"));
                assert!(
                    why.contains("the run failed"),
                    "threads={threads}: {what} panicked with {why:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "different site count")]
    fn mismatched_matrix_is_rejected() {
        let _ = ShardedSim::new(LookaheadMatrix::uniform(3, LAT), [Idle, Idle]);
    }

    #[test]
    #[should_panic(expected = "single-shot")]
    fn running_twice_panics() {
        let mut sim = idle(1);
        sim.run();
        sim.run();
    }

    #[test]
    fn empty_and_idle_worlds_terminate() {
        let mut none = idle(0);
        none.run();
        assert_eq!(none.windows(), 0);
        let mut quiet = idle(2).shards(2).threads(2);
        quiet.run();
        assert_eq!(quiet.windows(), 0);
        assert_eq!(quiet.total_events(), 0);
    }

    #[test]
    fn echo_chunked_windows_cut_barriers_without_changing_results() {
        // Two metro pairs (5ms) joined by 40ms WAN links. Each
        // delivery runs a 20-event local burst (1ms apart) and the
        // final burst event sends the next hop. A uniform 5ms matrix
        // (the minimum latency anywhere: the global protocol) chops
        // every burst into 5ms windows; under the topology's matrix a
        // bursting site's only constraints are the distant pair
        // (t + 40ms) and its own send's echo — so a whole burst fits
        // in one window and the barrier count drops by the
        // burst-to-lookahead ratio. Every burst event also records a
        // histogram value, which must not notice where the windows
        // fall.
        struct Burster;
        fn burst(
            args: [u64; 2],
            site: &mut SiteState<Burster>,
            en: &mut Engine<SiteState<Burster>>,
        ) {
            let [hops_left, burst_left] = args;
            site.trace
                .record(en.now(), "burst", format_args!("{hops_left}/{burst_left}"));
            metrics::histogram_record("burst.left", burst_left);
            if burst_left > 0 {
                en.schedule_in(
                    SimDuration::from_millis(1),
                    [hops_left, burst_left - 1],
                    burst,
                );
            } else if hops_left > 0 {
                let peer = SiteId(site.id().0 ^ 1);
                site.send(
                    peer,
                    en.now() + SimDuration::from_millis(5),
                    [hops_left - 1, 0],
                );
            }
        }
        impl ShardWorld for Burster {
            fn deliver(
                [hops_left, _]: [u64; 2],
                site: &mut SiteState<Self>,
                en: &mut Engine<SiteState<Self>>,
            ) {
                burst([hops_left, 19], site, en);
            }
        }
        let direct = |a: SiteId, b: SiteId| {
            let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
            match (lo, hi) {
                (0, 1) | (2, 3) => Some(SimDuration::from_millis(5)),
                _ => Some(SimDuration::from_millis(40)),
            }
        };
        let build = |matrix: LookaheadMatrix, run: fn(&mut ShardedSim<Burster>)| {
            let mut sim = ShardedSim::new(matrix, (0..4).map(|_| Burster));
            for src in [0usize, 2] {
                sim.with_site(src, |_, en| {
                    en.schedule_in(SimDuration::ZERO, [12, 19], burst);
                });
            }
            metrics::reset();
            run(&mut sim);
            metrics::reset();
            sim
        };
        let uniform = LookaheadMatrix::uniform(4, SimDuration::from_millis(5));
        let mut global = build(uniform.clone(), ShardedSim::run);
        let mut paired = build(LookaheadMatrix::shortest_paths(4, direct), ShardedSim::run);
        let mut oracle = build(uniform, ShardedSim::run_sequential);
        for sim in [&mut global, &mut paired] {
            assert_eq!(
                sim.trace_digest(),
                oracle.trace_digest(),
                "diverged from the sequential reference"
            );
            assert_eq!(sim.messages(), oracle.messages());
            assert_eq!(sim.total_events(), oracle.total_events());
        }
        assert!(
            paired.windows() * 3 <= global.windows(),
            "echo-chunked per-pair windows must cut barriers at least 3x here: {} vs {}",
            paired.windows(),
            global.windows()
        );
        // World metrics do not depend on window boundaries: every
        // counter but the window count, and every histogram, agree
        // across the two matrices and the reference.
        let (g, p) = (global.merged_metrics(), paired.merged_metrics());
        let counters = |m: &Metrics| {
            m.counters()
                .filter(|(name, _)| *name != "shard.windows")
                .collect::<Vec<_>>()
        };
        for m in [&p, &oracle.merged_metrics()] {
            assert_eq!(counters(m), counters(&g));
            assert_eq!(
                m.histograms().collect::<Vec<_>>(),
                g.histograms().collect::<Vec<_>>()
            );
        }
        assert_eq!(
            g.histogram("burst.left").map(|h| h.count()),
            Some(global.total_events()),
            "every event recorded one value"
        );
    }
}

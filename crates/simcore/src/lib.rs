//! # gridvm-simcore
//!
//! Deterministic discrete-event simulation kernel for the `gridvm`
//! reproduction of *"A Case For Grid Computing On Virtual Machines"*
//! (Figueiredo, Dinda, Fortes — ICDCS 2003).
//!
//! Every stochastic and time-dependent behaviour in the suite flows
//! through this crate so that a whole-grid experiment is reproducible
//! from a single seed:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`],
//!   [`SimDuration`]) as newtypes, never bare integers.
//! * [`units`] — domain quantities: [`ByteSize`](units::ByteSize),
//!   [`CpuWork`](units::CpuWork), [`Bandwidth`](units::Bandwidth),
//!   [`Share`](units::Share).
//! * [`rng`] — a seedable, splittable PRNG ([`SimRng`](rng::SimRng),
//!   xoshiro256++) plus the distributions the workload and load-trace
//!   generators need.
//! * [`event`] + [`engine`] — the event queue and executor. An event
//!   is a function pointer over a caller-supplied world type plus two
//!   words of state, stored inline in its queue entry, so scheduling
//!   does not allocate. Events are ordered by `(time, sequence)` so
//!   same-time events run in schedule order (deterministic
//!   tie-breaking), in `std`'s binary heap behind a one-event held
//!   slot that lets a handler's successor skip the heap.
//! * [`fault`] — seeded, deterministic fault injection:
//!   [`FaultPlan`](fault::FaultPlan) schedules typed faults
//!   (host crash/slowdown, link partition/loss/latency, storage
//!   errors, NFS timeouts); sessions consume them through a
//!   [`FaultFeed`](fault::FaultFeed)'s one query, `take_matching`,
//!   which fires each fault at most once.
//! * [`stats`] — the one-pass (Welford) mean/std/min/max accumulator
//!   [`OnlineStats`] behind every experiment harness's summary rows.
//! * [`hist`] — streaming log-scale [`Histogram`](hist::Histogram)s,
//!   the workspace's one histogram type, with integer-exact merge:
//!   constant memory per named series, p50/p99/p999 extraction,
//!   bit-identical rollups at any shard/thread count.
//! * [`metrics`] — counter and histogram registries recorded into a
//!   thread-local per-replication context and merged exactly, in any
//!   order, across replications and threads; pre-resolved
//!   [`metrics::Counter`] handles keep hot-loop increments off the
//!   string-keyed path.
//! * [`lookahead`] — the all-pairs minimum-latency closure
//!   ([`LookaheadMatrix`](lookahead::LookaheadMatrix)) behind the
//!   sharded synchronizer's per-(src,dst) window protocol.
//! * [`lru`] — the O(1) intrusive LRU set ([`LruSet`](lru::LruSet)),
//!   the per-block reference the extent buffer cache is tested
//!   against, and the fast-hash [`FastMap`](lru::FastMap) that indexes
//!   it, the buffer cache and the proxy's file numbers.
//! * [`slot`] — the dense-index hot-state layer: a generation-stamped
//!   slot arena ([`SlotMap`](slot::SlotMap)) with typed
//!   [`Handle<Tag>`](slot::Handle) keys, and a paged
//!   [`DenseMap`](slot::DenseMap) for small integer key universes —
//!   O(1) per-entity lookups with hash-free, deterministic iteration.
//! * [`replication`] — the [`ReplicationRunner`], which fans N
//!   independent replications across OS threads while keeping results
//!   bit-identical for any thread count.
//! * [`shard`] — conservative parallel simulation *within* one
//!   replication: per-site event queues synchronized in lookahead
//!   windows ([`shard::ShardedSim`]), with cross-site
//!   messages, two words each like an event's, through deterministic
//!   mailboxes to the destination world's
//!   [`deliver`](shard::ShardWorld::deliver) — results bit-identical
//!   at any shard/thread count.
//! * [`server`] — analytic FIFO/processor-sharing service primitives
//!   used to model disks, links and RPC endpoints without spawning an
//!   event per byte.
//! * [`trace`] — a lightweight category-tagged trace recorder, with
//!   optional seeded sampling at one per-mille rate: a stratified,
//!   stateless per-category keep decision, so sampled digests are
//!   shard/thread invariant.
//!
//! ## Example
//!
//! ```
//! use gridvm_simcore::engine::Engine;
//! use gridvm_simcore::time::{SimDuration, SimTime};
//!
//! #[derive(Default)]
//! struct World { ticks: u32 }
//!
//! let mut engine: Engine<World> = Engine::new();
//! let mut world = World::default();
//! // A handler gets the event's two words, the world and the engine.
//! engine.schedule_in(SimDuration::from_secs(1), [0; 2], |_, w, en| {
//!     w.ticks += 1;
//!     en.schedule_in(SimDuration::from_secs(1), [0; 2], |_, w, _| w.ticks += 1);
//! });
//! engine.run(&mut world);
//! assert_eq!(world.ticks, 2);
//! assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_secs(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(debug_assertions, test))]
pub mod audit;
pub mod engine;
pub mod event;
pub mod fault;
pub mod hist;
pub mod lookahead;
pub mod lru;
pub mod metrics;
pub mod replication;
pub mod rng;
pub mod server;
pub mod shard;
pub mod slot;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use engine::Engine;
pub use fault::{FaultFeed, FaultKind, FaultPlan};
pub use hist::Histogram;
pub use lookahead::LookaheadMatrix;
pub use lru::LruSet;
pub use metrics::Metrics;
pub use replication::{ReplicationCtx, ReplicationRunner};
pub use rng::SimRng;
pub use shard::{ShardWorld, ShardedSim, SiteId, SiteState};
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize, CpuWork, Share};

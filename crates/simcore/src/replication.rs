//! Parallel, deterministic replication of independent simulations.
//!
//! Every experiment in the suite is N independent replications of a
//! deterministic simulation. The [`ReplicationRunner`] fans those
//! replications out across OS threads with `std::thread::scope` (no
//! external dependencies), while keeping the results bit-identical
//! for any thread count:
//!
//! * each replication's seed is a pure function of
//!   `(master_seed, replication_index)` — see [`derive_seed`] — so a
//!   replication computes the same thing no matter which thread picks
//!   it up;
//! * results are returned in replication-index order;
//! * each replication runs against a fresh thread-local
//!   [`metrics`](crate::metrics) context, and the per-replication
//!   registries are merged in index order, so merged metrics are also
//!   independent of scheduling.
//!
//! ```
//! use gridvm_simcore::replication::ReplicationRunner;
//!
//! let serial = ReplicationRunner::new(1).run(42, 8, |ctx| ctx.rng().next_u64());
//! let parallel = ReplicationRunner::new(4).run(42, 8, |ctx| ctx.rng().next_u64());
//! assert_eq!(serial.results, parallel.results);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::metrics::{self, Metrics};
use crate::rng::SimRng;

/// Derives the seed of one replication from the experiment's master
/// seed. A pure SplitMix64-style mix: changing either input scrambles
/// the output, and `(master, 0)` differs from `master` itself, so a
/// replication's stream never aliases the master stream.
pub fn derive_seed(master_seed: u64, replication_index: u64) -> u64 {
    let mut z = master_seed ^ replication_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a shard index into an already-derived seed with a second
/// full SplitMix64 round keyed by a distinct odd constant, so the
/// `(master, index, shard)` streams can alias neither each other nor
/// the unsharded `(master, index)` stream — shard 0 is *not* the
/// plain replication seed.
fn mix_shard(base: u64, shard_index: u64) -> u64 {
    let mut z = base ^ shard_index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of one shard (site) of one replication from the
/// experiment's master seed: [`derive_seed`]`(master, index)` folded
/// with the shard index. Used when a replication itself runs as a
/// sharded world ([`crate::shard`]) so per-shard RNG streams cannot
/// collide across replications or with the replication's own stream.
pub fn derive_seed_sharded(master_seed: u64, replication_index: u64, shard_index: u64) -> u64 {
    mix_shard(derive_seed(master_seed, replication_index), shard_index)
}

/// Derives an independent sub-stream of one site's seed — stream 0
/// for the workload RNG, stream 1 for trace-sampling decisions, and
/// so on. A further full mix round over an offset base, so stream
/// seeds alias neither each other nor any `(master, index, shard)`
/// seed: the macro-scale worlds need a site's sampling decisions to
/// stay fixed when its workload draw count changes.
pub fn derive_seed_stream(site_seed: u64, stream_index: u64) -> u64 {
    mix_shard(site_seed ^ 0x5851_F42D_4C95_7F2D, stream_index)
}

/// What one replication closure receives: its index and derived seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationCtx {
    /// Zero-based replication index.
    pub index: usize,
    /// Seed derived from `(master_seed, index)`.
    pub seed: u64,
}

impl ReplicationCtx {
    /// A generator seeded with this replication's derived seed.
    pub fn rng(&self) -> SimRng {
        SimRng::seed_from(self.seed)
    }
}

/// Everything a batch of replications produced.
#[derive(Clone, Debug)]
pub struct ReplicationOutcome<R> {
    /// Per-replication results, in replication-index order.
    pub results: Vec<R>,
    /// Each replication's metrics registry, in index order.
    pub replication_metrics: Vec<Metrics>,
    /// All registries merged in index order.
    pub merged_metrics: Metrics,
}

/// Fans independent replications out across OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationRunner {
    threads: usize,
}

impl ReplicationRunner {
    /// A runner using `threads` OS threads; `0` means "one per
    /// available core".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        ReplicationRunner { threads }
    }

    /// The worker-thread count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `replications` instances of `f`, replication `i` seeded
    /// with [`derive_seed`]`(master_seed, i)`. Results and metrics are
    /// identical for every thread count.
    pub fn run<R, F>(&self, master_seed: u64, replications: usize, f: F) -> ReplicationOutcome<R>
    where
        R: Send,
        F: Fn(&ReplicationCtx) -> R + Sync,
    {
        let seeds: Vec<u64> = (0..replications)
            .map(|i| derive_seed(master_seed, i as u64))
            .collect();
        self.run_seeded(&seeds, f)
    }

    /// Runs one replication per entry of `seeds` (replication `i`
    /// gets `seeds[i]`). The general form used by harnesses that
    /// derive seeds from richer lineages (e.g. per-scenario labels).
    pub fn run_seeded<R, F>(&self, seeds: &[u64], f: F) -> ReplicationOutcome<R>
    where
        R: Send,
        F: Fn(&ReplicationCtx) -> R + Sync,
    {
        let n = seeds.len();
        let workers = self.threads.min(n.max(1));
        let run_one = |index: usize| {
            let ctx = ReplicationCtx {
                index,
                seed: seeds[index],
            };
            // A fresh context per replication: activity from other
            // replications sharing this OS thread must not bleed in.
            metrics::reset();
            let result = f(&ctx);
            (result, metrics::take())
        };

        let mut indexed: Vec<(usize, R, Metrics)> = if workers <= 1 {
            (0..n)
                .map(|i| {
                    let (r, m) = run_one(i);
                    (i, r, m)
                })
                .collect()
        } else {
            // Work-stealing over an atomic cursor: replication order
            // of *execution* varies with scheduling, but results are
            // keyed by index, so assembly below is deterministic.
            let next = AtomicUsize::new(0);
            let mut batches = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut mine = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                let (r, m) = run_one(i);
                                mine.push((i, r, m));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replication worker panicked"))
                    .collect::<Vec<_>>()
            });
            let mut all: Vec<(usize, R, Metrics)> = batches.drain(..).flatten().collect();
            all.sort_by_key(|(i, _, _)| *i);
            all
        };

        let mut results = Vec::with_capacity(n);
        let mut replication_metrics = Vec::with_capacity(n);
        let mut merged_metrics = Metrics::new();
        for (expected, (i, r, m)) in indexed.drain(..).enumerate() {
            debug_assert_eq!(i, expected, "replication results out of order");
            merged_metrics.merge(&m);
            results.push(r);
            replication_metrics.push(m);
        }
        ReplicationOutcome {
            results,
            replication_metrics,
            merged_metrics,
        }
    }
}

impl Default for ReplicationRunner {
    fn default() -> Self {
        ReplicationRunner::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_seed(1, 0);
        assert_eq!(a, derive_seed(1, 0));
        assert_ne!(a, derive_seed(1, 1));
        assert_ne!(a, derive_seed(2, 0));
        assert_ne!(a, 1, "replication 0 must not alias the master seed");
    }

    #[test]
    fn sharded_seeds_are_distinct_from_each_other_and_the_base_stream() {
        let base = derive_seed(7, 3);
        let s0 = derive_seed_sharded(7, 3, 0);
        let s1 = derive_seed_sharded(7, 3, 1);
        assert_eq!(s0, derive_seed_sharded(7, 3, 0), "pure function");
        assert_ne!(s0, s1, "shards draw distinct streams");
        assert_ne!(s0, base, "shard 0 must not alias the replication seed");
        assert_ne!(
            derive_seed_sharded(7, 2, 1),
            derive_seed_sharded(7, 3, 1),
            "replication index still matters"
        );
    }

    #[test]
    fn results_are_in_index_order() {
        let out = ReplicationRunner::new(4).run(7, 100, |ctx| ctx.index);
        assert_eq!(out.results, (0..100).collect::<Vec<_>>());
        assert_eq!(out.replication_metrics.len(), 100);
    }

    #[test]
    fn thread_count_does_not_change_results_or_metrics() {
        let work = |ctx: &ReplicationCtx| {
            let mut rng = ctx.rng();
            metrics::counter_add("test.draws", 3);
            metrics::timer_record("test.t", rng.next_f64());
            (0..3).fold(0u64, |acc, _| acc ^ rng.next_u64())
        };
        let serial = ReplicationRunner::new(1).run(99, 40, work);
        for threads in [2, 4, 8] {
            let parallel = ReplicationRunner::new(threads).run(99, 40, work);
            assert_eq!(serial.results, parallel.results, "threads={threads}");
            assert_eq!(
                serial.merged_metrics, parallel.merged_metrics,
                "threads={threads}"
            );
            assert_eq!(serial.replication_metrics, parallel.replication_metrics);
        }
        assert_eq!(serial.merged_metrics.counter("test.draws"), 120);
    }

    #[test]
    fn metrics_do_not_bleed_across_replications() {
        let out = ReplicationRunner::new(2).run(5, 10, |_| {
            metrics::counter_add("one", 1);
        });
        for m in &out.replication_metrics {
            assert_eq!(m.counter("one"), 1);
        }
        assert_eq!(out.merged_metrics.counter("one"), 10);
    }

    #[test]
    fn zero_replications_is_empty() {
        let out = ReplicationRunner::new(4).run(1, 0, |ctx| ctx.index);
        assert!(out.results.is_empty());
        assert!(out.merged_metrics.is_empty());
    }

    #[test]
    fn run_seeded_uses_given_seeds() {
        let seeds = [11u64, 22, 33];
        let out = ReplicationRunner::new(2).run_seeded(&seeds, |ctx| ctx.seed);
        assert_eq!(out.results, seeds);
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert!(ReplicationRunner::new(0).threads() >= 1);
        assert_eq!(ReplicationRunner::new(3).threads(), 3);
    }
}

//! Lightweight category-tagged trace recorder.
//!
//! Components record `(time, category, message)` triples; experiment
//! harnesses and tests filter by category to assert on causal
//! sequences (e.g. "the VM image blocks were fetched before the guest
//! booted"). The recorder is bounded so long simulations cannot
//! exhaust memory.
//!
//! At macro scale even the bounded ring is too much history to keep
//! *usefully* — a million-session run wraps it thousands of times
//! over, so what survives is an arbitrary tail. A sampled log
//! ([`TraceLog::with_sampling`]) keeps a deterministic stratified
//! subset instead: each category keeps `rate_per_mille / 1000` of its
//! entries, chosen by a seeded hash of `(seed, category, sequence)` —
//! a pure function of the stream, so two runs of the same world (at
//! any shard/thread packing) retain byte-identical entries and the
//! golden tests can pin a digest over the sampled stream.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

use crate::metrics::Counter;

/// Entries discarded by bounded trace logs (hot when a log wraps).
static TRACE_DROPPED: Counter = Counter::new("trace.dropped");

/// Entries retained by sampling trace logs.
static TRACE_SAMPLED: Counter = Counter::new("trace.sampled");

/// The sampling state of a sampled log: the per-mille rate, the
/// decision seed, and a per-category sequence counter (bounded by the
/// number of distinct categories, not the entry volume).
#[derive(Clone, Debug)]
struct Sampler {
    rate_per_mille: u32,
    seed: u64,
    seq: BTreeMap<&'static str, u64>,
}

/// The stratified Bernoulli keep decision of a sampled log: item
/// `seq` of stratum `category` under `seed` is kept iff a hash of the
/// triple lands below `rate_per_mille`. Deterministic, O(1),
/// stateless — every shard makes identical decisions for identical
/// streams, so sampled digests are shard/thread invariant.
fn keep_per_mille(seed: u64, category: &str, seq: u64, rate_per_mille: u32) -> bool {
    if rate_per_mille >= 1000 {
        return true;
    }
    if rate_per_mille == 0 {
        return false;
    }
    let mut h = crate::fault::Fnv::new();
    h.mix(&seed.to_le_bytes());
    h.mix(category.as_bytes());
    h.mix(&seq.to_le_bytes());
    (h.finish() % 1000) < u64::from(rate_per_mille)
}

/// A single trace entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened.
    pub time: SimTime,
    /// Component-chosen category tag (e.g. `"vmm"`, `"vfs"`).
    pub category: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.time, self.category, self.message)
    }
}

/// A bounded in-memory trace log.
///
/// ```
/// use gridvm_simcore::trace::TraceLog;
/// use gridvm_simcore::time::SimTime;
///
/// let mut log = TraceLog::with_capacity(100);
/// log.record(SimTime::ZERO, "vmm", format_args!("vm-{} boot start", 1));
/// assert_eq!(log.entries().next().unwrap().message, "vm-1 boot start");
/// assert_eq!(log.entries().count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TraceLog {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    dropped: u64,
    sampled: u64,
    sampler: Option<Sampler>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_capacity(16_384)
    }
}

impl TraceLog {
    /// Creates a log that keeps at most `capacity` recent entries. The
    /// ring grows as entries are kept, so a log that keeps few, or is
    /// replaced before it records, reserves no buffer for the rest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "TraceLog capacity must be positive");
        TraceLog {
            entries: VecDeque::new(),
            capacity,
            dropped: 0,
            sampled: 0,
            sampler: None,
        }
    }

    /// Creates a sampling log: every entry passes a seeded
    /// stratified keep decision (a hash of seed, category and
    /// sequence number) at
    /// `rate_per_mille` (0 = drop all, 1000 = keep all; higher rates
    /// clamp to 1000) over its category's own sequence numbers before
    /// entering the ring; the rest count as dropped. Retention is a
    /// pure function of `(rate, seed, stream)` — sampled digests are
    /// reproducible and shard/thread invariant.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_sampling(capacity: usize, rate_per_mille: u32, seed: u64) -> Self {
        let mut log = TraceLog::with_capacity(capacity);
        log.sampler = Some(Sampler {
            rate_per_mille: rate_per_mille.min(1000),
            seed,
            seq: BTreeMap::new(),
        });
        log
    }

    /// Appends an entry, evicting the oldest when full. On a sampling
    /// log the entry first passes its category's keep decision;
    /// sampled-out entries count as dropped (surfaced by experiment
    /// summaries, like ring evictions).
    ///
    /// The message is a `format_args!`, formatted into the entry's
    /// `String` only once the entry is kept, so a sampled-out entry
    /// formats nothing. A `format!` String is rejected at compile time
    /// (E0308): it would allocate the message up front for nothing.
    pub fn record(&mut self, time: SimTime, category: &'static str, message: fmt::Arguments<'_>) {
        if let Some(s) = &mut self.sampler {
            let seq = s.seq.entry(category).or_insert(0);
            let keep = keep_per_mille(s.seed, category, *seq, s.rate_per_mille);
            *seq += 1;
            if !keep {
                self.dropped += 1;
                TRACE_DROPPED.add(1);
                return;
            }
            self.sampled += 1;
            TRACE_SAMPLED.add(1);
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
            // Surfaced by experiment summaries: silently truncated
            // causal history invalidates trace-based assertions.
            TRACE_DROPPED.add(1);
        }
        self.entries.push_back(TraceEntry {
            time,
            category,
            message: message.to_string(),
        });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// How many entries have been discarded — ring evictions plus, on
    /// a sampling log, entries the keep decision rejected.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// How many entries a sampling log has retained through its keep
    /// decision (0 on an unsampled log).
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries (the drop counter is preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Order-sensitive FNV-1a digest over every retained entry: two
    /// logs agree iff they recorded the same causal history in the
    /// same order. This is the regression anchor the golden-trace
    /// tests pin.
    pub fn digest(&self) -> u64 {
        let mut h = crate::fault::Fnv::new();
        for e in &self.entries {
            h.mix(&e.time.as_nanos().to_le_bytes());
            h.mix(e.category.as_bytes());
            h.mix(e.message.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::with_capacity(10);
        log.record(t(1), "vmm", format_args!("boot"));
        log.record(t(2), "vfs", format_args!("read"));
        log.record(t(3), "vmm", format_args!("ready"));
        assert_eq!(log.len(), 3);
        let vmm: Vec<_> = log
            .entries()
            .filter(|e| e.category == "vmm")
            .map(|e| e.message.as_str())
            .collect();
        assert_eq!(vmm, vec!["boot", "ready"]);
    }

    #[test]
    fn keep_decision_edges_and_rate() {
        assert!(keep_per_mille(1, "x", 0, 1000));
        assert!(!keep_per_mille(1, "x", 0, 0));
        let kept = (0..10_000u64)
            .filter(|&i| keep_per_mille(99, "vo", i, 100))
            .count();
        // 10% nominal rate; the hash is uniform enough for ±3%.
        assert!((700..1300).contains(&kept), "kept {kept} of 10000");
        assert_eq!(
            keep_per_mille(5, "a", 3, 500),
            keep_per_mille(5, "a", 3, 500),
            "pure function"
        );
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut log = TraceLog::with_capacity(3);
        for i in 0..5 {
            log.record(t(i), "x", format_args!("m{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let msgs: Vec<_> = log.entries().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["m2", "m3", "m4"]);
    }

    #[test]
    fn only_kept_entries_are_formatted() {
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("m")
            }
        }
        let formatted = std::cell::Cell::new(0);
        let mut sampled_out = TraceLog::with_sampling(8, 0, 1);
        for i in 0..10 {
            sampled_out.record(t(i), "x", format_args!("{}", Counted(&formatted)));
        }
        assert_eq!(formatted.get(), 0, "dropped entries format nothing");
        let mut kept = TraceLog::with_capacity(8);
        kept.record(t(0), "x", format_args!("{}", Counted(&formatted)));
        assert_eq!(formatted.get(), 1);
        assert_eq!(kept.entries().next().map(|e| e.message.as_str()), Some("m"));
    }

    #[test]
    fn entry_display_is_informative() {
        let e = TraceEntry {
            time: t(2),
            category: "vmm",
            message: "vm-1 resumed".into(),
        };
        let s = e.to_string();
        assert!(s.contains("vmm"));
        assert!(s.contains("vm-1 resumed"));
    }

    #[test]
    fn digest_tracks_content_and_order() {
        let mut a = TraceLog::with_capacity(8);
        let mut b = TraceLog::with_capacity(8);
        for log in [&mut a, &mut b] {
            log.record(t(1), "vmm", format_args!("boot"));
            log.record(t(2), "vfs", format_args!("read"));
        }
        assert_eq!(a.digest(), b.digest());
        let mut c = TraceLog::with_capacity(8);
        c.record(t(2), "vfs", format_args!("read"));
        c.record(t(1), "vmm", format_args!("boot"));
        assert_ne!(a.digest(), c.digest(), "order matters");
        assert_eq!(
            TraceLog::default().digest(),
            TraceLog::with_capacity(1).digest(),
            "empty logs share the offset basis"
        );
    }

    #[test]
    fn sampling_is_seed_deterministic_and_stratified() {
        let log = |seed, chatty: bool| {
            let mut log = TraceLog::with_sampling(4096, 300, seed);
            for i in 0..2000u64 {
                log.record(t(i), "vo", format_args!("s{i}"));
                if chatty {
                    log.record(t(i), "chatty", format_args!("c{i}"));
                }
            }
            log
        };
        let run = |seed| {
            let log = log(seed, true);
            (log.digest(), log.sampled(), log.dropped(), log.len())
        };
        let a = run(42);
        assert_eq!(a, run(42), "pure function of the seed and stream");
        assert_ne!(a.0, run(43).0, "different seed keeps a different set");
        let (_, sampled, dropped, len) = a;
        assert_eq!(sampled + dropped, 4000, "every record accounted for");
        assert_eq!(len as u64, sampled, "nothing evicted below capacity");
        // ~30% of 4000 in all, and of each category's own 2000.
        assert!((900..1500).contains(&sampled), "sampled {sampled}");
        let (mixed, alone) = (log(42, true), log(42, false));
        for category in ["vo", "chatty"] {
            let kept = mixed.entries().filter(|e| e.category == category).count();
            assert!((450..750).contains(&kept), "{category} kept {kept}");
        }
        // A category's keep decisions follow its own sequence numbers,
        // so interleaving another category leaves its kept set alone.
        assert!(
            mixed
                .entries()
                .filter(|e| e.category == "vo")
                .eq(alone.entries().filter(|e| e.category == "vo")),
            "stratified per category"
        );
    }

    #[test]
    fn sampling_rates_zero_and_full() {
        let mut none = TraceLog::with_sampling(64, 0, 1);
        let mut all = TraceLog::with_sampling(64, 1000, 1);
        for i in 0..50u64 {
            none.record(t(i), "x", format_args!("m"));
            all.record(t(i), "x", format_args!("m"));
        }
        assert!(none.is_empty());
        assert_eq!(none.dropped(), 50);
        assert_eq!(all.len(), 50);
        assert_eq!(all.sampled(), 50);
        assert_eq!(all.dropped(), 0);
        assert_eq!(TraceLog::default().sampled(), 0);
    }

    #[test]
    fn sampled_log_still_bounds_the_ring() {
        let mut log = TraceLog::with_sampling(8, 1000, 1);
        for i in 0..20u64 {
            log.record(t(i), "x", format_args!("m{i}"));
        }
        assert_eq!(log.len(), 8, "ring bound still applies");
        assert_eq!(log.sampled(), 20);
        assert_eq!(log.dropped(), 12, "evictions counted");
    }

    #[test]
    fn clear_preserves_drop_count() {
        let mut log = TraceLog::with_capacity(1);
        log.record(t(0), "x", format_args!("a"));
        log.record(t(1), "x", format_args!("b"));
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
    }
}

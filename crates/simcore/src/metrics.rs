//! Per-replication metrics: counters and histograms keyed by static
//! names, recorded into an implicit thread-local context and merged
//! across replications.
//!
//! The simulation kernel and the middleware crates record their
//! headline quantities (events executed, world switches, trap counts,
//! cache hits/misses, RPC round-trips) through the free functions in
//! this module. Because the context is thread-local, components need
//! no extra plumbing, recording stays lock-free, and a
//! [`ReplicationRunner`](crate::replication::ReplicationRunner)
//! harvesting one context per replication observes exactly the
//! activity of that replication regardless of how replications are
//! packed onto OS threads.
//!
//! A context is two thread-locals: a registry of named series, and a
//! fixed array of counter cells that [`Counter`] handles add into. A
//! handle's increment is one add into its cell, with no borrow flag,
//! no length check and no call; [`take`] folds the cells into the
//! registry by name.
//!
//! Merging is exact: registries are ordered maps keyed by
//! `&'static str`, counters add and histograms add bucket by bucket,
//! all in integers. So any order and grouping of merges gives the same
//! registry, bit for bit, and merged results are identical for any
//! `--threads` value.
//!
//! ```
//! use gridvm_simcore::metrics;
//!
//! metrics::reset();
//! metrics::counter_add("vfs.rpc_round_trips", 3);
//! metrics::histogram_record("vmm.world_switch_ns", 12_000);
//! let m = metrics::take();
//! assert_eq!(m.counter("vfs.rpc_round_trips"), 3);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::hist::Histogram;

/// A registry of named counters and histograms.
///
/// Component code does not usually construct one directly; it records
/// through the module-level free functions and lets the replication
/// runner harvest and merge contexts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub const fn new() -> Self {
        Metrics {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Total named series tracked (counters + histograms). The
    /// memory-bound the macro-scale soak tests assert: a
    /// million-session run must keep this proportional to the *kinds*
    /// of quantities measured, never the session count.
    pub fn tracked_entries(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records one value into the named log-scale histogram (created
    /// on first touch). Constant memory per name — the streaming
    /// replacement for unbounded per-sample growth at macro scale.
    ///
    /// # Panics
    ///
    /// Panics when `v` is above the [`Histogram`] top bucket; see
    /// [`Histogram::record`].
    pub fn histogram_record(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// The named counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, when recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Folds another registry into this one: counters add and
    /// histograms merge, in integers, so the result does not depend on
    /// the order or grouping of merges.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} = {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "hist    {name} = {h}")?;
        }
        Ok(())
    }
}

/// How many distinct [`Counter`] handles a process may register: the
/// length of every thread's cell array. Registering one more panics.
const CELL_CAPACITY: usize = 64;

thread_local! {
    /// This thread's registry: what the free functions record, and
    /// what [`take`] folds the counter cells into.
    static REGISTRY: RefCell<Metrics> = const { RefCell::new(Metrics::new()) };
    /// This thread's [`Counter`] values, indexed by registry slot.
    /// `const`-initialized and without a destructor, so reaching them
    /// costs no lazy-init or teardown check, and no call.
    static CELLS: [Cell<u64>; CELL_CAPACITY] =
        const { [const { Cell::new(0) }; CELL_CAPACITY] };
}

/// Global slot registry backing [`Counter`] handles: slot index →
/// counter name. Locked on first use of each handle and by [`take`]
/// when a cell holds a value, never on the increment path.
#[expect(
    clippy::disallowed_types,
    reason = "the counter-name registry interns &'static str names once per process; it never \
              carries simulation state and contention cannot reorder results"
)]
static COUNTER_REGISTRY: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());

/// Appends `name` to the slot registry and returns its slot.
///
/// # Panics
///
/// Panics when every one of the [`CELL_CAPACITY`] cells is taken.
fn register(names: &mut Vec<&'static str>, name: &'static str) -> usize {
    assert!(
        names.len() < CELL_CAPACITY,
        "metrics: cannot register counter {name:?}: all {CELL_CAPACITY} counter cells are \
         taken; raise CELL_CAPACITY"
    );
    names.push(name);
    names.len() - 1
}

/// A pre-resolved counter handle for hot loops.
///
/// A `Counter` is declared once as a `static` and resolves its
/// registry slot on first use; after that, [`add`](Counter::add) is
/// one add into the thread's cell for that slot — no string hashing
/// per increment, unlike [`counter_add`]. Values land under the same
/// name in the harvested [`Metrics`], so reports and their merge order
/// are unchanged.
///
/// ```
/// use gridvm_simcore::metrics::{self, Counter};
///
/// static FRAMES: Counter = Counter::new("demo.frames");
///
/// metrics::reset();
/// for _ in 0..3 {
///     FRAMES.add(1);
/// }
/// assert_eq!(metrics::take().counter("demo.frames"), 3);
/// ```
pub struct Counter {
    name: &'static str,
    slot: OnceLock<usize>,
}

impl Counter {
    /// Declares a handle for the named counter. `const`, so it can
    /// initialise a `static` at the call site.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `delta` to this counter in the current thread's context.
    ///
    /// # Panics
    ///
    /// The handle's first use panics when the cell array is full: 64
    /// other handles are already registered.
    #[inline]
    pub fn add(&self, delta: u64) {
        let slot = match self.slot.get() {
            Some(&slot) => slot,
            None => self.register(),
        };
        // `register` hands out slots below the capacity, so the mask
        // changes nothing; it only lets the index go unchecked.
        CELLS.with(|cells| {
            let cell = &cells[slot % CELL_CAPACITY];
            cell.set(cell.get() + delta);
        });
    }

    #[cold]
    #[inline(never)]
    fn register(&self) -> usize {
        *self.slot.get_or_init(|| {
            let mut names = COUNTER_REGISTRY.lock().expect("counter registry poisoned");
            register(&mut names, self.name)
        })
    }
}

/// Empties this thread's context: the registry and every counter cell.
/// The replication runner calls this before each replication so
/// contexts never bleed across replications sharing an OS thread. The
/// cells are a fixed array, so no `Counter::add` mid-replication
/// regrows them, and resetting allocates nothing.
pub fn reset() {
    REGISTRY.with(|r| *r.borrow_mut() = Metrics::new());
    CELLS.with(|cells| cells.iter().for_each(|c| c.set(0)));
}

/// Takes everything recorded into this thread's context as one
/// registry, leaving the context empty: each non-zero counter cell
/// folds into the registry by name, and is zeroed.
pub fn take() -> Metrics {
    let mut registry = REGISTRY.with(|r| std::mem::take(&mut *r.borrow_mut()));
    CELLS.with(|cells| {
        if cells.iter().any(|c| c.get() != 0) {
            let names = COUNTER_REGISTRY.lock().expect("counter registry poisoned");
            for (cell, name) in cells.iter().zip(names.iter()) {
                match cell.take() {
                    0 => {}
                    v => registry.counter_add(name, v),
                }
            }
        }
    });
    registry
}

/// Folds a harvested registry back into this thread's context — the
/// inverse of [`take`]. The sharded simulator uses this to fold each
/// helper thread's registry into the caller's context, and to restore
/// the caller's ambient context with the run's registry folded in, so
/// a run's metrics land in whatever context invoked it (a
/// replication, a test, a bench sample).
pub fn merge_current(m: &Metrics) {
    REGISTRY.with(|r| r.borrow_mut().merge(m));
}

/// Adds `delta` to a counter in this thread's context.
pub fn counter_add(name: &'static str, delta: u64) {
    REGISTRY.with(|r| r.borrow_mut().counter_add(name, delta));
}

/// Records a value into a log-scale histogram in this thread's
/// context. See [`Metrics::histogram_record`].
pub fn histogram_record(name: &'static str, v: u64) {
    REGISTRY.with(|r| r.borrow_mut().histogram_record(name, v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;

    #[test]
    fn counters_add_and_merge() {
        let mut a = Metrics::new();
        a.counter_add("x", 2);
        a.counter_add("x", 3);
        let mut b = Metrics::new();
        b.counter_add("x", 5);
        b.counter_add("y", 1);
        a.merge(&b);
        assert_eq!(a.counter("x"), 10);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.counter("absent"), 0);
    }

    /// The names the merge property draws from: few enough that
    /// registries share some series, and each registry is short
    /// enough to miss some.
    const NAMES: [&str; 5] = ["p.a", "p.b", "p.c", "p.d", "p.e"];

    /// A registry from `(kind, name, value)` draws: kind 0 adds to a
    /// counter, kind 1 records into a histogram.
    fn registry(draws: &[(u8, usize, u64)]) -> Metrics {
        let mut m = Metrics::new();
        for &(kind, name, v) in draws {
            if kind == 0 {
                m.counter_add(NAMES[name], v);
            } else {
                m.histogram_record(NAMES[name], v);
            }
        }
        m
    }

    proptest! {
        #[test]
        fn merge_is_exact_in_any_order_and_grouping(
            parts in collection::vec(
                collection::vec((0u8..2, 0usize..NAMES.len(), 0u64..1 << 40), 0..12),
                1..8,
            ),
            seed in 0u64..u64::MAX,
        ) {
            let regs: Vec<Metrics> = parts.iter().map(|draws| registry(draws)).collect();
            let mut in_order = Metrics::new();
            for r in &regs {
                in_order.merge(r);
            }
            // A seeded shuffle, cut into runs that merge on their own,
            // then the runs merged in a second shuffled order.
            let mut rng = SimRng::seed_from(seed);
            let mut order: Vec<usize> = (0..regs.len()).collect();
            rng.shuffle(&mut order);
            let mut groups = vec![Metrics::new()];
            for i in order {
                if rng.chance(0.4) {
                    groups.push(Metrics::new());
                }
                groups.last_mut().expect("never empty").merge(&regs[i]);
            }
            rng.shuffle(&mut groups);
            let mut regrouped = Metrics::new();
            for g in &groups {
                regrouped.merge(g);
            }
            prop_assert_eq!(regrouped, in_order);
        }
    }

    #[test]
    fn thread_local_context_roundtrip() {
        reset();
        counter_add("ctx.count", 7);
        histogram_record("ctx.hist", 5);
        let m = take();
        assert_eq!(m.counter("ctx.count"), 7);
        assert_eq!(m.histogram("ctx.hist").map(|h| h.count()), Some(1));
        // The context is now empty again.
        assert_eq!(take(), Metrics::new());
    }

    #[test]
    fn counter_handles_fold_into_named_registry() {
        static HANDLE: Counter = Counter::new("handle.count");
        reset();
        HANDLE.add(4);
        HANDLE.add(1);
        // Mixing the slow path under the same name accumulates into
        // one named counter.
        counter_add("handle.count", 2);
        let m = take();
        assert_eq!(m.counter("handle.count"), 7);
        assert_eq!(take(), Metrics::new(), "take drained the fast cells");
        assert_eq!(HANDLE.name(), "handle.count");
    }

    #[test]
    #[should_panic(expected = "all 64 counter cells are taken")]
    fn registering_past_the_cell_capacity_panics() {
        let mut names = vec!["cap.filler"; CELL_CAPACITY - 1];
        assert_eq!(register(&mut names, "cap.last"), CELL_CAPACITY - 1);
        register(&mut names, "cap.one_too_many");
    }

    #[test]
    fn counter_handles_respect_reset() {
        static HANDLE: Counter = Counter::new("handle.reset");
        reset();
        HANDLE.add(9);
        reset();
        assert_eq!(take().counter("handle.reset"), 0);
    }

    #[test]
    fn duplicate_handles_for_one_name_share_the_named_counter() {
        static A: Counter = Counter::new("handle.dup");
        static B: Counter = Counter::new("handle.dup");
        reset();
        A.add(1);
        B.add(2);
        assert_eq!(take().counter("handle.dup"), 3);
    }

    #[test]
    fn merge_current_restores_a_taken_context() {
        reset();
        counter_add("mc.count", 2);
        let snapshot = take();
        assert_eq!(take(), Metrics::new());
        merge_current(&snapshot);
        counter_add("mc.count", 1);
        assert_eq!(take().counter("mc.count"), 3);
    }

    #[test]
    fn display_lists_everything() {
        let mut m = Metrics::new();
        m.counter_add("a.count", 1);
        m.histogram_record("d.hist", 42);
        let s = m.to_string();
        assert!(s.contains("a.count"), "{s}");
        assert!(s.contains("d.hist") && s.contains("p99="), "{s}");
    }

    #[test]
    fn histograms_record_merge_and_stay_bounded() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let mut whole = Metrics::new();
        for v in 1..=1000u64 {
            whole.histogram_record("lat", v);
            if v % 2 == 0 {
                a.histogram_record("lat", v);
            } else {
                b.histogram_record("lat", v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole, "split-and-merge is bit-identical");
        let h = a.histogram("lat").expect("recorded");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // One named series no matter how many values flowed through.
        assert_eq!(a.tracked_entries(), 1);
        assert!(a.histograms().count() == 1);
    }

    #[test]
    fn histogram_free_function_lands_in_context() {
        reset();
        histogram_record("ctx.hist", 7);
        histogram_record("ctx.hist", 9);
        let m = take();
        assert_eq!(m.histogram("ctx.hist").map(|h| h.count()), Some(2));
        assert!(m.histogram("absent").is_none());
    }

    #[test]
    fn tracked_entries_counts_kinds_not_values() {
        let mut m = Metrics::new();
        assert_eq!(m.tracked_entries(), 0);
        for _ in 0..100 {
            m.counter_add("k.count", 1);
            m.histogram_record("k.hist", 3);
        }
        assert_eq!(m.tracked_entries(), 2);
    }
}

//! Per-replication metrics: counters, gauges and timers keyed by
//! static names, recorded into an implicit thread-local context and
//! merged across replications.
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
//! Merging is deterministic: registries are ordered maps keyed by
//! `&'static str`, counters add, gauges and timers fold their
//! per-replication distributions with the same parallel-Welford merge
//! [`OnlineStats`] uses, and the runner merges contexts in
//! replication-index order — so merged results are bit-identical for
//! any `--threads` value.
//!
//! ```
//! use gridvm_simcore::metrics;
//!
//! metrics::reset();
//! metrics::counter_add("vfs.rpc_round_trips", 3);
//! metrics::gauge_set("host.utilization", 0.75);
//! metrics::timer_record("vmm.world_switch_secs", 1.2e-5);
//! let m = metrics::take();
//! assert_eq!(m.counter("vfs.rpc_round_trips"), 3);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::hist::Histogram;
use crate::stats::OnlineStats;

/// Aggregate of one timer: invocation count plus the distribution of
/// recorded durations (in seconds).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimerStat {
    stats: OnlineStats,
}

impl TimerStat {
    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Sum of recorded durations, seconds.
    pub fn total_secs(&self) -> f64 {
        self.stats.mean() * self.stats.count() as f64
    }

    /// Distribution of recorded durations.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }
}

/// A registry of named counters, gauges and timers.
///
/// Component code does not usually construct one directly; it records
/// through the module-level free functions and lets the replication
/// runner harvest and merge contexts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, OnlineStats>,
    timers: BTreeMap<&'static str, TimerStat>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub const fn new() -> Self {
        Metrics {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            timers: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
            && self.histograms.is_empty()
    }

    /// Total named series tracked (counters + gauges + timers +
    /// histograms). The memory-bound the macro-scale soak tests
    /// assert: a million-session run must keep this proportional to
    /// the *kinds* of quantities measured, never the session count.
    pub fn tracked_entries(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.timers.len() + self.histograms.len()
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge for this replication. Within one
    /// replication the last write wins; across merged replications the
    /// gauge reports the distribution of per-replication values.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        let mut s = OnlineStats::new();
        s.record(value);
        self.gauges.insert(name, s);
    }

    /// Records one duration (seconds) against the named timer.
    pub fn timer_record(&mut self, name: &'static str, secs: f64) {
        self.timers.entry(name).or_default().stats.record(secs);
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

    /// The named gauge's value distribution, when set.
    pub fn gauge(&self, name: &str) -> Option<&OnlineStats> {
        self.gauges.get(name)
    }

    /// The named timer's aggregate, when recorded.
    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers.get(name)
    }

    /// The named histogram, when recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &OnlineStats)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, v))
    }

    /// All timers, name-ordered.
    pub fn timers(&self) -> impl Iterator<Item = (&'static str, &TimerStat)> + '_ {
        self.timers.iter().map(|(k, v)| (*k, v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Folds another registry into this one: counters add, gauge and
    /// timer distributions merge. Deterministic given the merge order,
    /// which the replication runner fixes to replication-index order.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, s) in &other.gauges {
            self.gauges.entry(name).or_default().merge(s);
        }
        for (name, t) in &other.timers {
            self.timers.entry(name).or_default().stats.merge(&t.stats);
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
        for (name, s) in &self.gauges {
            writeln!(f, "gauge   {name} = {s}")?;
        }
        for (name, t) in &self.timers {
            writeln!(
                f,
                "timer   {name} = n={} total={:.6}s",
                t.count(),
                t.total_secs()
            )?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "hist    {name} = {h}")?;
        }
        Ok(())
    }
}

/// A metrics context: a named registry plus the cells of the
/// pre-resolved [`Counter`] handles recorded into it.
///
/// Each thread has one installed, which the free functions and
/// [`Counter::add`] record into. Code that runs work on behalf of
/// several owners on one thread gives each owner a context of its own
/// and [`swap`]s it in while the owner's work runs.
#[derive(Debug)]
pub struct Context {
    registry: Metrics,
    /// Counter values indexed by registry slot, folded into
    /// `registry` by name on harvest: an increment is one array add,
    /// with no string hash and no map walk.
    cells: Vec<u64>,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// An empty context with a cell for every counter registered so
    /// far, so no [`Counter::add`] into it regrows the cells once the
    /// process has warmed up.
    pub fn new() -> Self {
        let registered = COUNTER_REGISTRY
            .lock()
            .expect("counter registry poisoned")
            .len();
        Context {
            registry: Metrics::new(),
            cells: vec![0; registered],
        }
    }

    /// Folds the counter cells into the registry by name, zeroing
    /// them, and returns the registry: everything recorded into this
    /// context.
    pub fn fold(&mut self) -> &Metrics {
        if self.cells.iter().any(|&v| v != 0) {
            let names = COUNTER_REGISTRY.lock().expect("counter registry poisoned");
            for (slot, v) in self.cells.iter_mut().enumerate() {
                if *v != 0 {
                    self.registry.counter_add(names[slot], std::mem::take(v));
                }
            }
        }
        &self.registry
    }

    /// True when nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.registry.is_empty() && self.cells.iter().all(|&v| v == 0)
    }
}

thread_local! {
    static CONTEXT: RefCell<Context> = const {
        RefCell::new(Context {
            registry: Metrics::new(),
            cells: Vec::new(),
        })
    };
}

/// Global slot registry backing [`Counter`] handles: slot index →
/// counter name. Locked on first use of each handle and when a
/// context is created or folded, never on the increment path.
#[expect(
    clippy::disallowed_types,
    reason = "the counter-name registry interns &'static str names once per process; it never \
              carries simulation state and contention cannot reorder results"
)]
static COUNTER_REGISTRY: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());

/// A pre-resolved counter handle for hot loops.
///
/// A `Counter` is declared once as a `static` and resolves its
/// registry slot on first use; after that, [`add`](Counter::add) is an
/// index into the thread's context cells — no string hashing per
/// increment, unlike [`counter_add`]. Values land under the same name
/// in the harvested [`Metrics`], so reports and their merge order are
/// unchanged.
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
    slot: OnceLock<u32>,
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

    fn slot(&self) -> usize {
        *self.slot.get_or_init(|| {
            let mut reg = COUNTER_REGISTRY.lock().expect("counter registry poisoned");
            reg.push(self.name);
            (reg.len() - 1) as u32
        }) as usize
    }

    /// Adds `delta` to this counter in the current thread's context.
    pub fn add(&self, delta: u64) {
        let slot = self.slot();
        CONTEXT.with(|c| {
            let cells = &mut c.borrow_mut().cells;
            if cells.len() <= slot {
                cells.resize(slot + 1, 0);
            }
            cells[slot] += delta;
        });
    }
}

/// Installs an empty context on this thread, with a cell for every
/// counter registered so far. The replication runner calls this before
/// each replication so contexts never bleed across replications
/// sharing an OS thread, and no `Counter::add` mid-replication regrows
/// the cells.
pub fn reset() {
    CONTEXT.with(|c| *c.borrow_mut() = Context::new());
}

/// Takes everything recorded into this thread's context as one
/// registry, leaving the context empty.
pub fn take() -> Metrics {
    CONTEXT.with(|c| {
        let mut ctx = c.borrow_mut();
        ctx.fold();
        std::mem::take(&mut ctx.registry)
    })
}

/// Swaps this thread's context with `ctx`, registry and counter cells
/// together: installs `ctx` as the context that every recording call
/// on this thread lands in and hands back the one it replaces.
///
/// This is how code that runs work on behalf of different owners on
/// one thread keeps each owner's activity in the owner's own context:
/// the sharded synchronizer installs a site's context for the site's
/// window and swaps it back out after — two swaps per window, with no
/// registry built, merged or freed and no cells drained. Recording
/// into the installed context is exactly recording into an owner-held
/// one, so a gauge keeps its last write and timers accumulate in one
/// distribution, however the owner's work is cut into windows.
pub fn swap(ctx: &mut Context) {
    CONTEXT.with(|c| std::mem::swap(&mut *c.borrow_mut(), ctx));
}

/// Folds a harvested registry back into this thread's context — the
/// inverse of [`take`]. The sharded simulator uses this to restore a
/// caller's ambient context and then fold per-site registries in site
/// order, so a run's merged metrics land in whatever context invoked
/// it (a replication, a test, a bench sample).
pub fn merge_current(m: &Metrics) {
    CONTEXT.with(|c| c.borrow_mut().registry.merge(m));
}

/// Adds `delta` to a counter in this thread's context.
pub fn counter_add(name: &'static str, delta: u64) {
    CONTEXT.with(|c| c.borrow_mut().registry.counter_add(name, delta));
}

/// Sets a gauge in this thread's context.
pub fn gauge_set(name: &'static str, value: f64) {
    CONTEXT.with(|c| c.borrow_mut().registry.gauge_set(name, value));
}

/// Records a duration (seconds) against a timer in this thread's
/// context.
pub fn timer_record(name: &'static str, secs: f64) {
    CONTEXT.with(|c| c.borrow_mut().registry.timer_record(name, secs));
}

/// Records a value into a log-scale histogram in this thread's
/// context. See [`Metrics::histogram_record`].
pub fn histogram_record(name: &'static str, v: u64) {
    CONTEXT.with(|c| c.borrow_mut().registry.histogram_record(name, v));
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn gauges_keep_last_write_then_merge_distributions() {
        let mut a = Metrics::new();
        a.gauge_set("u", 0.25);
        a.gauge_set("u", 0.75); // last write wins within a replication
        let mut b = Metrics::new();
        b.gauge_set("u", 0.25);
        a.merge(&b);
        let g = a.gauge("u").expect("set");
        assert_eq!(g.count(), 2);
        assert!((g.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timers_accumulate() {
        let mut m = Metrics::new();
        m.timer_record("t", 1.0);
        m.timer_record("t", 3.0);
        let t = m.timer("t").expect("recorded");
        assert_eq!(t.count(), 2);
        assert!((t.total_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_sensitive_only_in_float_rounding() {
        // Same multiset of inputs merged in the same order must be
        // bit-identical — the property the runner relies on.
        let build = || {
            let mut parts = Vec::new();
            for i in 0..4 {
                let mut m = Metrics::new();
                m.counter_add("c", i);
                m.gauge_set("g", i as f64 * 0.1);
                m.timer_record("t", i as f64);
                parts.push(m);
            }
            let mut merged = Metrics::new();
            for p in &parts {
                merged.merge(p);
            }
            merged
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn thread_local_context_roundtrip() {
        reset();
        counter_add("ctx.count", 7);
        gauge_set("ctx.gauge", 2.5);
        timer_record("ctx.timer", 0.5);
        let m = take();
        assert_eq!(m.counter("ctx.count"), 7);
        assert_eq!(m.gauge("ctx.gauge").map(|g| g.count()), Some(1));
        // The context is now empty again.
        assert!(take().is_empty());
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
        assert!(take().is_empty(), "take drained the fast cells");
        assert_eq!(HANDLE.name(), "handle.count");
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
        assert!(take().is_empty());
        merge_current(&snapshot);
        counter_add("mc.count", 1);
        assert_eq!(take().counter("mc.count"), 3);
    }

    #[test]
    fn swap_moves_counter_cells_with_the_context() {
        static HANDLE: Counter = Counter::new("swap.fast");
        reset();
        HANDLE.add(1);
        let mut owned = Context::new();
        swap(&mut owned);
        gauge_set("swap.gauge", 1.0);
        gauge_set("swap.gauge", 2.0);
        timer_record("swap.timer", 0.25);
        HANDLE.add(3);
        swap(&mut owned);
        // Everything recorded while the owner's context was installed
        // landed in it, the gauge keeping its last write as in any one
        // registry, and the counter in the owner's own cells.
        let m = owned.fold();
        let g = m.gauge("swap.gauge").expect("set");
        assert_eq!((g.count(), g.mean()), (1, 2.0));
        assert_eq!(m.timer("swap.timer").map(TimerStat::count), Some(1));
        assert_eq!(m.counter("swap.fast"), 3);
        // The thread's own context saw none of it.
        let rest = take();
        assert_eq!(rest.counter("swap.fast"), 1);
        assert!(rest.gauge("swap.gauge").is_none());
        assert!(rest.timer("swap.timer").is_none());
    }

    #[test]
    fn display_lists_everything() {
        let mut m = Metrics::new();
        m.counter_add("a.count", 1);
        m.gauge_set("b.gauge", 1.0);
        m.timer_record("c.timer", 0.1);
        m.histogram_record("d.hist", 42);
        let s = m.to_string();
        assert!(s.contains("a.count") && s.contains("b.gauge") && s.contains("c.timer"));
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
            m.gauge_set("k.gauge", 0.5);
            m.timer_record("k.timer", 0.1);
            m.histogram_record("k.hist", 3);
        }
        assert_eq!(m.tracked_entries(), 4);
    }
}

// audit:hot-path: every simulated event is scheduled and dispatched to its handler here
//! The discrete-event executor.
//!
//! An [`Engine<W>`] advances a virtual clock by repeatedly popping the
//! earliest pending event and invoking its handler with exclusive
//! access to both the caller's world state `W` and the engine itself
//! (so handlers can schedule follow-up events). Determinism follows
//! from the queue's `(time, sequence)` total order and from all
//! randomness flowing through [`crate::rng::SimRng`].
//!
//! ## Allocation-free dispatch
//!
//! Every event has one shape: a plain function pointer plus two
//! machine words of state, which the handler receives as its first
//! argument. The event lives inline in its queue entry beside the
//! `(time, sequence)` key, 40 bytes in all, so scheduling never calls
//! the allocator once the queue has grown to its peak length.
//! [`schedule_at`](Engine::schedule_at) and
//! [`schedule_in`](Engine::schedule_in) inline into the handler that
//! calls them, down to the queue's held-slot store, so the handler's
//! successor goes from registers into the slot without a call.
//! Captureless closures coerce to the pointer. A closure that captures
//! does not compile; its state belongs in the two words or in the
//! world:
//!
//! ```compile_fail,E0308
//! use gridvm_simcore::engine::Engine;
//! use gridvm_simcore::time::SimTime;
//!
//! let mut en: Engine<u64> = Engine::new();
//! let step = 3;
//! en.schedule_at(SimTime::ZERO, [0; 2], move |_, w, _| *w += step);
//! ```
//!
//! The same handler with its state in the words compiles and runs:
//!
//! ```
//! use gridvm_simcore::engine::Engine;
//! use gridvm_simcore::time::SimTime;
//!
//! let mut en: Engine<u64> = Engine::new();
//! let step = 3;
//! en.schedule_at(SimTime::ZERO, [step, 0], |words, w, _| *w += words[0]);
//! let mut w = 0;
//! en.run(&mut w);
//! assert_eq!(w, 3);
//! ```

use crate::event::EventQueue;
use crate::metrics::Counter;
use crate::time::{SimDuration, SimTime};

/// Events executed across all engine run loops (pre-resolved handle:
/// the increment happens once per run call, but runs themselves can be
/// hot — e.g. the shard loop's per-site window chunks).
static EVENTS_EXECUTED: Counter = Counter::new("sim.events_executed");

/// A pending event: the handler and the two words it is called with.
struct Event<W> {
    words: [u64; 2],
    f: fn([u64; 2], &mut W, &mut Engine<W>),
}

/// A discrete-event simulation executor over a world type `W`.
///
/// See the [crate-level example](crate) for typical use.
pub struct Engine<W> {
    clock: SimTime,
    queue: EventQueue<Event<W>>,
    executed: u64,
    horizon: Option<SimTime>,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("clock", &self.clock)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Engine<W> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            horizon: None,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `f` to run at the absolute instant `at`, called with
    /// `words`. Events due at one instant run in the order they were
    /// scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock: the past is
    /// immutable in a discrete-event simulation, so this is always a
    /// caller bug.
    #[inline]
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        words: [u64; 2],
        f: fn([u64; 2], &mut W, &mut Engine<W>),
    ) {
        assert!(
            at >= self.clock,
            "schedule_at: {at} is before current time {}",
            self.clock
        );
        self.queue.push(at, Event { words, f });
    }

    /// Schedules `f` to run `delay` after the current instant, called
    /// with `words`. A zero delay runs it at the current instant, after
    /// every event already scheduled for it.
    #[inline]
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        words: [u64; 2],
        f: fn([u64; 2], &mut W, &mut Engine<W>),
    ) {
        self.queue.push(self.clock + delay, Event { words, f });
    }

    /// Executes a single event, if any remains and it does not lie
    /// beyond the horizon [`run_before`](Engine::run_before) sets.
    /// Returns `true` if an event ran.
    fn step(&mut self, world: &mut W) -> bool {
        // One fused queue operation: the horizon check reads the
        // entry the pop then removes. The event leaves the queue before
        // its handler runs, so `pending` and `next_event_time` stay
        // exact inside the handler.
        let Some((time, ev)) = self.queue.pop_due(self.horizon) else {
            return false;
        };
        debug_assert!(time >= self.clock, "event queue produced the past");
        self.clock = time;
        self.executed += 1;
        // Periodic self-audit: every dev-profile run continuously
        // sweeps the queue invariants without O(n) work per event.
        #[cfg(any(debug_assertions, test))]
        if self
            .executed
            .is_multiple_of(crate::audit::AUTO_AUDIT_INTERVAL)
        {
            if let Err(v) = self.audit() {
                panic!(
                    "engine self-audit failed after {} events: {v}",
                    self.executed
                );
            }
        }
        (ev.f)(ev.words, world, self);
        true
    }

    /// Re-verifies the engine's invariants (runtime audit layer; see
    /// [`crate::audit`]): the event queue's sequence-counter check plus
    /// causality — no pending event may be earlier than the clock,
    /// since the past is immutable in a discrete-event simulation.
    #[cfg(any(debug_assertions, test))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        self.queue.audit()?;
        if let Some(next) = self.queue.earliest_time() {
            if next < self.clock {
                return Err(crate::audit::AuditViolation {
                    invariant: "causality",
                    // audit:allow(alloc-in-hot): debug and test builds only, once per detected violation, never per event
                    detail: format!("pending event at {next} is before the clock {}", self.clock),
                });
            }
        }
        Ok(())
    }

    /// Runs until no events remain.
    pub fn run(&mut self, world: &mut W) {
        self.horizon = None;
        let before = self.executed;
        while self.step(world) {}
        EVENTS_EXECUTED.add(self.executed - before);
    }

    /// Runs every event strictly before `bound`, leaving the clock at
    /// the last executed event (or untouched when nothing ran) — the
    /// window-execution primitive of the conservative synchronizer in
    /// [`crate::shard`]. The bound is *exclusive* and the clock is
    /// **not** bumped to it: an event delivered exactly at the bound
    /// (the next window's horizon) must still be schedulable, and
    /// schedule-time causality checks compare against the clock.
    ///
    /// Returns how many events ran.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is [`SimTime::ZERO`]: an empty window is
    /// always a synchronizer bug.
    pub fn run_before(&mut self, world: &mut W, bound: SimTime) -> u64 {
        assert!(bound > SimTime::ZERO, "run_before: empty window");
        // Exclusive bound over integer nanoseconds: everything up to
        // and including `bound - 1ns`.
        self.horizon = Some(bound - SimDuration::from_nanos(1));
        let before = self.executed;
        while self.step(world) {}
        EVENTS_EXECUTED.add(self.executed - before);
        self.horizon = None;
        self.executed - before
    }

    /// Time of the earliest pending event without popping it, if any —
    /// what the conservative synchronizer folds into the global
    /// safe-advance minimum.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.earliest_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn heap_entries_take_five_words() {
        // time, seq, the fn pointer and the two words.
        assert_eq!(std::mem::size_of::<crate::event::Entry<Event<W>>>(), 40);
    }

    #[test]
    fn events_run_in_time_order() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(2), [0; 2], |_, w, en| {
            w.log.push((en.now().as_nanos(), "b"))
        });
        en.schedule_at(secs(1), [0; 2], |_, w, en| {
            w.log.push((en.now().as_nanos(), "a"))
        });
        en.run(&mut w);
        assert_eq!(
            w.log,
            vec![(secs(1).as_nanos(), "a"), (secs(2).as_nanos(), "b")]
        );
        assert_eq!(en.executed(), 2);
    }

    #[test]
    fn handlers_can_chain() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_in(SimDuration::from_secs(1), [0; 2], |_, w, en| {
            w.log.push((en.now().as_nanos(), "first"));
            en.schedule_in(SimDuration::from_secs(1), [0; 2], |_, w, en| {
                w.log.push((en.now().as_nanos(), "second"));
            });
        });
        en.run(&mut w);
        assert_eq!(en.now(), secs(2));
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(1), [0; 2], |_, w, en| {
            w.log.push((0, "outer"));
            en.schedule_in(SimDuration::ZERO, [0; 2], |_, w, _| {
                w.log.push((0, "inner"))
            });
        });
        en.schedule_at(secs(1), [0; 2], |_, w, _| w.log.push((0, "peer")));
        en.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["outer", "peer", "inner"]);
    }

    #[test]
    fn words_ride_along_chains() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        fn tick(words: [u64; 2], w: &mut W, en: &mut Engine<W>) {
            let [left, tag] = words;
            assert_eq!(tag, 7, "both words are delivered");
            w.log.push((left, "tick"));
            if left > 0 {
                en.schedule_in(SimDuration::from_secs(1), [left - 1, tag], tick);
            }
        }
        en.schedule_in(SimDuration::ZERO, [3, 7], tick);
        en.run(&mut w);
        let ticks: Vec<u64> = w.log.iter().map(|(n, _)| *n).collect();
        assert_eq!(ticks, vec![3, 2, 1, 0]);
        assert_eq!(en.now(), secs(3));
    }

    #[test]
    fn run_before_excludes_bound_and_leaves_clock() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(1), [0; 2], |_, w, _| w.log.push((1, "in")));
        en.schedule_at(secs(3), [0; 2], |_, w, _| w.log.push((3, "at-bound")));
        assert_eq!(en.next_event_time(), Some(secs(1)));
        assert_eq!(en.run_before(&mut w, secs(3)), 1, "bound is exclusive");
        assert_eq!(en.now(), secs(1), "clock stays at the last event");
        assert_eq!(en.next_event_time(), Some(secs(3)));
        // An event landing exactly at the previous bound is legal.
        en.schedule_at(secs(3), [0; 2], |_, w, _| w.log.push((3, "delivered")));
        assert_eq!(en.run_before(&mut w, secs(4)), 2);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["in", "at-bound", "delivered"]);
        assert_eq!(en.next_event_time(), None);
    }

    #[test]
    fn next_event_time_is_exact_inside_handlers() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(1), [0; 2], |_, w, en| {
            // The running event has left the queue: 4 s and 6 s wait.
            assert_eq!(en.next_event_time(), Some(secs(4)));
            // A successor ahead of every pending event.
            en.schedule_at(secs(2), [0; 2], |_, w, en| {
                assert_eq!(en.next_event_time(), Some(secs(4)));
                // A successor behind the earliest pending event.
                en.schedule_at(secs(5), [0; 2], |_, w, _| w.log.push((5, "c")));
                assert_eq!(en.next_event_time(), Some(secs(4)));
                w.log.push((2, "b"));
            });
            assert_eq!(en.next_event_time(), Some(secs(2)));
            w.log.push((1, "a"));
        });
        en.schedule_at(secs(4), [0; 2], |_, w, _| w.log.push((4, "x")));
        en.schedule_at(secs(6), [0; 2], |_, w, _| w.log.push((6, "y")));
        en.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["a", "b", "x", "c", "y"]);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(5), [0; 2], |_, _, en| {
            en.schedule_at(secs(1), [0; 2], |_, _, _| {});
        });
        en.run(&mut w);
    }

    #[test]
    fn audit_passes_during_and_after_run() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        for i in 0..50 {
            en.schedule_at(secs(i / 5), [0; 2], |_, w, en| {
                w.log.push((0, "x"));
                en.schedule_in(SimDuration::from_secs(1), [0; 2], |_, _, _| {});
            });
        }
        en.audit().expect("clean before running");
        while en.step(&mut w) {
            en.audit().expect("clean after every step");
        }
        en.audit().expect("clean when drained");
    }

    #[test]
    fn periodic_self_audit_covers_long_runs() {
        // Schedules several times AUTO_AUDIT_INTERVAL chained events so
        // the in-step sweep fires repeatedly; a corrupted queue would
        // panic the run.
        fn chain(_: [u64; 2], w: &mut W, en: &mut Engine<W>) {
            if en.executed() < 4 * crate::audit::AUTO_AUDIT_INTERVAL {
                w.log.push((0, "t"));
                en.schedule_in(SimDuration::from_nanos(1), [0; 2], chain);
            }
        }
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_in(SimDuration::ZERO, [0; 2], chain);
        en.run(&mut w);
        assert!(en.executed() >= 4 * crate::audit::AUTO_AUDIT_INTERVAL);
    }
}

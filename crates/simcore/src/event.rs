// audit:hot-path: every simulated event is pushed into and popped from a site's queue here
//! The pending-event set: `std`'s binary heap of inline
//! `(time, sequence, payload)` entries, with a one-event held slot in
//! front of it.
//!
//! Sequence numbers make same-time ordering deterministic: two events
//! scheduled for the same instant fire in the order they were
//! scheduled. The ordering key is `(time, u64 sequence)`, compared as
//! one `u128`, `(time << 64) | seq`, which orders exactly as the pair.
//! The key is computed from the entry's two fields, not stored, so an
//! entry stays five words. The held entry settles at a random depth of
//! the heap, so the sift's choice between two children is a coin flip
//! that a branch predicts badly; on one integer the compiler makes it
//! flag arithmetic instead (DESIGN.md §10.2).
//!
//! ## The held slot
//!
//! A push lands in the held slot when it is empty and on the heap
//! otherwise; a pop takes whichever of the held entry and the heap
//! root has the smaller key. When the root wins, the held entry takes
//! the root's place through [`PeekMut`], one sift. Nearly every
//! simulation handler schedules one successor, and every pop leaves
//! the slot empty, so that successor waits in the slot: one sift per
//! event instead of a pop's sift plus a push's. The slot store inlines
//! into the caller and the heap push stays out of line, so a handler
//! writes its successor straight into the slot.
//!
//! Events cannot be cancelled: no simulation code needs to, and
//! in-place cancellation needs per-entry handles and heap-index
//! back-pointers that every sift would maintain (DESIGN.md §10.2 has
//! the measurement).

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

use crate::time::SimTime;

/// A pending event with its ordering key, stored inline in the heap.
pub(crate) struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The ordering key as one integer, `(time << 64) | seq`, which
    /// orders exactly as the `(time, seq)` pair. It is computed, not
    /// stored, so an entry keeps its five words; a `u128` compare is
    /// flag arithmetic where the pair's compare is a branch.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }

    /// The entry's time and payload: all a pop returns.
    #[inline]
    fn into_parts(self) -> (SimTime, E) {
        (self.time, self.payload)
    }
}

// `BinaryHeap` is a max-heap, so entries order by reversed key: the
// earliest key sits at the root. The payload takes no part.
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

/// A min-priority queue of timestamped payloads.
///
/// This is the storage layer under [`crate::engine::Engine`], its one
/// user in library code; it is public so the benchmarks (the
/// `baseline` queue scenarios) can measure
/// it on its own.
///
/// ```
/// use gridvm_simcore::event::EventQueue;
/// use gridvm_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// The most recent push made while the slot was empty.
    held: Option<Entry<E>>,
    /// Every other pending event.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            held: None,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        let entry = Entry {
            time,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        if self.held.is_none() {
            self.held = Some(entry);
        } else {
            self.push_heap(entry);
        }
    }

    /// The heap half of [`push`](Self::push), kept out of line so that
    /// the held-slot store inlines into the caller without the sift.
    #[inline(never)]
    fn push_heap(&mut self, entry: Entry<E>) {
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(None)
    }

    /// Removes and returns the earliest event, but only if its time is
    /// at or before `deadline` (`None` means no bound), so run loops
    /// with a horizon don't pay for peek + pop separately.
    #[inline]
    pub fn pop_due(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, E)> {
        let due = |e: &Entry<E>| deadline.is_none_or(|h| e.time <= h);
        // The held entry is compared where it lies and moved out only
        // once it is popped (the arm has just matched it, so `take`
        // finds it), and each arm hands back just the time and the
        // payload. Moved whole through one temporary, it was
        // reloaded in 16-byte pieces that straddle the fields its
        // handler had just stored, a store-forwarding stall per event
        // (DESIGN.md §10.2).
        let (time, payload) = match (self.held.as_ref(), self.heap.peek_mut()) {
            (Some(held), Some(mut root)) if root.key() < held.key() => {
                if !due(&root) {
                    return None;
                }
                // Dropping `root` sifts the held entry down from the
                // root: the pop and the push in one sift.
                std::mem::replace(&mut *root, self.held.take()?).into_parts()
            }
            (Some(held), _) => {
                if !due(held) {
                    return None;
                }
                self.held.take()?.into_parts()
            }
            (None, root) => {
                let root = root?;
                if !due(&root) {
                    return None;
                }
                PeekMut::pop(root).into_parts()
            }
        };
        Some((time, payload))
    }

    /// The timestamp of the earliest event, if any, without removing
    /// it.
    pub fn earliest_time(&self) -> Option<SimTime> {
        self.held
            .iter()
            .chain(self.heap.peek())
            .map(|e| e.time)
            .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.held.is_some())
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.held.is_none() && self.heap.is_empty()
    }

    /// Re-verifies the queue's invariants (runtime audit layer; see
    /// [`crate::audit`]): sequence-counter sanity, i.e. every pending
    /// event carries a sequence number the counter has already handed
    /// out. The heap's ordering is `std`'s to keep.
    ///
    /// O(n) in pending events — called periodically by the dispatch
    /// loop of [`crate::engine::Engine`], directly by tests.
    #[cfg(any(debug_assertions, test))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        match self
            .held
            .iter()
            .chain(&self.heap)
            .find(|e| e.seq >= self.next_seq)
        {
            Some(e) => crate::audit::violated(
                "seq-counter",
                // audit:allow(alloc-in-hot): debug and test builds only, once per detected violation, never per event
                format!(
                    "the event at {} carries seq {} but next_seq is {}",
                    e.time, e.seq, self.next_seq
                ),
            ),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), 'c');
        q.push(t(1), 'a');
        q.push(t(2), 'b');
        assert_eq!(drain(&mut q), vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_the_deadline_on_both_paths() {
        let mut q = EventQueue::new();
        q.push(t(5), "held");
        q.push(t(2), "root");
        assert_eq!(q.pop_due(Some(t(1))), None);
        assert_eq!(q.len(), 2, "a refused pop leaves both entries");
        assert_eq!(q.pop_due(Some(t(2))), Some((t(2), "root")));
        assert_eq!(q.pop_due(Some(t(4))), None);
        assert_eq!(q.pop_due(Some(t(5))), Some((t(5), "held")));
        assert_eq!(q.pop_due(None), None);
    }

    #[test]
    fn audit_passes_on_live_queue() {
        let mut q = EventQueue::new();
        for i in 0..200 {
            q.push(t(i % 13), i);
        }
        q.audit().expect("fresh queue is consistent");
        while let Some((time, i)) = q.pop() {
            if i % 3 == 0 {
                q.push(time + crate::time::SimDuration::from_secs(1), i + 1);
            }
            q.audit().expect("pop and push preserve invariants");
        }
    }

    #[test]
    fn audit_detects_seq_counter_drift() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(t(i), i);
        }
        // A rewound counter would hand out sequence numbers that
        // pending events already carry, breaking same-instant FIFO.
        q.next_seq = 2;
        let err = q.audit().expect_err("rewound counter must be detected");
        assert_eq!(err.invariant, "seq-counter", "{err}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference model: a flat vector of `(time, arrival)`,
    /// popped by scanning for the minimum.
    #[derive(Default)]
    struct NaiveQueue {
        live: Vec<(u64, u64)>,
        next_seq: u64,
    }

    impl NaiveQueue {
        fn push(&mut self, time: u64) {
            self.live.push((time, self.next_seq));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let k = self
                .live
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| **e)
                .map(|(k, _)| k)?;
            Some(self.live.remove(k))
        }

        fn earliest(&self) -> Option<u64> {
            self.live.iter().map(|(t, _)| *t).min()
        }
    }

    /// A ~2.1 ms mid-range time scale: the window the queue's former
    /// timing wheel spanned (512 buckets of 4096 ns).
    const MID_SPAN_NS: u64 = 512 << 12;

    /// Pushes `time` into both queues; the payload is the arrival
    /// number, so pops compare schedule order too.
    fn push(q: &mut EventQueue<u64>, model: &mut NaiveQueue, time: u64) {
        q.push(SimTime::from_nanos(time), model.next_seq);
        model.push(time);
    }

    fn entry(time: u64, seq: u64) -> Entry<()> {
        Entry {
            time: SimTime::from_nanos(time),
            seq,
            payload: (),
        }
    }

    /// One half of a key: 0, `u64::MAX`, a value in `0..4` (so
    /// that halves often tie), or the raw draw.
    fn half(shape: u8, raw: u64) -> u64 {
        match shape {
            0 => 0,
            1 => u64::MAX,
            2 => raw % 4,
            _ => raw,
        }
    }

    /// The extremes every ordering of keys must get right: equal
    /// times, `u64::MAX` in either half, and seq 0.
    #[test]
    fn key_orders_as_time_then_seq_at_the_extremes() {
        const M: u64 = u64::MAX;
        let pairs = [
            ((5, 0), (5, 1)),
            ((5, 0), (5, M)),
            ((5, M), (6, 0)),
            ((M, 0), (M, M)),
            ((M, M - 1), (M, M)),
            ((M - 1, M), (M, 0)),
            ((0, M), (1, 0)),
            ((0, 0), (0, 0)),
            ((M, M), (M, M)),
        ];
        for ((at, aseq), (bt, bseq)) in pairs {
            let (a, b) = (entry(at, aseq), entry(bt, bseq));
            let want = (at, aseq).cmp(&(bt, bseq));
            assert_eq!(a.key().cmp(&b.key()), want, "{at}/{aseq} vs {bt}/{bseq}");
            assert_eq!(b.key().cmp(&a.key()), want.reverse());
            assert_eq!(a.cmp(&b), want.reverse(), "the heap orders by reversed key");
        }
    }

    proptest! {
        /// `Entry::key` orders exactly as the `(time, seq)` pair, on
        /// random pairs whose halves are often 0, `u64::MAX` or tied.
        #[test]
        fn key_orders_as_time_then_seq(
            draws in proptest::collection::vec(
                (0u8..4, 0u64..u64::MAX, 0u8..4, 0u64..u64::MAX), 2..40
            )
        ) {
            let keys: Vec<(u64, u64)> = draws
                .iter()
                .map(|&(ts, t, ss, s)| (half(ts, t), half(ss, s)))
                .collect();
            for &(at, aseq) in &keys {
                for &(bt, bseq) in &keys {
                    let want = (at, aseq).cmp(&(bt, bseq));
                    prop_assert_eq!(entry(at, aseq).key().cmp(&entry(bt, bseq).key()), want);
                    prop_assert_eq!(entry(at, aseq).cmp(&entry(bt, bseq)), want.reverse());
                }
            }
        }

        /// The queue agrees with the naive model under random
        /// interleavings of push and pop. Times mix four scales:
        /// within 500 ns (dense same-time FIFO ties), around
        /// [`MID_SPAN_NS`], tens of ms, and anywhere up to `u64::MAX`.
        /// Two op kinds steer entries through the held slot: a push at
        /// the earliest pending instant splits a same-instant tie
        /// across the slot and the heap, and a pop followed by a
        /// successor push (the handler shape) fills the emptied slot
        /// ahead of or behind the heap root.
        #[test]
        fn matches_naive_model(
            ops in proptest::collection::vec((0u64..4u64, 0u64..u64::MAX, 0u8..10), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            for (scale, raw, action) in ops {
                let time = match scale {
                    0 => raw % 500,
                    1 => raw % (2 * MID_SPAN_NS),
                    2 => raw % 50_000_000,
                    _ => raw,
                };
                match action {
                    // 50%: push at a fresh time
                    0..=4 => push(&mut q, &mut model, time),
                    // 20%: pop from both, compare
                    5..=6 => {
                        let got = q.pop().map(|(t, seq)| (t.as_nanos(), seq));
                        prop_assert_eq!(got, model.pop());
                    }
                    // 10%: push at the earliest pending instant
                    7 => {
                        let at = model.earliest().unwrap_or(time);
                        push(&mut q, &mut model, at);
                    }
                    // 20%: pop, then push a successor `time` later
                    _ => {
                        let got = q.pop().map(|(t, seq)| (t.as_nanos(), seq));
                        let want = model.pop();
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = want {
                            push(&mut q, &mut model, at.saturating_add(time));
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.live.len());
                prop_assert_eq!(q.is_empty(), model.live.is_empty());
                prop_assert_eq!(q.earliest_time().map(|t| t.as_nanos()), model.earliest());
            }
            q.audit().expect("invariants hold mid-drain");
            // Drain: remaining pops agree to the end.
            loop {
                let got = q.pop().map(|(t, seq)| (t.as_nanos(), seq));
                let want = model.pop();
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }

        /// Same-time events pop in schedule (FIFO) order no matter how
        /// pushes interleave across instants.
        #[test]
        fn same_time_fifo(times in proptest::collection::vec(0u64..5, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
            expected.sort(); // stable: FIFO within equal times
            let mut got = Vec::new();
            while let Some((t, i)) = q.pop() {
                got.push((t.as_nanos(), i));
            }
            prop_assert_eq!(got, expected);
        }

        /// `len` equals the number of pops remaining.
        #[test]
        fn len_matches_pop_count(times in proptest::collection::vec(0u64..100, 0..50)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.push(SimTime::from_nanos(*t), ());
            }
            prop_assert_eq!(q.len(), times.len());
            let mut popped = 0;
            while q.pop().is_some() { popped += 1; }
            prop_assert_eq!(popped, times.len());
        }
    }
}

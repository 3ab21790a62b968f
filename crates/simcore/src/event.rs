//! The pending-event set: an index-tracked 4-ary min-heap ordered by
//! `(time, sequence)`, with true in-place cancellation and no hashing
//! anywhere on the hot path.
//!
//! Sequence numbers make same-time ordering deterministic: two events
//! scheduled for the same instant fire in the order they were
//! scheduled.
//!
//! There is no bucketed front-end: the sharded window loop keeps one
//! small queue per site, and there a compact heap is faster and
//! smaller than a timing wheel (DESIGN.md §10.2 has the measurement).
//!
//! ## Cancellation
//!
//! Unlike the earlier `BinaryHeap` + tombstone-set design,
//! cancellation removes the entry immediately: each pending event
//! lives in a generation-stamped arena slot that records its current
//! heap index, and the [`EventId`] handle encodes `(generation,
//! slot)`. Cancel is a direct arena probe (stale handles fail the
//! generation check), so a long-running simulation carries no dead
//! entries: nothing is re-heapified on pop, and cancelling an
//! already-fired id leaves no residual bookkeeping behind.

use std::fmt;

use crate::time::SimTime;

/// Heap arity. Four keeps the tree shallow (log₄ n levels, half the
/// element moves of a binary heap) while the child scan stays within
/// one cache line of 24-byte heap entries — measurably faster than
/// binary on the pop-heavy simulation loop.
const D: usize = 4;

/// Identifies a scheduled event, for cancellation.
///
/// The handle packs the event's arena slot in the low 32 bits and the
/// slot's generation stamp in the high 32 bits. Slots are recycled
/// after an event fires or is cancelled, bumping the generation, so a
/// stale handle can never cancel an unrelated later event. Handles
/// compare by raw value only; scheduling order is *not* recoverable
/// from them (the queue keeps a separate sequence number for
/// deterministic FIFO tie-breaking).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    fn pack(gen: u32, slot: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}g{}", self.slot(), self.gen())
    }
}

/// A compact pending-event record: the `(time, sequence)` ordering key
/// plus the arena slot of its payload and the slot's generation stamp
/// (carried inline so pop can reconstruct the [`EventId`] without a
/// random arena read). Kept `Copy` and 24 bytes so sift steps move
/// entries through contiguous memory.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A cancellable min-priority queue of timestamped payloads.
///
/// This is the storage layer under [`crate::engine::Engine`], its one
/// user in library code; it is public so the benchmarks (the
/// `baseline` queue scenarios and the criterion benches) can measure
/// it on its own.
///
/// ```
/// use gridvm_simcore::event::EventQueue;
/// use gridvm_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// let a = q.push(SimTime::from_secs(2), "late");
/// let _b = q.push(SimTime::from_secs(1), "early");
/// q.cancel(a);
/// let (t, _, what) = q.pop().unwrap();
/// assert_eq!((t, what), (SimTime::from_secs(1), "early"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Implicit d-ary min-heap of `(time, sequence)` keys.
    heap: Vec<Entry>,
    /// Heap index of each slot's entry, maintained by the sift steps
    /// with plain vector writes (so cancellation finds its target
    /// without searching or hashing). Stale for free slots; cancel
    /// validates against the entry itself.
    loc: Vec<u32>,
    /// Payloads, indexed by `Entry::slot`; slots are recycled through
    /// `free`, so arena size tracks peak concurrency, not total
    /// events scheduled.
    payloads: Vec<Option<E>>,
    /// Recycled slots, each carrying the generation its next occupant
    /// will get (one past the generation that just died, so stale
    /// handles can never validate).
    free: Vec<(u32, u32)>,
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
            heap: Vec::new(),
            loc: Vec::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Hole-style sift toward the root: parents shift down one level
    /// at a time (one position write each) and the moving entry lands
    /// once at its final index.
    fn sift_up(&mut self, mut i: usize) {
        let Self { heap, loc, .. } = self;
        let entry = heap[i];
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / D;
            let p = heap[parent];
            if key < p.key() {
                heap[i] = p;
                loc[p.slot as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        heap[i] = entry;
        loc[entry.slot as usize] = i as u32;
    }

    /// Hole-style sift toward the leaves: the smallest child shifts up
    /// one level at a time and the moving entry lands once.
    fn sift_down(&mut self, mut i: usize) {
        let Self { heap, loc, .. } = self;
        let entry = heap[i];
        let key = entry.key();
        let len = heap.len();
        loop {
            let first = i * D + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_entry = heap[first];
            for (off, e) in heap[first + 1..(first + D).min(len)].iter().enumerate() {
                if e.key() < best_entry.key() {
                    best = first + 1 + off;
                    best_entry = *e;
                }
            }
            if best_entry.key() < key {
                heap[i] = best_entry;
                loc[best_entry.slot as usize] = i as u32;
                i = best;
            } else {
                break;
            }
        }
        heap[i] = entry;
        loc[entry.slot as usize] = i as u32;
    }

    /// Pop-path sift: the hole at `i` walks straight to the bottom,
    /// promoting the smallest child at each level without comparing
    /// against the moving key (it came from a leaf and almost always
    /// belongs back at one), then the moving entry sifts up from the
    /// leaf hole. Fewer, better-predicted comparisons than the
    /// early-exit sift on the pop-heavy simulation loop — the same
    /// strategy `std::collections::BinaryHeap` uses.
    fn sift_down_to_bottom(&mut self, mut i: usize) {
        let Self { heap, loc, .. } = self;
        let entry = heap[i];
        let len = heap.len();
        loop {
            let first = i * D + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_entry = heap[first];
            for (off, e) in heap[first + 1..(first + D).min(len)].iter().enumerate() {
                if e.key() < best_entry.key() {
                    best = first + 1 + off;
                    best_entry = *e;
                }
            }
            heap[i] = best_entry;
            loc[best_entry.slot as usize] = i as u32;
            i = best;
        }
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / D;
            let p = heap[parent];
            if key < p.key() {
                heap[i] = p;
                loc[p.slot as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        heap[i] = entry;
        loc[entry.slot as usize] = i as u32;
    }

    /// Restores the heap property for an index whose entry changed.
    fn sift(&mut self, i: usize) {
        if i > 0 && self.heap[i].key() < self.heap[(i - 1) / D].key() {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Schedules `payload` at `time`, returning a handle for
    /// cancellation.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = match self.free.pop() {
            Some((s, g)) => {
                self.payloads[s as usize] = Some(payload);
                (s, g)
            }
            None => {
                if self.loc.len() == self.loc.capacity() {
                    // The heap, location and payload arrays grow in
                    // lockstep; doubling each independently would
                    // double the realloc copy traffic of a
                    // single-array design, so grow 4x at a time to
                    // keep total copied bytes comparable.
                    let add = (self.loc.len() * 3).max(64);
                    self.loc.reserve(add);
                    self.payloads.reserve(add);
                    self.heap.reserve(add);
                }
                self.loc.push(0);
                self.payloads.push(Some(payload));
                ((self.loc.len() - 1) as u32, 0)
            }
        };
        let i = self.heap.len();
        self.heap.push(Entry {
            time,
            seq,
            slot,
            gen,
        });
        self.sift_up(i);
        EventId::pack(gen, slot)
    }

    /// Recycles an arena slot, invalidating every outstanding handle
    /// to its dead generation.
    fn release(&mut self, slot: u32, gen: u32) {
        self.free.push((slot, gen.wrapping_add(1)));
    }

    /// Cancels a previously scheduled event, removing it from its heap
    /// position in place.
    ///
    /// Returns `true` if the event was still pending. Cancelling an
    /// already-fired or already-cancelled event returns `false`, is
    /// harmless, and leaves no bookkeeping behind.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        // The handle is live iff the slot's recorded heap index holds
        // an entry for this exact (slot, generation) pair; anything
        // stale — fired, cancelled, recycled — fails here.
        let Some(&i) = self.loc.get(slot as usize) else {
            return false;
        };
        let i = i as usize;
        match self.heap.get(i) {
            Some(e) if e.slot == slot && e.gen == id.gen() => {}
            _ => return false,
        }
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        self.heap.pop();
        if i < last {
            self.sift(i);
        }
        self.payloads[slot as usize] = None;
        self.release(slot, id.gen());
        true
    }

    /// Removes the heap root and hands back its `(time, id, payload)`
    /// triple. The caller has checked the heap is non-empty.
    #[inline]
    fn pop_root(&mut self) -> (SimTime, EventId, E) {
        let root = self.heap[0];
        let tail = self.heap.pop().expect("caller saw a heap entry");
        if !self.heap.is_empty() {
            self.heap[0] = tail;
            self.sift_down_to_bottom(0);
        }
        let payload = self.payloads[root.slot as usize]
            .take()
            .expect("live entry has a payload");
        self.release(root.slot, root.gen);
        (root.time, EventId::pack(root.gen, root.slot), payload)
    }

    /// Removes and returns the earliest live event as
    /// `(time, id, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.pop_root())
    }

    /// Removes and returns the earliest live event, but only if its
    /// time is at or before `deadline` (`None` means no bound), so run
    /// loops with a horizon don't pay for peek + pop separately.
    #[inline]
    pub fn pop_due(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, EventId, E)> {
        let next = self.heap.first()?.time;
        if deadline.is_some_and(|h| next > h) {
            return None;
        }
        Some(self.pop_root())
    }

    /// The timestamp of the earliest live event, if any, without
    /// removing it.
    pub fn earliest_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event. Outstanding handles are invalidated,
    /// not leaked: their slots are recycled with a bumped generation.
    pub fn clear(&mut self) {
        while let Some(e) = self.heap.pop() {
            self.payloads[e.slot as usize] = None;
            self.release(e.slot, e.gen);
        }
    }

    /// Re-verifies the queue's structural invariants from first
    /// principles (runtime audit layer; see [`crate::audit`]): heap
    /// ordering, location back-pointers, payload liveness, the
    /// slot-arena/free-list partition, and sequence-counter sanity.
    ///
    /// O(n) in pending events — called periodically by
    /// [`crate::engine::Engine::step`], directly by tests.
    #[cfg(any(debug_assertions, test, feature = "audit"))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        use crate::audit::violated;
        // Heap property over the (time, seq) key.
        for i in 1..self.heap.len() {
            let parent = (i - 1) / D;
            if self.heap[i].key() < self.heap[parent].key() {
                return violated(
                    "heap-order",
                    format!(
                        "entry {i} (t={}, seq={}) sorts before its parent {parent} \
                         (t={}, seq={})",
                        self.heap[i].time,
                        self.heap[i].seq,
                        self.heap[parent].time,
                        self.heap[parent].seq
                    ),
                );
            }
        }
        // Heap back-pointers, payload liveness, sequence sanity.
        for (i, e) in self.heap.iter().enumerate() {
            let slot = e.slot as usize;
            match self.loc.get(slot) {
                Some(&idx) if idx as usize == i => {}
                other => {
                    return violated(
                        "heap-idx",
                        format!("heap entry {i} for slot {slot}: loc says {other:?}"),
                    );
                }
            }
            self.check_live(slot, e, &format!("heap entry {i}"))?;
        }
        // Each arena slot lives in exactly one of {heap, free list},
        // and free slots hold no payload.
        let mut owner = vec![0u8; self.payloads.len()];
        for e in &self.heap {
            owner[e.slot as usize] += 1;
        }
        for &(slot, _gen) in &self.free {
            let slot = slot as usize;
            owner[slot] += 2;
            if self.payloads.get(slot).is_some_and(Option::is_some) {
                return violated(
                    "arena-free",
                    format!("free-listed slot {slot} still holds a payload"),
                );
            }
        }
        for (slot, &o) in owner.iter().enumerate() {
            if o != 1 && o != 2 {
                return violated(
                    "arena-partition",
                    format!(
                        "slot {slot} is owned by {} (1=pending once, 2=free once)",
                        match o {
                            0 => "neither heap nor free list".to_owned(),
                            n => format!("code {n}: multiple owners"),
                        }
                    ),
                );
            }
        }
        Ok(())
    }

    /// Shared audit predicate: a pending entry's payload is live and
    /// its sequence number predates the counter.
    #[cfg(any(debug_assertions, test, feature = "audit"))]
    fn check_live(&self, slot: usize, e: &Entry, what: &str) -> crate::audit::AuditResult {
        use crate::audit::violated;
        if self.payloads.get(slot).is_none_or(|p| p.is_none()) {
            return violated(
                "payload-liveness",
                format!("{what} points at slot {slot} with no payload"),
            );
        }
        if e.seq >= self.next_seq {
            return violated(
                "seq-counter",
                format!(
                    "{what} carries seq {} but next_seq is {}",
                    e.seq, self.next_seq
                ),
            );
        }
        Ok(())
    }

    /// Number of arena slots currently holding a live event, counted
    /// from the allocator's own books (`slots` minus the free list).
    /// Always equals [`len`](Self::len) when no bookkeeping leaks;
    /// exposed so tests can assert that cancel and pop release every
    /// slot (the seed implementation's tombstone set grew without
    /// bound on cancel-after-fire).
    pub fn tracked_ids(&self) -> usize {
        self.loc.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), 'c');
        q.push(t(1), 'a');
        q.push(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().2, "b");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(999)));
        assert_eq!(q.tracked_ids(), 0);
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuse() {
        // After an event fires, its arena slot is recycled for later
        // events; the fired handle's generation no longer matches, so
        // it must not cancel the unrelated newcomer.
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop().unwrap().2, "a");
        let b = q.push(t(2), "b"); // reuses a's slot
        assert!(!q.cancel(a), "stale handle rejected");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn earliest_time_reflects_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        q.cancel(a);
        assert_eq!(q.earliest_time(), Some(t(2)));
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.earliest_time(), None);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.push(t(i), i)).collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        for id in &ids {
            assert!(!q.cancel(*id), "clear invalidates outstanding handles");
        }
    }

    #[test]
    fn cancel_after_fire_leaves_no_bookkeeping() {
        // Regression: the seed implementation inserted every
        // cancelled-after-fire id into a HashSet that was never
        // drained, growing without bound over a long run.
        let mut q = EventQueue::new();
        let mut fired = Vec::new();
        for i in 0..1000 {
            fired.push(q.push(t(i), i));
        }
        while q.pop().is_some() {}
        for id in fired {
            assert!(!q.cancel(id), "already fired");
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.tracked_ids(), 0, "no residual bookkeeping");
    }

    #[test]
    fn arena_tracks_peak_concurrency_not_total_events() {
        // Interleaved push/pop keeps the arena at peak-pending size
        // even as total events scheduled grows without bound.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.push(t(round), round);
            q.push(t(round), round);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.loc.len() <= 2,
            "arena grew to {} slots for 2 peak-pending events",
            q.loc.len()
        );
    }

    #[test]
    fn tracked_ids_always_equals_len() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..64).map(|i| q.push(t(i % 7), i)).collect();
        assert_eq!(q.tracked_ids(), q.len());
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
            assert_eq!(q.tracked_ids(), q.len());
        }
        while q.pop().is_some() {
            assert_eq!(q.tracked_ids(), q.len());
        }
        assert_eq!(q.tracked_ids(), 0);
    }

    #[test]
    fn audit_passes_on_live_queue() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..200).map(|i| q.push(t(i % 13), i)).collect();
        q.audit().expect("fresh queue is consistent");
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
            q.audit().expect("cancel preserves invariants");
        }
        while q.pop().is_some() {
            q.audit().expect("pop preserves invariants");
        }
    }

    #[test]
    fn audit_detects_heap_order_corruption() {
        let mut q = EventQueue::new();
        for i in 0..20 {
            q.push(t(i), i);
        }
        // Swap the root with a leaf without fixing key order: the
        // (time, seq) key at the leaf's parent now exceeds the leaf.
        let last = q.heap.len() - 1;
        q.heap.swap(0, last);
        q.loc[q.heap[0].slot as usize] = 0;
        q.loc[q.heap[last].slot as usize] = last as u32;
        let err = q.audit().expect_err("corrupted heap must be detected");
        assert_eq!(err.invariant, "heap-order", "{err}");
    }

    #[test]
    fn audit_detects_stale_back_pointer() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(t(i), i);
        }
        let slot = q.heap[3].slot as usize;
        q.loc[slot] = 0; // points at the wrong heap position
        let err = q.audit().expect_err("stale loc must be detected");
        assert_eq!(err.invariant, "heap-idx", "{err}");
    }

    #[test]
    fn audit_detects_missing_payload() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(t(i), i);
        }
        let slot = q.heap[2].slot as usize;
        q.payloads[slot] = None; // live entry, dead payload
        let err = q.audit().expect_err("payload leak must be detected");
        assert_eq!(err.invariant, "payload-liveness", "{err}");
    }

    #[test]
    fn audit_detects_double_owned_slot() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(t(i), i);
        }
        // A slot that is both live in the heap and on the free list
        // would hand the same arena cell to two future events.
        let slot = q.heap[1].slot;
        q.free.push((slot, 7));
        let err = q.audit().expect_err("double ownership must be detected");
        assert_eq!(err.invariant, "arena-free", "{err}");
    }

    #[test]
    fn interleaved_push_pop_cancel_keeps_order() {
        let mut q = EventQueue::new();
        let a = q.push(t(5), "a");
        q.push(t(1), "b");
        q.push(t(3), "c");
        assert_eq!(q.pop().unwrap().2, "b");
        q.cancel(a);
        q.push(t(2), "d");
        assert_eq!(q.pop().unwrap().2, "d");
        assert_eq!(q.pop().unwrap().2, "c");
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference model: a flat vector, popped by scanning for
    /// the `(time, arrival)` minimum. Arrival order is tracked with an
    /// explicit sequence counter because [`EventId`] handles encode
    /// `(generation, slot)`, not scheduling order.
    #[derive(Default)]
    struct NaiveQueue {
        live: Vec<(u64, u64, EventId)>,
        next_seq: u64,
    }

    impl NaiveQueue {
        fn push(&mut self, time: u64, id: EventId) {
            self.live.push((time, self.next_seq, id));
            self.next_seq += 1;
        }

        fn cancel(&mut self, id: EventId) -> bool {
            match self.live.iter().position(|(_, _, i)| *i == id) {
                Some(k) => {
                    self.live.remove(k);
                    true
                }
                None => false,
            }
        }

        fn pop(&mut self) -> Option<(u64, EventId)> {
            let k = self
                .live
                .iter()
                .enumerate()
                .min_by_key(|(_, (t, seq, _))| (*t, *seq))
                .map(|(k, _)| k)?;
            let (t, _, id) = self.live.remove(k);
            Some((t, id))
        }
    }

    /// A ~2.1 ms mid-range time scale: the window the queue's former
    /// timing wheel spanned (512 buckets of 4096 ns).
    const MID_SPAN_NS: u64 = 512 << 12;

    proptest! {
        /// The queue agrees with the naive model under random
        /// interleavings of push, pop and cancel — including cancels
        /// of already-fired and already-cancelled ids. Times mix four
        /// scales: within 500 ns (dense same-time FIFO ties), around
        /// [`MID_SPAN_NS`], tens of ms, and anywhere up to `u64::MAX`.
        #[test]
        fn matches_naive_model(
            ops in proptest::collection::vec((0u64..4u64, 0u64..u64::MAX, 0u8..10), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut issued: Vec<EventId> = Vec::new();
            for (scale, raw, action) in ops {
                match action {
                    // 60%: push
                    0..=5 => {
                        let time = match scale {
                            0 => raw % 500,
                            1 => raw % (2 * MID_SPAN_NS),
                            2 => raw % 50_000_000,
                            _ => raw,
                        };
                        let id = q.push(SimTime::from_nanos(time), time);
                        model.push(time, id);
                        issued.push(id);
                    }
                    // 20%: pop from both, compare
                    6..=7 => {
                        let got = q.pop().map(|(t, id, _)| (t.as_nanos(), id));
                        prop_assert_eq!(got, model.pop());
                    }
                    // 20%: cancel some issued id (may be live, fired,
                    // or already cancelled)
                    _ => {
                        if let Some(&victim) = issued.get(raw as usize % issued.len().max(1)) {
                            prop_assert_eq!(q.cancel(victim), model.cancel(victim));
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.live.len());
                prop_assert_eq!(q.tracked_ids(), q.len());
                prop_assert_eq!(
                    q.earliest_time().map(|t| t.as_nanos()),
                    model.live.iter().map(|(t, _, _)| *t).min()
                );
            }
            q.audit().expect("invariants hold mid-drain");
            // Drain: remaining pops agree to the end.
            loop {
                let got = q.pop().map(|(t, id, _)| (t.as_nanos(), id));
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
            while let Some((t, _, i)) = q.pop() {
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

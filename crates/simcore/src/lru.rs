//! A fixed-capacity LRU set with O(1) touch, insert, remove and evict,
//! and the fast-hash map that indexes it.
//!
//! [`LruSet`] is the recency structure under `gridvm-vfs`'s proxy
//! block cache, and the per-block reference that `gridvm-storage`'s
//! run-granular buffer cache is tested against. It replaced a
//! `BTreeMap` from recency stamp to key, which paid O(log n) per
//! access, with an intrusive doubly-linked list threaded through an
//! index arena, so every operation is a hash lookup plus pointer
//! surgery.
//!
//! [`FastMap`] is that lookup: a `HashMap` under [`FastHasher`], a
//! multiplicative mixer for program-generated integer keys. The
//! buffer cache uses the same map to find a block's index page.
//!
//! Determinism: recency order is a pure function of the operation
//! sequence (no hashing or iteration order ever influences which key
//! is evicted), so replications stay bit-identical across thread
//! counts.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Sentinel index meaning "no node".
const NIL: u32 = u32::MAX;

/// Multiplicative mixer for small fixed-width keys (block addresses,
/// `(file, block)` pairs, page numbers). The keys are
/// program-generated, so SipHash's DoS resistance is wasted on the
/// per-access hot path.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        self.0 = x;
    }
}

/// A lookup-only hash map under [`FastHasher`]: the index of
/// [`LruSet`] (key → node) and of `gridvm-storage`'s buffer cache
/// (page number → page slot). Neither iterates it.
#[expect(
    clippy::disallowed_types,
    reason = "FastMap uses the deterministic FastHasher and its users (LruSet, storage's \
              BufferCache) only look keys up, never iterate; order comes from their recency lists"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[derive(Clone, Debug)]
struct Node<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// A bounded set of keys with least-recently-used eviction, all
/// operations O(1).
///
/// ```
/// use gridvm_simcore::lru::LruSet;
///
/// let mut c = LruSet::new(2);
/// c.insert(1u64);
/// c.insert(2);
/// assert!(c.touch(&1));            // hit, refreshes recency
/// assert_eq!(c.insert(3), Some(2)); // evicts 2, the LRU key
/// assert!(!c.contains(&2));
/// assert!(c.contains(&1));
/// ```
#[derive(Clone, Debug)]
pub struct LruSet<K> {
    capacity: usize,
    map: FastMap<K, u32>,
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    /// Most-recently-used node.
    head: u32,
    /// Least-recently-used node (the eviction victim).
    tail: u32,
}

impl<K: Eq + Hash + Copy> LruSet<K> {
    /// Creates a set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity LruSet");
        LruSet {
            capacity,
            map: FastMap::default(),
            nodes: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Capacity in keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Residency check; never affects recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// The current eviction victim (least-recently-used key), if any.
    pub fn lru(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.nodes[self.tail as usize].key)
    }

    /// Detaches node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links node `i` in as most-recently-used.
    fn push_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// If `key` is resident, marks it most-recently-used and returns
    /// `true`.
    pub fn touch(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&i) => {
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                true
            }
            None => false,
        }
    }

    /// Inserts `key` as most-recently-used. If it was already resident
    /// it is refreshed instead. When the set is full, the
    /// least-recently-used key is evicted and returned.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.touch(&key) {
            return None;
        }
        let mut evicted = None;
        let slot = if self.map.len() == self.capacity {
            // Reuse the victim's node slot for the new key.
            let i = self.tail;
            self.unlink(i);
            let victim = self.nodes[i as usize].key;
            self.map.remove(&victim);
            evicted = Some(victim);
            self.nodes[i as usize].key = key;
            i
        } else if let Some(i) = self.free.pop() {
            self.nodes[i as usize].key = key;
            i
        } else {
            let i = self.nodes.len() as u32;
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            i
        };
        self.push_front(slot);
        self.map.insert(key, slot);
        evicted
    }

    /// Removes `key` (e.g. on invalidation). Returns whether it was
    /// resident.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(i) => {
                self.unlink(i);
                self.free.push(i);
                true
            }
            None => false,
        }
    }

    /// Re-verifies the set's structural invariants from first
    /// principles (runtime audit layer; see [`crate::audit`]):
    /// intrusive-list link integrity (`prev`/`next` agree, the walk
    /// from `head` reaches `tail` in exactly `len` steps, so no cycles
    /// or orphans), map↔node agreement, and capacity/arena accounting.
    #[cfg(any(debug_assertions, test, feature = "audit"))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        use crate::audit::violated;
        if self.map.len() > self.capacity {
            return violated(
                "lru-capacity",
                format!(
                    "{} resident keys exceed capacity {}",
                    self.map.len(),
                    self.capacity
                ),
            );
        }
        if self.nodes.len() != self.map.len() + self.free.len() {
            return violated(
                "lru-arena",
                format!(
                    "{} arena nodes != {} resident + {} free",
                    self.nodes.len(),
                    self.map.len(),
                    self.free.len()
                ),
            );
        }
        // Walk head→tail: each hop's back-pointer must agree, every
        // visited key must map back to its own node index, and the walk
        // must terminate at `tail` after exactly len steps (a longer
        // walk means a cycle, a shorter one an orphaned node).
        let mut visited = 0usize;
        let mut prev = NIL;
        let mut i = self.head;
        while i != NIL {
            if visited == self.map.len() {
                return violated(
                    "lru-link",
                    format!(
                        "recency list longer than {} resident keys (cycle?)",
                        visited
                    ),
                );
            }
            let n = &self.nodes[i as usize];
            if n.prev != prev {
                return violated(
                    "lru-link",
                    format!(
                        "node {i}: prev says {} but list arrived from {prev}",
                        n.prev
                    ),
                );
            }
            if self.map.get(&n.key) != Some(&i) {
                return violated("lru-map", format!("node {i}'s key does not map back to it"));
            }
            prev = i;
            i = n.next;
            visited += 1;
        }
        if prev != self.tail {
            return violated(
                "lru-link",
                format!("walk ended at {prev} but tail says {}", self.tail),
            );
        }
        if visited != self.map.len() {
            return violated(
                "lru-link",
                format!("walk visited {visited} nodes, map holds {}", self.map.len()),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_order() {
        let mut c = LruSet::new(3);
        c.insert(1u64);
        c.insert(2);
        c.insert(3);
        c.touch(&1); // 2 is now LRU
        assert_eq!(c.lru(), Some(&2));
        let evicted = c.insert(4);
        assert_eq!(evicted, Some(2));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
        assert!(c.contains(&4));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = LruSet::new(2);
        c.insert(1u64);
        c.insert(2);
        assert_eq!(c.insert(1), None, "already resident");
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3), Some(2), "1 was refreshed, 2 evicts");
    }

    #[test]
    fn explicit_removal() {
        let mut c = LruSet::new(2);
        c.insert(1u64);
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        assert!(c.is_empty());
        assert_eq!(c.lru(), None);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = LruSet::new(5);
        for i in 0..100u64 {
            c.insert(i);
        }
        assert_eq!(c.len(), 5);
        for i in 95..100u64 {
            assert!(c.contains(&i));
        }
    }

    #[test]
    fn removal_recycles_slots() {
        let mut c = LruSet::new(4);
        for round in 0..100u64 {
            c.insert(round);
            if round % 2 == 0 {
                c.remove(&round);
            }
        }
        assert!(c.len() <= 4);
        // The arena never grows past capacity despite 100 inserts.
        assert!(c.nodes.len() <= 4);
    }

    #[test]
    fn tuple_keys_work() {
        let mut c = LruSet::new(2);
        c.insert((1u64, 10u64));
        c.insert((1, 11));
        assert_eq!(c.insert((2, 10)), Some((1, 10)));
        assert!(c.contains(&(1, 11)));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = LruSet::<u64>::new(0);
    }

    #[test]
    fn audit_passes_through_mixed_operations() {
        let mut c = LruSet::new(4);
        for round in 0..64u64 {
            c.insert(round % 9);
            c.touch(&(round % 5));
            if round % 3 == 0 {
                c.remove(&(round % 7));
            }
            c.audit().expect("every operation preserves invariants");
        }
    }

    #[test]
    fn audit_detects_broken_back_link() {
        let mut c = LruSet::new(4);
        c.insert(1u64);
        c.insert(2);
        c.insert(3);
        // Sever a prev pointer: forward and backward traversals now
        // disagree, which is exactly the corruption a buggy unlink
        // would leave behind.
        let mid = c.nodes[c.head as usize].next;
        c.nodes[mid as usize].prev = NIL;
        let err = c.audit().expect_err("broken back link must be detected");
        assert_eq!(err.invariant, "lru-link", "{err}");
    }

    #[test]
    fn audit_detects_map_node_disagreement() {
        let mut c = LruSet::new(4);
        c.insert(1u64);
        c.insert(2);
        let head = c.head;
        let stale = c.nodes[head as usize].key;
        c.map.insert(stale, 99); // map now points into nowhere
        let err = c.audit().expect_err("stale map entry must be detected");
        assert_eq!(err.invariant, "lru-map", "{err}");
    }

    #[test]
    fn audit_detects_cycle() {
        let mut c = LruSet::new(4);
        c.insert(1u64);
        c.insert(2);
        c.insert(3);
        // Point the tail back at the head: the recency walk never
        // reaches NIL.
        let tail = c.tail;
        c.nodes[tail as usize].next = c.head;
        let err = c.audit().expect_err("cycle must be detected");
        assert_eq!(err.invariant, "lru-link", "{err}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference model: the stamp-based `BTreeMap` LRU the block
    /// caches used before this type existed.
    struct StampLru {
        capacity: usize,
        resident: BTreeMap<u64, u64>,
        by_stamp: BTreeMap<u64, u64>,
        clock: u64,
    }

    impl StampLru {
        fn new(capacity: usize) -> Self {
            StampLru {
                capacity,
                resident: BTreeMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
            }
        }

        fn touch(&mut self, key: u64) -> bool {
            self.clock += 1;
            if let Some(stamp) = self.resident.get_mut(&key) {
                self.by_stamp.remove(stamp);
                *stamp = self.clock;
                self.by_stamp.insert(self.clock, key);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, key: u64) -> Option<u64> {
            if self.touch(key) {
                return None;
            }
            let mut evicted = None;
            if self.resident.len() == self.capacity {
                let (&oldest, &victim) = self.by_stamp.iter().next().expect("non-empty");
                self.by_stamp.remove(&oldest);
                self.resident.remove(&victim);
                evicted = Some(victim);
            }
            self.resident.insert(key, self.clock);
            self.by_stamp.insert(self.clock, key);
            evicted
        }

        fn remove(&mut self, key: u64) -> bool {
            match self.resident.remove(&key) {
                Some(stamp) => {
                    self.by_stamp.remove(&stamp);
                    true
                }
                None => false,
            }
        }
    }

    proptest! {
        /// Every operation returns exactly what the stamp-based
        /// reference returns — same hits, same eviction victims, same
        /// removals — under random touch/insert/remove interleavings.
        #[test]
        fn matches_btreemap_reference(
            cap in 1usize..12,
            ops in proptest::collection::vec((0u64..32, 0u8..10), 1..300),
        ) {
            let mut lru = LruSet::new(cap);
            let mut model = StampLru::new(cap);
            for (key, action) in ops {
                match action {
                    0..=4 => prop_assert_eq!(lru.insert(key), model.insert(key)),
                    5..=7 => prop_assert_eq!(lru.touch(&key), model.touch(key)),
                    _ => prop_assert_eq!(lru.remove(&key), model.remove(key)),
                }
                prop_assert_eq!(lru.len(), model.resident.len());
                prop_assert!(lru.len() <= cap);
                prop_assert_eq!(
                    lru.lru().copied(),
                    model.by_stamp.values().next().copied()
                );
            }
        }

        /// Sequential scan larger than capacity has zero reuse (LRU's
        /// pathological case) — verifies strict LRU, not approximate.
        #[test]
        fn sequential_scan_thrashes(cap in 1usize..8, rounds in 2usize..5) {
            let n = cap as u64 + 1;
            let mut c = LruSet::new(cap);
            let mut hits = 0;
            for _ in 0..rounds {
                for i in 0..n {
                    if c.touch(&i) {
                        hits += 1;
                    } else {
                        c.insert(i);
                    }
                }
            }
            prop_assert_eq!(hits, 0, "strict LRU must thrash on scan of cap+1");
        }
    }
}

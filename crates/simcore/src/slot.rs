//! Dense slot-indexed hot state: the shared container layer under the
//! per-entity maps of `gridvm-vnet`, `gridvm-vfs`, `gridvm-sched` and
//! `gridvm-storage`.
//!
//! PR 3 bought determinism by moving hash containers to `BTreeMap`,
//! which put an O(log n) pointer chase on every hot-path lookup
//! (overlay routing, VFS block maps, scheduler run queues, DHCP
//! leases). This module buys the speed back without giving the
//! determinism up:
//!
//! - [`SlotMap`] — a generation-stamped slot arena with a free list:
//!   O(1) insert/remove/get, deterministic iteration in slot order,
//!   and typed [`Handle<Tag>`] keys so a VFS inode handle cannot be
//!   confused with a vnet node id at compile time. Dereferencing a
//!   freed generation fails loudly with a typed [`StaleHandle`] error
//!   and bumps the `slot.stale_derefs` counter instead of silently
//!   reading recycled state.
//! - [`DenseMap`] — dense values plus a paged sparse index for small
//!   integer key universes (task ids, node ids, block addresses):
//!   O(1) get/insert/remove and cache-friendly full scans in
//!   insertion order.
//!
//! Determinism: neither container ever consults a hasher; iteration
//! order is a pure function of the operation sequence, so
//! replications stay bit-identical across thread counts. External
//! string/name keys are expected to resolve into handles once at the
//! frontend boundary (the same pattern as pre-resolved
//! [`metrics::Counter`](crate::metrics::Counter) handles), keeping
//! ordered maps only where order is semantic.

use std::fmt;
use std::marker::PhantomData;

use crate::metrics::Counter;

/// Sentinel index meaning "no slot".
const NIL: u32 = u32::MAX;

/// Stale or out-of-range handle dereferences observed across every
/// slot map (each one is a caller holding a handle past its entity's
/// removal — loud by design).
static STALE_DEREFS: Counter = Counter::new("slot.stale_derefs");

/// A typed handle into a [`SlotMap`]: a slot index plus the
/// generation stamp the slot had when the value was inserted.
///
/// The `Tag` type parameter exists only at compile time: a
/// `Handle<Inode>` and a `Handle<OverlayNode>` are different types
/// even though both are eight bytes, so handles cannot cross
/// subsystem boundaries by accident.
pub struct Handle<Tag> {
    idx: u32,
    gen: u32,
    _tag: PhantomData<fn() -> Tag>,
}

// Manual impls: derives would bound `Tag`, which is phantom.
impl<Tag> Clone for Handle<Tag> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<Tag> Copy for Handle<Tag> {}
impl<Tag> PartialEq for Handle<Tag> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && self.gen == other.gen
    }
}
impl<Tag> Eq for Handle<Tag> {}
impl<Tag> PartialOrd for Handle<Tag> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<Tag> Ord for Handle<Tag> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.idx, self.gen).cmp(&(other.idx, other.gen))
    }
}
impl<Tag> std::hash::Hash for Handle<Tag> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pack().hash(state);
    }
}
impl<Tag> fmt::Debug for Handle<Tag> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}v{}", self.idx, self.gen)
    }
}

impl<Tag> Handle<Tag> {
    /// The slot index (dense, reused across generations).
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The generation stamp.
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Packs the handle into one word: `generation << 32 | index`.
    /// Lets existing `u64`-shaped public ids (e.g. NFS file handles)
    /// carry a generation without changing their type.
    pub fn pack(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.idx)
    }

    /// Rebuilds a handle from [`pack`](Handle::pack)'s encoding.
    pub fn from_pack(packed: u64) -> Self {
        Handle {
            idx: (packed & u64::from(u32::MAX)) as u32,
            gen: (packed >> 32) as u32,
            _tag: PhantomData,
        }
    }
}

/// A dereference of a handle whose slot has since been freed (or that
/// never belonged to this map).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleHandle {
    /// The handle's slot index.
    pub index: u32,
    /// The generation the handle was issued under.
    pub held: u32,
    /// The slot's current generation (`None` when the index is out of
    /// range for the map).
    pub current: Option<u32>,
}

impl fmt::Display for StaleHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.current {
            Some(cur) => write!(
                f,
                "stale handle: slot {} generation {} (slot is at generation {})",
                self.index, self.held, cur
            ),
            None => write!(
                f,
                "stale handle: slot {} generation {} (no such slot)",
                self.index, self.held
            ),
        }
    }
}

impl std::error::Error for StaleHandle {}

#[derive(Clone, Debug)]
enum Entry<T> {
    Occupied(T),
    /// Next free slot index, or [`NIL`].
    Free(u32),
}

#[derive(Clone, Debug)]
struct Slot<T> {
    /// Bumped when the slot is freed, so handles issued for earlier
    /// occupancies detectably mismatch.
    gen: u32,
    entry: Entry<T>,
}

/// A generation-stamped slot arena: O(1) insert/remove/get with
/// typed handles and deterministic iteration in slot order.
///
/// ```
/// use gridvm_simcore::slot::SlotMap;
///
/// struct Guest;
/// let mut vms: SlotMap<Guest, &str> = SlotMap::new();
/// let a = vms.insert("rh72");
/// let b = vms.insert("debian");
/// assert_eq!(vms.get(a), Ok(&"rh72"));
/// vms.remove(a).unwrap();
/// assert!(vms.get(a).is_err(), "freed generation fails loudly");
/// let c = vms.insert("suse"); // reuses slot 0 under a new generation
/// assert_eq!(c.index(), 0);
/// assert_ne!(c.generation(), a.generation());
/// assert_eq!(vms.get(b), Ok(&"debian"));
/// ```
pub struct SlotMap<Tag, T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
    _tag: PhantomData<fn() -> Tag>,
}

// Manual impls: derives would bound `Tag`, which is phantom.
impl<Tag, T: Clone> Clone for SlotMap<Tag, T> {
    fn clone(&self) -> Self {
        SlotMap {
            slots: self.slots.clone(),
            free_head: self.free_head,
            len: self.len,
            _tag: PhantomData,
        }
    }
}

impl<Tag, T: fmt::Debug> fmt::Debug for SlotMap<Tag, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<Tag, T> Default for SlotMap<Tag, T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

impl<Tag, T> SlotMap<Tag, T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SlotMap {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
            _tag: PhantomData,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing the most recently freed slot if one
    /// exists, and returns its handle.
    pub fn insert(&mut self, value: T) -> Handle<Tag> {
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            match slot.entry {
                Entry::Free(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at an occupied slot"),
            }
            slot.entry = Entry::Occupied(value);
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "slot arena full");
            self.slots.push(Slot {
                gen: 0,
                entry: Entry::Occupied(value),
            });
            (self.slots.len() - 1) as u32
        };
        self.len += 1;
        Handle {
            idx,
            gen: self.slots[idx as usize].gen,
            _tag: PhantomData,
        }
    }

    fn stale(&self, handle: Handle<Tag>) -> StaleHandle {
        STALE_DEREFS.add(1);
        StaleHandle {
            index: handle.idx,
            held: handle.gen,
            current: self.slots.get(handle.idx as usize).map(|s| s.gen),
        }
    }

    /// True when `handle` refers to a live value (never counts as a
    /// stale dereference — it is the query form).
    pub fn contains(&self, handle: Handle<Tag>) -> bool {
        self.slots
            .get(handle.idx as usize)
            .is_some_and(|s| s.gen == handle.gen && matches!(s.entry, Entry::Occupied(_)))
    }

    /// Borrows the value behind `handle`.
    ///
    /// # Errors
    ///
    /// [`StaleHandle`] when the slot was freed since the handle was
    /// issued (or never belonged to this map); also bumps the
    /// `slot.stale_derefs` counter.
    pub fn get(&self, handle: Handle<Tag>) -> Result<&T, StaleHandle> {
        match self.slots.get(handle.idx as usize) {
            Some(slot) if slot.gen == handle.gen => match &slot.entry {
                Entry::Occupied(v) => Ok(v),
                Entry::Free(_) => Err(self.stale(handle)),
            },
            _ => Err(self.stale(handle)),
        }
    }

    /// Mutably borrows the value behind `handle`.
    ///
    /// # Errors
    ///
    /// [`StaleHandle`], as for [`get`](SlotMap::get).
    pub fn get_mut(&mut self, handle: Handle<Tag>) -> Result<&mut T, StaleHandle> {
        match self.slots.get(handle.idx as usize) {
            Some(slot) if slot.gen == handle.gen && matches!(slot.entry, Entry::Occupied(_)) => {
                match &mut self.slots[handle.idx as usize].entry {
                    Entry::Occupied(v) => Ok(v),
                    Entry::Free(_) => unreachable!("occupancy checked above"),
                }
            }
            _ => Err(self.stale(handle)),
        }
    }

    /// Removes and returns the value behind `handle`, bumping the
    /// slot's generation so the handle (and any copy of it) is stale
    /// from now on.
    ///
    /// # Errors
    ///
    /// [`StaleHandle`], as for [`get`](SlotMap::get).
    pub fn remove(&mut self, handle: Handle<Tag>) -> Result<T, StaleHandle> {
        match self.slots.get(handle.idx as usize) {
            Some(slot) if slot.gen == handle.gen && matches!(slot.entry, Entry::Occupied(_)) => {
                let slot = &mut self.slots[handle.idx as usize];
                let old = std::mem::replace(&mut slot.entry, Entry::Free(self.free_head));
                slot.gen = slot.gen.wrapping_add(1);
                self.free_head = handle.idx;
                self.len -= 1;
                match old {
                    Entry::Occupied(v) => Ok(v),
                    Entry::Free(_) => unreachable!("occupancy checked above"),
                }
            }
            _ => Err(self.stale(handle)),
        }
    }

    /// Iterates live `(handle, value)` pairs in slot order — a pure
    /// function of the operation sequence, never of any hash.
    pub fn iter(&self) -> impl Iterator<Item = (Handle<Tag>, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match &s.entry {
                Entry::Occupied(v) => Some((
                    Handle {
                        idx: i as u32,
                        gen: s.gen,
                        _tag: PhantomData,
                    },
                    v,
                )),
                Entry::Free(_) => None,
            })
    }

    /// Re-verifies the arena's structural invariants from first
    /// principles: the free list and the occupied slots partition the
    /// arena (every slot is in exactly one), the free list is
    /// acyclic and in range, and the live count agrees.
    ///
    /// # Errors
    ///
    /// An [`AuditViolation`](crate::audit::AuditViolation) naming the
    /// broken invariant.
    #[cfg(any(debug_assertions, test))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        use crate::audit::violated;
        // Walk the free list: bounded, in range, and only free slots.
        let mut on_free_list = vec![false; self.slots.len()];
        let mut cur = self.free_head;
        let mut steps = 0usize;
        while cur != NIL {
            if steps > self.slots.len() {
                return violated(
                    "slot-free-cycle",
                    format!(
                        "free list longer than the arena ({} slots)",
                        self.slots.len()
                    ),
                );
            }
            let Some(slot) = self.slots.get(cur as usize) else {
                return violated(
                    "slot-free-range",
                    format!("free list points at slot {cur} beyond {}", self.slots.len()),
                );
            };
            if on_free_list[cur as usize] {
                return violated(
                    "slot-free-cycle",
                    format!("slot {cur} on the free list twice"),
                );
            }
            on_free_list[cur as usize] = true;
            cur = match slot.entry {
                Entry::Free(next) => next,
                Entry::Occupied(_) => {
                    return violated(
                        "slot-partition",
                        format!("free list points at occupied slot {cur}"),
                    )
                }
            };
            steps += 1;
        }
        // Partition: every free slot is on the list, every occupied
        // slot is not, and the live count matches.
        let mut live = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            match slot.entry {
                Entry::Occupied(_) => {
                    if on_free_list[i] {
                        return violated(
                            "slot-partition",
                            format!("occupied slot {i} is also on the free list"),
                        );
                    }
                    live += 1;
                }
                Entry::Free(_) => {
                    if !on_free_list[i] {
                        return violated(
                            "slot-partition",
                            format!("free slot {i} unreachable from the free list"),
                        );
                    }
                }
            }
        }
        if live != self.len {
            return violated(
                "slot-count",
                format!("{} occupied slots but len {}", live, self.len),
            );
        }
        Ok(())
    }
}

/// Page size of the sparse index, in keys. Pages allocate lazily, so
/// a sparse key universe costs one `Option` per 64-key span plus one
/// 256-byte page per span actually used.
const PAGE: usize = 64;

/// A map from small integer keys to densely stored values: O(1)
/// get/insert/remove, full scans over a contiguous value array.
///
/// The key universe is expected to be *dense-ish and bounded*
/// (sequential task ids, overlay node ids, block addresses bounded by
/// the device size). For sparse external keys (MACs, strings),
/// resolve to a handle at the boundary instead.
///
/// Iteration order is insertion order as perturbed by removals
/// (`swap_remove`) — a pure function of the operation sequence, never
/// of any hash, so it is deterministic across thread counts. Callers
/// that need key order must sort explicitly (and should be cold).
///
/// ```
/// use gridvm_simcore::slot::DenseMap;
///
/// let mut m: DenseMap<&str> = DenseMap::new();
/// m.insert(3, "three");
/// m.insert(40, "forty");
/// assert_eq!(m.get(3), Some(&"three"));
/// assert_eq!(m.remove(3), Some("three"));
/// assert_eq!(m.get(3), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DenseMap<T> {
    /// Paged key → dense-index lookup; [`NIL`] marks absent keys.
    sparse: Vec<Option<Box<[u32; PAGE]>>>,
    /// The values, with their keys, packed contiguously.
    dense: Vec<(u64, T)>,
}

impl<T> Default for DenseMap<T> {
    fn default() -> Self {
        DenseMap::new()
    }
}

impl<T> DenseMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            sparse: Vec::new(),
            dense: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    fn slot_of(&self, key: u64) -> Option<u32> {
        let page = (key / PAGE as u64) as usize;
        let within = (key % PAGE as u64) as usize;
        match self.sparse.get(page) {
            Some(Some(p)) => {
                let v = p[within];
                (v != NIL).then_some(v)
            }
            _ => None,
        }
    }

    fn set_slot(&mut self, key: u64, value: u32) {
        let page = (key / PAGE as u64) as usize;
        let within = (key % PAGE as u64) as usize;
        if page >= self.sparse.len() {
            self.sparse.resize_with(page + 1, || None);
        }
        let p = self.sparse[page].get_or_insert_with(|| Box::new([NIL; PAGE]));
        p[within] = value;
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.slot_of(key).is_some()
    }

    /// Borrows the value for `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slot_of(key).map(|i| &self.dense[i as usize].1)
    }

    /// Mutably borrows the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        match self.slot_of(key) {
            Some(i) => Some(&mut self.dense[i as usize].1),
            None => None,
        }
    }

    /// Inserts or replaces the value for `key`; returns the previous
    /// value, if any.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        if let Some(i) = self.slot_of(key) {
            return Some(std::mem::replace(&mut self.dense[i as usize].1, value));
        }
        assert!(self.dense.len() < NIL as usize, "dense map full");
        let idx = self.dense.len() as u32;
        self.dense.push((key, value));
        self.set_slot(key, idx);
        None
    }

    /// Removes and returns the value for `key`. The last entry moves
    /// into the vacated dense position (its sparse pointer is fixed
    /// up), keeping the value array contiguous.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let idx = self.slot_of(key)? as usize;
        let (_, value) = self.dense.swap_remove(idx);
        if idx < self.dense.len() {
            let moved_key = self.dense[idx].0;
            self.set_slot(moved_key, idx as u32);
        }
        self.set_slot(key, NIL);
        Some(value)
    }

    /// Drops every entry (keeps the allocated pages).
    pub fn clear(&mut self) {
        for (key, _) in self.dense.drain(..) {
            let page = (key / PAGE as u64) as usize;
            let within = (key % PAGE as u64) as usize;
            if let Some(Some(p)) = self.sparse.get_mut(page) {
                p[within] = NIL;
            }
        }
    }

    /// Iterates `(key, &value)` in dense (operation-sequence) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.dense.iter().map(|(k, v)| (*k, v))
    }

    /// Mutable variant of [`iter`](DenseMap::iter).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.dense.iter_mut().map(|(k, v)| (*k, v))
    }

    /// The keys in ascending order — for the cold paths where key
    /// order is semantic (ordered dumps, order-sensitive float sums).
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.dense.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys
    }

    /// Re-verifies dense↔sparse agreement: every sparse pointer hits
    /// a dense entry carrying the pointing key, every dense entry's
    /// key points back at it, and the non-NIL pointer count equals
    /// the dense length.
    ///
    /// # Errors
    ///
    /// An [`AuditViolation`](crate::audit::AuditViolation) naming the
    /// broken invariant.
    #[cfg(any(debug_assertions, test))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        use crate::audit::violated;
        let mut pointed = 0usize;
        for (page_no, page) in self.sparse.iter().enumerate() {
            let Some(page) = page else { continue };
            for (within, &idx) in page.iter().enumerate() {
                if idx == NIL {
                    continue;
                }
                pointed += 1;
                let key = (page_no * PAGE + within) as u64;
                match self.dense.get(idx as usize) {
                    Some((k, _)) if *k == key => {}
                    Some((k, _)) => {
                        return violated(
                            "dense-backptr",
                            format!("sparse[{key}] points at dense[{idx}] which holds key {k}"),
                        )
                    }
                    None => {
                        return violated(
                            "dense-backptr",
                            format!(
                                "sparse[{key}] points at dense[{idx}] beyond len {}",
                                self.dense.len()
                            ),
                        )
                    }
                }
            }
        }
        if pointed != self.dense.len() {
            return violated(
                "dense-count",
                format!(
                    "{} sparse pointers but {} dense entries",
                    pointed,
                    self.dense.len()
                ),
            );
        }
        for (i, (key, _)) in self.dense.iter().enumerate() {
            if self.slot_of(*key) != Some(i as u32) {
                return violated(
                    "dense-backptr",
                    format!("dense[{i}] holds key {key} whose sparse pointer disagrees"),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestTag;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: SlotMap<TestTag, u32> = SlotMap::new();
        let a = m.insert(10);
        let b = m.insert(20);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a), Ok(&10));
        assert_eq!(m.get(b), Ok(&20));
        *m.get_mut(a).unwrap() += 1;
        assert_eq!(m.remove(a), Ok(11));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        m.audit().unwrap();
    }

    #[test]
    fn freed_generation_is_stale_and_counted() {
        crate::metrics::reset();
        let mut m: SlotMap<TestTag, &str> = SlotMap::new();
        let h = m.insert("doomed");
        m.remove(h).unwrap();
        let err = m.get(h).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.held, 0);
        assert_eq!(err.current, Some(1));
        assert!(err.to_string().contains("stale handle"));
        assert!(m.get_mut(h).is_err());
        assert!(m.remove(h).is_err());
        let snap = crate::metrics::take();
        assert_eq!(snap.counter("slot.stale_derefs"), 3);
    }

    #[test]
    fn slot_reuse_issues_a_fresh_generation() {
        let mut m: SlotMap<TestTag, u32> = SlotMap::new();
        let a = m.insert(1);
        m.remove(a).unwrap();
        let b = m.insert(2);
        assert_eq!(b.index(), a.index(), "slot is reused");
        assert_ne!(b.generation(), a.generation());
        assert!(m.get(a).is_err(), "old handle stays stale");
        assert_eq!(m.get(b), Ok(&2));
        m.audit().unwrap();
    }

    #[test]
    fn handles_pack_and_unpack() {
        let mut m: SlotMap<TestTag, u8> = SlotMap::new();
        let a = m.insert(1);
        m.remove(a).unwrap();
        let b = m.insert(2);
        let packed = b.pack();
        assert_eq!(packed >> 32, 1, "generation rides the high word");
        let back: Handle<TestTag> = Handle::from_pack(packed);
        assert_eq!(back, b);
        assert_eq!(m.get(back), Ok(&2));
        assert_eq!(format!("{b:?}"), "slot#0v1");
    }

    #[test]
    fn out_of_range_handle_is_stale() {
        let m: SlotMap<TestTag, u8> = SlotMap::new();
        let phantom: Handle<TestTag> = Handle::from_pack(7);
        let err = m.get(phantom).unwrap_err();
        assert_eq!(err.current, None);
        assert!(err.to_string().contains("no such slot"));
        assert!(!m.contains(phantom));
    }

    #[test]
    fn iteration_is_in_slot_order() {
        let mut m: SlotMap<TestTag, u32> = SlotMap::new();
        let a = m.insert(0);
        let _b = m.insert(1);
        let _c = m.insert(2);
        m.remove(a).unwrap();
        let d = m.insert(3); // reuses slot 0
        let vals: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![3, 1, 2], "slot order, not insertion order");
        assert_eq!(m.iter().next().unwrap().0, d);
    }

    /// Severs the free list at its head so the audit's partition
    /// check must notice: the head's next points past the arena.
    fn corrupt_free_list<T, V>(m: &mut SlotMap<T, V>) {
        let beyond = m.slots.len() as u32;
        if let Some(slot) = m.slots.get_mut(m.free_head as usize) {
            slot.entry = Entry::Free(beyond);
        }
    }

    #[test]
    fn audit_detects_a_broken_free_list() {
        let mut m: SlotMap<TestTag, u32> = SlotMap::new();
        let a = m.insert(1);
        let _b = m.insert(2);
        m.remove(a).unwrap();
        m.audit().unwrap();
        corrupt_free_list(&mut m);
        let err = m.audit().unwrap_err();
        assert_eq!(err.invariant, "slot-free-range");
        assert!(err.to_string().contains("free list"));
    }

    #[test]
    fn dense_map_roundtrip_and_swap_remove_fixup() {
        let mut m: DenseMap<u32> = DenseMap::new();
        assert!(m.is_empty());
        m.insert(5, 50);
        m.insert(900, 9000); // far page
        m.insert(6, 60);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(900), Some(&9000));
        // Removing a middle entry moves the last one into its place.
        assert_eq!(m.remove(5), Some(50));
        assert_eq!(m.get(6), Some(&60));
        assert_eq!(m.get(900), Some(&9000));
        assert_eq!(m.get(5), None);
        m.audit().unwrap();
        *m.get_mut(6).unwrap() = 61;
        assert_eq!(m.insert(6, 62), Some(61), "insert replaces");
        assert_eq!(m.sorted_keys(), vec![6, 900]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(6), None);
        m.audit().unwrap();
    }

    #[test]
    fn dense_iteration_is_operation_order() {
        let mut m: DenseMap<&str> = DenseMap::new();
        m.insert(9, "nine");
        m.insert(2, "two");
        m.insert(400, "four hundred");
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![9, 2, 400], "insertion order, not key order");
        m.remove(9);
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![400, 2], "swap_remove moved the tail forward");
        for (_, v) in m.iter_mut() {
            *v = "x";
        }
        assert_eq!(m.get(2), Some(&"x"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    struct PropTag;

    proptest! {
        /// Any interleaving of inserts/removes/gets agrees with a
        /// BTreeMap reference model, freed handles never resolve, and
        /// the audit holds at every step. Ops are tuple-encoded
        /// (kind, value, pick): kind 0 inserts `value`, 1 removes the
        /// pick-th live handle, 2 gets the pick-th live handle, 3
        /// re-derefs the pick-th *freed* handle (generation-reuse
        /// probing: must always be stale).
        #[test]
        fn slotmap_matches_reference_model(
            ops in proptest::collection::vec((0u8..4, 0u32..1000, 0usize..64), 1..200)
        ) {
            let mut m: SlotMap<PropTag, u32> = SlotMap::new();
            let mut model: BTreeMap<Handle<PropTag>, u32> = BTreeMap::new();
            let mut live: Vec<Handle<PropTag>> = Vec::new();
            let mut freed: Vec<Handle<PropTag>> = Vec::new();
            for (kind, v, pick) in ops {
                match kind {
                    0 => {
                        let h = m.insert(v);
                        prop_assert!(!model.contains_key(&h), "handles are never re-issued");
                        model.insert(h, v);
                        live.push(h);
                    }
                    1 if !live.is_empty() => {
                        let h = live.remove(pick % live.len());
                        let got = m.remove(h);
                        prop_assert_eq!(got.ok(), model.remove(&h));
                        freed.push(h);
                    }
                    2 if !live.is_empty() => {
                        let h = live[pick % live.len()];
                        prop_assert_eq!(m.get(h).ok(), model.get(&h));
                        prop_assert!(m.contains(h));
                    }
                    3 if !freed.is_empty() => {
                        let h = freed[pick % freed.len()];
                        prop_assert!(m.get(h).is_err(), "freed handle must stay stale");
                        prop_assert!(!m.contains(h));
                    }
                    _ => {}
                }
                m.audit().unwrap();
                prop_assert_eq!(m.len(), model.len());
            }
            // Deterministic iteration: slot order, and the live set
            // agrees with the model exactly.
            let seen: BTreeMap<Handle<PropTag>, u32> =
                m.iter().map(|(h, v)| (h, *v)).collect();
            prop_assert_eq!(seen, model);
        }

        /// DenseMap agrees with a BTreeMap reference model under any
        /// insert/remove/get interleaving over a small key universe.
        #[test]
        fn densemap_matches_reference_model(
            ops in proptest::collection::vec((0u64..200, 0u32..1000, proptest::bool::ANY), 1..200)
        ) {
            let mut m: DenseMap<u32> = DenseMap::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (key, v, is_insert) in ops {
                if is_insert {
                    prop_assert_eq!(m.insert(key, v), model.insert(key, v));
                } else {
                    prop_assert_eq!(m.remove(key), model.remove(&key));
                }
                prop_assert_eq!(m.len(), model.len());
                prop_assert_eq!(m.get(key), model.get(&key));
                m.audit().unwrap();
            }
            // Same entries, independent of internal order.
            let mut got: Vec<(u64, u32)> = m.iter().map(|(k, v)| (k, *v)).collect();
            got.sort_unstable();
            let want: Vec<(u64, u32)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(m.sorted_keys(), want_keys(&m));
        }
    }

    fn want_keys(m: &DenseMap<u32>) -> Vec<u64> {
        let mut keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}

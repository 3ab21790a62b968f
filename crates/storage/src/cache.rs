// audit:hot-path: every simulated disk access passes a run of blocks through the cache here
//! An LRU buffer cache of block addresses, kept as runs.
//!
//! Models the host OS page/buffer cache: after an explicit image copy
//! (Table 2's persistent mode) the copied blocks are warm, which is
//! why the paper's reboot-after-copy is much faster than a cold-disk
//! boot. The cache tracks *which* blocks are resident, not their
//! bytes — the data plane already holds the bytes; timing is all the
//! cache influences.
//!
//! The cache is a strict per-block LRU set. A run of blocks behaves
//! exactly as if each block, in ascending order, were touched and, on
//! a miss, inserted, evicting the least recent block when full, so a
//! run's own misses can evict its later blocks before it reaches
//! them. Disks are read and written in runs, and a run leaves its
//! blocks adjacent in recency as well as in address. The recency list
//! therefore holds *extents*: spans of blocks adjacent in address
//! whose recency rises with their address. A run costs a step per
//! extent and index page it touches, not one per block; a 2 GiB image
//! copy is 8,192 page steps, not 524,288 block steps.
//!
//! The index: an extent never crosses an aligned page of 64 blocks. A
//! [`FastMap`] takes a page number to a page slot holding a residency
//! bitmap and each resident block's extent id, and each extent
//! remembers its slot. A run's page segment and a point `touch` or
//! `insert` each cost one hash lookup, as a
//! [`LruSet`](gridvm_simcore::lru::LruSet) operation does, and
//! evicting an extent clears bits in the slot it names; only a page
//! that empties leaves the map.

use gridvm_simcore::lru::FastMap;

use crate::block::BlockAddr;

/// Blocks per index page. An extent never crosses an aligned page, so
/// the one slot an extent names covers all of its blocks.
const PAGE_BLOCKS: u64 = 64;

/// Sentinel meaning "no extent".
const NIL: u32 = u32::MAX;

/// Resident blocks adjacent in address and in recency: `start` is the
/// least recent, `start + len - 1` the most recent.
#[derive(Clone, Copy, Debug)]
struct Extent {
    start: u64,
    len: u32,
    /// The page slot holding the extent's blocks.
    page: u32,
    /// The next more recent extent.
    newer: u32,
    /// The next less recent extent.
    older: u32,
}

impl Extent {
    fn end(&self) -> u64 {
        self.start + u64::from(self.len)
    }
}

/// One index page: which of its blocks are resident, and in which
/// extent.
#[derive(Clone, Debug)]
struct Page {
    /// Bit `i` is set when the page's block `i` is resident.
    resident: u64,
    /// Each resident block's extent; stale where the bit is clear.
    extent: [u32; PAGE_BLOCKS as usize],
}

/// The bits of page offsets `lo..hi` (`lo < hi <= PAGE_BLOCKS`).
fn bits(lo: u64, hi: u64) -> u64 {
    (u64::MAX >> (u64::BITS as u64 - (hi - lo))) << lo
}

/// Fixed-capacity LRU set of resident blocks.
///
/// ```
/// use gridvm_storage::block::BlockAddr;
/// use gridvm_storage::cache::BufferCache;
///
/// let mut c = BufferCache::new(2);
/// c.insert(BlockAddr(1));
/// c.insert(BlockAddr(2));
/// assert!(c.touch(BlockAddr(1))); // hit, refreshes LRU position
/// c.insert(BlockAddr(3));         // evicts 2 (least recent)
/// assert!(!c.touch(BlockAddr(2)));
/// assert!(c.touch(BlockAddr(1)));
/// ```
#[derive(Clone, Debug)]
pub struct BufferCache {
    capacity: u64,
    len: u64,
    hits: u64,
    /// Page number → slot in `pages`, for every page with a resident
    /// block.
    index: FastMap<u64, u32>,
    pages: Vec<Page>,
    free_pages: Vec<u32>,
    extents: Vec<Extent>,
    free_extents: Vec<u32>,
    /// The most recent extent.
    newest: u32,
    /// The least recent extent, whose first block is evicted next.
    oldest: u32,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks. Nothing is
    /// allocated until a block is inserted.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        BufferCache {
            capacity: capacity as u64,
            len: 0,
            hits: 0,
            index: FastMap::default(),
            pages: Vec::new(),
            free_pages: Vec::new(),
            extents: Vec::new(),
            free_extents: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `addr`; on a hit refreshes its recency, counts the
    /// hit and returns `true`.
    pub fn touch(&mut self, addr: BlockAddr) -> bool {
        let Some(&page) = self.index.get(&(addr.0 / PAGE_BLOCKS)) else {
            return false;
        };
        let Some(e) = self.extent_at(page, addr.0) else {
            return false;
        };
        self.refresh(e, addr.0, addr.0 + 1);
        self.hits += 1;
        true
    }

    /// Checks residency without affecting recency or statistics.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.index
            .get(&(addr.0 / PAGE_BLOCKS))
            .is_some_and(|&page| self.extent_at(page, addr.0).is_some())
    }

    /// Inserts `addr` as most-recently-used, evicting the LRU block
    /// if full. Returns the evicted address, if any.
    pub fn insert(&mut self, addr: BlockAddr) -> Option<BlockAddr> {
        let victim = (self.len == self.capacity)
            .then(|| BlockAddr(self.extents[self.oldest as usize].start));
        if self.run(addr, 1) == 1 {
            None
        } else {
            victim
        }
    }

    /// Passes the `len` blocks from `start` through the cache as a
    /// read ([`run`](Self::run)) and counts the resident ones as hits.
    /// Returns the hits.
    pub(crate) fn touch_run(&mut self, start: BlockAddr, len: u64) -> u64 {
        let hits = self.run(start, len);
        self.hits += hits;
        hits
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Passes blocks `start..start + len` through the cache in
    /// ascending order, exactly as a per-block loop would: each
    /// resident block becomes the most recent, and each other block is
    /// inserted as the most recent, first evicting the least recent
    /// block when full. Returns how many were resident when reached.
    /// A write passes its blocks through here directly; a read goes
    /// through [`touch_run`](Self::touch_run), which counts hits.
    ///
    /// Each step covers a segment of one page: the resident blocks of
    /// one extent, which move together without evicting anything, or
    /// the misses up to the page's next resident block. Misses go in
    /// as the newest blocks, and then the oldest blocks past capacity
    /// leave: older extents, this run's earlier blocks, the segment's
    /// own first blocks when it outgrows the cache, or later resident
    /// blocks of this run, which then miss when the run reaches them.
    /// The segment's last block is never evicted, so its page stays.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past block `u64::MAX - 1`.
    pub(crate) fn run(&mut self, start: BlockAddr, len: u64) -> u64 {
        let end = start
            .0
            .checked_add(len)
            .expect("block run ends past the last block address");
        let mut resident = 0;
        let mut b = start.0;
        while b < end {
            let number = b / PAGE_BLOCKS;
            let page_end = end.min((number + 1).saturating_mul(PAGE_BLOCKS));
            let page = self.page_slot(number);
            while b < page_end {
                let to = match self.extent_at(page, b) {
                    Some(e) => {
                        let to = page_end.min(self.extents[e as usize].end());
                        self.refresh(e, b, to);
                        resident += to - b;
                        to
                    }
                    None => {
                        let above = self.pages[page as usize].resident >> (b % PAGE_BLOCKS);
                        let gap = u64::from(above.trailing_zeros());
                        let to = page_end.min(b.saturating_add(gap));
                        self.push_newest(page, b, to);
                        self.len += to - b;
                        if self.len > self.capacity {
                            self.evict(self.len - self.capacity);
                        }
                        to
                    }
                };
                b = to;
            }
        }
        resident
    }

    /// The slot of page `number`, taking a free one (or a new one) into
    /// the index when the page has no resident block.
    fn page_slot(&mut self, number: u64) -> u32 {
        let pages = &mut self.pages;
        let free = &mut self.free_pages;
        *self.index.entry(number).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                pages.push(Page {
                    resident: 0,
                    extent: [NIL; PAGE_BLOCKS as usize],
                });
                (pages.len() - 1) as u32
            })
        })
    }

    /// The extent holding `block` of page slot `page`, if resident.
    fn extent_at(&self, page: u32, block: u64) -> Option<u32> {
        let p = &self.pages[page as usize];
        let offset = block % PAGE_BLOCKS;
        (p.resident >> offset & 1 == 1).then(|| p.extent[offset as usize])
    }

    /// Makes blocks `from..to` of extent `e` the most recent, in
    /// ascending order. Whatever remains of `e` keeps its place.
    fn refresh(&mut self, e: u32, from: u64, to: u64) {
        let Extent { start, page, .. } = self.extents[e as usize];
        let end = self.extents[e as usize].end();
        if to == end {
            if e == self.newest {
                // Already the most recent blocks, in this order.
                return;
            }
            if from == start {
                // The whole extent moves.
                self.unlink(e);
                if self.extend_newest(page, from, to) {
                    self.free_extents.push(e);
                } else {
                    self.link_newest(e);
                }
                return;
            }
            self.extents[e as usize].len = (from - start) as u32;
        } else if from == start {
            let ext = &mut self.extents[e as usize];
            ext.start = to;
            ext.len = (end - to) as u32;
        } else {
            // The middle moves: `e` keeps its head, and its tail becomes
            // an extent of its own just more recent than `e`.
            self.extents[e as usize].len = (from - start) as u32;
            let tail = self.new_extent(page, to, end);
            let newer = self.extents[e as usize].newer;
            self.extents[tail as usize].older = e;
            self.extents[tail as usize].newer = newer;
            self.extents[e as usize].newer = tail;
            if newer == NIL {
                self.newest = tail;
            } else {
                self.extents[newer as usize].older = tail;
            }
        }
        self.push_newest(page, from, to);
    }

    /// Makes blocks `from..to` of page slot `page`, which no extent
    /// holds, the most recent extent.
    fn push_newest(&mut self, page: u32, from: u64, to: u64) {
        if !self.extend_newest(page, from, to) {
            let e = self.new_extent(page, from, to);
            self.link_newest(e);
        }
    }

    /// Appends blocks `from..to` to the newest extent when they
    /// continue it within its page; returns whether they did.
    fn extend_newest(&mut self, page: u32, from: u64, to: u64) -> bool {
        let h = self.newest;
        if h == NIL {
            return false;
        }
        let head = &mut self.extents[h as usize];
        if head.page != page || head.end() != from {
            return false;
        }
        head.len += (to - from) as u32;
        self.label(page, from, to, h);
        true
    }

    /// A fresh unlinked extent holding blocks `from..to` of `page`.
    fn new_extent(&mut self, page: u32, from: u64, to: u64) -> u32 {
        let ext = Extent {
            start: from,
            len: (to - from) as u32,
            page,
            newer: NIL,
            older: NIL,
        };
        let e = match self.free_extents.pop() {
            Some(e) => {
                self.extents[e as usize] = ext;
                e
            }
            None => {
                self.extents.push(ext);
                (self.extents.len() - 1) as u32
            }
        };
        self.label(page, from, to, e);
        e
    }

    /// Marks blocks `from..to` of `page` resident in extent `e`.
    fn label(&mut self, page: u32, from: u64, to: u64, e: u32) {
        let p = &mut self.pages[page as usize];
        let lo = from % PAGE_BLOCKS;
        let hi = lo + (to - from);
        p.extent[lo as usize..hi as usize].fill(e);
        p.resident |= bits(lo, hi);
    }

    /// Evicts the `k` least recent blocks.
    fn evict(&mut self, mut k: u64) {
        self.len -= k;
        while k > 0 {
            let e = self.oldest;
            let Extent {
                start, len, page, ..
            } = self.extents[e as usize];
            let n = k.min(u64::from(len));
            let lo = start % PAGE_BLOCKS;
            let p = &mut self.pages[page as usize];
            p.resident &= !bits(lo, lo + n);
            if p.resident == 0 {
                self.index.remove(&(start / PAGE_BLOCKS));
                self.free_pages.push(page);
            }
            if n == u64::from(len) {
                self.unlink(e);
                self.free_extents.push(e);
            } else {
                let ext = &mut self.extents[e as usize];
                ext.start += n;
                ext.len -= n as u32;
            }
            k -= n;
        }
    }

    /// Detaches extent `e` from the recency list.
    fn unlink(&mut self, e: u32) {
        let Extent { newer, older, .. } = self.extents[e as usize];
        if newer == NIL {
            self.newest = older;
        } else {
            self.extents[newer as usize].older = older;
        }
        if older == NIL {
            self.oldest = newer;
        } else {
            self.extents[older as usize].newer = newer;
        }
    }

    /// Links extent `e` in as the most recent.
    fn link_newest(&mut self, e: u32) {
        let ext = &mut self.extents[e as usize];
        ext.newer = NIL;
        ext.older = self.newest;
        if self.newest == NIL {
            self.oldest = e;
        } else {
            self.extents[self.newest as usize].newer = e;
        }
        self.newest = e;
    }
}

#[cfg(test)]
impl BufferCache {
    /// The resident blocks, least recent first.
    fn blocks_oldest_first(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut e = self.oldest;
        while e != NIL {
            let ext = self.extents[e as usize];
            out.extend(ext.start..ext.end());
            e = ext.newer;
        }
        out
    }

    /// Panics unless the extents, pages and index agree: the list
    /// links both ways, every extent is non-empty, inside one page and
    /// labelled there, and the resident bits count exactly the
    /// extents' blocks.
    fn check_invariants(&self) {
        let mut total = 0u64;
        let mut bits_seen = vec![0u64; self.pages.len()];
        let mut prev = NIL;
        let mut e = self.oldest;
        while e != NIL {
            let ext = self.extents[e as usize];
            assert_eq!(ext.older, prev, "extent {e}: older link");
            assert!(ext.len > 0, "extent {e} is empty");
            let number = ext.start / PAGE_BLOCKS;
            assert_eq!(
                (ext.end() - 1) / PAGE_BLOCKS,
                number,
                "extent {e} crosses a page"
            );
            let page = self.index[&number];
            assert_eq!(page, ext.page, "extent {e}: page slot");
            for b in ext.start..ext.end() {
                assert_eq!(self.extent_at(page, b), Some(e), "block {b} label");
            }
            let lo = ext.start % PAGE_BLOCKS;
            bits_seen[page as usize] |= bits(lo, lo + u64::from(ext.len));
            total += u64::from(ext.len);
            prev = e;
            e = ext.newer;
        }
        assert_eq!(prev, self.newest, "newest");
        assert_eq!(total, self.len, "len");
        assert!(self.len <= self.capacity, "over capacity");
        // Every extent's page number maps to its slot (above), so when
        // the live slots and the index entries are as many, the index
        // holds exactly the live pages.
        let mut live = 0;
        for (slot, p) in self.pages.iter().enumerate() {
            assert_eq!(p.resident, bits_seen[slot], "page slot {slot} bits");
            live += usize::from(p.resident != 0);
        }
        assert_eq!(live, self.index.len(), "indexed pages");
        assert_eq!(
            live + self.free_pages.len(),
            self.pages.len(),
            "free page slots"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = BufferCache::new(4);
        assert!(!c.touch(a(1)));
        c.insert(a(1));
        assert!(c.touch(a(1)));
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BufferCache::new(3);
        c.insert(a(1));
        c.insert(a(2));
        c.insert(a(3));
        c.touch(a(1)); // 2 is now LRU
        let evicted = c.insert(a(4));
        assert_eq!(evicted, Some(a(2)));
        assert!(c.contains(a(1)));
        assert!(c.contains(a(3)));
        assert!(c.contains(a(4)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = BufferCache::new(2);
        c.insert(a(1));
        c.insert(a(2));
        assert_eq!(c.insert(a(1)), None, "already resident");
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(a(3)), Some(a(2)), "1 was refreshed, 2 evicts");
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = BufferCache::new(5);
        for i in 0..100 {
            c.insert(a(i));
        }
        assert_eq!(c.len(), 5);
        // most recent five remain
        for i in 95..100 {
            assert!(c.contains(a(i)));
        }
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = BufferCache::new(0);
    }

    #[test]
    fn a_run_is_one_extent_per_page() {
        let mut c = BufferCache::new(1024);
        assert_eq!(c.touch_run(a(10), 200), 0);
        c.check_invariants();
        // 10..64, 64..128, 128..192, 192..210.
        assert_eq!(c.index.len(), 4);
        assert_eq!(c.extents.len(), 4);
        assert_eq!(c.touch_run(a(0), 300), 200);
        c.check_invariants();
        assert_eq!(c.blocks_oldest_first(), (0..300).collect::<Vec<_>>());
        assert_eq!(c.hits(), 200);
    }

    #[test]
    fn a_runs_own_misses_evict_its_later_blocks() {
        // 10 and 11 are the oldest of four. The run 8..12 misses on 8
        // and 9, whose inserts evict 10 and 11 before the run reaches
        // them: no hits, though both were resident when it began.
        let mut c = BufferCache::new(4);
        c.run(a(10), 2);
        c.run(a(20), 2);
        assert_eq!(c.touch_run(a(8), 4), 0);
        c.check_invariants();
        assert_eq!(c.blocks_oldest_first(), vec![8, 9, 10, 11]);
    }

    #[test]
    fn a_run_longer_than_the_cache_keeps_its_tail() {
        let mut c = BufferCache::new(100);
        c.run(a(0), 50);
        // 0..50 hit before the run's own misses evict them again.
        assert_eq!(c.touch_run(a(0), 1000), 50);
        c.check_invariants();
        assert_eq!(c.blocks_oldest_first(), (900..1000).collect::<Vec<_>>());
    }

    #[test]
    fn runs_reach_the_top_of_the_address_space() {
        let mut c = BufferCache::new(100);
        let top = u64::MAX - 1;
        assert_eq!(c.touch_run(a(top - 69), 70), 0);
        assert_eq!(c.touch_run(a(top - 9), 10), 10);
        c.check_invariants();
        assert_eq!(c.len(), 70);
        assert!(c.contains(a(top - 1)));
    }

    #[test]
    fn emptied_pages_and_extents_are_reused() {
        let mut c = BufferCache::new(128);
        for round in 0..50 {
            c.touch_run(a(round * 1024), 128);
            c.check_invariants();
        }
        assert_eq!(c.index.len(), 2);
        assert!(c.pages.len() <= 4, "{} page slots", c.pages.len());
        assert!(c.extents.len() <= 4, "{} extents", c.extents.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridvm_simcore::lru::LruSet;
    use proptest::prelude::*;

    /// The buffer cache as a per-block loop over [`LruSet`]: the
    /// reference [`BufferCache`] must match operation for operation.
    struct BlockLoop {
        lru: LruSet<u64>,
        hits: u64,
    }

    impl BlockLoop {
        fn new(capacity: usize) -> Self {
            BlockLoop {
                lru: LruSet::new(capacity),
                hits: 0,
            }
        }

        fn touch(&mut self, b: u64) -> bool {
            let hit = self.lru.touch(&b);
            self.hits += u64::from(hit);
            hit
        }

        fn touch_run(&mut self, start: u64, len: u64) -> u64 {
            let mut hits = 0;
            for b in start..start + len {
                hits += u64::from(self.touch(b));
                self.lru.insert(b);
            }
            hits
        }

        fn run(&mut self, start: u64, len: u64) -> u64 {
            let mut resident = 0;
            for b in start..start + len {
                resident += u64::from(self.lru.contains(&b));
                self.lru.insert(b);
            }
            resident
        }

        /// The resident blocks, least recent first.
        fn blocks_oldest_first(&self) -> Vec<u64> {
            let mut lru = self.lru.clone();
            let mut out = Vec::new();
            while let Some(&b) = lru.lru() {
                out.push(b);
                lru.remove(&b);
            }
            out
        }
    }

    /// Replays one operation, drawn as `(kind, block, run length)`,
    /// on both caches and checks that they agree after it.
    fn step(cache: &mut BufferCache, model: &mut BlockLoop, (kind, b, len): (u8, u64, u64)) {
        match kind {
            0 => assert_eq!(cache.touch(BlockAddr(b)), model.touch(b)),
            1 => assert_eq!(cache.insert(BlockAddr(b)).map(|v| v.0), model.lru.insert(b)),
            2 => assert_eq!(cache.touch_run(BlockAddr(b), len), model.touch_run(b, len)),
            _ => assert_eq!(cache.run(BlockAddr(b), len), model.run(b, len)),
        }
        cache.check_invariants();
        assert_eq!(cache.hits(), model.hits);
        assert_eq!(cache.len(), model.lru.len());
        assert_eq!(cache.blocks_oldest_first(), model.blocks_oldest_first());
    }

    proptest! {
        /// Every hit, eviction victim, residency and the whole recency
        /// order match the per-block loop after every operation. Blocks
        /// span a few 64-block pages, so runs cross page and extent
        /// boundaries and revisit each other, and runs reach a few times
        /// the largest capacity, so they evict their own blocks.
        #[test]
        fn matches_the_per_block_loop(
            cap in 1usize..160,
            ops in proptest::collection::vec((0u8..4, 0u64..400, 1u64..300), 1..60),
        ) {
            let mut cache = BufferCache::new(cap);
            let mut model = BlockLoop::new(cap);
            for op in ops {
                step(&mut cache, &mut model, op);
            }
            for b in 0..800 {
                prop_assert_eq!(cache.contains(BlockAddr(b)), model.lru.contains(&b));
            }
        }

        /// The same with capacities below one page and short runs: a
        /// miss segment often outgrows the cache and evicts its own
        /// first blocks, and most extents are a block or two.
        #[test]
        fn matches_the_per_block_loop_in_small_caches(
            cap in 1usize..12,
            ops in proptest::collection::vec((0u8..4, 0u64..140, 1u64..24), 1..120),
        ) {
            let mut cache = BufferCache::new(cap);
            let mut model = BlockLoop::new(cap);
            for op in ops {
                step(&mut cache, &mut model, op);
            }
        }

        /// The cache never exceeds capacity and a just-inserted block
        /// is always resident.
        #[test]
        fn capacity_invariant(cap in 1usize..16, ops in proptest::collection::vec(0u64..64, 1..200)) {
            let mut c = BufferCache::new(cap);
            for addr in ops {
                c.insert(BlockAddr(addr));
                prop_assert!(c.len() <= cap);
                prop_assert!(c.contains(BlockAddr(addr)));
            }
        }

        /// Sequential scan larger than capacity has zero reuse (LRU's
        /// pathological case) — verifies strict LRU, not random.
        #[test]
        fn sequential_scan_thrashes(cap in 1usize..8, rounds in 2usize..5) {
            let n = cap as u64 + 1; // scan one more than fits
            let mut c = BufferCache::new(cap);
            for _ in 0..rounds {
                for i in 0..n {
                    if !c.touch(BlockAddr(i)) {
                        c.insert(BlockAddr(i));
                    }
                }
            }
            prop_assert_eq!(c.hits(), 0, "strict LRU must thrash on scan of cap+1");
        }
    }
}

// audit:hot-path: every guest NFS block read and write goes through the proxy cache here
//! The PVFS proxy (Figure 2): client-side caching, prefetching and
//! write buffering interposed between the kernel NFS client and a
//! remote server.
//!
//! "Client-side VFS proxies at the host V cache VM state from image
//! servers, while proxies within virtual machines cache user blocks
//! from a data server D." The proxy is what lets Table 1's PVFS rows
//! stay within a couple of percent of local execution, and what the
//! ablation bench `ablation_proxy_cache` switches off.
//!
//! The proxy works in runs of blocks. Its `(file, block)` residency is
//! a [`BufferCache`], the extent LRU under the host disks, exactly a
//! per-block LRU set, at addresses the proxy gives each file handle.
//! A read hit and a write-behind are each one step for a whole run:
//! [`VfsProxy::hit_run`] and [`VfsProxy::write_behind`] count, time and
//! refresh `n` blocks exactly as `n` one-block requests would, and a
//! one-block request goes through the same two functions. Only a miss
//! and its prefetches are still block by block.

use gridvm_simcore::lru::FastMap;
use gridvm_simcore::metrics::Counter;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_storage::cache::BufferCache;

/// Blocks served from the proxy cache (hot: one add per hit run).
static PROXY_HITS: Counter = Counter::new("vfs.proxy_hits");
/// Read misses forwarded to the server.
static PROXY_MISSES: Counter = Counter::new("vfs.proxy_misses");
/// Blocks fetched ahead of demand.
static PROXY_PREFETCHED: Counter = Counter::new("vfs.proxy_prefetched");

use crate::fs::{FileHandle, InMemoryFs};
use crate::protocol::NFS_BLOCK;

/// Blocks of one file in the proxy's block address space: block `b` of
/// the file the proxy numbered `f` is cache address
/// `f × FILE_BLOCKS + b`: 2^40 blocks of 8 KiB, 8 PiB per file.
const FILE_BLOCKS: u64 = 1 << 40;

/// Files one proxy can number, so every address stays below 2^63.
const MAX_FILES: u64 = 1 << 23;

/// The first block and the number of blocks an NFS transfer of
/// `len` bytes at `offset` touches (none for an empty transfer).
fn span(offset: u64, len: u64) -> (u64, u64) {
    match InMemoryFs::block_span(offset, len, NFS_BLOCK) {
        Some((first, last)) => (first, last - first + 1),
        None => (offset / NFS_BLOCK.as_u64(), 0),
    }
}

/// Proxy tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Block-cache capacity, in NFS blocks.
    pub cache_blocks: usize,
    /// How many blocks ahead to prefetch on a sequential miss.
    pub prefetch_depth: u64,
    /// Write-behind buffer capacity, in NFS blocks.
    pub write_buffer_blocks: usize,
    /// Cost of serving one block from the proxy cache.
    pub hit_cost: SimDuration,
}

impl Default for ProxyConfig {
    /// 64 MiB cache, prefetch 8 blocks, 4 MiB write buffer, 30 µs
    /// per cached block.
    fn default() -> Self {
        ProxyConfig {
            cache_blocks: (64 * 1024) / 8,
            prefetch_depth: 8,
            write_buffer_blocks: 512,
            hit_cost: SimDuration::from_micros(30),
        }
    }
}

impl ProxyConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero cache capacity.
    pub fn validated(self) -> Self {
        assert!(self.cache_blocks > 0, "zero proxy cache");
        self
    }
}

/// The proxy state.
///
/// ```
/// use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
/// use gridvm_vfs::fs::FileHandle;
/// use gridvm_simcore::time::SimTime;
///
/// let mut p = VfsProxy::new(ProxyConfig::default());
/// let fh = FileHandle(5);
/// assert!(p.try_read_hit(fh, 0, 8192, SimTime::ZERO).is_none()); // cold
/// p.install(fh, 0, 3 * 8192);
/// assert!(p.try_read_hit(fh, 0, 8192, SimTime::ZERO).is_some()); // warm
/// assert_eq!(p.resident_run(fh, 1, 10), 2); // blocks 1 and 2
/// ```
#[derive(Clone, Debug)]
pub struct VfsProxy {
    config: ProxyConfig,
    /// `(file, block)` residency and recency, one extent per run of
    /// blocks a file's reads or writes left adjacent, at addresses
    /// from `files`.
    cache: BufferCache,
    /// The proxy's number for every handle it has cached a block of,
    /// in first-cached order. Keyed by the whole handle, generation
    /// included, so a file created in a removed file's slot never
    /// shares its blocks.
    files: FastMap<u64, u64>,
    /// The last `(handle, number)` pair found in `files`: the next
    /// run is nearly always on the same file.
    last_file: Option<(u64, u64)>,
    /// Per-file last read end offset, for sequentiality detection.
    /// Keyed by the handle's slot index (dense); the stored full
    /// handle value disambiguates slot reuse across removals.
    last_read_end: DenseMap<(u64, u64)>,
    buffered_blocks: usize,
    hits: u64,
    misses: u64,
    prefetched: u64,
    flushes: u64,
}

impl VfsProxy {
    /// Creates a cold proxy. Nothing is allocated until a block is
    /// cached.
    pub fn new(config: ProxyConfig) -> Self {
        let config = config.validated();
        VfsProxy {
            cache: BufferCache::new(config.cache_blocks),
            config,
            files: FastMap::default(),
            last_file: None,
            last_read_end: DenseMap::new(),
            buffered_blocks: 0,
            hits: 0,
            misses: 0,
            prefetched: 0,
            flushes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Blocks fetched ahead of demand.
    pub fn prefetched(&self) -> u64 {
        self.prefetched
    }

    /// Write-buffer flushes forced by capacity.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The cache address of block `first` of the file the proxy
    /// numbered `number`, checking that a run of `n` blocks from it
    /// stays inside the file's address space.
    fn address(fh: FileHandle, number: u64, first: u64, n: u64) -> BlockAddr {
        assert!(
            first.saturating_add(n) <= FILE_BLOCKS,
            "blocks {first}..{} of {fh} pass the proxy's limit of {FILE_BLOCKS} blocks per file",
            first.saturating_add(n)
        );
        BlockAddr(number * FILE_BLOCKS + first)
    }

    /// The proxy's number for `fh`, if it has cached a block of it.
    fn number(&self, fh: FileHandle) -> Option<u64> {
        match self.last_file {
            Some((handle, number)) if handle == fh.0 => Some(number),
            _ => self.files.get(&fh.0).copied(),
        }
    }

    /// The address of block `first` of `fh`, numbering the file if
    /// the proxy has not cached a block of it before.
    fn address_mut(&mut self, fh: FileHandle, first: u64, n: u64) -> BlockAddr {
        let number = self.number(fh).unwrap_or_else(|| {
            let number = self.files.len() as u64;
            assert!(
                number < MAX_FILES,
                "{fh} passes the proxy's limit of {MAX_FILES} files"
            );
            self.files.insert(fh.0, number);
            number
        });
        self.last_file = Some((fh.0, number));
        Self::address(fh, number, first, n)
    }

    /// Dense per-file key: the handle's slot index.
    fn file_key(fh: FileHandle) -> u64 {
        fh.0 & 0xFFFF_FFFF
    }

    fn set_last_read_end(&mut self, fh: FileHandle, end: u64) {
        self.last_read_end.insert(Self::file_key(fh), (fh.0, end));
    }

    /// How many of blocks `first..first + max` of `fh` are cached in a
    /// row from `first`, without touching recency.
    pub fn resident_run(&self, fh: FileHandle, first: u64, max: u64) -> u64 {
        self.number(fh).map_or(0, |number| {
            self.cache
                .resident_run(Self::address(fh, number, first, max), max)
        })
    }

    /// Serves blocks `first..first + n` of `fh`, which
    /// [`resident_run`](VfsProxy::resident_run) found cached, as `n`
    /// hits in one step: they become the most recent blocks in
    /// ascending order, the file's last read ends at `read_end`, and
    /// the hits complete at `now + hit_cost × n`. This is the one hit
    /// path: a read request's blocks go through it too.
    ///
    /// # Panics
    ///
    /// Panics if a block of the run is not cached.
    pub fn hit_run(
        &mut self,
        fh: FileHandle,
        first: u64,
        n: u64,
        read_end: u64,
        now: SimTime,
    ) -> SimTime {
        if n > 0 {
            let at = self.address_mut(fh, first, n);
            let refreshed = self.cache.run(at, n);
            assert_eq!(refreshed, n, "a hit run of {fh} reached uncached blocks");
        }
        self.hits += n;
        PROXY_HITS.add(n);
        self.set_last_read_end(fh, read_end);
        now + self.config.hit_cost * n
    }

    /// If every block of `[offset, offset+len)` in `fh` is cached,
    /// serves them as one [`hit_run`](VfsProxy::hit_run) and returns
    /// the hit completion time.
    pub fn try_read_hit(
        &mut self,
        fh: FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Option<SimTime> {
        let (first, n) = span(offset, len.min(NFS_BLOCK.as_u64()));
        (self.resident_run(fh, first, n) == n)
            .then(|| self.hit_run(fh, first, n, offset + len, now))
    }

    /// Records a read miss that was served by the server, installs
    /// the blocks, and — when the access is sequential — writes the
    /// `(offset, len)` ranges the proxy should prefetch into `out`
    /// (cleared first). The caller owns and reuses the buffer, so a
    /// steady stream of misses allocates nothing.
    pub fn note_read_miss(
        &mut self,
        fh: FileHandle,
        offset: u64,
        len: u64,
        out: &mut Vec<(u64, u64)>,
    ) {
        out.clear();
        let len = len.min(NFS_BLOCK.as_u64());
        let sequential = self
            .last_read_end
            .get(Self::file_key(fh))
            .is_some_and(|(owner, end)| *owner == fh.0 && *end == offset);
        self.misses += 1;
        PROXY_MISSES.add(1);
        self.install(fh, offset, len);
        self.set_last_read_end(fh, offset + len);
        if !sequential || self.config.prefetch_depth == 0 {
            return;
        }
        let bs = NFS_BLOCK.as_u64();
        let next = offset + len;
        for i in 0..self.config.prefetch_depth {
            let pf_offset = next + i * bs;
            if self.resident_run(fh, pf_offset / bs, 1) == 1 {
                continue;
            }
            out.push((pf_offset, bs));
        }
        self.prefetched += out.len() as u64;
        PROXY_PREFETCHED.add(out.len() as u64);
    }

    /// Marks the blocks of a range as cached (used for demand fills
    /// and prefetch completions), in ascending order, as one run.
    pub fn install(&mut self, fh: FileHandle, offset: u64, len: u64) {
        let (first, n) = span(offset, len);
        self.install_blocks(fh, first, n);
    }

    fn install_blocks(&mut self, fh: FileHandle, first: u64, n: u64) {
        if n > 0 {
            let at = self.address_mut(fh, first, n);
            self.cache.run(at, n);
        }
    }

    /// Blocks the write-behind buffer can still absorb before a write
    /// has to flush it.
    pub fn write_room(&self) -> u64 {
        (self.config.write_buffer_blocks - self.buffered_blocks) as u64
    }

    /// Absorbs blocks `first..first + n` of `fh` into the write-behind
    /// buffer in one step, exactly as `n` one-block writes that each
    /// fit: the blocks become cached (written data is also readable
    /// from the cache), and the writes complete at
    /// `now + hit_cost × n`. This is the one write-behind path: a
    /// write request's blocks go through it too.
    ///
    /// # Panics
    ///
    /// Panics if the run needs more than [`write_room`](VfsProxy::write_room).
    pub fn write_behind(&mut self, fh: FileHandle, first: u64, n: u64, now: SimTime) -> SimTime {
        assert!(
            n <= self.write_room(),
            "a write-behind run of {n} blocks overfills the buffer"
        );
        self.buffered_blocks += n as usize;
        self.install_blocks(fh, first, n);
        now + self.config.hit_cost * n
    }

    /// Attempts to absorb a write into the write-behind buffer. On
    /// success returns the (fast) completion time; returns `None`
    /// when the buffer is full — the caller must then issue a
    /// synchronous RPC, which implicitly represents the flush.
    pub fn try_buffer_write(
        &mut self,
        fh: FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Option<SimTime> {
        let (first, n) = span(offset, len);
        if n > self.write_room() {
            // Buffer full: the synchronous path drains it.
            self.buffered_blocks = 0;
            self.flushes += 1;
            return None;
        }
        Some(self.write_behind(fh, first, n, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(n: u64) -> FileHandle {
        FileHandle(n)
    }

    fn bs() -> u64 {
        NFS_BLOCK.as_u64()
    }

    /// The prefetch ranges a miss asks for.
    fn miss(p: &mut VfsProxy, file: u64, offset: u64) -> Vec<(u64, u64)> {
        let mut out = vec![(0, 0)]; // stale content the call must clear
        p.note_read_miss(fh(file), offset, bs(), &mut out);
        out
    }

    #[test]
    fn miss_install_hit_cycle() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        assert!(p.try_read_hit(fh(1), 0, bs(), SimTime::ZERO).is_none());
        let prefetch = miss(&mut p, 1, 0);
        assert!(prefetch.is_empty(), "first access is not sequential");
        let hit = p.try_read_hit(fh(1), 0, bs(), SimTime::ZERO);
        assert_eq!(hit, Some(SimTime::ZERO + p.config.hit_cost));
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn sequential_misses_trigger_prefetch() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        let _ = miss(&mut p, 1, 0);
        let pf = miss(&mut p, 1, bs());
        assert_eq!(pf.len(), 8, "default depth");
        assert_eq!(pf[0], (2 * bs(), bs()));
        // After install, the prefetched range hits.
        for (o, l) in pf {
            p.install(fh(1), o, l);
        }
        assert!(p
            .try_read_hit(fh(1), 2 * bs(), bs(), SimTime::ZERO)
            .is_some());
        assert!(p.prefetched() >= 8);
    }

    #[test]
    fn random_access_does_not_prefetch() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        let _ = miss(&mut p, 1, 0);
        let pf = miss(&mut p, 1, 100 * bs());
        assert!(pf.is_empty());
    }

    #[test]
    fn files_are_isolated() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        p.install(fh(1), 0, bs());
        assert!(p.try_read_hit(fh(2), 0, bs(), SimTime::ZERO).is_none());
    }

    #[test]
    fn cache_capacity_evicts_lru() {
        let mut p = VfsProxy::new(ProxyConfig {
            cache_blocks: 4,
            ..ProxyConfig::default()
        });
        for i in 0..4 {
            p.install(fh(1), i * bs(), bs());
        }
        // A hit refreshes block 0.
        assert!(p.try_read_hit(fh(1), 0, bs(), SimTime::ZERO).is_some());
        p.install(fh(1), 100 * bs(), bs()); // evicts block 1 (LRU)
        assert!(p.try_read_hit(fh(1), 0, bs(), SimTime::ZERO).is_some());
        assert!(p.try_read_hit(fh(1), bs(), bs(), SimTime::ZERO).is_none());
        assert_eq!(p.resident_run(fh(1), 2, 10), 2);
        assert_eq!(p.resident_run(fh(1), 100, 10), 1);
    }

    #[test]
    #[should_panic(expected = "reached uncached blocks")]
    fn a_hit_run_over_an_uncached_block_panics() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        p.install(fh(1), 0, 2 * bs());
        p.hit_run(fh(1), 0, 3, 3 * bs(), SimTime::ZERO);
    }

    #[test]
    fn a_file_created_in_a_removed_files_slot_misses() {
        let t0 = SimTime::ZERO;
        let mut fs = InMemoryFs::new();
        let root = fs.root();
        let old = fs.create(root, "old", t0).unwrap();
        let mut p = VfsProxy::new(ProxyConfig::default());
        p.install(old, 0, 4 * bs());
        fs.remove(root, "old", t0).unwrap();
        let new = fs.create(root, "new", t0).unwrap();
        assert_eq!(
            VfsProxy::file_key(new),
            VfsProxy::file_key(old),
            "slot reused"
        );
        assert_ne!(new, old, "under a new generation");
        assert!(p.try_read_hit(new, 0, bs(), t0).is_none());
        assert_eq!(p.resident_run(new, 0, 4), 0);
        p.install(new, 4 * bs(), bs());
        // The removed file's blocks stay cached until they age out, as
        // they did keyed by `(handle, block)`.
        assert_eq!(p.resident_run(old, 0, 8), 4);
        assert_eq!(p.resident_run(new, 0, 8), 0);
    }

    #[test]
    #[should_panic(expected = "limit of 1099511627776 blocks per file")]
    fn a_block_past_the_address_space_panics() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        p.install(fh(1), (FILE_BLOCKS - 1) * bs(), bs()); // the last block
        p.install(fh(1), FILE_BLOCKS * bs(), bs());
    }

    #[test]
    fn write_buffer_fills_then_flushes() {
        let mut p = VfsProxy::new(ProxyConfig {
            write_buffer_blocks: 2,
            ..ProxyConfig::default()
        });
        assert!(p.try_buffer_write(fh(1), 0, bs(), SimTime::ZERO).is_some());
        assert!(p
            .try_buffer_write(fh(1), bs(), bs(), SimTime::ZERO)
            .is_some());
        // Third write exceeds capacity: synchronous flush.
        assert!(p
            .try_buffer_write(fh(1), 2 * bs(), bs(), SimTime::ZERO)
            .is_none());
        assert_eq!(p.flushes(), 1);
        // Buffer drained: next write buffers again.
        assert!(p
            .try_buffer_write(fh(1), 3 * bs(), bs(), SimTime::ZERO)
            .is_some());
    }

    #[test]
    fn buffered_writes_are_readable_from_cache() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        p.try_buffer_write(fh(1), 0, bs(), SimTime::ZERO).unwrap();
        assert!(p.try_read_hit(fh(1), 0, bs(), SimTime::ZERO).is_some());
    }

    #[test]
    fn zero_length_read_is_trivially_hit() {
        let mut p = VfsProxy::new(ProxyConfig::default());
        assert_eq!(
            p.try_read_hit(fh(1), 0, 0, SimTime::from_secs(3)),
            Some(SimTime::from_secs(3))
        );
    }
}

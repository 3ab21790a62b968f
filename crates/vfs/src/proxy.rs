//! The PVFS proxy (Figure 2): client-side caching, prefetching and
//! write buffering interposed between the kernel NFS client and a
//! remote server.
//!
//! "Client-side VFS proxies at the host V cache VM state from image
//! servers, while proxies within virtual machines cache user blocks
//! from a data server D." The proxy is what lets Table 1's PVFS rows
//! stay within a couple of percent of local execution, and what the
//! ablation bench `ablation_proxy_cache` switches off.

use gridvm_simcore::lru::LruSet;
use gridvm_simcore::metrics::Counter;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

/// Blocks served from the proxy cache (hot: one add per read hit).
static PROXY_HITS: Counter = Counter::new("vfs.proxy_hits");
/// Read misses forwarded to the server.
static PROXY_MISSES: Counter = Counter::new("vfs.proxy_misses");
/// Blocks fetched ahead of demand.
static PROXY_PREFETCHED: Counter = Counter::new("vfs.proxy_prefetched");

use crate::fs::{FileHandle, InMemoryFs};
use crate::protocol::NFS_BLOCK;

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
/// p.install(fh, 0, 8192);
/// assert!(p.try_read_hit(fh, 0, 8192, SimTime::ZERO).is_some()); // warm
/// ```
#[derive(Clone, Debug)]
pub struct VfsProxy {
    config: ProxyConfig,
    /// `(file, block)` residency with O(1) recency bookkeeping.
    cache: LruSet<(u64, u64)>,
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
    /// Creates a cold proxy.
    pub fn new(config: ProxyConfig) -> Self {
        let config = config.validated();
        VfsProxy {
            cache: LruSet::new(config.cache_blocks),
            config,
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

    /// Blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    fn touch(&mut self, key: (u64, u64)) -> bool {
        self.cache.touch(&key)
    }

    /// Dense per-file key: the handle's slot index.
    fn file_key(fh: FileHandle) -> u64 {
        fh.0 & 0xFFFF_FFFF
    }

    fn set_last_read_end(&mut self, fh: FileHandle, end: u64) {
        self.last_read_end.insert(Self::file_key(fh), (fh.0, end));
    }

    fn insert(&mut self, key: (u64, u64)) {
        self.cache.insert(key);
    }

    /// If every block of `[offset, offset+len)` in `fh` is cached,
    /// refreshes them and returns the hit completion time.
    pub fn try_read_hit(
        &mut self,
        fh: FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Option<SimTime> {
        let Some((first, last)) =
            InMemoryFs::block_span(offset, len.min(NFS_BLOCK.as_u64()), NFS_BLOCK)
        else {
            return Some(now);
        };
        if first == last {
            // Single-block read — the dominant shape: `touch` is both
            // the residency probe and the recency refresh, so the hit
            // path costs one cache lookup instead of two.
            if !self.cache.touch(&(fh.0, first)) {
                return None;
            }
            self.hits += 1;
            PROXY_HITS.add(1);
            self.set_last_read_end(fh, offset + len);
            return Some(now + self.config.hit_cost);
        }
        let all_cached = (first..=last).all(|b| self.cache.contains(&(fh.0, b)));
        if !all_cached {
            return None;
        }
        for b in first..=last {
            let hit = self.touch((fh.0, b));
            debug_assert!(hit);
        }
        let count = last - first + 1;
        self.hits += count;
        PROXY_HITS.add(count);
        self.set_last_read_end(fh, offset + len);
        Some(now + self.config.hit_cost * count)
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
            let first_block = pf_offset / bs;
            if self.cache.contains(&(fh.0, first_block)) {
                continue;
            }
            out.push((pf_offset, bs));
        }
        self.prefetched += out.len() as u64;
        PROXY_PREFETCHED.add(out.len() as u64);
    }

    /// Marks the blocks of a range as cached (used for demand fills
    /// and prefetch completions).
    pub fn install(&mut self, fh: FileHandle, offset: u64, len: u64) {
        if let Some((first, last)) = InMemoryFs::block_span(offset, len, NFS_BLOCK) {
            for b in first..=last {
                self.insert((fh.0, b));
            }
        }
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
        let blocks = match InMemoryFs::block_span(offset, len, NFS_BLOCK) {
            Some((first, last)) => (last - first + 1) as usize,
            None => 0,
        };
        if self.buffered_blocks + blocks > self.config.write_buffer_blocks {
            // Buffer full: the synchronous path drains it.
            self.buffered_blocks = 0;
            self.flushes += 1;
            return None;
        }
        self.buffered_blocks += blocks;
        // Written data is also readable from the cache.
        self.install(fh, offset, len);
        Some(now + self.config.hit_cost * blocks as u64)
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
        let _ = p.touch((1, 0)); // refresh block 0
        p.install(fh(1), 100 * bs(), bs()); // evicts block 1 (LRU)
        assert!(p.try_read_hit(fh(1), 0, bs(), SimTime::ZERO).is_some());
        assert!(p.try_read_hit(fh(1), bs(), bs(), SimTime::ZERO).is_none());
        assert_eq!(p.cached_blocks(), 4);
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

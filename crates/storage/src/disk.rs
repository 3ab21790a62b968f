//! Disk timing: seeks, sequential bandwidth, and the host buffer
//! cache.
//!
//! The model is deliberately simple — a FIFO disk arm with a seek
//! charge for non-sequential accesses, constant sequential bandwidth,
//! and an LRU buffer cache in front — because those three effects are
//! what Table 2 turns on: explicit image copies are
//! bandwidth-limited, cold boots pay scattered seeks, and
//! boots/restores that follow a copy run out of the warm cache.

use gridvm_simcore::server::{FifoServer, ServiceGrant};
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::{Bandwidth, ByteSize};

use crate::block::BlockAddr;
use crate::cache::BufferCache;

/// Performance profile of a disk.
#[derive(Clone, Copy, Debug)]
pub struct DiskProfile {
    /// Positioning cost (seek + rotational) for a non-sequential
    /// access.
    pub seek: SimDuration,
    /// Sequential transfer bandwidth.
    pub bandwidth: Bandwidth,
    /// Block size of all devices on this disk.
    pub block_size: ByteSize,
    /// Host buffer-cache capacity, in blocks.
    pub cache_blocks: usize,
    /// Time to satisfy a read from the buffer cache.
    pub cache_hit_time: SimDuration,
}

impl DiskProfile {
    /// A c. 2003 commodity IDE disk: ~9 ms positioning, 16 MiB/s
    /// sequential, 4 KiB blocks, 256 MiB of host buffer cache, ~10 µs
    /// per cached block.
    pub fn ide_2003() -> Self {
        DiskProfile {
            seek: SimDuration::from_millis(9),
            bandwidth: Bandwidth::from_mib_per_sec(16.0),
            block_size: ByteSize::from_kib(4),
            cache_blocks: (256 * 1024) / 4,
            cache_hit_time: SimDuration::from_micros(10),
        }
    }

    /// Validates the profile.
    ///
    /// # Panics
    ///
    /// Panics on zero block size or zero cache capacity.
    pub fn validated(self) -> Self {
        assert!(!self.block_size.is_zero(), "zero block size");
        assert!(self.cache_blocks > 0, "zero cache");
        self
    }

    /// Per-block sequential transfer time.
    pub fn transfer_per_block(&self) -> SimDuration {
        self.bandwidth.transfer_time(self.block_size)
    }
}

/// Whether an access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Read,
    /// A (write-through) write.
    Write,
}

/// A timed disk: FIFO arm, seek model, buffer cache.
///
/// ```
/// use gridvm_storage::block::BlockAddr;
/// use gridvm_storage::disk::{AccessKind, DiskModel, DiskProfile};
/// use gridvm_simcore::time::SimTime;
///
/// let mut d = DiskModel::new(DiskProfile::ide_2003());
/// let cold = d.access(SimTime::ZERO, BlockAddr(100), AccessKind::Read);
/// let warm = d.access(cold.finish, BlockAddr(100), AccessKind::Read);
/// assert!(warm.latency_from(cold.finish) < cold.latency_from(SimTime::ZERO));
/// ```
#[derive(Clone, Debug)]
pub struct DiskModel {
    profile: DiskProfile,
    arm: FifoServer,
    cache: BufferCache,
    last_block: Option<BlockAddr>,
    blocks_read: u64,
    blocks_written: u64,
    slowdown_percent: u32,
}

impl DiskModel {
    /// Creates a disk with a cold cache.
    pub fn new(profile: DiskProfile) -> Self {
        let profile = profile.validated();
        DiskModel {
            arm: FifoServer::new(),
            cache: BufferCache::new(profile.cache_blocks),
            last_block: None,
            blocks_read: 0,
            blocks_written: 0,
            slowdown_percent: 0,
            profile,
        }
    }

    /// Degrades the disk (fault injection): every subsequent access —
    /// seeks, transfers and cache hits alike — takes `percent` %
    /// longer. Zero restores nominal speed.
    pub fn set_slowdown_percent(&mut self, percent: u32) {
        self.slowdown_percent = percent;
    }

    /// The current slowdown, in percent (0 = nominal).
    pub fn slowdown_percent(&self) -> u32 {
        self.slowdown_percent
    }

    /// Scales a nominal service time by the active slowdown.
    fn degraded(&self, nominal: SimDuration) -> SimDuration {
        if self.slowdown_percent == 0 {
            nominal
        } else {
            nominal.mul_f64(1.0 + self.slowdown_percent as f64 / 100.0)
        }
    }

    /// The disk profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// The buffer cache (for hit-ratio assertions).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Blocks read so far (cache hits included).
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Blocks written so far.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    /// Times a single-block access at `now`.
    ///
    /// Reads that hit the buffer cache cost
    /// [`cache_hit_time`](DiskProfile::cache_hit_time) and do not
    /// occupy the arm. Misses and writes queue on the arm, pay a seek
    /// unless sequential to the previous arm access, then transfer
    /// one block; the block becomes cache-resident.
    ///
    /// # Panics
    ///
    /// Panics on `BlockAddr(u64::MAX)`, past the cache's address space.
    pub fn access(&mut self, now: SimTime, addr: BlockAddr, kind: AccessKind) -> ServiceGrant {
        if self.cache_run(addr, 1, kind) == 0 {
            return ServiceGrant {
                start: now,
                finish: now + self.degraded(self.profile.cache_hit_time),
            };
        }
        let sequential = self.last_block.is_some_and(|last| addr.0 == last.0 + 1);
        let service = if sequential {
            self.profile.transfer_per_block()
        } else {
            self.profile.seek + self.profile.transfer_per_block()
        };
        self.last_block = Some(addr);
        let service = self.degraded(service);
        self.arm.admit(now, service)
    }

    /// Times a sequential run of `count` blocks starting at `start`:
    /// one seek plus streaming transfer for the uncached span. All
    /// touched blocks become resident, in ascending order, exactly as
    /// `count` single-block accesses would leave the cache; the cost of
    /// that bookkeeping follows the cached extents the run touches,
    /// not its length.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the run reaches `BlockAddr(u64::MAX)`.
    pub fn access_run(
        &mut self,
        now: SimTime,
        start: BlockAddr,
        count: u64,
        kind: AccessKind,
    ) -> ServiceGrant {
        assert!(count > 0, "empty run");
        let uncached = self.cache_run(start, count, kind);
        if uncached == 0 {
            return ServiceGrant {
                start: now,
                finish: now + self.degraded(self.profile.cache_hit_time * count),
            };
        }
        let service =
            self.degraded(self.profile.seek + self.profile.transfer_per_block() * uncached);
        self.last_block = Some(BlockAddr(start.0 + count - 1));
        self.arm.admit(now, service)
    }

    /// The buffer-cache half of every access: passes the `count`
    /// blocks from `start` through the cache in ascending order, each
    /// resident block refreshed and every other one inserted, and
    /// counts them. Returns how many must go to the arm: a read's
    /// misses, or all of a write's blocks (write-through).
    fn cache_run(&mut self, start: BlockAddr, count: u64, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => {
                self.blocks_read += count;
                count - self.cache.touch_run(start, count)
            }
            AccessKind::Write => {
                self.blocks_written += count;
                self.cache.run(start, count);
                count
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DiskModel {
        DiskModel::new(DiskProfile::ide_2003())
    }

    #[test]
    fn cold_read_pays_seek_plus_transfer() {
        let mut d = model();
        let g = d.access(SimTime::ZERO, BlockAddr(10), AccessKind::Read);
        let expect = d.profile.seek + d.profile.transfer_per_block();
        assert_eq!(g.finish.duration_since(SimTime::ZERO), expect);
    }

    #[test]
    fn cached_read_is_fast_and_skips_the_arm() {
        let mut d = model();
        let g1 = d.access(SimTime::ZERO, BlockAddr(10), AccessKind::Read);
        let g2 = d.access(g1.finish, BlockAddr(10), AccessKind::Read);
        assert_eq!(g2.latency_from(g1.finish), d.profile.cache_hit_time);
        assert_eq!(d.cache().hits(), 1);
    }

    #[test]
    fn sequential_reads_skip_seeks() {
        let mut d = model();
        let g1 = d.access(SimTime::ZERO, BlockAddr(0), AccessKind::Read);
        let g2 = d.access(g1.finish, BlockAddr(1), AccessKind::Read);
        assert_eq!(
            g2.latency_from(g1.finish),
            d.profile.transfer_per_block(),
            "no seek for the next block"
        );
        let g3 = d.access(g2.finish, BlockAddr(50), AccessKind::Read);
        assert_eq!(
            g3.latency_from(g2.finish),
            d.profile.seek + d.profile.transfer_per_block(),
            "jump pays a seek"
        );
    }

    #[test]
    fn slowdown_stretches_every_path() {
        let mut d = model();
        d.set_slowdown_percent(50);
        assert_eq!(d.slowdown_percent(), 50);
        // Cold single-block read: 1.5× nominal.
        let g = d.access(SimTime::ZERO, BlockAddr(10), AccessKind::Read);
        let nominal = d.profile.seek + d.profile.transfer_per_block();
        assert_eq!(g.finish.duration_since(SimTime::ZERO), nominal.mul_f64(1.5));
        // Cache hit: 1.5× hit time.
        let warm = d.access(g.finish, BlockAddr(10), AccessKind::Read);
        assert_eq!(
            warm.latency_from(g.finish),
            d.profile.cache_hit_time.mul_f64(1.5)
        );
        // Back to nominal once the fault clears.
        d.set_slowdown_percent(0);
        let g2 = d.access(warm.finish, BlockAddr(500), AccessKind::Read);
        assert_eq!(g2.latency_from(warm.finish), nominal);
    }

    #[test]
    fn run_access_is_one_seek_plus_stream() {
        let mut d = model();
        let g = d.access_run(SimTime::ZERO, BlockAddr(0), 1000, AccessKind::Read);
        let expect = d.profile.seek + d.profile.transfer_per_block() * 1000;
        assert_eq!(g.finish.duration_since(SimTime::ZERO), expect);
        // Re-reading the same run is all cache.
        let g2 = d.access_run(g.finish, BlockAddr(0), 1000, AccessKind::Read);
        assert_eq!(
            g2.finish.duration_since(g.finish),
            d.profile.cache_hit_time * 1000
        );
    }

    #[test]
    fn writes_always_hit_the_arm_but_warm_the_cache() {
        let mut d = model();
        let w = d.access(SimTime::ZERO, BlockAddr(5), AccessKind::Write);
        assert!(w.latency_from(SimTime::ZERO) >= d.profile.transfer_per_block());
        let r = d.access(w.finish, BlockAddr(5), AccessKind::Read);
        assert_eq!(r.latency_from(w.finish), d.profile.cache_hit_time);
        assert_eq!(d.blocks_written(), 1);
        assert_eq!(d.blocks_read(), 1);
    }

    #[test]
    fn queued_accesses_serialize_on_the_arm() {
        let mut d = model();
        let a = d.access(SimTime::ZERO, BlockAddr(10), AccessKind::Read);
        let b = d.access(SimTime::ZERO, BlockAddr(500), AccessKind::Read);
        assert_eq!(b.start, a.finish, "arm is FIFO");
    }

    #[test]
    fn a_2gb_sequential_copy_takes_minutes() {
        // Sanity-anchor for Table 2: reading 2 GiB sequentially at
        // 16 MiB/s takes ~128 s; a same-disk copy (read + write) will
        // be roughly double that in the staging module.
        let mut d = model();
        let blocks = ByteSize::from_gib(2).blocks(d.profile.block_size);
        let g = d.access_run(SimTime::ZERO, BlockAddr(0), blocks, AccessKind::Read);
        let secs = g.finish.as_secs_f64();
        assert!((125.0..135.0).contains(&secs), "2GiB read {secs}s");
    }
}

//! Whole-image transfers: the explicit-copy path of Table 2's
//! *persistent* rows.
//!
//! [`copy_local`] copies a disk image within one host's file system
//! before a persistent-disk VM can start. Read and write share the
//! same arm, so a 2 GB copy at 16 MiB/s costs ≈ 4+ minutes — the
//! paper's ">4 minutes if explicit copies of a VM disk need to be
//! generated".

use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::ByteSize;

use crate::block::BlockAddr;
use crate::disk::{AccessKind, DiskModel};

/// The outcome of one staging transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StagingReport {
    /// When the transfer started.
    pub started: SimTime,
    /// When the last byte was durable at the destination.
    pub finished: SimTime,
    /// Bytes moved.
    pub bytes: ByteSize,
}

impl StagingReport {
    /// Total elapsed transfer time.
    pub fn elapsed(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }
}

/// Copies `size` bytes within a single disk (read then write through
/// one arm), starting the destination at `dst_start` so source and
/// destination ranges do not alias. All copied destination blocks end
/// up warm in the buffer cache — the effect that makes a
/// post-copy boot fast in Table 2.
///
/// # Panics
///
/// Panics on a zero-byte copy.
pub fn copy_local(
    disk: &mut DiskModel,
    size: ByteSize,
    dst_start: BlockAddr,
    now: SimTime,
) -> StagingReport {
    assert!(!size.is_zero(), "zero-byte copy");
    let blocks = size.blocks(disk.profile().block_size);
    // Read the source run, then write the destination run; both
    // serialize on the same arm, which is exactly the 2x cost of a
    // same-disk copy.
    let read = disk.access_run(now, BlockAddr(0), blocks, AccessKind::Read);
    let write = disk.access_run(read.finish, dst_start, blocks, AccessKind::Write);
    StagingReport {
        started: now,
        finished: write.finish,
        bytes: size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskProfile;

    fn ide() -> DiskModel {
        DiskModel::new(DiskProfile::ide_2003())
    }

    #[test]
    fn local_copy_of_2gb_takes_over_four_minutes() {
        let mut d = ide();
        let size = ByteSize::from_gib(2);
        let blocks = size.blocks(d.profile().block_size);
        let r = copy_local(&mut d, size, BlockAddr(blocks), SimTime::ZERO);
        let secs = r.elapsed().as_secs_f64();
        assert!(
            (245.0..280.0).contains(&secs),
            "2GiB same-disk copy {secs}s (paper: >4 minutes)"
        );
    }

    #[test]
    fn copy_leaves_destination_warm() {
        let mut d = ide();
        let size = ByteSize::from_mib(64);
        let blocks = size.blocks(d.profile().block_size);
        let dst = BlockAddr(1_000_000);
        let r = copy_local(&mut d, size, dst, SimTime::ZERO);
        // Reading the freshly written destination is all cache hits.
        let g = d.access_run(r.finished, dst, blocks, AccessKind::Read);
        assert_eq!(
            g.finish.duration_since(r.finished),
            d.profile().cache_hit_time * blocks
        );
    }

    #[test]
    fn report_throughput_is_consistent() {
        let mut d = ide();
        let size = ByteSize::from_mib(32);
        let r = copy_local(&mut d, size, BlockAddr(500_000), SimTime::ZERO);
        let tput = r.bytes.as_f64() / r.elapsed().as_secs_f64();
        // Same-disk copy ≈ half the sequential bandwidth.
        let half_bw = 8.0 * 1024.0 * 1024.0;
        assert!(
            (tput - half_bw).abs() / half_bw < 0.1,
            "copy throughput {tput}"
        );
    }
}

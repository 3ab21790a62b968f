//! Criterion bench: the host buffer cache under the three disk traffic
//! shapes it serves, each on a fresh `ide_2003` disk (a 65,536-block
//! cache).
//!
//! - **NFS-server point reads.** Ablation A1's proxy-off traffic as
//!   the NFS daemon charges it (`gridvm_vfs::server`): one
//!   `DiskModel::access` per 8 KiB block of every boot run, for eight
//!   instances booting one image. The first instance misses, the
//!   other seven hit block by block.
//! - **Boot runs.** One boot's scattered working set (12,800 blocks in
//!   runs of one to five) through `access_run`, cold and then warm.
//! - **Image copy, then boot.** Table 2's persistent rows: a 2 GiB
//!   `staging::copy_local` (524,288 blocks read, then written, through
//!   a cache an eighth that size) and a boot from the copy.
//!
//! The first shape costs one cache lookup per block whatever the
//! cache's layout; the last two are runs, whose cost a run-granular
//! cache cuts. A change to the buffer cache should be judged on all
//! three.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::BlockAddr;
use gridvm_storage::disk::{AccessKind, DiskModel, DiskProfile};
use gridvm_storage::image::VmImage;
use gridvm_storage::staging::copy_local;
use gridvm_vfs::protocol::NFS_BLOCK;
use gridvm_vmm::boot::{boot_read_runs, BootProfile};

/// The exported image's file handle, as the NFS daemon mixes it into
/// the disk address (`fh << 40 | block`).
const IMAGE_FH: u64 = 2;

/// Replays boot `runs` through `access_run` from block `offset` on.
fn boot(disk: &mut DiskModel, runs: &[(BlockAddr, u64)], offset: u64, mut t: SimTime) -> SimTime {
    for (start, len) in runs {
        t = disk
            .access_run(t, BlockAddr(start.0 + offset), *len, AccessKind::Read)
            .finish;
    }
    t
}

fn bench_disk_traffic(c: &mut Criterion) {
    let image = VmImage::redhat_guest("rh72");
    let runs = boot_read_runs(&image, &BootProfile::default());
    let per_nfs_block = NFS_BLOCK.as_u64() / ByteSize::from(image.block_size).as_u64();
    let disk = || DiskModel::new(DiskProfile::ide_2003());

    c.bench_function("disk: NFS-server boot reads, 8 instances", |b| {
        b.iter_batched(
            disk,
            |mut d| {
                let mut t = SimTime::ZERO;
                for _ in 0..8 {
                    for (start, len) in &runs {
                        let first = start.0 / per_nfs_block;
                        let last = (start.0 + len - 1) / per_nfs_block;
                        for block in first..=last {
                            let addr = BlockAddr(IMAGE_FH << 40 | block);
                            t = d.access(t, addr, AccessKind::Read).finish;
                        }
                    }
                }
                t
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("disk: boot access_runs, cold then warm", |b| {
        b.iter_batched(
            disk,
            |mut d| {
                let t = boot(&mut d, &runs, 0, SimTime::ZERO);
                boot(&mut d, &runs, 0, t)
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("disk: 2 GiB image copy, then boot from the copy", |b| {
        b.iter_batched(
            disk,
            |mut d| {
                let copy = image.disk_blocks();
                let r = copy_local(
                    &mut d,
                    image.disk_size.into(),
                    BlockAddr(copy),
                    SimTime::ZERO,
                );
                boot(&mut d, &runs, copy, r.finished)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_disk_traffic);
criterion_main!(benches);

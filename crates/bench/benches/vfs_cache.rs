//! Criterion bench: the storage/VFS hot paths — buffer-cache
//! operations, proxy hit/miss/evict churn and prefetching misses,
//! end-to-end mount reads, and guest traffic through the PVFS adapter.
//!
//! The mount shape reads a synthetic file, so most of its time goes to
//! generating the bytes. The two guest shapes are Table 1's `VM, PVFS`
//! traffic as `vmm::exec::run_app` streams it: 64-block runs through
//! `NfsGuestStorage::io_run` on a presized all-hole state file, over
//! the WAN through a default proxy. Zero-write runs take the proxy's
//! write-behind path, one WRITE per block carrying the protocol's zero
//! block; sequential read runs of holes take its prefetch path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridvm_core::NfsGuestStorage;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::BlockAddr;
use gridvm_storage::cache::BufferCache;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::protocol::NFS_BLOCK;
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::exec::GuestStorage;

/// Blocks per guest I/O run, as `run_app` streams them.
const RUN: u64 = 64;
/// Runs per guest-traffic sample: 32 MiB of 8 KiB blocks.
const RUNS: u64 = 64;

/// A fresh PVFS guest store: a presized state file of holes on its own
/// server, mounted over the WAN through a cold default proxy.
fn pvfs_guest() -> NfsGuestStorage {
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let fs = server.fs_mut();
    let file = fs
        .create(root, "vmstate", SimTime::ZERO)
        .expect("fresh export");
    fs.write(
        file,
        RUN * RUNS * NFS_BLOCK.as_u64() - 1,
        &[0],
        SimTime::ZERO,
    )
    .expect("presize the state file");
    let proxy = VfsProxy::new(ProxyConfig::default());
    let mount = Mount::new(Transport::wan(), server, Some(proxy));
    NfsGuestStorage::new(mount, file, SimDuration::ZERO, "PVFS")
}

/// Streams the whole state file through `storage` in 64-block runs.
fn guest_runs(storage: &mut NfsGuestStorage, write: bool) -> SimTime {
    let mut t = SimTime::ZERO;
    for k in 0..RUNS {
        t = storage.io_run(t, BlockAddr(k * RUN), RUN, write);
    }
    t
}

fn bench_vfs(c: &mut Criterion) {
    c.bench_function("buffer cache: 100k inserts at capacity", |b| {
        b.iter_batched(
            || BufferCache::new(4096),
            |mut cache| {
                for i in 0..100_000u64 {
                    if !cache.touch(BlockAddr(i % 8192)) {
                        cache.insert(BlockAddr(i % 8192));
                    }
                }
                cache.len()
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("proxy: 10k-block churn, hits+misses+evictions", |b| {
        // Working set (2048 blocks) larger than the cache (1024), so
        // the loop continuously hits, misses, installs and evicts.
        let cfg = ProxyConfig {
            cache_blocks: 1024,
            prefetch_depth: 0,
            ..ProxyConfig::default()
        };
        let bs = NFS_BLOCK.as_u64();
        b.iter_batched(
            || VfsProxy::new(cfg),
            |mut proxy| {
                let fh = FileHandle(1);
                let mut hits = 0usize;
                let mut pf = Vec::new();
                for i in 0..10_000u64 {
                    let offset = (i * 769 % 2048) * bs;
                    if proxy.try_read_hit(fh, offset, bs, SimTime::ZERO).is_some() {
                        hits += 1;
                    } else {
                        proxy.note_read_miss(fh, offset, bs, &mut pf);
                    }
                }
                hits
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("proxy: 10k sequential read misses w/ prefetch", |b| {
        b.iter_batched(
            || VfsProxy::new(ProxyConfig::default()),
            |mut proxy| {
                let fh = FileHandle(1);
                let mut total = 0usize;
                let mut pf = Vec::new();
                for i in 0..10_000u64 {
                    let offset = i * 8192;
                    if proxy
                        .try_read_hit(fh, offset, 8192, SimTime::ZERO)
                        .is_none()
                    {
                        proxy.note_read_miss(fh, offset, 8192, &mut pf);
                        for &(o, l) in &pf {
                            proxy.install(fh, o, l);
                        }
                        total += 1;
                    }
                }
                total
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("mount: 4 MiB sequential read over LAN + proxy", |b| {
        b.iter_batched(
            || {
                let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
                let root = server.fs().root();
                let f = server
                    .fs_mut()
                    .create_synthetic(root, "f", ByteSize::from_mib(8), 3, SimTime::ZERO)
                    .expect("fresh export");
                (
                    Mount::new(
                        Transport::lan(),
                        server,
                        Some(VfsProxy::new(ProxyConfig::default())),
                    ),
                    f,
                )
            },
            |(mut mount, f)| {
                let (done, r) = mount.read_range(SimTime::ZERO, f, 0, 4 * 1024 * 1024);
                r.expect("read succeeds");
                done
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("guest PVFS: 64 zero-write runs of 64 blocks", |b| {
        b.iter_batched(
            pvfs_guest,
            |mut storage| guest_runs(&mut storage, true),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("guest PVFS: 64 read runs of 64 hole blocks", |b| {
        b.iter_batched(
            pvfs_guest,
            |mut storage| guest_runs(&mut storage, false),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_vfs);
criterion_main!(benches);

//! Criterion bench: the storage/VFS hot paths — buffer-cache
//! operations, proxy hit/miss handling, and end-to-end mount reads.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::BlockAddr;
use gridvm_storage::cache::BufferCache;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;

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
}

criterion_group!(benches, bench_vfs);
criterion_main!(benches);

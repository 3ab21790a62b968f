//! Criterion bench: block-cache churn through the PVFS proxy and the
//! host buffer cache — the hit/miss/evict mixes every Table 1 and
//! Table 2 replication pays per block.
//!
//! The 10k-block churn loops match the acceptance bar for the shared
//! O(1) LRU: run `cargo bench -p gridvm-vfs` before and after a cache
//! change and compare medians.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridvm_simcore::time::SimTime;
use gridvm_storage::block::BlockAddr;
use gridvm_storage::cache::BufferCache;
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::protocol::NFS_BLOCK;
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};

fn bench_cache_churn(c: &mut Criterion) {
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

    c.bench_function("buffer cache: 100k touch-or-insert at capacity", |b| {
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
}

criterion_group!(benches, bench_cache_churn);
criterion_main!(benches);

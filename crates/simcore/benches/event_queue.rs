//! Criterion bench: the event-queue hot path in isolation — the
//! push/pop mixes every experiment binary funnels through — plus the
//! metrics counter fast path.
//!
//! Run `cargo bench -p gridvm-simcore` before and after a queue change
//! and compare medians.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridvm_simcore::event::EventQueue;
use gridvm_simcore::lru::LruSet;
use gridvm_simcore::metrics::Counter;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::SimTime;

/// Pseudo-random but reproducible event times.
fn times(n: u64) -> Vec<SimTime> {
    let mut rng = SimRng::seed_from(42);
    (0..n)
        .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
        .collect()
}

fn bench_queue(c: &mut Criterion) {
    let ts = times(100_000);

    c.bench_function("queue: push+pop 100k random times", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, t) in ts.iter().enumerate() {
                q.push(*t, i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });

    // The single-event-in-flight chain: the Engine::run steady state
    // of every chained-event workload.
    c.bench_function("queue: 100k single-event chain", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            q.push(SimTime::ZERO, 0usize);
            for i in 0..100_000usize {
                let (t, _) = q.pop().expect("chain stays alive");
                q.push(SimTime::from_nanos(t.as_nanos() + 10_000), i);
            }
            q.len()
        })
    });

    c.bench_function("queue: steady-state 100k pop+push (sim loop shape)", |b| {
        // The discrete-event steady state: keep ~1k events pending,
        // pop the earliest and push a successor — the exact shape of
        // Engine::run on a long simulation.
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, t) in ts.iter().take(1_000).enumerate() {
                q.push(*t, i);
            }
            let mut horizon: u64 = 1_000_000;
            for i in 0..100_000usize {
                let (t, _) = q.pop().expect("queue stays warm");
                horizon = horizon.max(t.as_nanos() + 1);
                q.push(SimTime::from_nanos(horizon + (i as u64 * 7919) % 10_000), i);
            }
            q.len()
        })
    });

    c.bench_function("metrics: 100k counter adds by name", |b| {
        b.iter(|| {
            gridvm_simcore::metrics::reset();
            for _ in 0..100_000 {
                gridvm_simcore::metrics::counter_add("bench.by_name", 1);
            }
            gridvm_simcore::metrics::take().counter("bench.by_name")
        })
    });

    c.bench_function("metrics: 100k counter adds via handle", |b| {
        static BENCH_HANDLE: Counter = Counter::new("bench.by_handle");
        b.iter(|| {
            gridvm_simcore::metrics::reset();
            for _ in 0..100_000 {
                BENCH_HANDLE.add(1);
            }
            gridvm_simcore::metrics::take().counter("bench.by_handle")
        })
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru: 100k touch-or-insert, capacity 4096 of 8192", |b| {
        // ~50% hit rate churn: the buffer-cache shape.
        b.iter_batched(
            || LruSet::new(4096),
            |mut lru| {
                for i in 0..100_000u64 {
                    let key = i % 8192;
                    if !lru.touch(&key) {
                        lru.insert(key);
                    }
                }
                lru.len()
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("lru: 100k insert/remove mix, capacity 1024", |b| {
        b.iter_batched(
            || LruSet::new(1024),
            |mut lru| {
                for i in 0..100_000u64 {
                    lru.insert(i % 3000);
                    if i % 5 == 0 {
                        lru.remove(&((i + 1500) % 3000));
                    }
                }
                lru.len()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_queue, bench_lru);
criterion_main!(benches);

//! Criterion bench: discrete-event engine throughput — event
//! scheduling, cancellation, and the RNG the whole suite leans on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridvm_simcore::engine::Engine;
use gridvm_simcore::event::EventQueue;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine: 10k chained events", |b| {
        // The target rides in the event's first word.
        b.iter(|| {
            let mut en: Engine<u64> = Engine::new();
            let mut world = 0u64;
            fn chain(words: [u64; 2], w: &mut u64, en: &mut Engine<u64>) {
                *w += 1;
                if *w < words[0] {
                    en.schedule_in(SimDuration::from_micros(10), words, chain);
                }
            }
            en.schedule_in(SimDuration::ZERO, [10_000, 0], chain);
            en.run(&mut world);
            assert_eq!(world, 10_000);
            world
        })
    });

    c.bench_function("event queue: push/pop 10k with cancellations", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let ids: Vec<_> = (0..10_000u64)
                    .map(|i| q.push(SimTime::from_nanos(i * 37 % 10_000), i))
                    .collect();
                (q, ids)
            },
            |(mut q, ids)| {
                for id in ids.iter().step_by(3) {
                    q.cancel(*id);
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("rng: 100k doubles", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(1);
            let mut acc = 0.0;
            for _ in 0..100_000 {
                acc += rng.next_f64();
            }
            acc
        })
    });
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);

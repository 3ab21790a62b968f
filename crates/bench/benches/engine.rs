//! Criterion bench: discrete-event engine throughput — event
//! scheduling and the RNG the whole suite leans on.

use criterion::{criterion_group, criterion_main, Criterion};
use gridvm_simcore::engine::Engine;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::SimDuration;

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

//! Known-bad fixture: wall-clock, static-mut, unseeded-rand and
//! unwrap-lib hazards at positions the fixture tests pin down.
use std::time::Instant;

static mut EVENT_COUNT: u64 = 0;

pub fn stamp() -> u64 {
    let started = Instant::now();
    let mut rng = rand::thread_rng();
    started.elapsed().as_nanos().try_into().unwrap()
}

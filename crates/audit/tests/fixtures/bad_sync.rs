// Fixture: sync primitives in sim-state library code. Every lock and
// atomic without an audited exception, simcore::shard's included, must
// be flagged; #[cfg(test)] regions stay exempt.
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};

struct Shared {
    state: Mutex<Vec<u32>>,
    flags: RwLock<u64>,
    done: AtomicBool,
}

fn poke(s: &Shared) {
    s.done.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    static LOCKED: Mutex<u8> = Mutex::new(0);
}

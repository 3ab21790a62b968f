//! Uses every path in the repository's `clippy.toml` once. Clippy
//! reports a `disallowed-types` or `disallowed-methods` entry whose
//! path does not resolve only as "does not refer to a reachable type"
//! and then enforces nothing for it, so a misspelled path fails open.
//! CI runs clippy on this package, which finds the root `clippy.toml`
//! by walking up from here, and fails unless the output reports
//! "disallowed type `<path>`" or "disallowed method `<path>`" for
//! every configured path.

use std::collections::{HashMap, HashSet};
use std::hash::RandomState;
use std::sync::atomic::{
    AtomicBool, AtomicI16, AtomicI32, AtomicI64, AtomicI8, AtomicIsize, AtomicPtr, AtomicU16,
    AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
};
use std::sync::{Mutex, RwLock};
use std::time::{Instant, SystemTime};

/// Reads both wall clocks.
pub fn read_clocks() {
    let _ = Instant::now();
    let _ = SystemTime::now();
}

//! Readings taken from outside the simulated system: process CPU time
//! from the kernel's process clock, peak RSS from `/proc`, the ALU
//! drift canary, and medians.

use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::time::Instant;

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every
/// thread of the process, in nanoseconds.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// User + system CPU seconds of the whole process so far, threads that
/// already exited included. Nanosecond resolution: `/proc/self/stat`
/// counts 10 ms ticks, too coarse for a repetition's CPU time.
///
/// # Panics
///
/// Panics when the kernel refuses the process clock: the benchmark
/// cannot measure without it.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

/// Iterations of the canary loop.
const SPIN_ITERS: u64 = 30_000_000;

/// Times a fixed xorshift loop that touches no memory: a host-speed
/// canary. It moves when the machine drifts, never with the code under
/// test, so it separates host noise from real changes.
pub fn spin_secs() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64()
}

/// The median of `values` (mean of the middle two for even counts); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn readings_are_positive_and_cpu_time_advances() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_secs();
        assert!(before > 0.0);
        black_box(spin_secs());
        assert!(cpu_secs() > before, "the spin loop burns CPU time");
    }
}

//! Synthetic tasks: the Figure 1 microbenchmark.

use gridvm_simcore::time::SimDuration;
use gridvm_simcore::units::CpuWork;

use crate::profile::AppProfile;

/// The Figure 1 *test task*: a pure compute-bound task of roughly
/// `seconds` of dedicated CPU at `hz` (no syscalls, no I/O — its
/// slowdown under load isolates scheduling and world-switch effects).
pub fn micro_test_task(seconds: f64, hz: f64) -> AppProfile {
    AppProfile::new(
        "micro-test",
        CpuWork::from_duration(SimDuration::from_secs_f64(seconds), hz),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_task_is_pure_cpu() {
        let t = micro_test_task(3.0, 800e6);
        assert_eq!(t.syscalls(), 0);
        assert!(t.io_bytes().is_zero());
        assert!((t.native_user_time_at(800e6).as_secs_f64() - 3.0).abs() < 1e-9);
    }
}

//! Coarse-grain duty-cycle control: the paper's "for a coarse-grain
//! schedule, we could even modulate the priority of virtual machine
//! processes under the regular linux scheduler, using
//! SIGSTOP/SIGCONT signal delivery" (Section 3.2).
//!
//! A [`DutyCycle`] deterministically partitions time into a repeating
//! `period` of which the first `on_fraction` is CONT (runnable) and
//! the rest is STOP (suspended). The host simulator masks a task's
//! runnability with this signal, exactly as an external controller
//! delivering signals would.

use gridvm_simcore::time::{SimDuration, SimTime};

/// A deterministic SIGSTOP/SIGCONT duty-cycle controller.
///
/// ```
/// use gridvm_sched::DutyCycle;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// // 1s period, first 250ms runnable.
/// let d = DutyCycle::new(SimDuration::from_secs(1), 0.25);
/// assert!(d.is_runnable(SimTime::ZERO));
/// assert!(!d.is_runnable(SimTime::ZERO + SimDuration::from_millis(500)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DutyCycle {
    period: SimDuration,
    on_fraction: f64,
}

impl DutyCycle {
    /// Creates a controller with the given period and ON fraction.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `on_fraction` lies outside
    /// `[0, 1]`.
    pub fn new(period: SimDuration, on_fraction: f64) -> Self {
        assert!(!period.is_zero(), "duty cycle with zero period");
        assert!(
            (0.0..=1.0).contains(&on_fraction),
            "on fraction {on_fraction} outside [0,1]"
        );
        DutyCycle {
            period,
            on_fraction,
        }
    }

    /// True when the controlled task is CONT (runnable) at `t`.
    pub fn is_runnable(&self, t: SimTime) -> bool {
        if self.on_fraction >= 1.0 {
            return true;
        }
        if self.on_fraction <= 0.0 {
            return false;
        }
        let pos = t.as_nanos() % self.period.as_nanos();
        (pos as f64) < self.period.as_nanos() as f64 * self.on_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn half_duty_alternates() {
        let d = DutyCycle::new(ms(100), 0.5);
        assert!(d.is_runnable(at(0)));
        assert!(d.is_runnable(at(49)));
        assert!(!d.is_runnable(at(50)));
        assert!(!d.is_runnable(at(99)));
        assert!(d.is_runnable(at(100)));
    }

    #[test]
    fn extremes_are_constant() {
        let on = DutyCycle::new(ms(10), 1.0);
        let off = DutyCycle::new(ms(10), 0.0);
        for i in 0..50 {
            assert!(on.is_runnable(at(i)));
            assert!(!off.is_runnable(at(i)));
        }
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn invalid_fraction_panics() {
        let _ = DutyCycle::new(ms(10), 1.5);
    }
}

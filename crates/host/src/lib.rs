//! # gridvm-host
//!
//! A multicore physical-host simulator: tasks with finite CPU work
//! execute under a pluggable [`gridvm_sched::Scheduler`] in fixed
//! quanta, optionally against background load played back from a
//! [`gridvm_hostload::LoadTrace`].
//!
//! This is the measurement substrate for the paper's Figure 1
//! microbenchmark: a compute-bound *test task* runs on a dual-CPU
//! host while *load tasks* (driven by trace playback) compete with
//! it, and we observe the test task's wall-clock slowdown. The VMM
//! crate composes with this one by presenting a VM as a single host
//! task whose work and per-switch overheads are inflated by the
//! virtualization cost model.
//!
//! * [`task`] — task specifications and per-task outcome accounting.
//! * [`sim`] — the quantum-stepped execution loop.
//! * [`background`] — trace-driven background load as a set of
//!   duty-modulated infinite tasks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod sim;
pub mod task;

pub use sim::{HostConfig, HostSim};
pub use task::{TaskOutcome, TaskSpec};

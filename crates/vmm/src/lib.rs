//! # gridvm-vmm
//!
//! The classic virtual machine monitor model: what VMware
//! Workstation 3.0a is to the paper, this crate is to the simulation.
//!
//! A classic (ISA-level, same-ISA) VMM executes user-mode guest code
//! directly on the hardware and traps privileged operations. The
//! performance consequences — the whole subject of the paper's
//! Section 2.3 — are captured by [`costmodel::VirtCostModel`]:
//!
//! * user-mode work runs at native speed save a small shadow-paging
//!   tax that grows with the guest's virtual-memory pressure;
//! * system calls, guest context switches and I/O pay
//!   trap-and-emulate multipliers;
//! * *world switches* (VMM preemption by other host processes) tax a
//!   VM whenever the host schedules around it.
//!
//! Other modules:
//!
//! * [`machine`] — VM configuration and the lifecycle state machine
//!   (powered-off → staging → booting/restoring → running →
//!   suspending/migrating → terminated).
//! * [`boot`] — the cold-boot cost model: guest kernel CPU work plus
//!   the scattered boot-working-set reads whose cold/warm split
//!   drives Table 2.
//! * [`exec`] — running an [`AppProfile`](gridvm_workloads::AppProfile)
//!   inside a VM against a pluggable [`exec::GuestStorage`]
//!   (local virtual disk or a grid-virtual-file-system mount),
//!   yielding the user/sys/wall decomposition of Table 1.
//! * [`snapshot`] — suspend/restore state sizing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod costmodel;
pub mod exec;
pub mod machine;
pub mod snapshot;

pub use costmodel::VirtCostModel;
pub use exec::{GuestRunReport, GuestStorage, LocalDiskStorage};
pub use machine::{DiskMode, Vm, VmConfig, VmError, VmState};

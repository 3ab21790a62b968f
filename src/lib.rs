//! # gridvm
//!
//! Facade crate for the **gridvm** workspace — a from-scratch,
//! deterministic-simulation reproduction of
//! *"A Case For Grid Computing On Virtual Machines"*
//! (Figueiredo, Dinda, Fortes — ICDCS 2003).
//!
//! Each subsystem the paper describes or depends on is its own crate,
//! re-exported here under a stable module name:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`simcore`] | `gridvm-simcore` | discrete-event kernel, RNG, stats |
//! | [`hostload`] | `gridvm-hostload` | load-trace generation & analysis; `LoadTrace::load_at` plays a trace back |
//! | [`sched`] | `gridvm-sched` | host schedulers + constraint language |
//! | [`host`] | `gridvm-host` | multicore host simulator |
//! | [`vmm`] | `gridvm-vmm` | classic VMM cost model & lifecycle |
//! | [`storage`] | `gridvm-storage` | block stores, COW, images, staging |
//! | [`vfs`] | `gridvm-vfs` | grid virtual file system (PVFS) |
//! | [`vnet`] | `gridvm-vnet` | DHCP, tunnels, VPN, overlays |
//! | [`gridmw`] | `gridvm-gridmw` | information service, GRAM, accounts, RPS, retry |
//! | [`workloads`] | `gridvm-workloads` | SPEChpc profiles & synthetic tasks |
//! | [`core`] | `gridvm-core` | the VM-grid architecture itself |
//!
//! ## Quickstart
//!
//! ```
//! use gridvm::core::server::ComputeServer;
//! use gridvm::core::startup::{run_startup, StartupConfig, StartupMode, StateAccess};
//! use gridvm::simcore::rng::SimRng;
//! use gridvm::vmm::machine::DiskMode;
//!
//! // Instantiate the paper's Red Hat guest by restoring warm state
//! // from the local file system (Table 2's fastest row).
//! let mut server = ComputeServer::paper_node("demo");
//! let cfg = StartupConfig::table2(StartupMode::Restore,
//!                                 DiskMode::NonPersistent,
//!                                 StateAccess::DiskFs);
//! let breakdown = run_startup(&mut server, &cfg, &mut SimRng::seed_from(42));
//! assert!(breakdown.total_secs() < 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gridvm_core as core;
pub use gridvm_gridmw as gridmw;
pub use gridvm_host as host;
pub use gridvm_hostload as hostload;
pub use gridvm_sched as sched;
pub use gridvm_simcore as simcore;
pub use gridvm_storage as storage;
pub use gridvm_vfs as vfs;
pub use gridvm_vmm as vmm;
pub use gridvm_vnet as vnet;
pub use gridvm_workloads as workloads;

//! # gridvm-vfs
//!
//! The grid virtual file system of Section 3.1 and Figure 2: an
//! NFS-like block-level RPC protocol, an in-memory hierarchical file
//! system and server, and the PVFS-style *proxy* that adds
//! client-side block caching, prefetching and write buffering between
//! a kernel NFS client and a remote server.
//!
//! The paper's data-management design distributes a VM session across
//! an **image server** (VM state), a **compute server** (where the
//! VMM runs) and a **data server** (user files), all connected by
//! virtual-file-system sessions. Two results depend on this stack:
//!
//! * Table 1's `VM, PVFS` rows — application I/O and VM state pulled
//!   through proxy-cached NFS over a WAN must cost only a few percent
//!   for compute-bound applications.
//! * Table 2's `LoopbackNFS` rows — VM state accessed via a
//!   loopback-mounted NFS partition pays per-RPC overheads on every
//!   cold block.
//!
//! Modules:
//!
//! * [`protocol`] — RPC message types and the wire-cost model.
//! * [`fs`] — the in-memory hierarchical file system (inodes,
//!   directories, block-addressed file data).
//! * [`server`] — an NFS daemon serving a file system from a disk.
//! * [`proxy`] — the PVFS proxy: LRU block cache, sequential
//!   prefetch, write-behind buffer.
//! * [`mount`] — composing client → (proxy →) server over local,
//!   loopback or WAN transports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fs;
pub mod mount;
pub mod protocol;
pub mod proxy;
pub mod server;

pub use fs::{FileHandle, InMemoryFs};
pub use mount::{Mount, Transport};
pub use protocol::{NfsError, NfsRequest, NfsResponse};
pub use proxy::{ProxyConfig, VfsProxy};
pub use server::NfsServer;

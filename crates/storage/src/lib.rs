//! # gridvm-storage
//!
//! Storage substrate for the gridvm suite: sparse block stores,
//! copy-on-write overlays, disk timing with a host buffer cache, VM
//! images, image servers and whole-image staging.
//!
//! The paper's Table 2 hinges on exactly these mechanisms:
//!
//! * **Persistent** VM disks require an explicit full copy of the
//!   (1–2 GB) image before startup — [`staging`] models that
//!   transfer and its >4-minute cost.
//! * **Non-persistent** disks are a [`cow`] diff over a read-only
//!   base image: no copy at startup, modifications land in the diff.
//! * The *VM-restore* rows read a 128 MB memory snapshot instead of
//!   booting; the *reboot* rows re-read the guest's boot working set.
//!   Both go through the [`disk`] timing model, whose
//!   [`cache`] (host buffer cache) reproduces the paper's
//!   warm-after-copy effects.
//! * [`image`] catalogs the images; [`imageserver`] archives them
//!   for staging (Section 3.1 "image management").
//!
//! Data is held sparsely: unwritten blocks have deterministic
//! synthetic content, so a 2 GB disk costs memory proportional to the
//! blocks actually written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod cow;
pub mod disk;
pub mod image;
pub mod imageserver;
pub mod staging;

pub use block::{BlockAddr, BlockStore, MemBlockStore, StorageError};
pub use cache::BufferCache;
pub use cow::CowOverlay;
pub use disk::{DiskModel, DiskProfile};
pub use image::{ImageCatalog, VmImage};
pub use imageserver::ImageServer;

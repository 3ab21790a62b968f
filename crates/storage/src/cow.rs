// audit:hot-path: every non-persistent VM disk access reads the diff, then the base, here
//! Copy-on-write overlays: the paper's *non-persistent* VM disks.
//!
//! "the disk is not explicitly copied upon startup, and modifications
//! are stored into a diff file" (Table 2). A [`CowOverlay`] wraps a
//! shared read-only base [`BlockStore`]; reads hit the diff first and
//! fall through to the base, writes always land in the diff. Many VM
//! instances can share one master image (Figure 2's "master static
//! Linux virtual system disk ... shared by multiple dynamic
//! instances").

use std::sync::Arc;

use bytes::Bytes;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::units::ByteSize;

use crate::block::{BlockAddr, BlockStore, MemBlockStore, StorageError};

/// A copy-on-write overlay over a shared base image.
///
/// ```
/// use std::sync::Arc;
/// use bytes::Bytes;
/// use gridvm_storage::block::{BlockAddr, BlockStore, MemBlockStore};
/// use gridvm_storage::cow::CowOverlay;
/// use gridvm_simcore::units::ByteSize;
///
/// let base = Arc::new(MemBlockStore::new(ByteSize::from_bytes(16), 8, 1).into_read_only());
/// let mut vm_disk = CowOverlay::new(Arc::clone(&base));
/// vm_disk.write(BlockAddr(0), Bytes::from(vec![7u8; 16]))?;
/// // The overlay sees the write; the base does not.
/// assert_eq!(vm_disk.read(BlockAddr(0))?, Bytes::from(vec![7u8; 16]));
/// assert_eq!(base.read(BlockAddr(0))?, base.expected_pristine(BlockAddr(0)));
/// # Ok::<(), gridvm_storage::block::StorageError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CowOverlay {
    base: Arc<MemBlockStore>,
    /// Keyed by `BlockAddr.0` — bounded by the base device size.
    diff: DenseMap<Bytes>,
}

impl CowOverlay {
    /// Creates an overlay over `base`.
    pub fn new(base: Arc<MemBlockStore>) -> Self {
        CowOverlay {
            base,
            diff: DenseMap::new(),
        }
    }

    /// The shared base image.
    pub fn base(&self) -> &Arc<MemBlockStore> {
        &self.base
    }

    /// Number of blocks captured in the diff file.
    pub fn diff_blocks(&self) -> u64 {
        self.diff.len() as u64
    }

    /// Size of the diff file.
    pub fn diff_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.diff_blocks() * self.base.block_size().as_u64())
    }

    /// Discards all modifications (the non-persistent semantics at VM
    /// shutdown).
    pub fn discard(&mut self) {
        self.diff.clear();
    }
}

impl BlockStore for CowOverlay {
    fn block_size(&self) -> ByteSize {
        self.base.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.base.num_blocks()
    }

    fn read(&self, addr: BlockAddr) -> Result<Bytes, StorageError> {
        if addr.0 >= self.num_blocks() {
            return Err(StorageError::OutOfRange {
                addr,
                blocks: self.num_blocks(),
            });
        }
        if let Some(d) = self.diff.get(addr.0) {
            return Ok(d.clone());
        }
        self.base.read(addr)
    }

    fn write(&mut self, addr: BlockAddr, data: Bytes) -> Result<(), StorageError> {
        if addr.0 >= self.num_blocks() {
            return Err(StorageError::OutOfRange {
                addr,
                blocks: self.num_blocks(),
            });
        }
        if data.len() as u64 != self.block_size().as_u64() {
            return Err(StorageError::BadBlockSize {
                expected: self.block_size(),
                got: data.len(),
            });
        }
        self.diff.insert(addr.0, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Arc<MemBlockStore> {
        Arc::new(MemBlockStore::new(ByteSize::from_bytes(16), 32, 5).into_read_only())
    }

    fn blk(b: u8) -> Bytes {
        Bytes::from(vec![b; 16])
    }

    #[test]
    fn reads_fall_through_to_base() {
        let b = base();
        let o = CowOverlay::new(Arc::clone(&b));
        assert_eq!(o.read(BlockAddr(3)).unwrap(), b.read(BlockAddr(3)).unwrap());
        assert_eq!(o.diff_blocks(), 0);
    }

    #[test]
    fn writes_shadow_base_without_touching_it() {
        let b = base();
        let mut o = CowOverlay::new(Arc::clone(&b));
        o.write(BlockAddr(3), blk(0x11)).unwrap();
        assert_eq!(o.read(BlockAddr(3)).unwrap(), blk(0x11));
        assert_eq!(
            b.read(BlockAddr(3)).unwrap(),
            b.expected_pristine(BlockAddr(3))
        );
        assert_eq!(o.diff_size(), ByteSize::from_bytes(16));
    }

    #[test]
    fn two_overlays_share_base_independently() {
        let b = base();
        let mut vm_a = CowOverlay::new(Arc::clone(&b));
        let mut vm_b = CowOverlay::new(Arc::clone(&b));
        vm_a.write(BlockAddr(0), blk(0xAA)).unwrap();
        vm_b.write(BlockAddr(0), blk(0xBB)).unwrap();
        assert_eq!(vm_a.read(BlockAddr(0)).unwrap(), blk(0xAA));
        assert_eq!(vm_b.read(BlockAddr(0)).unwrap(), blk(0xBB));
    }

    #[test]
    fn discard_restores_pristine_view() {
        let b = base();
        let mut o = CowOverlay::new(Arc::clone(&b));
        o.write(BlockAddr(1), blk(0x22)).unwrap();
        o.discard();
        assert_eq!(o.diff_blocks(), 0);
        assert_eq!(
            o.read(BlockAddr(1)).unwrap(),
            b.expected_pristine(BlockAddr(1))
        );
    }

    #[test]
    fn geometry_mirrors_base_and_bounds_checked() {
        let mut o = CowOverlay::new(base());
        assert_eq!(o.num_blocks(), 32);
        assert_eq!(o.block_size(), ByteSize::from_bytes(16));
        assert!(matches!(
            o.read(BlockAddr(32)),
            Err(StorageError::OutOfRange { .. })
        ));
        assert!(matches!(
            o.write(BlockAddr(99), blk(0)),
            Err(StorageError::OutOfRange { .. })
        ));
        assert!(matches!(
            o.write(BlockAddr(0), Bytes::from_static(b"tiny")),
            Err(StorageError::BadBlockSize { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Overlay semantics equal a plain writable copy of the base.
        #[test]
        fn overlay_equals_model(ops in proptest::collection::vec((0u64..16, 0u8..=255, proptest::bool::ANY), 1..100)) {
            let b = Arc::new(MemBlockStore::new(ByteSize::from_bytes(8), 16, 77).into_read_only());
            let mut overlay = CowOverlay::new(Arc::clone(&b));
            let mut model = MemBlockStore::new(ByteSize::from_bytes(8), 16, 77);
            for (addr, byte, is_write) in ops {
                let a = BlockAddr(addr);
                if is_write {
                    overlay.write(a, Bytes::from(vec![byte; 8])).unwrap();
                    model.write(a, Bytes::from(vec![byte; 8])).unwrap();
                } else {
                    prop_assert_eq!(overlay.read(a).unwrap(), model.read(a).unwrap());
                }
            }
            prop_assert_eq!(overlay.diff_blocks(), model.written_blocks());
        }
    }
}

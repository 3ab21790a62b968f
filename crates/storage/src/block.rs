// audit:hot-path: every simulated disk block read or write lands in a block store here
//! Sparse block stores: the data plane under disks, images and COW
//! overlays.
//!
//! A [`BlockStore`] maps block addresses to fixed-size payloads.
//! Stores are *sparse*: blocks never written return deterministic
//! synthetic content derived from the store's seed and the block
//! address, so multi-gigabyte VM images cost memory only for blocks
//! actually written — while reads remain verifiable (tests can check
//! that data read through three layers of proxies is the data the
//! image server would have produced).

use std::fmt;

use bytes::Bytes;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::units::ByteSize;

/// Address of one block within a store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(pub u64);

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

/// Errors from block-store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The address lies beyond the device.
    OutOfRange {
        /// Offending address.
        addr: BlockAddr,
        /// Device size in blocks.
        blocks: u64,
    },
    /// A write payload did not match the block size.
    BadBlockSize {
        /// Expected block size in bytes.
        expected: ByteSize,
        /// Actual payload length in bytes.
        got: usize,
    },
    /// The store (or overlay base) is read-only.
    ReadOnly,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfRange { addr, blocks } => {
                write!(f, "{addr} out of range (device has {blocks} blocks)")
            }
            StorageError::BadBlockSize { expected, got } => {
                write!(
                    f,
                    "payload of {got} bytes does not match block size {expected}"
                )
            }
            StorageError::ReadOnly => write!(f, "store is read-only"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A fixed-block-size, random-access data store.
pub trait BlockStore {
    /// Block size in bytes.
    fn block_size(&self) -> ByteSize;

    /// Device capacity in blocks.
    fn num_blocks(&self) -> u64;

    /// Reads one block.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] beyond the device.
    fn read(&self, addr: BlockAddr) -> Result<Bytes, StorageError>;

    /// Writes one block.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`], [`StorageError::BadBlockSize`],
    /// or [`StorageError::ReadOnly`].
    fn write(&mut self, addr: BlockAddr, data: Bytes) -> Result<(), StorageError>;

    /// Device capacity in bytes.
    fn capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.num_blocks() * self.block_size().as_u64())
    }
}

/// Deterministic content of an unwritten block: a repeating 8-byte
/// pattern derived from the seed and address, cheap to generate and
/// to verify.
pub(crate) fn synthetic_block(seed: u64, addr: BlockAddr, size: ByteSize) -> Bytes {
    let mut pattern = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(addr.0.wrapping_mul(0xD1B5_4A32_D192_ED03));
    pattern |= 1; // never all-zero
    let n = size.as_u64() as usize;
    // audit:allow(alloc-in-hot): synthetic_block is a content generator that returns an owned buffer by contract: it fabricates an unwritten block's payload, and each caller consumes the buffer once
    let mut buf = Vec::with_capacity(n);
    while buf.len() + 8 <= n {
        buf.extend_from_slice(&pattern.to_le_bytes());
        pattern = pattern.rotate_left(7);
    }
    buf.resize(n, 0xA5);
    Bytes::from(buf)
}

/// Deterministic content of a byte range of a synthetic *file*: the
/// byte at absolute offset `i` is a pure function of `seed` and `i`,
/// so any chunking of reads yields consistent data. Used by the VFS
/// layer to export huge VM state files without materializing them.
pub fn synthetic_file_chunk(seed: u64, offset: u64, len: usize) -> Bytes {
    // audit:allow(alloc-in-hot): synthetic_file_chunk is a content generator that returns an owned buffer by contract: it fabricates a synthetic file's bytes, and each caller consumes the buffer once
    let mut buf = Vec::with_capacity(len);
    let mut i = offset;
    let end = offset + len as u64;
    while i < end {
        let word_idx = i / 8;
        let mut w = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(word_idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
        w ^= w >> 29;
        w = w.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let bytes = w.to_le_bytes();
        let start_in_word = (i % 8) as usize;
        let take = ((8 - start_in_word) as u64).min(end - i) as usize;
        buf.extend_from_slice(&bytes[start_in_word..start_in_word + take]);
        i += take as u64;
    }
    Bytes::from(buf)
}

/// An in-memory sparse block store.
///
/// ```
/// use bytes::Bytes;
/// use gridvm_storage::block::{BlockAddr, BlockStore, MemBlockStore};
/// use gridvm_simcore::units::ByteSize;
///
/// let mut store = MemBlockStore::new(ByteSize::from_kib(4), 1024, 7);
/// let block = store.read(BlockAddr(3))?; // synthetic content
/// assert_eq!(block.len(), 4096);
/// store.write(BlockAddr(3), Bytes::from(vec![0u8; 4096]))?;
/// assert_eq!(store.written_blocks(), 1);
/// # Ok::<(), gridvm_storage::block::StorageError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MemBlockStore {
    block_size: ByteSize,
    num_blocks: u64,
    seed: u64,
    /// Keyed by `BlockAddr.0` — bounded by `num_blocks`, so the paged
    /// index stays proportional to the device size.
    written: DenseMap<Bytes>,
    read_only: bool,
}

impl MemBlockStore {
    /// Creates a sparse store of `num_blocks` blocks of `block_size`
    /// each, with synthetic content derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on zero block size or zero capacity.
    pub fn new(block_size: ByteSize, num_blocks: u64, seed: u64) -> Self {
        assert!(!block_size.is_zero(), "zero block size");
        assert!(num_blocks > 0, "zero-capacity store");
        MemBlockStore {
            block_size,
            num_blocks,
            seed,
            written: DenseMap::new(),
            read_only: false,
        }
    }

    /// Marks the store read-only (base images are immutable).
    pub fn into_read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Number of blocks that have been explicitly written.
    pub fn written_blocks(&self) -> u64 {
        self.written.len() as u64
    }

    /// The synthetic content the store would return for an unwritten
    /// block (exposed so tests and remote peers can verify data
    /// end-to-end without holding the store).
    pub fn expected_pristine(&self, addr: BlockAddr) -> Bytes {
        synthetic_block(self.seed, addr, self.block_size)
    }
}

impl BlockStore for MemBlockStore {
    fn block_size(&self) -> ByteSize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read(&self, addr: BlockAddr) -> Result<Bytes, StorageError> {
        if addr.0 >= self.num_blocks {
            return Err(StorageError::OutOfRange {
                addr,
                blocks: self.num_blocks,
            });
        }
        Ok(self
            .written
            .get(addr.0)
            .cloned()
            .unwrap_or_else(|| synthetic_block(self.seed, addr, self.block_size)))
    }

    fn write(&mut self, addr: BlockAddr, data: Bytes) -> Result<(), StorageError> {
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        if addr.0 >= self.num_blocks {
            return Err(StorageError::OutOfRange {
                addr,
                blocks: self.num_blocks,
            });
        }
        if data.len() as u64 != self.block_size.as_u64() {
            return Err(StorageError::BadBlockSize {
                expected: self.block_size,
                got: data.len(),
            });
        }
        self.written.insert(addr.0, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MemBlockStore {
        MemBlockStore::new(ByteSize::from_kib(4), 100, 42)
    }

    fn block_of(byte: u8) -> Bytes {
        Bytes::from(vec![byte; 4096])
    }

    #[test]
    fn pristine_reads_are_synthetic_and_stable() {
        let s = store();
        let a = s.read(BlockAddr(5)).unwrap();
        let b = s.read(BlockAddr(5)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096);
        assert_eq!(a, s.expected_pristine(BlockAddr(5)));
        assert_ne!(a, s.read(BlockAddr(6)).unwrap(), "blocks differ");
    }

    #[test]
    fn different_seeds_produce_different_content() {
        let a = MemBlockStore::new(ByteSize::from_kib(4), 10, 1);
        let b = MemBlockStore::new(ByteSize::from_kib(4), 10, 2);
        assert_ne!(a.read(BlockAddr(0)).unwrap(), b.read(BlockAddr(0)).unwrap());
    }

    #[test]
    fn writes_round_trip() {
        let mut s = store();
        s.write(BlockAddr(7), block_of(0xEE)).unwrap();
        assert_eq!(s.read(BlockAddr(7)).unwrap(), block_of(0xEE));
        assert_eq!(s.written_blocks(), 1);
        // neighbours unaffected
        assert_eq!(
            s.read(BlockAddr(8)).unwrap(),
            s.expected_pristine(BlockAddr(8))
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let mut s = store();
        assert!(matches!(
            s.read(BlockAddr(100)),
            Err(StorageError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.write(BlockAddr(100), block_of(0)),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn payload_size_is_enforced() {
        let mut s = store();
        let err = s
            .write(BlockAddr(0), Bytes::from(vec![0u8; 100]))
            .unwrap_err();
        assert!(matches!(err, StorageError::BadBlockSize { got: 100, .. }));
    }

    #[test]
    fn read_only_store_rejects_writes() {
        let mut s = store().into_read_only();
        assert_eq!(
            s.write(BlockAddr(0), block_of(1)),
            Err(StorageError::ReadOnly)
        );
        assert!(s.read(BlockAddr(0)).is_ok());
    }

    #[test]
    fn capacity_is_blocks_times_size() {
        let s = store();
        assert_eq!(s.capacity(), ByteSize::from_kib(400));
    }

    #[test]
    fn error_display() {
        let e = StorageError::OutOfRange {
            addr: BlockAddr(9),
            blocks: 4,
        };
        assert!(e.to_string().contains("block#9"));
        assert!(StorageError::ReadOnly.to_string().contains("read-only"));
    }

    #[test]
    fn synthetic_file_chunks_are_consistent_across_chunkings() {
        let whole = synthetic_file_chunk(7, 0, 64);
        let mut pieced = Vec::new();
        pieced.extend_from_slice(&synthetic_file_chunk(7, 0, 10));
        pieced.extend_from_slice(&synthetic_file_chunk(7, 10, 21));
        pieced.extend_from_slice(&synthetic_file_chunk(7, 31, 33));
        assert_eq!(&whole[..], &pieced[..]);
        assert_ne!(whole, synthetic_file_chunk(8, 0, 64), "seed matters");
        assert!(synthetic_file_chunk(7, 123, 0).is_empty());
    }

    #[test]
    fn odd_block_sizes_fill_exactly() {
        let s = MemBlockStore::new(ByteSize::from_bytes(100), 4, 3);
        let b = s.read(BlockAddr(1)).unwrap();
        assert_eq!(b.len(), 100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any interleaving of writes and reads behaves like a map
        /// with synthetic defaults.
        #[test]
        fn store_matches_model(ops in proptest::collection::vec((0u64..50, 0u8..=255, proptest::bool::ANY), 1..100)) {
            let mut s = MemBlockStore::new(ByteSize::from_bytes(16), 50, 9);
            let mut model: std::collections::BTreeMap<u64, u8> = Default::default();
            for (addr, byte, is_write) in ops {
                if is_write {
                    s.write(BlockAddr(addr), Bytes::from(vec![byte; 16])).unwrap();
                    model.insert(addr, byte);
                } else {
                    let got = s.read(BlockAddr(addr)).unwrap();
                    match model.get(&addr) {
                        Some(b) => prop_assert_eq!(got, Bytes::from(vec![*b; 16])),
                        None => prop_assert_eq!(got, s.expected_pristine(BlockAddr(addr))),
                    }
                }
            }
            prop_assert_eq!(s.written_blocks() as usize, model.len());
        }
    }
}

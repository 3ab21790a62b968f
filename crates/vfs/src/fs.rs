//! The in-memory hierarchical file system served over the NFS-like
//! protocol: inodes, directories, and file data that is either stored
//! in blocks (user files) or synthetic (huge read-only VM state files
//! whose content is a pure function of a seed, so a 2 GB image file
//! costs no memory).
//!
//! A user file is a logical size plus its [`NFS_BLOCK`]-sized blocks.
//! A block never written, or written all zeros, is a *hole*: it has no
//! entry and reads as the file system's one shared zero block. So
//! presizing a file costs O(1), and a whole-block read hands out a
//! reference-counted clone of the stored block rather than a copy.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use gridvm_simcore::slot::{DenseMap, Handle, SlotMap};
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::synthetic_file_chunk;

use crate::protocol::NFS_BLOCK;

/// The block size user file data is stored in.
const BLOCK: usize = NFS_BLOCK.as_u64() as usize;

/// All zeros: what a hole reads as, and what writes are compared
/// against (a memcmp) to find the blocks that are holes.
static ZERO_BLOCK: [u8; BLOCK] = [0; BLOCK];

fn is_zero(bytes: &[u8]) -> bool {
    bytes == &ZERO_BLOCK[..bytes.len()]
}

/// Tag type for inode-table handles.
enum FsTag {}

/// Handle to a file or directory (an inode number, as in NFS).
///
/// The value packs a generation-stamped slot handle into the inode
/// table, so a handle held across a remove is detectably stale even
/// after the slot is reused (NFS `ESTALE` semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileHandle(pub u64);

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fh#{}", self.0)
    }
}

/// File attributes returned by `getattr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileAttr {
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Last modification time.
    pub mtime: SimTime,
    /// True for directories.
    pub is_dir: bool,
}

/// Errors from file-system operations (mirrors NFS status codes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Stale or never-issued handle.
    Stale(
        /// The bad handle.
        FileHandle,
    ),
    /// Name not present in the directory.
    NotFound(
        /// The name looked up.
        String,
    ),
    /// Operation requires a directory.
    NotDir,
    /// Operation requires a regular file.
    IsDir,
    /// Name already exists.
    Exists(
        /// The conflicting name.
        String,
    ),
    /// The file is read-only (synthetic VM state).
    ReadOnly,
    /// Directory not empty on remove.
    NotEmpty,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Stale(h) => write!(f, "stale file handle {h}"),
            FsError::NotFound(n) => write!(f, "no such entry {n:?}"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::Exists(n) => write!(f, "entry {n:?} already exists"),
            FsError::ReadOnly => write!(f, "file is read-only"),
            FsError::NotEmpty => write!(f, "directory not empty"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Clone, Debug)]
enum FileData {
    /// Ordinary user file data: the logical size and the non-hole
    /// blocks, keyed by block index. Every stored block is [`BLOCK`]
    /// bytes long and holds zeros past `size`.
    Blocks { size: u64, blocks: DenseMap<Bytes> },
    /// Huge read-only content generated from a seed (VM disk images
    /// and memory snapshots exported over NFS).
    Synthetic { seed: u64, size: u64 },
}

#[derive(Clone, Debug)]
enum Node {
    File {
        data: FileData,
        mtime: SimTime,
    },
    Dir {
        entries: BTreeMap<String, FileHandle>,
        mtime: SimTime,
    },
}

/// The in-memory file system.
///
/// ```
/// use gridvm_vfs::fs::InMemoryFs;
/// use gridvm_simcore::time::SimTime;
///
/// let mut fs = InMemoryFs::new();
/// let root = fs.root();
/// let dir = fs.mkdir(root, "home", SimTime::ZERO)?;
/// let file = fs.create(dir, "data.txt", SimTime::ZERO)?;
/// fs.write(file, 0, b"hello", SimTime::ZERO)?;
/// assert_eq!(&fs.read(file, 0, 5)?[..], b"hello");
/// # Ok::<(), gridvm_vfs::fs::FsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct InMemoryFs {
    nodes: SlotMap<FsTag, Node>,
    root: FileHandle,
    /// The one zero block every whole-block read of a hole shares.
    zero: Bytes,
}

impl Default for InMemoryFs {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryFs {
    /// Creates a file system with an empty root directory.
    pub fn new() -> Self {
        let mut nodes = SlotMap::new();
        let root = FileHandle(
            nodes
                .insert(Node::Dir {
                    entries: BTreeMap::new(),
                    mtime: SimTime::ZERO,
                })
                .pack(),
        );
        InMemoryFs {
            nodes,
            root,
            zero: Bytes::from_static(&ZERO_BLOCK),
        }
    }

    /// The root directory handle.
    pub fn root(&self) -> FileHandle {
        self.root
    }

    fn node(&self, h: FileHandle) -> Result<&Node, FsError> {
        self.nodes
            .get(Handle::from_pack(h.0))
            .map_err(|_| FsError::Stale(h))
    }

    fn node_mut(&mut self, h: FileHandle) -> Result<&mut Node, FsError> {
        self.nodes
            .get_mut(Handle::from_pack(h.0))
            .map_err(|_| FsError::Stale(h))
    }

    fn alloc(&mut self, node: Node) -> FileHandle {
        FileHandle(self.nodes.insert(node).pack())
    }

    /// Looks `name` up in directory `dir`.
    ///
    /// # Errors
    ///
    /// Stale handle, not a directory, or name not found.
    pub fn lookup(&self, dir: FileHandle, name: &str) -> Result<FileHandle, FsError> {
        match self.node(dir)? {
            Node::Dir { entries, .. } => entries
                .get(name)
                .copied()
                .ok_or_else(|| FsError::NotFound(name.to_owned())),
            Node::File { .. } => Err(FsError::NotDir),
        }
    }

    /// Resolves a `/`-separated path from the root.
    ///
    /// # Errors
    ///
    /// Any component failing [`lookup`](InMemoryFs::lookup).
    pub fn resolve(&self, path: &str) -> Result<FileHandle, FsError> {
        let mut h = self.root();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            h = self.lookup(h, comp)?;
        }
        Ok(h)
    }

    /// Creates an empty regular file in `dir`.
    ///
    /// # Errors
    ///
    /// Stale/non-directory handle or existing name.
    pub fn create(
        &mut self,
        dir: FileHandle,
        name: &str,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        self.insert_node(
            dir,
            name,
            Node::File {
                data: FileData::Blocks {
                    size: 0,
                    blocks: DenseMap::new(),
                },
                mtime: now,
            },
            now,
        )
    }

    /// Creates a read-only synthetic file of `size` bytes whose
    /// content derives from `seed` (used to export VM images over
    /// NFS without materializing gigabytes).
    ///
    /// # Errors
    ///
    /// Stale/non-directory handle or existing name.
    pub fn create_synthetic(
        &mut self,
        dir: FileHandle,
        name: &str,
        size: ByteSize,
        seed: u64,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        self.insert_node(
            dir,
            name,
            Node::File {
                data: FileData::Synthetic {
                    seed,
                    size: size.as_u64(),
                },
                mtime: now,
            },
            now,
        )
    }

    /// Creates a subdirectory.
    ///
    /// # Errors
    ///
    /// Stale/non-directory handle or existing name.
    pub fn mkdir(
        &mut self,
        dir: FileHandle,
        name: &str,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        self.insert_node(
            dir,
            name,
            Node::Dir {
                entries: BTreeMap::new(),
                mtime: now,
            },
            now,
        )
    }

    fn insert_node(
        &mut self,
        dir: FileHandle,
        name: &str,
        node: Node,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        // Check before allocating to keep the namespace consistent.
        match self.node(dir)? {
            Node::Dir { entries, .. } => {
                if entries.contains_key(name) {
                    // audit:allow(alloc-in-hot): error construction on the name-collision path; the error owns its name by API contract
                    return Err(FsError::Exists(name.to_owned()));
                }
            }
            Node::File { .. } => return Err(FsError::NotDir),
        }
        let h = self.alloc(node);
        match self.node_mut(dir)? {
            Node::Dir { entries, mtime } => {
                // audit:allow(alloc-in-hot): namespace mutation stores the new entry's name; allocation is the operation itself
                entries.insert(name.to_owned(), h);
                *mtime = now;
            }
            Node::File { .. } => unreachable!("checked above"),
        }
        Ok(h)
    }

    /// Reads up to `len` bytes at `offset`; short reads happen at end
    /// of file. A read of exactly one aligned block of a user file
    /// shares the stored block (or the zero block, for a hole) instead
    /// of copying it.
    ///
    /// # Errors
    ///
    /// Stale handle or directory handle.
    pub fn read(&self, h: FileHandle, offset: u64, len: u64) -> Result<Bytes, FsError> {
        match self.node(h)? {
            Node::File { data, .. } => match data {
                FileData::Blocks { size, blocks } => {
                    let start = offset.min(*size);
                    let end = offset.saturating_add(len).min(*size);
                    Ok(self.read_blocks(blocks, start, end))
                }
                FileData::Synthetic { seed, size } => {
                    let start = offset.min(*size);
                    let end = offset.saturating_add(len).min(*size);
                    Ok(synthetic_file_chunk(*seed, start, (end - start) as usize))
                }
            },
            Node::Dir { .. } => Err(FsError::IsDir),
        }
    }

    /// The bytes `[start, end)` of a user file's blocks.
    fn read_blocks(&self, blocks: &DenseMap<Bytes>, start: u64, end: u64) -> Bytes {
        let bs = BLOCK as u64;
        if start.is_multiple_of(bs) && end - start == bs {
            return blocks.get(start / bs).unwrap_or(&self.zero).clone();
        }
        // audit:allow(alloc-in-hot): a partial or multi-block read gathers its bytes into a fresh buffer; NFS READs of whole aligned blocks share a block above
        let mut buf = Vec::with_capacity((end - start) as usize);
        let mut at = start;
        while at < end {
            let lo = (at % bs) as usize;
            let hi = (end - (at - lo as u64)).min(bs) as usize;
            let block = blocks.get(at / bs).map_or(&ZERO_BLOCK[..], |b| &b[..]);
            buf.extend_from_slice(&block[lo..hi]);
            at += (hi - lo) as u64;
        }
        Bytes::from(buf)
    }

    /// Writes `data` at `offset`, extending the file as needed; any
    /// gap reads as zeros. Each block the write covers whole is stored
    /// or, when all zeros, dropped to a hole. Zeros written into a
    /// hole leave it a hole, so presizing a file costs O(1).
    ///
    /// # Errors
    ///
    /// Stale handle, directory handle, or synthetic (read-only) file.
    pub fn write(
        &mut self,
        h: FileHandle,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<(), FsError> {
        let (size, blocks) = match self.node_mut(h)? {
            Node::File {
                data: FileData::Blocks { size, blocks },
                mtime,
            } => {
                *mtime = now;
                (size, blocks)
            }
            Node::File { .. } => return Err(FsError::ReadOnly),
            Node::Dir { .. } => return Err(FsError::IsDir),
        };
        let mut done = 0;
        while done < data.len() {
            let at = offset + done as u64;
            let index = at / BLOCK as u64;
            let lo = (at % BLOCK as u64) as usize;
            let chunk = &data[done..data.len().min(done + BLOCK - lo)];
            done += chunk.len();
            let whole = chunk.len() == BLOCK;
            if is_zero(chunk) && (whole || !blocks.contains_key(index)) {
                blocks.remove(index);
                continue;
            }
            if whole {
                blocks.insert(index, Bytes::copy_from_slice(chunk));
                continue;
            }
            let old = blocks.get(index).map_or(&ZERO_BLOCK[..], |b| &b[..]);
            // audit:allow(alloc-in-hot): a partial-block write merges into a copy of that one block; whole-block writes and zeros into holes never get here
            let mut merged = old.to_vec();
            merged[lo..lo + chunk.len()].copy_from_slice(chunk);
            if is_zero(&merged) {
                blocks.remove(index);
            } else {
                blocks.insert(index, Bytes::from(merged));
            }
        }
        *size = (*size).max(offset + data.len() as u64);
        Ok(())
    }

    /// File or directory attributes.
    ///
    /// # Errors
    ///
    /// Stale handle.
    pub fn getattr(&self, h: FileHandle) -> Result<FileAttr, FsError> {
        Ok(match self.node(h)? {
            Node::File { data, mtime } => FileAttr {
                size: match data {
                    FileData::Blocks { size, .. } | FileData::Synthetic { size, .. } => *size,
                },
                mtime: *mtime,
                is_dir: false,
            },
            Node::Dir { mtime, .. } => FileAttr {
                size: 0,
                mtime: *mtime,
                is_dir: true,
            },
        })
    }

    /// Directory entries in name order.
    ///
    /// # Errors
    ///
    /// Stale or non-directory handle.
    pub fn readdir(&self, dir: FileHandle) -> Result<Vec<(String, FileHandle)>, FsError> {
        match self.node(dir)? {
            Node::Dir { entries, .. } => Ok(entries.iter().map(|(n, h)| (n.clone(), *h)).collect()),
            Node::File { .. } => Err(FsError::NotDir),
        }
    }

    /// Removes `name` from `dir`. Directories must be empty.
    ///
    /// # Errors
    ///
    /// Stale handle, missing name, or non-empty directory.
    pub fn remove(&mut self, dir: FileHandle, name: &str, now: SimTime) -> Result<(), FsError> {
        let victim = self.lookup(dir, name)?;
        if let Node::Dir { entries, .. } = self.node(victim)? {
            if !entries.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        match self.node_mut(dir)? {
            Node::Dir { entries, mtime } => {
                entries.remove(name);
                *mtime = now;
            }
            Node::File { .. } => return Err(FsError::NotDir),
        }
        self.nodes
            .remove(Handle::from_pack(victim.0))
            .map_err(|_| FsError::Stale(victim))?;
        Ok(())
    }

    /// First and last block indices an NFS transfer of the byte range
    /// touches (8 KiB-aligned), or `None` for an empty range.
    pub fn block_span(offset: u64, len: u64, block: ByteSize) -> Option<(u64, u64)> {
        if len == 0 {
            return None;
        }
        let bs = block.as_u64();
        Some((offset / bs, (offset + len - 1) / bs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "a.txt", t0()).unwrap();
        fs.write(f, 0, b"hello world", t0()).unwrap();
        assert_eq!(&fs.read(f, 0, 5).unwrap()[..], b"hello");
        assert_eq!(
            &fs.read(f, 6, 100).unwrap()[..],
            b"world",
            "short read at EOF"
        );
        assert_eq!(fs.getattr(f).unwrap().size, 11);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "sparse", t0()).unwrap();
        fs.write(f, 5, b"x", t0()).unwrap();
        assert_eq!(&fs.read(f, 0, 6).unwrap()[..], b"\0\0\0\0\0x");
    }

    #[test]
    fn directories_nest_and_resolve() {
        let mut fs = InMemoryFs::new();
        let home = fs.mkdir(fs.root(), "home", t0()).unwrap();
        let user = fs.mkdir(home, "userA", t0()).unwrap();
        let f = fs.create(user, "sim.dat", t0()).unwrap();
        assert_eq!(fs.resolve("/home/userA/sim.dat").unwrap(), f);
        assert_eq!(fs.resolve("home/userA").unwrap(), user);
        assert!(matches!(
            fs.resolve("/home/nope"),
            Err(FsError::NotFound(_))
        ));
        let entries = fs.readdir(home).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "userA");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut fs = InMemoryFs::new();
        fs.create(fs.root(), "x", t0()).unwrap();
        assert!(matches!(
            fs.create(fs.root(), "x", t0()),
            Err(FsError::Exists(_))
        ));
        assert!(matches!(
            fs.mkdir(fs.root(), "x", t0()),
            Err(FsError::Exists(_))
        ));
    }

    #[test]
    fn synthetic_files_read_deterministically_and_reject_writes() {
        let mut fs = InMemoryFs::new();
        let img = fs
            .create_synthetic(fs.root(), "rh72.img", ByteSize::from_mib(64), 9, t0())
            .unwrap();
        let a = fs.read(img, 4096, 8192).unwrap();
        let b = fs.read(img, 4096, 8192).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8192);
        assert_ne!(a, fs.read(img, 12288, 8192).unwrap());
        assert_eq!(fs.getattr(img).unwrap().size, 64 * 1024 * 1024);
        assert_eq!(fs.write(img, 0, b"no", t0()), Err(FsError::ReadOnly));
        // Reads past EOF are empty.
        assert!(fs.read(img, 64 * 1024 * 1024, 10).unwrap().is_empty());
    }

    #[test]
    fn remove_enforces_emptiness_and_staleness() {
        let mut fs = InMemoryFs::new();
        let d = fs.mkdir(fs.root(), "d", t0()).unwrap();
        let f = fs.create(d, "f", t0()).unwrap();
        assert_eq!(fs.remove(fs.root(), "d", t0()), Err(FsError::NotEmpty));
        fs.remove(d, "f", t0()).unwrap();
        fs.remove(fs.root(), "d", t0()).unwrap();
        assert!(matches!(fs.getattr(f), Err(FsError::Stale(_))));
        assert!(matches!(fs.lookup(d, "f"), Err(FsError::Stale(_))));
    }

    #[test]
    fn type_confusion_is_rejected() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "f", t0()).unwrap();
        assert_eq!(fs.lookup(f, "x"), Err(FsError::NotDir));
        assert_eq!(fs.read(fs.root(), 0, 1), Err(FsError::IsDir));
        assert_eq!(fs.write(fs.root(), 0, b"x", t0()), Err(FsError::IsDir));
        assert!(matches!(fs.readdir(f), Err(FsError::NotDir)));
    }

    #[test]
    fn block_span_mapping() {
        let bs = ByteSize::from_kib(8);
        assert_eq!(InMemoryFs::block_span(0, 1, bs), Some((0, 0)));
        assert_eq!(InMemoryFs::block_span(8191, 2, bs), Some((0, 1)));
        assert_eq!(InMemoryFs::block_span(16384, 8192, bs), Some((2, 2)));
        assert_eq!(InMemoryFs::block_span(100, 0, bs), None);
    }

    #[test]
    fn terabyte_presize_is_instant_and_sparse() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "huge", t0()).unwrap();
        let tib = 1u64 << 40;
        fs.write(f, tib - 1, &[0], t0()).unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, tib);
        let middle = fs.read(f, tib / 2, 8192).unwrap();
        assert_eq!(middle.len(), 8192);
        assert!(middle.iter().all(|&b| b == 0));
    }

    #[test]
    fn whole_block_reads_share_storage() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "f", t0()).unwrap();
        fs.write(f, 0, &[7; BLOCK], t0()).unwrap();
        fs.write(f, 3 * BLOCK as u64 - 1, &[0], t0()).unwrap();
        let same = |a: &Bytes, b: &Bytes| std::ptr::eq(a.as_ptr(), b.as_ptr());
        let stored = fs.read(f, 0, BLOCK as u64).unwrap();
        assert!(same(&stored, &fs.read(f, 0, BLOCK as u64).unwrap()));
        let hole = fs.read(f, BLOCK as u64, BLOCK as u64).unwrap();
        assert!(same(
            &hole,
            &fs.read(f, 2 * BLOCK as u64, BLOCK as u64).unwrap()
        ));
        assert!(same(&hole, &fs.zero));
        // Zeros over a block's last non-zero bytes, whole or partial,
        // punch it back to a hole.
        fs.write(f, 0, &[0; BLOCK], t0()).unwrap();
        assert!(same(&fs.read(f, 0, BLOCK as u64).unwrap(), &fs.zero));
        fs.write(f, 100, b"xy", t0()).unwrap();
        assert!(!same(&fs.read(f, 0, BLOCK as u64).unwrap(), &fs.zero));
        fs.write(f, 100, &[0, 0], t0()).unwrap();
        assert!(same(&fs.read(f, 0, BLOCK as u64).unwrap(), &fs.zero));
    }

    #[test]
    fn error_display() {
        assert!(FsError::Stale(FileHandle(3)).to_string().contains("fh#3"));
        assert!(FsError::NotFound("q".into()).to_string().contains('q'));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One write from a drawn `(kind, offset, len, seed)`: a short
    /// write straddling a block boundary, a long write at any offset, a
    /// whole aligned block of one byte value (zero included), or an
    /// all-zero payload that punches holes over earlier data.
    fn write_op((kind, offset, len, seed): (u8, u64, usize, u8)) -> (u64, Vec<u8>) {
        let bs = BLOCK as u64;
        let pattern = |n: usize| (0..n).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        match kind {
            0 => {
                let n = len % 600 + 1;
                let boundary = (offset / bs + 1) * bs;
                (boundary - (n as u64 / 2).max(1), pattern(n))
            }
            1 => (offset, pattern(len)),
            2 => (offset / bs * bs, vec![seed % 3; BLOCK]),
            _ => (offset, vec![0; len]),
        }
    }

    proptest! {
        /// Writes then reads at any offset and length, past EOF too,
        /// behave like a flat byte array.
        #[test]
        fn file_matches_vec_model(
            ops in proptest::collection::vec((0u8..4, 0u64..6 * BLOCK as u64, 1usize..3 * BLOCK, 0u8..=255), 1..24),
            reads in proptest::collection::vec((0u64..7 * BLOCK as u64, 0u64..3 * BLOCK as u64), 1..16),
        ) {
            let mut fs = InMemoryFs::new();
            let f = fs.create(fs.root(), "m", SimTime::ZERO).unwrap();
            let mut model: Vec<u8> = Vec::new();
            for op in ops {
                let (offset, data) = write_op(op);
                fs.write(f, offset, &data, SimTime::ZERO).unwrap();
                let end = offset as usize + data.len();
                if model.len() < end { model.resize(end, 0); }
                model[offset as usize..end].copy_from_slice(&data);
            }
            prop_assert_eq!(fs.getattr(f).unwrap().size, model.len() as u64);
            let got = fs.read(f, 0, model.len() as u64 + 10).unwrap();
            prop_assert_eq!(&got[..], &model[..]);
            for (offset, len) in reads {
                let start = (offset as usize).min(model.len());
                let end = ((offset + len) as usize).min(model.len());
                let got = fs.read(f, offset, len).unwrap();
                prop_assert_eq!(&got[..], &model[start..end]);
            }
        }
    }
}

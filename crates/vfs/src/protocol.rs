//! The NFS-like RPC protocol: request/response types, wire sizes and
//! per-operation server CPU costs.
//!
//! The paper's PVFS operates at the NFS protocol level ("on-demand
//! block transfers ... without requiring dynamically-linked libraries
//! or changes to native OS file system clients and servers"), so the
//! protocol here mirrors NFSv2/v3's core operations with the standard
//! 8 KiB transfer size.

pub use bytes::Bytes;
use gridvm_simcore::time::SimDuration;
use gridvm_simcore::units::ByteSize;

use crate::fs::{FileAttr, FileHandle, FsError};

/// The standard NFS transfer (rsize/wsize) granularity.
pub const NFS_BLOCK: ByteSize = ByteSize::from_kib(8);

/// Approximate on-the-wire size of RPC headers (RPC + XDR + NFS).
pub const RPC_HEADER: ByteSize = ByteSize::from_bytes(128);

/// An NFS request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsRequest {
    /// Resolve `name` within directory `dir`.
    Lookup {
        /// Parent directory handle.
        dir: FileHandle,
        /// Entry name.
        name: String,
    },
    /// Fetch attributes of `fh`.
    Getattr {
        /// Target handle.
        fh: FileHandle,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// File handle.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Byte count (at most [`NFS_BLOCK`] per RPC, enforced by
        /// clients).
        len: u64,
    },
    /// Write `data` at `offset`.
    Write {
        /// File handle.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Bytes,
    },
    /// Create a file `name` in `dir`.
    Create {
        /// Parent directory handle.
        dir: FileHandle,
        /// New entry name.
        name: String,
    },
    /// Create a directory `name` in `dir`.
    Mkdir {
        /// Parent directory handle.
        dir: FileHandle,
        /// New directory name.
        name: String,
    },
    /// List directory `dir`.
    Readdir {
        /// Directory handle.
        dir: FileHandle,
    },
    /// Remove `name` from `dir`.
    Remove {
        /// Parent directory handle.
        dir: FileHandle,
        /// Entry name.
        name: String,
    },
}

/// An NFS response (success payloads; failures use [`NfsError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsResponse {
    /// Resolved handle plus its attributes.
    Handle(FileHandle, FileAttr),
    /// Attributes.
    Attr(FileAttr),
    /// Read data (short at EOF).
    Data(Bytes),
    /// Write acknowledged; returns the new attributes.
    Written(FileAttr),
    /// Directory listing.
    Entries(Vec<(String, FileHandle)>),
    /// Remove acknowledged.
    Removed,
}

/// Protocol-level errors (the NFS status word).
pub type NfsError = FsError;

impl NfsRequest {
    /// Bytes this request puts on the wire.
    pub fn wire_size(&self) -> ByteSize {
        let body = match self {
            NfsRequest::Lookup { name, .. }
            | NfsRequest::Create { name, .. }
            | NfsRequest::Mkdir { name, .. }
            | NfsRequest::Remove { name, .. } => name.len() as u64,
            NfsRequest::Getattr { .. } | NfsRequest::Readdir { .. } => 0,
            NfsRequest::Read { .. } => 16,
            NfsRequest::Write { data, .. } => 16 + data.len() as u64,
        };
        RPC_HEADER + ByteSize::from_bytes(body)
    }

    /// The per-request CPU cost at the server (protocol decode,
    /// metadata work), excluding disk time.
    pub fn service_cost(&self) -> SimDuration {
        match self {
            NfsRequest::Lookup { .. } => SimDuration::from_micros(40),
            NfsRequest::Getattr { .. } => SimDuration::from_micros(20),
            NfsRequest::Read { .. } => SimDuration::from_micros(60),
            NfsRequest::Write { .. } => SimDuration::from_micros(80),
            NfsRequest::Create { .. } | NfsRequest::Mkdir { .. } => SimDuration::from_micros(120),
            NfsRequest::Readdir { .. } => SimDuration::from_micros(100),
            NfsRequest::Remove { .. } => SimDuration::from_micros(100),
        }
    }
}

impl NfsResponse {
    /// Bytes this response puts on the wire.
    pub fn wire_size(&self) -> ByteSize {
        let body = match self {
            NfsResponse::Handle(..) => 96,
            NfsResponse::Attr(_) | NfsResponse::Written(_) => 88,
            NfsResponse::Data(d) => 8 + d.len() as u64,
            NfsResponse::Entries(es) => es.iter().map(|(n, _)| n.len() as u64 + 16).sum::<u64>(),
            NfsResponse::Removed => 8,
        };
        RPC_HEADER + ByteSize::from_bytes(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::time::SimTime;

    fn attr() -> FileAttr {
        FileAttr {
            size: 10,
            mtime: SimTime::ZERO,
            is_dir: false,
        }
    }

    #[test]
    fn request_wire_sizes_scale_with_payload() {
        let small = NfsRequest::Write {
            fh: FileHandle(1),
            offset: 0,
            data: Bytes::from_static(b"x"),
        };
        let big = NfsRequest::Write {
            fh: FileHandle(1),
            offset: 0,
            data: Bytes::from(vec![0u8; 8192]),
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(big.wire_size() > ByteSize::from_kib(8));
        let read = NfsRequest::Read {
            fh: FileHandle(1),
            offset: 0,
            len: 8192,
        };
        assert!(
            read.wire_size() < ByteSize::from_bytes(256),
            "reads are small on the wire"
        );
    }

    #[test]
    fn response_data_dominates_wire_size() {
        let resp = NfsResponse::Data(Bytes::from(vec![0u8; 8192]));
        assert!(resp.wire_size() > ByteSize::from_kib(8));
        assert!(NfsResponse::Removed.wire_size() < ByteSize::from_bytes(256));
    }

    #[test]
    fn entries_size_sums_names() {
        let resp = NfsResponse::Entries(vec![
            ("a".into(), FileHandle(1)),
            ("bb".into(), FileHandle(2)),
        ]);
        assert_eq!(
            resp.wire_size(),
            RPC_HEADER + ByteSize::from_bytes(1 + 16 + 2 + 16)
        );
        let _ = NfsResponse::Handle(FileHandle(1), attr()).wire_size();
    }

    #[test]
    fn service_costs_are_positive_and_ordered() {
        let g = NfsRequest::Getattr { fh: FileHandle(1) }.service_cost();
        let w = NfsRequest::Write {
            fh: FileHandle(1),
            offset: 0,
            data: Bytes::new(),
        }
        .service_cost();
        assert!(g < w, "getattr is the cheapest op");
        assert!(!g.is_zero());
    }
}

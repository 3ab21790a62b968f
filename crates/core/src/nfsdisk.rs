// audit:hot-path: every PVFS guest I/O run enters the mount here
//! Guest storage over a grid virtual file system: the adapter that
//! carries a VM's file I/O through a PVFS [`Mount`] (Table 1's
//! `VM, PVFS` configuration, and Figure 2's proxy sessions).
//!
//! A guest run reaches the mount whole: a read run as one
//! [`Mount::read_range`] and a write run as one
//! [`Mount::write_zero_blocks`], which work in runs of proxy blocks and
//! match one NFS request per 8 KiB block exactly (a proptest below
//! holds them to that loop).

use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::Mount;
use gridvm_vfs::protocol::NFS_BLOCK;
use gridvm_vmm::exec::{GuestStorage, IO_BLOCK};

// Each guest I/O block is exactly one NFS transfer.
const _: () = assert!(IO_BLOCK.as_u64() == NFS_BLOCK.as_u64());

/// [`GuestStorage`] backed by one big state file on a VFS mount.
pub struct NfsGuestStorage {
    mount: Mount,
    file: FileHandle,
    client_cpu_per_block: SimDuration,
    label: String,
}

impl std::fmt::Debug for NfsGuestStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsGuestStorage")
            .field("label", &self.label)
            .finish()
    }
}

impl NfsGuestStorage {
    /// Wraps `mount`, directing guest I/O at `file`.
    ///
    /// `client_cpu_per_block` is the user-level proxy crossing cost
    /// charged to system time per 8 KiB block (the PVFS tax); pass
    /// [`SimDuration::ZERO`] for a plain kernel NFS mount.
    pub fn new(
        mount: Mount,
        file: FileHandle,
        client_cpu_per_block: SimDuration,
        label: impl Into<String>,
    ) -> Self {
        NfsGuestStorage {
            mount,
            file,
            client_cpu_per_block,
            label: label.into(),
        }
    }

    /// The underlying mount (for proxy statistics).
    pub fn mount(&self) -> &Mount {
        &self.mount
    }
}

impl GuestStorage for NfsGuestStorage {
    fn io_run(&mut self, now: SimTime, start: BlockAddr, count: u64, write: bool) -> SimTime {
        if write {
            // Zeros over the run's blocks: guest data content is
            // immaterial to timing, only its length reaches the model.
            // The run ends at the first failed write, as
            // `Mount::write_range` does: Figure 3's data sessions mount
            // a read-only synthetic file, so their guest writes stop
            // there.
            let (done, _) = self.mount.write_zero_blocks(now, self.file, start.0, count);
            done
        } else {
            let bs = IO_BLOCK.as_u64();
            let (done, r) = self
                .mount
                .read_range(now, self.file, start.0 * bs, count * bs);
            debug_assert!(r.is_ok(), "guest read failed: {r:?}");
            done
        }
    }

    fn client_cpu_per_block(&self) -> SimDuration {
        self.client_cpu_per_block
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::rng::SimRng;
    use gridvm_simcore::units::{ByteSize, CpuWork};
    use gridvm_storage::disk::{DiskModel, DiskProfile};
    use gridvm_vfs::mount::Transport;
    use gridvm_vfs::protocol::zero_block;
    use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
    use gridvm_vfs::server::NfsServer;
    use gridvm_vmm::exec::{run_app, ExecMode};
    use gridvm_vmm::VirtCostModel;
    use gridvm_workloads::{AppProfile, IoPattern};

    /// Where `app()`'s guest writes begin: right after its 16 MiB of
    /// sequential reads.
    const FIRST_WRITE: u64 = 16 * 1024 * 1024;

    fn pvfs_storage(proxied: bool) -> NfsGuestStorage {
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        let t0 = SimTime::ZERO;
        let data = server.fs_mut().create(root, "data", t0).unwrap();
        // Preload a writable 32 MiB working file whose first block the
        // guest writes holds data.
        server
            .fs_mut()
            .write(data, 32 * 1024 * 1024 - 1, &[0], t0)
            .unwrap();
        server
            .fs_mut()
            .write(data, FIRST_WRITE, &[7; 8192], t0)
            .unwrap();
        let proxy = proxied.then(|| VfsProxy::new(ProxyConfig::default()));
        let mount = Mount::new(Transport::wan(), server, proxy);
        NfsGuestStorage::new(
            mount,
            data,
            SimDuration::from_micros(93),
            if proxied { "PVFS" } else { "NFS/WAN" },
        )
    }

    fn app() -> AppProfile {
        AppProfile::new("io-app", CpuWork::from_cycles(900_000_000))
            .with_syscalls(10_000)
            .with_reads(ByteSize::from_mib(16), IoPattern::Sequential)
            .with_writes(ByteSize::from_mib(4))
    }

    #[test]
    fn guest_io_flows_through_the_mount() {
        let mut storage = pvfs_storage(true);
        let written = |s: &NfsGuestStorage| {
            let fs = s.mount().server().fs();
            fs.read(s.file, FIRST_WRITE, NFS_BLOCK.as_u64()).unwrap()
        };
        assert_eq!(&written(&storage)[..], &[7; 8192][..]);
        let mut rng = SimRng::seed_from(1);
        let report = run_app(
            &app(),
            ExecMode::Virtualized,
            &VirtCostModel::default(),
            &mut storage,
            933e6,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(storage.mount().rpcs_sent() > 0, "I/O crossed the wire");
        assert!(
            report.sys > SimDuration::from_millis(200),
            "proxy tax in sys"
        );
        // The guest's zero WRITE punched the block back to a hole, which
        // reads as the protocol's one static zero block.
        assert!(std::ptr::eq(
            written(&storage).as_ptr(),
            zero_block().as_ptr()
        ));
    }

    #[test]
    fn proxy_cuts_wan_read_time() {
        let run_with = |proxied: bool| {
            let mut storage = pvfs_storage(proxied);
            let mut rng = SimRng::seed_from(2);
            let r = run_app(
                &app(),
                ExecMode::Virtualized,
                &VirtCostModel::default(),
                &mut storage,
                933e6,
                SimTime::ZERO,
                &mut rng,
            );
            r.io_wall
        };
        let direct = run_with(false);
        let proxied = run_with(true);
        assert!(
            proxied.as_secs_f64() < direct.as_secs_f64() * 0.7,
            "proxied {proxied} vs direct {direct}"
        );
    }

    #[test]
    fn label_reflects_configuration() {
        assert_eq!(pvfs_storage(true).label(), "PVFS");
        assert_eq!(pvfs_storage(false).label(), "NFS/WAN");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use gridvm_simcore::units::ByteSize;
    use gridvm_storage::disk::{DiskModel, DiskProfile};
    use gridvm_vfs::fs::FileAttr;
    use gridvm_vfs::mount::Transport;
    use gridvm_vfs::protocol::{zero_block, NfsError, NfsRequest, NfsResponse};
    use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
    use gridvm_vfs::server::NfsServer;
    use proptest::prelude::*;

    const BS: u64 = NFS_BLOCK.as_u64();

    /// Blocks a drawn run or its prefetch can reach.
    const REACH: u64 = 520;

    /// A WAN mount through a proxy shaped by `config`, and its one
    /// file of `size` bytes: read-only synthetic, or a user file whose
    /// blocks `data` hold bytes.
    fn mount(config: ProxyConfig, size: u64, read_only: bool, data: &[u64]) -> (Mount, FileHandle) {
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        let fs = server.fs_mut();
        let t0 = SimTime::ZERO;
        let file = if read_only {
            fs.create_synthetic(root, "ro", ByteSize::from_bytes(size), 5, t0)
                .unwrap()
        } else {
            let f = fs.create(root, "rw", t0).unwrap();
            fs.write(f, size - 1, &[0], t0).unwrap();
            for &b in data {
                fs.write(f, b * BS, &[9; BS as usize], t0).unwrap();
            }
            f
        };
        let proxy = VfsProxy::new(config);
        (Mount::new(Transport::wan(), server, Some(proxy)), file)
    }

    /// `Mount::read_range` as one READ per block through
    /// `Mount::request`, stopping at end of file or the first error.
    fn read_per_block(
        m: &mut Mount,
        now: SimTime,
        fh: FileHandle,
        offset: u64,
        len: u64,
    ) -> (SimTime, Result<u64, NfsError>) {
        let (mut t, mut read, mut cursor) = (now, 0, offset);
        while cursor < offset + len {
            let chunk = (offset + len - cursor).min(BS);
            let req = NfsRequest::Read {
                fh,
                offset: cursor,
                len: chunk,
            };
            let (done, r) = m.request(t, req);
            t = done;
            match r {
                Ok(NfsResponse::Data(d)) => {
                    read += d.len() as u64;
                    if (d.len() as u64) < chunk {
                        break;
                    }
                }
                Ok(other) => panic!("read returned {other:?}"),
                Err(e) => return (t, Err(e)),
            }
            cursor += chunk;
        }
        (t, Ok(read))
    }

    /// A guest write run as one WRITE of the zero block per block
    /// through `Mount::request`, stopping at the first that fails.
    fn write_per_block(
        m: &mut Mount,
        now: SimTime,
        fh: FileHandle,
        first: u64,
        count: u64,
    ) -> SimTime {
        let mut t = now;
        for block in first..first + count {
            let req = NfsRequest::Write {
                fh,
                offset: block * BS,
                data: zero_block(),
            };
            let (done, r) = m.request(t, req);
            t = done;
            if r.is_err() {
                break;
            }
        }
        t
    }

    /// What the two mounts must agree on after every run.
    #[derive(Debug, PartialEq)]
    struct Seen {
        hits: u64,
        misses: u64,
        prefetched: u64,
        flushes: u64,
        rpcs_sent: u64,
        requests: u64,
        attr: Result<FileAttr, NfsError>,
        data: Vec<Bytes>,
        /// The `(first, count)` spans of blocks the proxy holds.
        cached: Vec<(u64, u64)>,
    }

    fn seen(m: &Mount, fh: FileHandle, data: &[u64]) -> Seen {
        let p = m.proxy().expect("a proxied mount");
        let fs = m.server().fs();
        let mut cached = Vec::new();
        let mut b = 0;
        while b < REACH {
            let n = p.resident_run(fh, b, REACH - b);
            if n > 0 {
                cached.push((b, n));
            }
            b += n + 1;
        }
        Seen {
            hits: p.hits(),
            misses: p.misses(),
            prefetched: p.prefetched(),
            flushes: p.flushes(),
            rpcs_sent: m.rpcs_sent(),
            requests: m.server().requests(),
            attr: fs.getattr(fh),
            data: data
                .iter()
                .map(|&b| fs.read(fh, b * BS, BS).unwrap())
                .collect(),
            cached,
        }
    }

    proptest! {
        /// Guest runs through `NfsGuestStorage::io_run`, and byte
        /// ranges through `Mount::read_range`, match one request per
        /// block on an identically built mount: every completion time
        /// and result, the proxy's hits, misses, prefetched blocks and
        /// flushes, the RPCs and server requests, the file's attributes
        /// and data, and which blocks the proxy holds. Runs are
        /// sequential or scattered reads and zero writes of 1–200
        /// blocks, some crossing the end of the file, against caches
        /// smaller than the blocks the runs reach (so extents evict),
        /// write buffers of 0–39 blocks (so runs flush), and read-only
        /// synthetic files (so writes stop at the first error).
        #[test]
        fn guest_runs_match_one_request_per_block(
            (cache_blocks, prefetch_depth, write_buffer_blocks) in (1usize..160, 0u64..10, 0usize..40),
            (size_blocks, tail, read_only) in (1u64..400, 0u64..BS, 0u8..4),
            data in proptest::collection::vec(0u64..400, 0..6),
            runs in proptest::collection::vec((0u8..4, 0u64..320, 1u64..=200, 0u64..BS), 1..24),
        ) {
            let config = ProxyConfig {
                cache_blocks,
                prefetch_depth,
                write_buffer_blocks,
                ..ProxyConfig::default()
            };
            let size = size_blocks * BS - tail;
            let read_only = read_only == 0;
            let (m, fh) = mount(config, size, read_only, &data);
            let mut storage = NfsGuestStorage::new(m, fh, SimDuration::ZERO, "PVFS");
            let (mut reference, _) = mount(config, size, read_only, &data);
            let mut t = SimTime::ZERO;
            for (kind, start, count, skew) in runs {
                let done = match kind {
                    0 | 1 => {
                        let write = kind == 1;
                        let done = storage.io_run(t, BlockAddr(start), count, write);
                        let expected = if write {
                            write_per_block(&mut reference, t, fh, start, count)
                        } else {
                            read_per_block(&mut reference, t, fh, start * BS, count * BS).0
                        };
                        prop_assert_eq!(done, expected);
                        done
                    }
                    _ => {
                        // An unaligned range in half of these.
                        let offset = start * BS + if kind == 2 { skew } else { 0 };
                        let len = count * BS - skew;
                        let (done, r) = storage.mount.read_range(t, fh, offset, len);
                        let expected = read_per_block(&mut reference, t, fh, offset, len);
                        prop_assert_eq!((done, r), expected);
                        done
                    }
                };
                prop_assert_eq!(seen(&storage.mount, fh, &data), seen(&reference, fh, &data));
                t = done;
            }
        }
    }
}

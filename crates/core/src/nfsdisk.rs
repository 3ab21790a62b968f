//! Guest storage over a grid virtual file system: the adapter that
//! carries a VM's file I/O through a PVFS [`Mount`] (Table 1's
//! `VM, PVFS` configuration, and Figure 2's proxy sessions).

use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::Mount;
use gridvm_vfs::protocol::{Bytes, NfsRequest, NFS_BLOCK};
use gridvm_vmm::exec::{GuestStorage, IO_BLOCK};

// Each guest I/O block is exactly one NFS transfer.
const _: () = assert!(IO_BLOCK.as_u64() == NFS_BLOCK.as_u64());

/// [`GuestStorage`] backed by one big state file on a VFS mount.
pub struct NfsGuestStorage {
    mount: Mount,
    file: FileHandle,
    client_cpu_per_block: SimDuration,
    label: String,
    /// The payload of every guest WRITE: one zero-filled block, shared
    /// by reference. Guest data content is immaterial to timing; only
    /// its length reaches the model.
    zero_block: Bytes,
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
            zero_block: Bytes::from(vec![0; IO_BLOCK.as_u64() as usize]),
        }
    }

    /// The underlying mount (for proxy statistics).
    pub fn mount(&self) -> &Mount {
        &self.mount
    }
}

impl GuestStorage for NfsGuestStorage {
    fn io_run(&mut self, now: SimTime, start: BlockAddr, count: u64, write: bool) -> SimTime {
        let bs = IO_BLOCK.as_u64();
        if write {
            // One WRITE RPC per block, each carrying the shared zero
            // block. Like `Mount::write_range`, the run ends at the
            // first failed RPC: Figure 3's data sessions mount a
            // read-only synthetic file, so their guest writes stop
            // there.
            let mut t = now;
            for block in start.0..start.0 + count {
                let (done, r) = self.mount.request(
                    t,
                    NfsRequest::Write {
                        fh: self.file,
                        offset: block * bs,
                        data: self.zero_block.clone(),
                    },
                );
                t = done;
                if r.is_err() {
                    break;
                }
            }
            t
        } else {
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
    use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
    use gridvm_vfs::server::NfsServer;
    use gridvm_vmm::exec::{run_app, ExecMode};
    use gridvm_vmm::VirtCostModel;
    use gridvm_workloads::{AppProfile, IoPattern};

    fn pvfs_storage(proxied: bool) -> NfsGuestStorage {
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        let t0 = SimTime::ZERO;
        let data = server.fs_mut().create(root, "data", t0).unwrap();
        // Preload a writable 32 MiB working file.
        server
            .fs_mut()
            .write(data, 32 * 1024 * 1024 - 1, &[0], t0)
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

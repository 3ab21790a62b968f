//! The six-step VM grid session life cycle of Section 4 / Figure 3.
//!
//! 1. query the information service for a **VM future** able to host
//!    the session;
//! 2. query for an **image server** holding a suitable base OS;
//! 3. establish the **image data session** between the physical
//!    server and the image server;
//! 4. negotiate **VM startup** through GRAM (reboot or restore) and
//!    put the VM on the network (DHCP);
//! 5. establish **guest data sessions** to the user's data server;
//! 6. **execute the application** in the VM and hand a session
//!    handle back.

use gridvm_gridmw::info::{InfoService, Query, ResourceId, ResourceKind};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::image::ImageCatalog;
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::exec::{run_app, ExecMode, GuestRunReport};
use gridvm_vnet::addr::{Ipv4Addr, MacAddr};
use gridvm_vnet::dhcp::DhcpServer;
use gridvm_workloads::AppProfile;

use crate::nfsdisk::NfsGuestStorage;
use crate::server::ComputeServer;
use crate::startup::{run_startup, StartupBreakdown, StartupConfig};

/// What a user (or front-end middleware acting for them) asks of the
/// grid.
#[derive(Clone, Debug)]
pub struct SessionRequest {
    /// Grid identity of the user.
    pub user: String,
    /// Required base image name.
    pub image: String,
    /// Minimum physical cores.
    pub min_cores: usize,
    /// How to instantiate the VM.
    pub startup: StartupConfig,
    /// The application to run (step 6).
    pub app: AppProfile,
}

/// Everything a session touches — the deployment of Figure 3.
pub struct GridWorld {
    /// The information service (MDS/URGIS).
    pub info: InfoService,
    /// The virtualized compute server `V`.
    pub compute: ComputeServer,
    /// The image server `I`: the catalog of images it archives.
    pub image_server: ImageCatalog,
    /// The user's data server `D`.
    pub data_server: Option<NfsServer>,
    /// Address allocation on the compute site's network.
    pub dhcp: DhcpServer,
}

/// Errors establishing a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// No VM future matched the request.
    NoMatchingFuture,
    /// No image server advertises the image.
    NoImageServer(
        /// Requested image.
        String,
    ),
    /// DHCP could not address the VM.
    NoAddress,
    /// The user's data path was missing on the data server.
    DataPathMissing(
        /// The path.
        String,
    ),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoMatchingFuture => write!(f, "no VM future satisfies the request"),
            SessionError::NoImageServer(i) => write!(f, "no image server holds {i:?}"),
            SessionError::NoAddress => write!(f, "could not obtain an IP address"),
            SessionError::DataPathMissing(p) => write!(f, "data path {p:?} missing"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The established session: timings per step and the running guest's
/// identity.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Step 1: future discovery latency.
    pub discover_future: SimDuration,
    /// Step 2: image discovery latency.
    pub discover_image: SimDuration,
    /// Step 3: image data-session setup.
    pub image_session_setup: SimDuration,
    /// Step 4: VM startup breakdown (includes `globusrun` framing).
    pub startup: StartupBreakdown,
    /// Step 4: the VM's leased address.
    pub address: Ipv4Addr,
    /// Step 5: guest data-session setup.
    pub data_session_setup: SimDuration,
    /// Step 6: the application run.
    pub app: GuestRunReport,
    /// End-to-end session establishment + execution time.
    pub total: SimDuration,
    /// The resource id the running VM registered under.
    pub vm_record: ResourceId,
}

/// One query round-trip to the information service (directory
/// lookup + response).
pub(crate) const INFO_QUERY_COST: SimDuration = SimDuration::from_millis(120);

/// Mount-handshake RPCs for a new VFS session.
pub(crate) const MOUNT_SETUP_RPCS: u64 = 3;

/// A grid session driver over a [`GridWorld`].
pub struct GridSession;

impl GridSession {
    /// Establishes a session end to end, per the six steps.
    ///
    /// # Errors
    ///
    /// [`SessionError`] when discovery, addressing or the data path
    /// fails; the failure leaves the world consistent (no VM
    /// registered).
    pub fn establish(
        world: &mut GridWorld,
        req: &SessionRequest,
        rng: &mut SimRng,
    ) -> Result<SessionReport, SessionError> {
        let t0 = SimTime::ZERO;
        let mut t = t0;

        // Step 1: find a VM future able to host us.
        t += INFO_QUERY_COST;
        let future = world
            .info
            .query_at(t, &Query::CanInstantiate(req.image.clone()), 4, rng)
            .first()
            .map(|r| r.id)
            .ok_or(SessionError::NoMatchingFuture)?;
        let discover_future = t.duration_since(t0);

        // Step 2: find an image server with the base OS.
        let t2_start = t;
        t += INFO_QUERY_COST;
        let image_exists = world
            .info
            .query_at(t, &Query::Kind("image-server"), 8, rng)
            .iter()
            .any(|r| {
                matches!(&r.kind, ResourceKind::ImageServer { images }
                    if images.contains(&req.image))
            });
        if !image_exists || world.image_server.lookup(&req.image).is_err() {
            return Err(SessionError::NoImageServer(req.image.clone()));
        }
        let discover_image = t.duration_since(t2_start);

        // Step 3: image data session (mount handshake to server I).
        let t3_start = t;
        t += Transport::lan().round_trip_estimate() * MOUNT_SETUP_RPCS;
        let image_session_setup = t.duration_since(t3_start);

        // Step 4: VM startup via GRAM, then an address via DHCP.
        let startup = run_startup(&mut world.compute, &req.startup, rng);
        t += startup.total;
        // The running VM registers with the information service; its
        // MAC derives from the unique registration id.
        let vm_record = world.info.register(
            t,
            "compute-site",
            ResourceKind::VmInstance {
                host: future,
                guest_os: req.startup.image.os.clone(),
                memory_mib: req.startup.vm.memory.as_u64() / (1024 * 1024),
            },
        );
        let mac = MacAddr::local(0xF0F0_0000 ^ vm_record.0);
        let lease = match world.dhcp.acquire(t, mac) {
            Ok(l) => l,
            Err(_) => {
                world.info.deregister(vm_record);
                return Err(SessionError::NoAddress);
            }
        };

        // Step 5: guest data session to the user's data server.
        let t5_start = t;
        let data_path = format!("/home/{}/input.dat", req.user);
        let mut data_mount = match world.data_server.take() {
            Some(server) => {
                let fh = server
                    .fs()
                    .resolve(&data_path)
                    .map_err(|_| SessionError::DataPathMissing(data_path.clone()))?;
                let mount = Mount::new(
                    Transport::wan(),
                    server,
                    Some(VfsProxy::new(ProxyConfig::default())),
                );
                Some((mount, fh))
            }
            None => None,
        };
        t += Transport::wan().round_trip_estimate() * MOUNT_SETUP_RPCS;
        let data_session_setup = t.duration_since(t5_start);

        // Step 6: run the application in the VM against the data
        // session (or the local virtual disk when no data server is
        // deployed).
        let app = match &mut data_mount {
            Some((mount, fh)) => {
                // Move the mount into a guest-storage adapter.
                let owned = std::mem::replace(
                    mount,
                    Mount::new(
                        Transport::local(),
                        NfsServer::new(gridvm_storage::disk::DiskModel::new(
                            gridvm_storage::disk::DiskProfile::ide_2003(),
                        )),
                        None,
                    ),
                );
                let mut storage = NfsGuestStorage::new(
                    owned,
                    *fh,
                    world.compute.cost_model.pvfs_client_per_block,
                    "PVFS",
                );
                run_app(
                    &req.app,
                    ExecMode::Virtualized,
                    &world.compute.cost_model,
                    &mut storage,
                    world.compute.host_config.clock_hz,
                    t,
                    rng,
                )
            }
            None => {
                let cost_model = world.compute.cost_model;
                let clock = world.compute.host_config.clock_hz;
                let mut storage = gridvm_vmm::exec::LocalDiskStorage::new(&mut world.compute.disk);
                run_app(
                    &req.app,
                    ExecMode::Virtualized,
                    &cost_model,
                    &mut storage,
                    clock,
                    t,
                    rng,
                )
            }
        };
        t += app.wall;

        Ok(SessionReport {
            discover_future,
            discover_image,
            image_session_setup,
            startup,
            address: lease.addr,
            data_session_setup,
            app,
            total: t.duration_since(t0),
            vm_record,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{paper_data_server, paper_image_server};
    use crate::startup::{StartupMode, StateAccess};
    use gridvm_simcore::units::{ByteSize, CpuWork};
    use gridvm_vmm::machine::DiskMode;
    use gridvm_vnet::addr::Subnet;

    fn world() -> GridWorld {
        world_advertising(&["rh72"], &["rh72"])
    }

    /// The Figure 3 world with a VM future that can instantiate
    /// `future_images` and an image-server record advertising
    /// `server_images`; the image server itself holds only `rh72`.
    fn world_advertising(future_images: &[&str], server_images: &[&str]) -> GridWorld {
        let images = |names: &[&str]| names.iter().map(|&n| n.to_owned()).collect();
        let mut info = InfoService::new();
        let host = info.register(
            SimTime::ZERO,
            "compute-site",
            ResourceKind::PhysicalHost {
                cores: 2,
                clock_hz: 800e6,
                memory_mib: 1024,
            },
        );
        info.register(
            SimTime::ZERO,
            "compute-site",
            ResourceKind::VmFuture {
                host,
                images: images(future_images),
                available_slots: 4,
            },
        );
        info.register(
            SimTime::ZERO,
            "image-site",
            ResourceKind::ImageServer {
                images: images(server_images),
            },
        );
        GridWorld {
            info,
            compute: ComputeServer::paper_node("V"),
            image_server: paper_image_server("rh72"),
            data_server: Some(paper_data_server("userX", ByteSize::from_mib(8))),
            dhcp: DhcpServer::new(
                Subnet::new(Ipv4Addr::from_octets(10, 8, 0, 0), 24),
                SimDuration::from_secs(3600),
            ),
        }
    }

    fn request() -> SessionRequest {
        SessionRequest {
            user: "userX".into(),
            image: "rh72".into(),
            min_cores: 2,
            startup: StartupConfig::table2(
                StartupMode::Restore,
                DiskMode::NonPersistent,
                StateAccess::DiskFs,
            ),
            app: AppProfile::new("session-app", CpuWork::from_cycles(800_000_000))
                .with_syscalls(5_000)
                .with_reads(
                    ByteSize::from_mib(4),
                    gridvm_workloads::IoPattern::Sequential,
                ),
        }
    }

    #[test]
    fn full_session_establishes_and_runs() {
        let mut w = world();
        let mut rng = SimRng::seed_from(1);
        let report = GridSession::establish(&mut w, &request(), &mut rng).expect("session");
        // Startup dominated by the restore (~12 s), app ~1 s.
        let total = report.total.as_secs_f64();
        assert!((10.0..40.0).contains(&total), "session total {total}");
        assert!(report.startup.total > SimDuration::from_secs(5));
        assert!(report.app.wall > SimDuration::from_millis(500));
        // The VM got an address on the compute site's subnet.
        assert_eq!(report.address.octets()[0], 10);
        // And registered with the information service.
        assert!(w.info.get(report.vm_record).is_some());
    }

    #[test]
    fn missing_future_fails_cleanly() {
        let mut w = world();
        let mut req = request();
        req.image = "win2k".into();
        let mut rng = SimRng::seed_from(2);
        let before = w.info.len();
        let err = GridSession::establish(&mut w, &req, &mut rng).unwrap_err();
        assert_eq!(err, SessionError::NoMatchingFuture);
        assert_eq!(w.info.len(), before, "no VM registered on failure");
    }

    #[test]
    fn image_no_server_advertises_fails_cleanly() {
        // A VM future can instantiate winxp, but no image server
        // advertises it.
        let mut w = world_advertising(&["rh72", "winxp"], &["rh72"]);
        let mut req = request();
        req.image = "winxp".into();
        let before = w.info.len();
        let err = GridSession::establish(&mut w, &req, &mut SimRng::seed_from(6)).unwrap_err();
        assert_eq!(err, SessionError::NoImageServer("winxp".into()));
        assert_eq!(w.info.len(), before, "no VM registered on failure");
    }

    #[test]
    fn advertised_image_the_server_does_not_hold_fails_cleanly() {
        // The directory advertises winxp, but the image server archives
        // only rh72.
        let mut w = world_advertising(&["rh72", "winxp"], &["rh72", "winxp"]);
        let mut req = request();
        req.image = "winxp".into();
        let before = w.info.len();
        let err = GridSession::establish(&mut w, &req, &mut SimRng::seed_from(7)).unwrap_err();
        assert_eq!(err, SessionError::NoImageServer("winxp".into()));
        assert_eq!(w.info.len(), before, "no VM registered on failure");
    }

    #[test]
    fn missing_user_data_fails_cleanly() {
        let mut w = world();
        let mut req = request();
        req.user = "ghost".into();
        let mut rng = SimRng::seed_from(3);
        let err = GridSession::establish(&mut w, &req, &mut rng).unwrap_err();
        assert!(matches!(err, SessionError::DataPathMissing(_)));
    }

    #[test]
    fn session_without_data_server_uses_local_disk() {
        let mut w = world();
        w.data_server = None;
        let mut rng = SimRng::seed_from(4);
        let report = GridSession::establish(&mut w, &request(), &mut rng).expect("session");
        assert!(report.app.wall > SimDuration::ZERO);
    }

    #[test]
    fn two_sessions_get_distinct_addresses() {
        let mut w = world();
        let mut rng = SimRng::seed_from(5);
        let r1 = GridSession::establish(&mut w, &request(), &mut rng).unwrap();
        w.compute.fresh_sample();
        w.data_server = Some(paper_data_server("userX", ByteSize::from_mib(8)));
        let r2 = GridSession::establish(&mut w, &request(), &mut rng).unwrap();
        assert_ne!(r1.address, r2.address);
    }

    #[test]
    fn error_display() {
        assert!(SessionError::NoMatchingFuture
            .to_string()
            .contains("future"));
        assert!(SessionError::NoImageServer("x".into())
            .to_string()
            .contains('x'));
    }
}

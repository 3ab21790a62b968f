//! The deployable entities of Figure 3: compute servers (VM hosts),
//! plus constructors for image and data servers from the substrate
//! crates.

use gridvm_gridmw::gram::GramServer;
use gridvm_host::HostConfig;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_storage::image::{ImageCatalog, VmImage};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::VirtCostModel;

/// A virtualized compute server: the physical machine `P`/`V` of the
/// paper's architecture.
///
/// ```
/// use gridvm_core::server::ComputeServer;
/// let server = ComputeServer::paper_node("uf-vm-host");
/// assert_eq!(server.host_config.cores, 2);
/// ```
pub struct ComputeServer {
    /// Site-unique name.
    pub name: String,
    /// Physical CPU configuration.
    pub host_config: HostConfig,
    /// The local disk (fresh, cold cache).
    pub disk: DiskModel,
    /// The Globus gatekeeper on this node.
    pub gram: GramServer,
    /// The VMM cost model of the installed monitor.
    pub cost_model: VirtCostModel,
}

impl std::fmt::Debug for ComputeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputeServer")
            .field("name", &self.name)
            .field("cores", &self.host_config.cores)
            .finish()
    }
}

impl ComputeServer {
    /// The paper's experimental node: dual Pentium III, IDE-class
    /// disk whose buffer cache is large enough to hold a whole
    /// staged image (the effect behind Table 2's persistent rows),
    /// a default gatekeeper, and the fitted VMM cost model.
    pub fn paper_node(name: impl Into<String>) -> Self {
        let mut gram = GramServer::new();
        gram.authorize("/O=Grid/CN=experimenter");
        ComputeServer {
            name: name.into(),
            host_config: HostConfig::default(),
            disk: DiskModel::new(Self::compute_disk_profile()),
            gram,
            cost_model: VirtCostModel::default(),
        }
    }

    /// The compute node's disk profile: IDE-era mechanics with a
    /// buffer cache sized to hold a staged 2 GB image (the paper's
    /// hosts had enough memory that a just-copied image was served
    /// from cache).
    pub fn compute_disk_profile() -> DiskProfile {
        DiskProfile {
            cache_blocks: (ByteSize::from_gib(3).as_u64() / ByteSize::from_kib(4).as_u64())
                as usize,
            ..DiskProfile::ide_2003()
        }
    }

    /// Resets per-sample state: a cold disk (buffer cache dropped),
    /// as between Table 2 samples.
    pub fn fresh_sample(&mut self) {
        self.disk = DiskModel::new(Self::compute_disk_profile());
    }
}

/// Builds the paper's image server `I`: a catalog holding the Red Hat
/// guest image under `image_name`.
pub fn paper_image_server(image_name: &str) -> ImageCatalog {
    let mut s = ImageCatalog::new();
    s.register(VmImage::redhat_guest(image_name))
        .expect("fresh catalog cannot have duplicates");
    s
}

/// Builds the paper's data server `D`: an NFS server with a user
/// home tree (`/home/<user>`) containing an input file of the given
/// size.
pub fn paper_data_server(user: &str, input: ByteSize) -> NfsServer {
    let mut s = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = s.fs().root();
    let t0 = gridvm_simcore::time::SimTime::ZERO;
    let home = s.fs_mut().mkdir(root, "home", t0).expect("fresh fs");
    let udir = s.fs_mut().mkdir(home, user, t0).expect("fresh fs");
    s.fs_mut()
        .create_synthetic(udir, "input.dat", input, 0xDA7A, t0)
        .expect("fresh fs");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::time::SimTime;

    #[test]
    fn paper_node_has_expected_shape() {
        let node = ComputeServer::paper_node("n1");
        assert_eq!(node.name, "n1");
        assert_eq!(node.host_config.cores, 2);
        assert!(
            node.disk.cache().capacity() * 4096 >= 2 << 30,
            "cache holds an image"
        );
    }

    #[test]
    fn fresh_sample_drops_cache_state() {
        let mut node = ComputeServer::paper_node("n1");
        use gridvm_storage::block::BlockAddr;
        use gridvm_storage::disk::AccessKind;
        node.disk
            .access(SimTime::ZERO, BlockAddr(1), AccessKind::Read);
        assert_eq!(node.disk.blocks_read(), 1);
        node.fresh_sample();
        assert_eq!(node.disk.blocks_read(), 0);
    }

    #[test]
    fn image_server_serves_the_published_image() {
        let s = paper_image_server("rh72");
        assert!(s.lookup("rh72").is_ok());
        assert!(s.lookup("other").is_err());
    }

    #[test]
    fn data_server_exposes_user_tree() {
        let s = paper_data_server("userA", ByteSize::from_mib(4));
        let fh = s
            .fs()
            .resolve("/home/userA/input.dat")
            .expect("path exists");
        assert_eq!(s.fs().getattr(fh).unwrap().size, 4 * 1024 * 1024);
    }
}

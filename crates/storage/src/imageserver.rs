//! The image server: archives static VM states and serves them
//! block-by-block (on demand, through a grid virtual file system) —
//! Figure 2's server `I` and Section 3.1.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use gridvm_simcore::server::ServiceGrant;
use gridvm_simcore::slot::{Handle, SlotMap};
use gridvm_simcore::time::SimTime;

use crate::block::{BlockAddr, BlockStore, MemBlockStore, StorageError};
use crate::disk::{AccessKind, DiskModel};
use crate::image::{CatalogError, ImageCatalog, VmImage};

/// Errors from image-server requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageServerError {
    /// Catalog problem (unknown or duplicate image).
    Catalog(CatalogError),
    /// Block-level problem.
    Storage(StorageError),
}

impl std::fmt::Display for ImageServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageServerError::Catalog(e) => write!(f, "catalog: {e}"),
            ImageServerError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for ImageServerError {}

impl From<CatalogError> for ImageServerError {
    fn from(e: CatalogError) -> Self {
        ImageServerError::Catalog(e)
    }
}

impl From<StorageError> for ImageServerError {
    fn from(e: StorageError) -> Self {
        ImageServerError::Storage(e)
    }
}

/// Tag type for published-image handles.
pub enum ImageTag {}

/// A resolved handle to a published image's block store — the fast
/// key for repeated [`ImageServer::read_block_by`] calls, obtained
/// once per session via [`ImageServer::resolve`].
pub type ImageHandle = Handle<ImageTag>;

/// A server that archives VM images on a local disk and serves block
/// and staging requests.
///
/// ```
/// use gridvm_storage::disk::{DiskModel, DiskProfile};
/// use gridvm_storage::image::VmImage;
/// use gridvm_storage::imageserver::ImageServer;
/// use gridvm_storage::block::BlockAddr;
/// use gridvm_simcore::time::SimTime;
///
/// let mut server = ImageServer::new(DiskModel::new(DiskProfile::ide_2003()));
/// server.publish(VmImage::redhat_guest("rh72"))?;
/// let image = server.resolve("rh72")?;
/// let (grant, data) = server.read_block_by(SimTime::ZERO, image, BlockAddr(0))?;
/// assert_eq!(data.len(), 4096);
/// assert!(grant.finish > SimTime::ZERO);
/// # Ok::<(), gridvm_storage::imageserver::ImageServerError>(())
/// ```
pub struct ImageServer {
    catalog: ImageCatalog,
    stores: SlotMap<ImageTag, Arc<MemBlockStore>>,
    /// Name → handle resolution at the frontend boundary; the hot
    /// block path is handle-indexed.
    by_name: BTreeMap<String, ImageHandle>,
    disk: DiskModel,
    blocks_served: u64,
}

impl std::fmt::Debug for ImageServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageServer")
            .field("images", &self.catalog.len())
            .field("blocks_served", &self.blocks_served)
            .finish()
    }
}

impl ImageServer {
    /// Creates a server whose archive lives on `disk`.
    pub fn new(disk: DiskModel) -> Self {
        ImageServer {
            catalog: ImageCatalog::new(),
            stores: SlotMap::new(),
            by_name: BTreeMap::new(),
            disk,
            blocks_served: 0,
        }
    }

    /// Publishes an image into the archive.
    ///
    /// # Errors
    ///
    /// [`ImageServerError::Catalog`] if the name is already taken.
    pub fn publish(&mut self, image: VmImage) -> Result<Arc<VmImage>, ImageServerError> {
        let arc = self.catalog.register(image)?;
        let handle = self.stores.insert(arc.base_store());
        self.by_name.insert(arc.name.clone(), handle);
        Ok(arc)
    }

    /// Resolves an image name into the handle that indexes the block
    /// path, once per session.
    ///
    /// # Errors
    ///
    /// [`ImageServerError::Catalog`] for unknown names.
    pub fn resolve(&self, name: &str) -> Result<ImageHandle, ImageServerError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()).into())
    }

    /// The catalog (for information-service advertisement).
    pub fn catalog(&self) -> &ImageCatalog {
        &self.catalog
    }

    /// Blocks served on demand so far.
    pub fn blocks_served(&self) -> u64 {
        self.blocks_served
    }

    /// Looks up image metadata.
    ///
    /// # Errors
    ///
    /// [`ImageServerError::Catalog`] for unknown names.
    pub fn lookup(&self, name: &str) -> Result<Arc<VmImage>, ImageServerError> {
        Ok(self.catalog.lookup(name)?)
    }

    /// Reads one image block through a pre-resolved handle — the hot
    /// path for repeated on-demand fetches.
    ///
    /// # Errors
    ///
    /// Unknown (stale) handle or out-of-range block.
    pub fn read_block_by(
        &mut self,
        now: SimTime,
        image: ImageHandle,
        addr: BlockAddr,
    ) -> Result<(ServiceGrant, Bytes), ImageServerError> {
        let store = self
            .stores
            .get(image)
            .map_err(|_| CatalogError::NotFound(format!("{image:?}")))?;
        let data = store.read(addr)?;
        let grant = self.disk.access(now, addr, AccessKind::Read);
        self.blocks_served += 1;
        Ok((grant, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskProfile;

    fn server() -> ImageServer {
        let mut s = ImageServer::new(DiskModel::new(DiskProfile::ide_2003()));
        s.publish(VmImage::redhat_guest("rh72")).unwrap();
        s
    }

    #[test]
    fn serves_blocks_with_verifiable_content() {
        let mut s = server();
        let image = s.resolve("rh72").unwrap();
        let (g, data) = s
            .read_block_by(SimTime::ZERO, image, BlockAddr(42))
            .unwrap();
        let expected = VmImage::redhat_guest("rh72")
            .base_store()
            .expected_pristine(BlockAddr(42));
        assert_eq!(data, expected, "content is a pure function of the image");
        assert!(g.finish > SimTime::ZERO);
        assert_eq!(s.blocks_served(), 1);
    }

    #[test]
    fn unknown_image_is_an_error() {
        let s = server();
        assert!(matches!(
            s.resolve("nope"),
            Err(ImageServerError::Catalog(CatalogError::NotFound(_)))
        ));
        assert!(s.lookup("nope").is_err());
        assert!(s.lookup("rh72").is_ok());
    }

    #[test]
    fn duplicate_publish_is_rejected() {
        let mut s = server();
        assert!(matches!(
            s.publish(VmImage::redhat_guest("rh72")),
            Err(ImageServerError::Catalog(CatalogError::Duplicate(_)))
        ));
    }

    #[test]
    fn out_of_range_block_is_reported() {
        let mut s = server();
        let beyond = VmImage::redhat_guest("rh72").disk_blocks();
        let image = s.resolve("rh72").unwrap();
        assert!(matches!(
            s.read_block_by(SimTime::ZERO, image, BlockAddr(beyond)),
            Err(ImageServerError::Storage(StorageError::OutOfRange { .. }))
        ));
    }

    #[test]
    fn error_display_chains_sources() {
        let e = ImageServerError::Catalog(CatalogError::NotFound("x".into()));
        assert!(e.to_string().contains("catalog"));
        let s = ImageServerError::Storage(StorageError::ReadOnly);
        assert!(s.to_string().contains("storage"));
    }
}

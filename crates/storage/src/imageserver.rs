//! The image server: archives static VM states for staging —
//! Figure 2's server `I` and Section 3.1.

use std::sync::Arc;

use crate::image::{CatalogError, ImageCatalog, VmImage};

/// Errors from image-server requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageServerError {
    /// Catalog problem (unknown or duplicate image).
    Catalog(CatalogError),
}

impl std::fmt::Display for ImageServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageServerError::Catalog(e) => write!(f, "catalog: {e}"),
        }
    }
}

impl std::error::Error for ImageServerError {}

impl From<CatalogError> for ImageServerError {
    fn from(e: CatalogError) -> Self {
        ImageServerError::Catalog(e)
    }
}

/// A server that archives VM images and answers the lookups that
/// session setup and recovery make before staging an image.
///
/// ```
/// use gridvm_storage::image::VmImage;
/// use gridvm_storage::imageserver::ImageServer;
///
/// let mut server = ImageServer::new();
/// server.publish(VmImage::redhat_guest("rh72"))?;
/// assert_eq!(server.lookup("rh72")?.name, "rh72");
/// assert!(server.lookup("rh71").is_err());
/// # Ok::<(), gridvm_storage::imageserver::ImageServerError>(())
/// ```
#[derive(Debug, Default)]
pub struct ImageServer {
    catalog: ImageCatalog,
}

impl ImageServer {
    /// Creates a server with an empty archive.
    pub fn new() -> Self {
        ImageServer::default()
    }

    /// Publishes an image into the archive.
    ///
    /// # Errors
    ///
    /// [`ImageServerError::Catalog`] if the name is already taken.
    pub fn publish(&mut self, image: VmImage) -> Result<Arc<VmImage>, ImageServerError> {
        Ok(self.catalog.register(image)?)
    }

    /// The catalog (for information-service advertisement).
    pub fn catalog(&self) -> &ImageCatalog {
        &self.catalog
    }

    /// Looks up image metadata.
    ///
    /// # Errors
    ///
    /// [`ImageServerError::Catalog`] for unknown names.
    pub fn lookup(&self, name: &str) -> Result<Arc<VmImage>, ImageServerError> {
        Ok(self.catalog.lookup(name)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> ImageServer {
        let mut s = ImageServer::new();
        s.publish(VmImage::redhat_guest("rh72")).unwrap();
        s
    }

    #[test]
    fn unknown_image_is_an_error() {
        let s = server();
        assert!(matches!(
            s.lookup("nope"),
            Err(ImageServerError::Catalog(CatalogError::NotFound(_)))
        ));
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
    fn error_display_chains_sources() {
        let e = ImageServerError::Catalog(CatalogError::NotFound("x".into()));
        assert!(e.to_string().contains("catalog"));
    }
}

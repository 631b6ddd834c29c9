//! The host-side storage abstraction.

use crate::error::PersistError;

/// Raw keyed blob storage allocated by a host environment.
///
/// This is all a host offers a mobile object: space. The host never
/// interprets the bytes — the object's own serializer produces them and
/// the object's own deserializer consumes them (self-containment).
///
/// Implementations must be durable within their own medium ([`crate::MemStore`]
/// for the process lifetime, [`crate::FileStore`] across crashes) and must
/// detect, on read, the corruption that medium can suffer rather than
/// return damaged bytes. A disk rots, so [`crate::FileStore`] checksums
/// every record; process memory does not, so [`crate::MemStore`]
/// checksums only the blobs its [`crate::MemStore::corrupt`] test hook
/// damages, and a put there costs no pass over the bytes.
pub trait BlobStore {
    /// Writes (or replaces) the blob under `key`.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn put(&mut self, key: &str, data: &[u8]) -> Result<(), PersistError>;

    /// Writes (or replaces) the blob under `key`, taking ownership of
    /// `data`: a store that keeps blobs in memory can keep this buffer
    /// instead of copying it. By default it forwards to
    /// [`BlobStore::put`].
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn put_owned(&mut self, key: &str, data: Vec<u8>) -> Result<(), PersistError> {
        self.put(key, &data)
    }

    /// Reads the blob under `key`, `None` when absent.
    ///
    /// # Errors
    ///
    /// Backend I/O failures or [`PersistError::Corrupt`] when the stored
    /// record fails validation.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, PersistError>;

    /// Deletes the blob under `key`; `true` if it existed.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn delete(&mut self, key: &str) -> Result<bool, PersistError>;

    /// All live keys, sorted.
    fn keys(&self) -> Vec<String>;

    /// Number of live blobs.
    fn len(&self) -> usize {
        self.keys().len()
    }

    /// `true` when no blobs are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

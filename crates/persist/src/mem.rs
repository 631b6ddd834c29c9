//! In-memory store (tests, benches, volatile hosts).

use std::collections::BTreeMap;

use crate::crc::crc32;
use crate::error::PersistError;
use crate::store::BlobStore;

/// A [`BlobStore`] held in process memory.
///
/// Process memory does not rot, so a put keeps the bytes as given and
/// checksums nothing. [`BlobStore::put_owned`] keeps an exactly sized
/// buffer (a received image) itself, so such a put costs nothing per
/// byte; a buffer with spare capacity is copied into an exact one, as
/// [`BlobStore::put`] copies a slice. The only damage this medium sees is
/// the damage tests inject with [`MemStore::corrupt`], which records the
/// CRC-32 of the intact bytes before it flips one. [`BlobStore::get`]
/// verifies exactly the blobs that carry such a checksum, so injected
/// corruption is reported as [`PersistError::Corrupt`] like on-disk rot,
/// and a later put replaces the damaged blob with a clean one.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    blobs: BTreeMap<String, (Option<u32>, Vec<u8>)>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Test hook: flips a bit in the stored blob, simulating medium rot.
    /// The intact bytes' checksum is recorded first (once), so the next
    /// read reports the damage. Returns `false` when the key is absent or
    /// empty.
    pub fn corrupt(&mut self, key: &str, byte_index: usize) -> bool {
        match self.blobs.get_mut(key) {
            Some((crc, data)) if !data.is_empty() => {
                crc.get_or_insert_with(|| crc32(data));
                let i = byte_index % data.len();
                data[i] ^= 0x01;
                true
            }
            _ => false,
        }
    }
}

impl BlobStore for MemStore {
    fn put(&mut self, key: &str, data: &[u8]) -> Result<(), PersistError> {
        self.put_owned(key, data.to_vec())
    }

    fn put_owned(&mut self, key: &str, data: Vec<u8>) -> Result<(), PersistError> {
        // An exactly sized buffer is kept as it is: a received image, or
        // a checkpoint's (`image_bytes` allocates the exact length). A
        // buffer with spare capacity, kept as it is or shrunk in place,
        // left a host's heap larger than exact copies do, so its bytes
        // are copied into an exact buffer, as `put` would.
        let data = if data.capacity() == data.len() {
            data
        } else {
            data.to_vec()
        };
        self.blobs.insert(key.to_owned(), (None, data));
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, PersistError> {
        match self.blobs.get(key) {
            None => Ok(None),
            Some((stored_crc, data)) => {
                if stored_crc.is_some_and(|crc| crc32(data) != crc) {
                    return Err(PersistError::Corrupt {
                        key: key.to_owned(),
                        detail: "crc mismatch".into(),
                    });
                }
                Ok(Some(data.clone()))
            }
        }
    }

    fn delete(&mut self, key: &str) -> Result<bool, PersistError> {
        Ok(self.blobs.remove(key).is_some())
    }

    fn keys(&self) -> Vec<String> {
        self.blobs.keys().cloned().collect()
    }

    fn contains(&self, key: &str) -> bool {
        self.blobs.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut s = MemStore::new();
        assert!(s.is_empty());
        s.put("a", b"one").unwrap();
        s.put("b", b"two").unwrap();
        assert_eq!(s.get("a").unwrap().unwrap(), b"one");
        assert_eq!(s.get("missing").unwrap(), None);
        assert_eq!(s.keys(), ["a", "b"]);
        assert_eq!(s.len(), 2);
        assert!(s.contains("a") && !s.contains("missing"));
        assert!(s.delete("a").unwrap());
        assert!(!s.delete("a").unwrap());
        assert_eq!(s.get("a").unwrap(), None);
        assert!(!s.contains("a"));
    }

    #[test]
    fn replace_overwrites() {
        let mut s = MemStore::new();
        s.put("k", b"v1").unwrap();
        s.put("k", b"v2").unwrap();
        assert_eq!(s.get("k").unwrap().unwrap(), b"v2");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn corruption_is_detected_on_read() {
        let mut s = MemStore::new();
        s.put("k", b"precious bytes").unwrap();
        assert!(s.corrupt("k", 3));
        assert!(matches!(s.get("k"), Err(PersistError::Corrupt { .. })));
        // Other keys unaffected.
        s.put("ok", b"fine").unwrap();
        assert_eq!(s.get("ok").unwrap().unwrap(), b"fine");
        // Corrupting nothing.
        assert!(!s.corrupt("missing", 0));
    }

    #[test]
    fn put_and_put_owned_read_back_identically() {
        let bytes: Vec<u8> = (0..=255).cycle().take(4096).collect();
        let mut s = MemStore::new();
        s.put("borrowed", &bytes).unwrap();
        s.put_owned("owned", bytes.clone()).unwrap();
        assert_eq!(s.get("borrowed").unwrap().unwrap(), bytes);
        assert_eq!(s.get("owned").unwrap(), s.get("borrowed").unwrap());
        s.put_owned("empty", Vec::new()).unwrap();
        assert_eq!(s.get("empty").unwrap().unwrap(), b"");
        assert_eq!(s.keys(), ["borrowed", "empty", "owned"]);
    }

    #[test]
    fn put_owned_keeps_an_exact_buffer_and_copies_a_spare_one() {
        let mut s = MemStore::new();
        let exact = vec![7u8; 4096];
        let at = exact.as_ptr();
        s.put_owned("exact", exact).unwrap();
        let (_, kept) = &s.blobs["exact"];
        assert_eq!(kept.as_ptr(), at, "an exact buffer is moved, not copied");

        let mut spare = Vec::with_capacity(8192);
        spare.extend_from_slice(&[9u8; 4096]);
        s.put_owned("spare", spare).unwrap();
        let (_, kept) = &s.blobs["spare"];
        assert_eq!((kept.len(), kept.capacity()), (4096, 4096));
        assert_eq!(s.get("spare").unwrap().unwrap(), vec![9u8; 4096]);
    }

    #[test]
    fn corruption_after_put_owned_is_detected_and_quarantined() {
        use crate::Depot;
        use mrom_core::{DataItem, ObjectBuilder};
        use mrom_value::{IdGenerator, NodeId, Value};

        let mut gen = IdGenerator::new(NodeId(16));
        let objects: Vec<_> = (0..3)
            .map(|marker| {
                ObjectBuilder::new(gen.next_id())
                    .fixed_data("marker", DataItem::public(Value::Int(marker)))
                    .build()
            })
            .collect();
        let mut depot = Depot::new(MemStore::new());
        for obj in &objects {
            // `save_image` hands the encoded buffer to `put_owned`.
            depot
                .save_image(obj.id(), obj.image_bytes().unwrap())
                .unwrap();
        }
        let victim = objects[1].id().to_string();
        assert!(depot.store_mut().corrupt(&victim, 7));
        // A second flip elsewhere is still checked against the intact bytes.
        assert!(depot.store_mut().corrupt(&victim, 11));
        assert!(matches!(
            depot.store().get(&victim),
            Err(PersistError::Corrupt { .. })
        ));

        let (ok, failed) = depot.restore_all();
        assert_eq!(ok.len(), 2);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, victim);
        assert!(matches!(failed[0].1, PersistError::Corrupt { .. }));
        assert!(ok.contains(&objects[0]) && ok.contains(&objects[2]));
    }

    #[test]
    fn put_after_corrupt_reads_clean() {
        let mut s = MemStore::new();
        s.put_owned("k", b"first image".to_vec()).unwrap();
        assert!(s.corrupt("k", 0));
        assert!(s.get("k").is_err());
        s.put("k", b"second image").unwrap();
        assert_eq!(s.get("k").unwrap().unwrap(), b"second image");
        assert!(s.corrupt("k", 2));
        s.put_owned("k", b"third image".to_vec()).unwrap();
        assert_eq!(s.get("k").unwrap().unwrap(), b"third image");
    }
}

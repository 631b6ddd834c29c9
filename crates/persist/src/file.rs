//! Log-structured file store.
//!
//! ## Record format
//!
//! The log is a sequence of records, each:
//!
//! ```text
//! magic   2 bytes   "MP"
//! version 1 byte    1
//! kind    1 byte    1 = put, 2 = tombstone
//! key_len 4 bytes   BE u32
//! data_len 4 bytes  BE u32 (0 for tombstones)
//! crc     4 bytes   BE u32 over key bytes ++ data bytes
//! key     key_len bytes (UTF-8)
//! data    data_len bytes
//! ```
//!
//! ## Recovery
//!
//! [`FileStore::open`] scans from the start, rebuilding the in-memory
//! index. The first malformed or CRC-failing record ends the scan and the
//! file is truncated there — a torn final write (crash mid-append) loses
//! only that write, never earlier ones.
//!
//! [`BlobStore::get`] reads the whole record and checks its header and
//! CRC again, so a record damaged after `open` is refused as
//! [`PersistError::Corrupt`] rather than returned as wrong bytes.
//!
//! ## Compaction
//!
//! Deletes append tombstones and replaced records stay in the log until
//! [`FileStore::compact`] rewrites live records to a fresh file and
//! atomically renames it over the old one.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::PersistError;
use crate::store::BlobStore;

const MAGIC: [u8; 2] = *b"MP";
const VERSION: u8 = 1;
const KIND_PUT: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;
const HEADER_LEN: usize = 2 + 1 + 1 + 4 + 4 + 4;
/// Where a header keeps its CRC.
const CRC_AT: std::ops::Range<usize> = 12..16;

/// A record's header up to its CRC: magic, version, kind and lengths.
fn record_header(kind: u8, key_len: usize, data_len: usize) -> [u8; CRC_AT.start] {
    let mut head = [0u8; CRC_AT.start];
    head[0..2].copy_from_slice(&MAGIC);
    head[2] = VERSION;
    head[3] = kind;
    head[4..8].copy_from_slice(&(key_len as u32).to_be_bytes());
    head[8..12].copy_from_slice(&(data_len as u32).to_be_bytes());
    head
}

/// A crash-recoverable, log-structured [`BlobStore`] backed by one file.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    file: File,
    /// key → (offset of the record's data section, data length).
    index: BTreeMap<String, (u64, u32)>,
    /// Bytes occupied by dead records (replaced or tombstoned).
    garbage_bytes: u64,
    tail: u64,
}

impl FileStore {
    /// Opens (or creates) the store at `path`, recovering the index by
    /// scanning the log. A trailing torn record is truncated away.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FileStore, PersistError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;

        let mut index = BTreeMap::new();
        let mut garbage_bytes = 0u64;
        let mut pos = 0usize;
        let mut valid_end = 0usize;
        while raw.len() - pos >= HEADER_LEN {
            let head = &raw[pos..pos + HEADER_LEN];
            if head[0..2] != MAGIC || head[2] != VERSION {
                break;
            }
            let kind = head[3];
            if kind != KIND_PUT && kind != KIND_TOMBSTONE {
                break;
            }
            let key_len = u32::from_be_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
            let data_len = u32::from_be_bytes(head[8..12].try_into().expect("4 bytes")) as usize;
            let stored_crc = u32::from_be_bytes(head[CRC_AT].try_into().expect("4 bytes"));
            let body_start = pos + HEADER_LEN;
            let Some(body_end) = body_start.checked_add(key_len + data_len) else {
                break;
            };
            if body_end > raw.len() {
                break;
            }
            if crc32(&raw[body_start..body_end]) != stored_crc {
                break;
            }
            let Ok(key) = std::str::from_utf8(&raw[body_start..body_start + key_len]) else {
                break;
            };
            let record_len = (HEADER_LEN + key_len + data_len) as u64;
            match kind {
                KIND_PUT => {
                    if let Some((_, old_len)) = index.insert(
                        key.to_owned(),
                        ((body_start + key_len) as u64, data_len as u32),
                    ) {
                        garbage_bytes += u64::from(old_len) + HEADER_LEN as u64;
                    }
                }
                KIND_TOMBSTONE => {
                    if let Some((_, old_len)) = index.remove(key) {
                        garbage_bytes += u64::from(old_len) + HEADER_LEN as u64;
                    }
                    garbage_bytes += record_len;
                }
                _ => unreachable!("kind validated"),
            }
            pos = body_end;
            valid_end = pos;
        }

        if valid_end < raw.len() {
            // Torn or corrupt tail: truncate it away.
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(FileStore {
            path,
            file,
            index,
            garbage_bytes,
            tail: valid_end as u64,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes occupied by dead records; the signal for compaction.
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage_bytes
    }

    /// Total log length in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.tail
    }

    fn append_record(&mut self, kind: u8, key: &str, data: &[u8]) -> Result<u64, PersistError> {
        let mut rec = Vec::with_capacity(HEADER_LEN + key.len() + data.len());
        rec.extend_from_slice(&record_header(kind, key.len(), data.len()));
        rec.extend_from_slice(&[0; 4]); // CRC, patched below
        rec.extend_from_slice(key.as_bytes());
        rec.extend_from_slice(data);
        let crc = crc32(&rec[HEADER_LEN..]);
        rec[CRC_AT].copy_from_slice(&crc.to_be_bytes());
        let offset = self.tail;
        self.file.write_all(&rec)?;
        self.file.flush()?;
        self.tail += rec.len() as u64;
        Ok(offset)
    }

    /// Rewrites the log with only live records, reclaiming garbage.
    ///
    /// # Errors
    ///
    /// I/O failures; on failure the original log is left untouched.
    pub fn compact(&mut self) -> Result<(), PersistError> {
        let tmp_path = self.path.with_extension("compact");
        {
            let mut tmp = FileStore::open(&tmp_path)?;
            for key in self.keys() {
                let data = self
                    .get(&key)?
                    .expect("indexed key must be present during compaction");
                tmp.put(&key, &data)?;
            }
            tmp.file.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        let fresh = FileStore::open(&self.path)?;
        *self = fresh;
        Ok(())
    }
}

impl BlobStore for FileStore {
    fn put(&mut self, key: &str, data: &[u8]) -> Result<(), PersistError> {
        let offset = self.append_record(KIND_PUT, key, data)?;
        let data_offset = offset + HEADER_LEN as u64 + key.len() as u64;
        if let Some((_, old_len)) = self
            .index
            .insert(key.to_owned(), (data_offset, data.len() as u32))
        {
            self.garbage_bytes += u64::from(old_len) + HEADER_LEN as u64;
        }
        Ok(())
    }

    /// Reads the whole record and checks it again, so damage done to the
    /// log since [`FileStore::open`] scanned it surfaces as
    /// [`PersistError::Corrupt`] instead of as wrong bytes.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, PersistError> {
        let Some(&(data_offset, len)) = self.index.get(key) else {
            return Ok(None);
        };
        let mut rec = vec![0u8; HEADER_LEN + key.len() + len as usize];
        // Positioned read through a cloned handle keeps &self semantics.
        let mut handle = self.file.try_clone()?;
        handle.seek(SeekFrom::Start(
            data_offset - key.len() as u64 - HEADER_LEN as u64,
        ))?;
        handle.read_exact(&mut rec)?;
        let corrupt = |detail: &str| PersistError::Corrupt {
            key: key.to_owned(),
            detail: detail.into(),
        };
        let expected_head = record_header(KIND_PUT, key.len(), len as usize);
        if rec[..CRC_AT.start] != expected_head {
            return Err(corrupt("record header mismatch"));
        }
        let stored_crc = u32::from_be_bytes(rec[CRC_AT].try_into().expect("4 bytes"));
        if crc32(&rec[HEADER_LEN..]) != stored_crc {
            return Err(corrupt("crc mismatch"));
        }
        rec.drain(..HEADER_LEN + key.len());
        Ok(Some(rec))
    }

    fn delete(&mut self, key: &str) -> Result<bool, PersistError> {
        if !self.index.contains_key(key) {
            return Ok(false);
        }
        let record_start = self.tail;
        self.append_record(KIND_TOMBSTONE, key, &[])?;
        if let Some((_, old_len)) = self.index.remove(key) {
            self.garbage_bytes += u64::from(old_len) + HEADER_LEN as u64;
        }
        self.garbage_bytes += self.tail - record_start;
        Ok(true)
    }

    fn keys(&self) -> Vec<String> {
        self.index.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("mrom-persist-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn basic_put_get_delete() {
        let dir = TempDir::new("basic");
        let mut s = FileStore::open(dir.file("log")).unwrap();
        s.put("a", b"alpha").unwrap();
        s.put("b", b"beta").unwrap();
        assert_eq!(s.get("a").unwrap().unwrap(), b"alpha");
        assert_eq!(s.get("c").unwrap(), None);
        assert!(s.delete("a").unwrap());
        assert!(!s.delete("a").unwrap());
        assert_eq!(s.get("a").unwrap(), None);
        assert_eq!(s.keys(), ["b"]);
    }

    #[test]
    fn reopen_recovers_index() {
        let dir = TempDir::new("reopen");
        let path = dir.file("log");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.put("x", b"1").unwrap();
            s.put("y", b"22").unwrap();
            s.put("x", b"333").unwrap(); // replacement
            s.delete("y").unwrap();
        }
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.get("x").unwrap().unwrap(), b"333");
        assert_eq!(s.get("y").unwrap(), None);
        assert_eq!(s.keys(), ["x"]);
        assert!(s.garbage_bytes() > 0);
    }

    #[test]
    fn torn_tail_is_truncated_earlier_records_survive() {
        let dir = TempDir::new("torn");
        let path = dir.file("log");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.put("keep", b"safe data").unwrap();
            s.put("casualty", b"this record will be torn").unwrap();
        }
        // Tear the last record by chopping bytes off the end.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.get("keep").unwrap().unwrap(), b"safe data");
        assert_eq!(s.get("casualty").unwrap(), None);
        assert_eq!(s.keys(), ["keep"]);
    }

    #[test]
    fn mid_log_corruption_keeps_earlier_records() {
        let dir = TempDir::new("rot");
        let path = dir.file("log");
        let second_offset;
        {
            let mut s = FileStore::open(&path).unwrap();
            s.put("first", b"good").unwrap();
            second_offset = s.log_bytes();
            s.put("second", b"doomed").unwrap();
            s.put("third", b"unreachable after rot").unwrap();
        }
        // Flip a data byte inside the second record.
        let mut raw = std::fs::read(&path).unwrap();
        raw[second_offset as usize + HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.get("first").unwrap().unwrap(), b"good");
        // Scan stopped at the corruption: later records are gone too
        // (prefix-consistency, like a real log).
        assert_eq!(s.keys(), ["first"]);
    }

    #[test]
    fn get_refuses_a_header_rotted_after_open() {
        let dir = TempDir::new("rot-head");
        let path = dir.file("log");
        let mut s = FileStore::open(&path).unwrap();
        s.put("k", b"intact payload").unwrap();
        // Put → tombstone: the CRC covers only key and data.
        let mut raw = std::fs::read(&path).unwrap();
        raw[3] = KIND_TOMBSTONE;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            s.get("k"),
            Err(PersistError::Corrupt { detail, .. }) if detail == "record header mismatch"
        ));
    }

    #[test]
    fn compaction_reclaims_garbage_and_preserves_data() {
        let dir = TempDir::new("compact");
        let path = dir.file("log");
        let mut s = FileStore::open(&path).unwrap();
        for i in 0..20 {
            s.put("churn", format!("version {i}").as_bytes()).unwrap();
        }
        s.put("stable", b"kept").unwrap();
        s.put("gone", b"deleted later").unwrap();
        s.delete("gone").unwrap();
        let before = s.log_bytes();
        assert!(s.garbage_bytes() > 0);

        s.compact().unwrap();
        assert!(s.log_bytes() < before);
        assert_eq!(s.garbage_bytes(), 0);
        assert_eq!(s.get("churn").unwrap().unwrap(), b"version 19");
        assert_eq!(s.get("stable").unwrap().unwrap(), b"kept");
        assert_eq!(s.get("gone").unwrap(), None);

        // And the compacted log reopens cleanly.
        drop(s);
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.keys(), ["churn", "stable"]);
    }

    #[test]
    fn empty_and_unicode_keys() {
        let dir = TempDir::new("keys");
        let mut s = FileStore::open(dir.file("log")).unwrap();
        s.put("", b"empty key").unwrap();
        s.put("ключ✨", b"unicode").unwrap();
        s.put("data", b"").unwrap(); // empty payload
        assert_eq!(s.get("").unwrap().unwrap(), b"empty key");
        assert_eq!(s.get("ключ✨").unwrap().unwrap(), b"unicode");
        assert_eq!(s.get("data").unwrap().unwrap(), b"");
    }

    #[test]
    fn large_payload_round_trip() {
        let dir = TempDir::new("large");
        let mut s = FileStore::open(dir.file("log")).unwrap();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        s.put("big", &big).unwrap();
        assert_eq!(s.get("big").unwrap().unwrap(), big);
    }
}

//! The `FileStore` log format is pinned byte for byte, and a record
//! damaged while a store is open is refused on read.
//!
//! `data/filestore_v1.log` holds the log that [`write_fixed_sequence`]
//! produced with the original bytewise CRC-32. A store written today must
//! produce exactly those bytes, and that checked-in log must still open,
//! so depots written by earlier builds keep restoring.

use std::path::{Path, PathBuf};

use mrom_core::{DataItem, MromObject, ObjectBuilder};
use mrom_persist::{BlobStore, Depot, FileStore, PersistError};
use mrom_value::{IdGenerator, NodeId, Value};

/// The log written by the original bytewise CRC-32.
const PINNED_LOG: &[u8] = include_bytes!("data/filestore_v1.log");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mrom-file-format-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
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

/// A deterministic 64 KiB value.
fn big_value() -> Vec<u8> {
    (0..65_536u32)
        .map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8)
        .collect()
}

/// Put, replace, delete, an empty key, a unicode key and a 64 KiB value.
fn write_fixed_sequence(path: &Path) {
    let mut s = FileStore::open(path).expect("open");
    s.put("alpha", b"first value").expect("put");
    s.put("beta", b"second").expect("put");
    s.put("alpha", b"replaced value").expect("replace");
    assert!(s.delete("beta").expect("delete"));
    s.put("", b"empty key").expect("put");
    s.put("ключ✨", "unicode key".as_bytes()).expect("put");
    s.put("big", &big_value()).expect("put");
}

fn assert_fixed_contents(s: &FileStore) {
    assert_eq!(s.keys(), ["", "alpha", "big", "ключ✨"]);
    assert_eq!(s.get("alpha").unwrap().unwrap(), b"replaced value");
    assert_eq!(s.get("beta").unwrap(), None);
    assert_eq!(s.get("").unwrap().unwrap(), b"empty key");
    assert_eq!(s.get("ключ✨").unwrap().unwrap(), "unicode key".as_bytes());
    assert_eq!(s.get("big").unwrap().unwrap(), big_value());
    assert!(s.garbage_bytes() > 0);
}

#[test]
fn log_bytes_match_the_pinned_format() {
    let dir = TempDir::new("pin");
    let path = dir.file("log");
    write_fixed_sequence(&path);
    let written = std::fs::read(&path).expect("read log");
    assert_eq!(written.len(), PINNED_LOG.len(), "log length changed");
    let first_diff = written.iter().zip(PINNED_LOG).position(|(a, b)| a != b);
    assert_eq!(first_diff, None, "log bytes differ from the pinned format");

    let s = FileStore::open(&path).expect("reopen");
    assert_eq!(s.log_bytes(), PINNED_LOG.len() as u64);
    assert_fixed_contents(&s);
}

#[test]
fn pinned_log_opens_and_restores_every_record() {
    let dir = TempDir::new("old");
    let path = dir.file("log");
    std::fs::write(&path, PINNED_LOG).expect("write fixture");
    let s = FileStore::open(&path).expect("open");
    // Nothing was truncated: every record passed its CRC.
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        PINNED_LOG.len() as u64
    );
    assert_fixed_contents(&s);
}

fn marked_object(gen: &mut IdGenerator, marker: &str) -> MromObject {
    ObjectBuilder::new(gen.next_id())
        .class("persistent")
        .fixed_data("marker", DataItem::public(Value::from(marker)))
        .build()
}

/// Flips one byte of `needle`'s only occurrence in the file at `path`,
/// behind the back of any store that has it open.
fn rot_in_place(path: &Path, needle: &[u8]) {
    let mut raw = std::fs::read(path).expect("read log");
    let hits: Vec<usize> = raw
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits.len(), 1, "needle must occur once");
    // Same length, different letter: the image still decodes.
    raw[hits[0]] ^= 0x01;
    std::fs::write(path, &raw).expect("write log");
}

#[test]
fn get_refuses_a_record_rotted_after_open() {
    let dir = TempDir::new("rot-get");
    let path = dir.file("log");
    let mut s = FileStore::open(&path).expect("open");
    s.put("kept", b"healthy payload").unwrap();
    s.put("victim", b"payload-to-rot").unwrap();
    rot_in_place(&path, b"payload-to-rot");

    assert!(matches!(
        s.get("victim"),
        Err(PersistError::Corrupt { key, .. }) if key == "victim"
    ));
    assert_eq!(s.get("kept").unwrap().unwrap(), b"healthy payload");
}

#[test]
fn restore_all_quarantines_a_record_rotted_after_open() {
    let dir = TempDir::new("rot-depot");
    let path = dir.file("log");
    let mut gen = IdGenerator::new(NodeId(41));
    let good_a = marked_object(&mut gen, "marker-good-a");
    let bad = marked_object(&mut gen, "marker-victim");
    let good_b = marked_object(&mut gen, "marker-good-b");
    let mut depot = Depot::new(FileStore::open(&path).expect("open"));
    for obj in [&good_a, &bad, &good_b] {
        depot.save(obj).unwrap();
    }
    // "marker-victim" → "larker-victim": a well-formed image of a
    // different object, which only the record's CRC can tell apart.
    rot_in_place(&path, b"marker-victim");

    assert!(matches!(
        depot.restore(bad.id()),
        Err(PersistError::Corrupt { .. })
    ));
    let (ok, failed) = depot.restore_all();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, bad.id().to_string());
    assert!(matches!(failed[0].1, PersistError::Corrupt { .. }));
    assert_eq!(ok.len(), 2);
    assert!(ok.contains(&good_a));
    assert!(ok.contains(&good_b));
}

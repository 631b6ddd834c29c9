//! `crc32` against a table-free, bit-at-a-time reference.
//!
//! The production checksum consumes 8 bytes per step through eight
//! lookup tables and finishes a short tail bytewise. The reference below
//! shifts one bit at a time through the reflected IEEE polynomial with
//! no table at all, so the two share nothing but the definition. Any
//! disagreement would change the stored checksums of every depot.

use mrom_persist::crc32;
use proptest::prelude::*;

/// CRC-32 (IEEE, reflected, zlib parameters), one bit per step.
fn reference_crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn reference_matches_the_known_vectors() {
    assert_eq!(reference_crc32(b""), 0);
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        reference_crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

/// Every start offset 0–7 of one buffer, at every length up to 140
/// bytes: each alignment of the 8-byte steps, each tail length 0–7, on
/// both sides of every multiple of 8.
#[test]
fn every_alignment_and_tail_matches_the_reference() {
    let buf: Vec<u8> = (0..148u32).map(|i| (i * 167 + 13) as u8).collect();
    for start in 0..8 {
        for len in 0..=140 {
            let slice = &buf[start..start + len];
            assert_eq!(
                crc32(slice),
                reference_crc32(slice),
                "start {start}, len {len}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte strings of 0–4 KiB.
    #[test]
    fn crc32_matches_the_reference(data in prop::collection::vec(any::<u8>(), 0..4097)) {
        prop_assert_eq!(crc32(&data), reference_crc32(&data));
    }
}

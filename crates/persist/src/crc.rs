//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! Hand-rolled because the store format — like everything a mobile object
//! depends on — must be self-contained and byte-stable across hosts.
//!
//! ## Algorithm
//!
//! `TABLES[0]` is the classic bytewise table for the reflected polynomial
//! `0xEDB8_8320`; `TABLES[k][b]` is the CRC register after byte `b` is
//! followed by `k` zero bytes. A step folds the register into the next 8
//! input bytes and replaces all of them with eight independent lookups,
//! one per byte position, so the loop runs 8 bytes per step instead of 1.
//! A tail shorter than 8 bytes takes the bytewise step through
//! `TABLES[0]`. The tables are built at compile time; no `unsafe` and no
//! CPU feature detection, so every host computes the same function.
//!
//! The oracle is a table-free, bit-at-a-time reference in the crate's
//! tests (`tests/crc_oracle.rs`); a checked-in log written with the
//! bytewise form (`tests/data/filestore_v1.log`) pins the stored
//! checksums.

/// Computes the CRC-32 checksum of `data` (IEEE polynomial, reflected,
/// initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` — the same
/// parameters as zlib).
///
/// # Example
///
/// ```
/// // The classic check value for "123456789".
/// assert_eq!(mrom_persist::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let lo = (word as u32) ^ crc;
        let hi = (word >> 32) as u32;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc ^ 0xFFFF_FFFF
}

/// The slicing-by-8 lookup tables for the reflected IEEE polynomial.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"some payload worth protecting".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn is_order_sensitive() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}

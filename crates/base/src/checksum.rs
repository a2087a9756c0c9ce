//! Checksums: CRC-32 (IEEE 802.3) and FNV-1a.
//!
//! CRC-32 frames every write-ahead-log record in `bistro-receipts` and
//! every block of the `bistro-compress` container format, so torn or
//! corrupted tails are detected during recovery. FNV-1a is used for cheap
//! non-cryptographic hashing (dedup keys, hash-partitioning of files onto
//! delivery workers).

use crate::hash::FnvHasher;
use std::hash::Hasher;

/// Lookup tables for the reflected IEEE polynomial 0xEDB88320, for
/// slicing-by-8: `TABLES[0]` is the classic byte-at-a-time table and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight input bytes fold into the state with eight independent lookups
/// instead of eight dependent ones. Every WAL frame is checksummed when
/// it is appended and again when it is replayed; one lookup per byte
/// was a fifth of recovery time.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
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

static CRC_TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of a byte slice (IEEE polynomial, reflected, init/final xor
/// 0xFFFFFFFF — the same parameters as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut s = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = s ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        s = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        s = (s >> 8) ^ t[0][((s ^ b as u32) & 0xFF) as usize];
    }
    s ^ 0xFFFF_FFFF
}

/// One-shot FNV-1a 64-bit hash of a byte slice: one write through
/// [`FnvHasher`], the streaming form maps hash with.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = FnvHasher::default();
    hash.write(data);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_word_path_matches_bytewise() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut s = 0xFFFF_FFFFu32;
            for &b in data {
                s = (s >> 8) ^ CRC_TABLES[0][((s ^ b as u32) & 0xFF) as usize];
            }
            s ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bytewise(&data[start..end]));
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"MEMORY_poller1_20100925.gz".to_vec();
        let orig = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(crc32(&data), orig);
    }

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_distributes() {
        // Different poller filenames should hash differently.
        let a = fnv1a64(b"CPU_POLL1_201009250502.txt");
        let b = fnv1a64(b"CPU_POLL2_201009250502.txt");
        assert_ne!(a, b);
    }
}

//! The Bistro container format.
//!
//! When the normalizer compresses (or re-compresses) a feed file before
//! staging it, the payload is wrapped in a small self-describing container
//! so that (a) the delivery pipeline can verify integrity end-to-end and
//! (b) a subscriber — or a downstream Bistro relay — can decompress without
//! out-of-band codec metadata.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset size  field
//! 0      4     magic "BSTR"
//! 4      1     format version (1)
//! 5      1     codec tag (see Codec::tag)
//! 6      8     uncompressed length
//! 14     4     CRC-32 of the *uncompressed* payload
//! 18     ..    compressed payload
//! ```

use crate::{Codec, CompressError};
use bistro_base::checksum::crc32;

/// Container magic bytes.
pub const MAGIC: [u8; 4] = *b"BSTR";
/// Current container format version.
pub const VERSION: u8 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 18;

/// Compress `data` with `codec` and wrap in a container.
pub fn seal(codec: Codec, data: &[u8]) -> Vec<u8> {
    let payload = codec.compress(data);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(codec.tag());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Inspect a container's header without decompressing.
///
/// Returns `(codec, uncompressed_len, crc)`.
pub fn peek(container: &[u8]) -> Result<(Codec, u64, u32), CompressError> {
    if container.len() < HEADER_LEN {
        return Err(CompressError::BadMagic);
    }
    if container[0..4] != MAGIC || container[4] != VERSION {
        return Err(CompressError::BadMagic);
    }
    let codec = Codec::from_tag(container[5]).ok_or(CompressError::UnknownCodec(container[5]))?;
    let len = u64::from_le_bytes(container[6..14].try_into().unwrap());
    let crc = u32::from_le_bytes(container[14..18].try_into().unwrap());
    Ok((codec, len, crc))
}

/// True if the buffer begins with a valid container header.
pub fn is_container(data: &[u8]) -> bool {
    peek(data).is_ok()
}

/// Unwrap a container: decompress and verify length and checksum.
///
/// The header's length bounds the decode: a stream that would outgrow it
/// is refused where it crosses, not after it has been materialised.
pub fn open(container: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (codec, expected_len, expected_crc) = peek(container)?;
    // a length no buffer can have bounds nothing: the decode then ends at
    // the stream's own end and the comparison below refuses it
    let declared = usize::try_from(expected_len).unwrap_or(usize::MAX);
    let data = codec.decompress_bounded(&container[HEADER_LEN..], declared)?;
    if data.len() as u64 != expected_len {
        return Err(CompressError::LengthMismatch {
            expected: expected_len,
            actual: data.len() as u64,
        });
    }
    let actual_crc = crc32(&data);
    if actual_crc != expected_crc {
        return Err(CompressError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(data)
}

/// Re-seal an opened container with a different codec (used when a feed's
/// compression option differs from what the source delivered).
pub fn transcode(container: &[u8], target: Codec) -> Result<Vec<u8>, CompressError> {
    let data = open(container)?;
    Ok(seal(target, &data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let data = b"CPU_POLL1_201009250502.txt contents".repeat(10);
        for codec in [Codec::None, Codec::Rle, Codec::Lzss] {
            let c = seal(codec, &data);
            assert!(is_container(&c));
            let (got_codec, len, _) = peek(&c).unwrap();
            assert_eq!(got_codec, codec);
            assert_eq!(len, data.len() as u64);
            assert_eq!(open(&c).unwrap(), data);
        }
    }

    #[test]
    fn empty_payload() {
        let c = seal(Codec::Lzss, b"");
        assert_eq!(open(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(open(b"NOPE"), Err(CompressError::BadMagic));
        let mut c = seal(Codec::Rle, b"hello world hello world");
        c[0] = b'X';
        assert_eq!(open(&c), Err(CompressError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut c = seal(Codec::Rle, b"hello");
        c[4] = 9;
        assert_eq!(open(&c), Err(CompressError::BadMagic));
    }

    #[test]
    fn unknown_codec_rejected() {
        let mut c = seal(Codec::None, b"hello");
        c[5] = 42;
        assert_eq!(open(&c), Err(CompressError::UnknownCodec(42)));
    }

    #[test]
    fn payload_corruption_detected() {
        let data = b"a file body that compresses: aaaa bbbb aaaa bbbb aaaa";
        let mut c = seal(Codec::None, data);
        let last = c.len() - 1;
        c[last] ^= 0xFF;
        match open(&c) {
            Err(CompressError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn length_corruption_detected() {
        let data = b"body body body";
        let mut c = seal(Codec::None, data);
        c[6] = c[6].wrapping_add(1); // bump claimed length
        match open(&c) {
            Err(CompressError::LengthMismatch { .. }) => {}
            other => panic!("expected length mismatch, got {other:?}"),
        }
    }

    #[test]
    fn transcode_between_codecs() {
        let data = b"MEMORY stats ".repeat(100);
        let rle = seal(Codec::Rle, &data);
        let lz = transcode(&rle, Codec::Lzss).unwrap();
        let (codec, _, _) = peek(&lz).unwrap();
        assert_eq!(codec, Codec::Lzss);
        assert_eq!(open(&lz).unwrap(), data);
    }

    /// A container whose header declares `declared` bytes over `stream`.
    fn forged(codec: Codec, declared: u64, stream: &[u8]) -> Vec<u8> {
        let mut c = seal(codec, b"");
        c[6..14].copy_from_slice(&declared.to_le_bytes());
        c.extend_from_slice(stream);
        c
    }

    #[test]
    fn open_refuses_a_bomb_at_the_declared_length() {
        // ~1 MB of maximum-length tokens behind a header declaring 10
        // bytes: 85 MB (lzss) / 65 MB (rle) if decoded before checking
        let lz = crate::lzss::tests::bomb(1 << 20);
        let rle = [0xFF, b'x'].repeat(500_000);
        for (codec, stream, token) in [(Codec::Lzss, &lz, 265), (Codec::Rle, &rle, 130)] {
            match open(&forged(codec, 10, stream)) {
                Err(CompressError::LengthMismatch {
                    expected: 10,
                    actual,
                }) => {
                    assert!(actual > 10 && actual <= 10 + token, "{codec}: {actual}")
                }
                other => panic!("{codec}: {:?}", other.map(|v| v.len())),
            }
        }
        // a stored payload longer than declared never gets copied
        assert_eq!(
            open(&forged(Codec::None, 3, b"four")),
            Err(CompressError::LengthMismatch {
                expected: 3,
                actual: 4
            })
        );
    }

    #[test]
    fn open_refuses_a_length_no_stream_could_reach() {
        // declared lengths beyond what the stream decodes to are compared
        // after a decode that reserved only what the stream could fill
        for declared in [6, 1 << 40, u64::MAX] {
            assert_eq!(
                open(&forged(Codec::None, declared, b"short")),
                Err(CompressError::LengthMismatch {
                    expected: declared,
                    actual: 5
                })
            );
            let stream = Codec::Lzss.compress(b"short short short");
            assert_eq!(
                open(&forged(Codec::Lzss, declared, &stream)),
                Err(CompressError::LengthMismatch {
                    expected: declared,
                    actual: 17
                })
            );
        }
    }
}

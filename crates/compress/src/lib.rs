//! # bistro-compress
//!
//! Compression substrate for Bistro's per-feed compression /
//! decompression options (paper §3.1: "an application is able to expand
//! the data arriving in compressed formats or compress the data before
//! placing it into staging directories").
//!
//! The paper's deployment shells out to gzip/bzip2. Those codecs are not in
//! the offline dependency set, so this crate implements two codecs from
//! scratch — byte-level RLE and an LZSS dictionary compressor — plus a
//! CRC-checked container format ([`container`]) so corrupted staged files
//! are detected rather than delivered. Any codec behind the same API
//! exercises the identical normalization code path in `bistro-core`.

pub mod container;
pub mod lzss;
pub mod rle;

use std::fmt;

/// The compression codecs available to feed definitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Store uncompressed.
    None,
    /// Byte-level run-length encoding: wins on the highly repetitive
    /// CSV/fixed-width measurement files pollers emit.
    Rle,
    /// LZSS with an 8 KiB sliding window: the general-purpose codec.
    Lzss,
}

impl Codec {
    /// Stable numeric tag used in the container header.
    pub fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Rle => 1,
            Codec::Lzss => 2,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::None),
            1 => Some(Codec::Rle),
            2 => Some(Codec::Lzss),
            _ => None,
        }
    }

    /// The conventional filename extension for this codec
    /// (mirrors `.gz` handling in feed patterns).
    pub fn extension(self) -> &'static str {
        match self {
            Codec::None => "",
            Codec::Rle => "rle",
            Codec::Lzss => "lz",
        }
    }

    /// Parse a filename extension into a codec. Recognizes the paper's
    /// `.gz`/`.bz2` names and maps them onto the built-in codecs so paper
    /// filename examples work unmodified.
    pub fn from_extension(ext: &str) -> Option<Codec> {
        match ext {
            "rle" => Some(Codec::Rle),
            "lz" | "gz" | "bz2" | "zip" => Some(Codec::Lzss),
            "" => Some(Codec::None),
            _ => None,
        }
    }

    /// Compress a buffer with this codec (raw stream, no container).
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Rle => rle::compress(data),
            Codec::Lzss => lzss::compress(data),
        }
    }

    /// Decompress a raw stream produced by [`Codec::compress`].
    pub fn decompress(self, data: &[u8]) -> Result<Vec<u8>, CompressError> {
        match self {
            Codec::None => Ok(data.to_vec()),
            Codec::Rle => rle::decompress(data),
            Codec::Lzss => lzss::decompress(data),
        }
    }

    /// Decompress a stream declared to decode to `declared` bytes. A
    /// stream that would decode to more fails with
    /// [`CompressError::LengthMismatch`] as soon as it crosses that length
    /// (`actual` is then how far it got, not its full length), having
    /// allocated no more than `declared`; one that decodes to fewer is
    /// returned for the caller to compare.
    pub fn decompress_bounded(
        self,
        data: &[u8],
        declared: usize,
    ) -> Result<Vec<u8>, CompressError> {
        match self {
            Codec::None if data.len() > declared => Err(CompressError::LengthMismatch {
                expected: declared as u64,
                actual: data.len() as u64,
            }),
            Codec::None => Ok(data.to_vec()),
            Codec::Rle => rle::decompress_bounded(data, declared),
            Codec::Lzss => lzss::decompress_bounded(data, declared),
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::None => write!(f, "none"),
            Codec::Rle => write!(f, "rle"),
            Codec::Lzss => write!(f, "lzss"),
        }
    }
}

/// Errors from decompression or container parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed stream was malformed.
    Corrupt(&'static str),
    /// Container magic bytes did not match.
    BadMagic,
    /// Container codec tag was unrecognized.
    UnknownCodec(u8),
    /// CRC of the decompressed payload did not match the header.
    ChecksumMismatch {
        /// CRC recorded in the container header.
        expected: u32,
        /// CRC of the actual decompressed payload.
        actual: u32,
    },
    /// Decompressed length did not match the header.
    LengthMismatch {
        /// Length recorded in the container header.
        expected: u64,
        /// Actual decompressed length — or, from a bounded decode that
        /// stopped early, the length at which the stream crossed `expected`.
        actual: u64,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Corrupt(why) => write!(f, "corrupt compressed stream: {why}"),
            CompressError::BadMagic => write!(f, "not a bistro container (bad magic)"),
            CompressError::UnknownCodec(t) => write!(f, "unknown codec tag {t}"),
            CompressError::ChecksumMismatch { expected, actual } => write!(
                f,
                "container checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
            CompressError::LengthMismatch { expected, actual } => write!(
                f,
                "container length mismatch: expected {expected}, got {actual}"
            ),
        }
    }
}

impl std::error::Error for CompressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_tags_roundtrip() {
        for c in [Codec::None, Codec::Rle, Codec::Lzss] {
            assert_eq!(Codec::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Codec::from_tag(99), None);
    }

    #[test]
    fn extension_mapping() {
        assert_eq!(Codec::from_extension("gz"), Some(Codec::Lzss));
        assert_eq!(Codec::from_extension("rle"), Some(Codec::Rle));
        assert_eq!(Codec::from_extension(""), Some(Codec::None));
        assert_eq!(Codec::from_extension("csv"), None);
    }

    #[test]
    fn all_codecs_roundtrip() {
        let data = b"BPS,poller1,router_a,1024,2048\n".repeat(40);
        for c in [Codec::None, Codec::Rle, Codec::Lzss] {
            let comp = c.compress(&data);
            assert_eq!(c.decompress(&comp).unwrap(), data, "codec {c}");
        }
    }

    #[test]
    fn lzss_compresses_repetitive_data() {
        let data = b"MEMORY_POLLER1_2010092504_51.csv\n".repeat(100);
        let comp = Codec::Lzss.compress(&data);
        assert!(
            comp.len() < data.len() / 4,
            "expected >4x on repetitive input, got {} -> {}",
            data.len(),
            comp.len()
        );
    }
}

//! Binary byte codecs.
//!
//! A small, explicit little-endian encoding layer used by the receipt
//! store's WAL records and the transport message formats. Hand-rolled
//! (rather than serde) so the on-disk and on-wire formats are stable,
//! inspectable, and independent of struct layout.

use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// A varint ran longer than 10 bytes.
    VarintOverflow,
    /// A length prefix exceeded the remaining input or a sanity limit.
    BadLength {
        /// The claimed length.
        len: u64,
    },
    /// Bytes claimed to be UTF-8 were not.
    InvalidUtf8,
    /// Input bytes were left over after a complete value was decoded —
    /// the frame is longer than the value it claims to carry.
    TrailingBytes {
        /// How many bytes remained unconsumed.
        n: usize,
    },
    /// An enum tag had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::BadLength { len } => write!(f, "implausible length prefix {len}"),
            CodecError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::TrailingBytes { n } => {
                write!(f, "{n} trailing bytes after a complete value")
            }
            CodecError::BadTag { what, tag } => {
                write!(f, "unrecognized tag {tag} while decoding {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// How many bytes [`ByteWriter::put_varint`] writes for `v`, so a caller
/// can size an encoding without producing it.
pub fn varint_len(v: u64) -> usize {
    // 7 payload bits per byte; zero still takes one byte
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Fresh writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer that appends to `buf`, keeping its contents and capacity
    /// — for a caller that reuses one buffer across encodings.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a length-prefixed byte slice.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_varint(data.len() as u64);
        self.buf.extend_from_slice(data);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Decode from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True if all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { what });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self
                .get_u8()
                .map_err(|_| CodecError::UnexpectedEof { what: "varint" })?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            result |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    /// Read a length-prefixed byte slice (borrowed from the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength { len });
        }
        self.take(len as usize, "bytes body")
    }

    /// Read a length-prefixed UTF-8 string (borrowed from the input).
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| CodecError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_varint(0);
        w.put_varint(127);
        w.put_varint(128);
        w.put_varint(u64::MAX);
        w.put_str("MEMORY_poller1_20100925.gz");
        w.put_bytes(&[1, 2, 3]);

        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_varint().unwrap(), 0);
        assert_eq!(r.get_varint().unwrap(), 127);
        assert_eq!(r.get_varint().unwrap(), 128);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
        assert_eq!(r.get_str().unwrap(), "MEMORY_poller1_20100925.gz");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn varint_sizes() {
        for (v, expect) in [(0u64, 1usize), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), expect, "size of varint {v}");
            assert_eq!(varint_len(v), expect, "varint_len({v})");
        }
        let mut w = ByteWriter::new();
        w.put_varint(u64::MAX);
        assert_eq!(w.len(), 10);
        assert_eq!(varint_len(u64::MAX), 10);
        assert_eq!(varint_len((1 << 63) - 1), 9);
    }

    #[test]
    fn eof_errors() {
        let mut r = ByteReader::new(&[0x01]);
        assert!(r.get_u32().is_err());
        let mut r = ByteReader::new(&[]);
        assert!(matches!(r.get_u8(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn truncated_varint() {
        // continuation bit set, then EOF
        let mut r = ByteReader::new(&[0x80]);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes
        let data = [0xFF; 11];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.get_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn bad_length_prefix() {
        let mut w = ByteWriter::new();
        w.put_varint(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str(), Err(CodecError::InvalidUtf8));
    }
}

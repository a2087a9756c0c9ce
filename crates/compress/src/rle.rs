//! Byte-level run-length encoding.
//!
//! Format: a sequence of chunks, each starting with a control byte `c`.
//!
//! * `c < 0x80`: a *literal* chunk — the next `c + 1` bytes are copied
//!   verbatim (1..=128 literals).
//! * `c >= 0x80`: a *run* chunk — the next byte repeats `(c - 0x80) + 3`
//!   times (3..=130 repeats).
//!
//! Runs shorter than 3 are never encoded as runs, so RLE output is at most
//! `n + ceil(n/128)` bytes for incompressible input.

use crate::CompressError;

/// Compress `data` with RLE.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut i = 0;
    let n = data.len();
    let mut lit_start = 0; // start of pending literal range

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        let mut s = from;
        while s < to {
            let chunk = (to - s).min(128);
            out.push((chunk - 1) as u8);
            out.extend_from_slice(&data[s..s + chunk]);
            s += chunk;
        }
    };

    while i < n {
        // measure run length at i
        let b = data[i];
        let mut run = 1;
        while i + run < n && data[i + run] == b && run < 130 {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, lit_start, i, data);
            out.push(0x80 + (run - 3) as u8);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, lit_start, n, data);
    out
}

/// Decompress an RLE stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    decode(data, usize::MAX, data.len().saturating_mul(2))
}

/// Decompress a stream whose decoded length is declared to be `declared`
/// bytes: fails with [`CompressError::LengthMismatch`] before the output
/// outgrows that, and allocates no more than that up front.
pub fn decompress_bounded(data: &[u8], declared: usize) -> Result<Vec<u8>, CompressError> {
    // a run chunk is the densest: 2 stream bytes for 130
    decode(data, declared, declared.min(data.len().saturating_mul(65)))
}

fn decode(data: &[u8], limit: usize, reserve: usize) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::with_capacity(reserve);
    // refuse a chunk that would carry the output past `limit`
    let fits = |have: usize, len: usize| {
        if len <= limit - have {
            return Ok(());
        }
        Err(CompressError::LengthMismatch {
            expected: limit as u64,
            actual: (have + len) as u64,
        })
    };
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c < 0x80 {
            let len = c as usize + 1;
            if i + len > data.len() {
                return Err(CompressError::Corrupt("literal chunk truncated"));
            }
            fits(out.len(), len)?;
            out.extend_from_slice(&data[i..i + len]);
            i += len;
        } else {
            if i >= data.len() {
                return Err(CompressError::Corrupt("run chunk truncated"));
            }
            let count = (c - 0x80) as usize + 3;
            let b = data[i];
            i += 1;
            fits(out.len(), count)?;
            out.resize(out.len() + count, b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(compress(b""), Vec::<u8>::new());
        assert_eq!(decompress(b"").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn simple_runs() {
        roundtrip(b"aaaabbbbcccc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        let c = compress(b"aaaaaaaa");
        assert_eq!(c, vec![0x80 + 5, b'a']); // 8 repeats => run chunk
    }

    #[test]
    fn literals_only() {
        roundtrip(b"abcdefgh");
        // no run of >=3, so pure literal encoding: 1 control + 8 bytes
        assert_eq!(compress(b"abcdefgh").len(), 9);
    }

    #[test]
    fn mixed() {
        roundtrip(b"ab cccccccc de\x00\x00\x00\x00 fg");
        roundtrip(b"112233334444455555566666667777777788888888899999999990");
    }

    #[test]
    fn long_runs_split() {
        let data = vec![b'x'; 1000];
        roundtrip(&data);
        let c = compress(&data);
        // 1000 / 130 runs of 2 bytes each
        assert!(c.len() <= 2 * (1000 / 130 + 1));
    }

    #[test]
    fn long_literals_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn worst_case_expansion_bounded() {
        // alternating bytes: incompressible
        let data: Vec<u8> = (0..10_000).map(|i| (i % 2) as u8).collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 128 + 2);
    }

    #[test]
    fn truncated_streams_error() {
        assert!(decompress(&[0x05]).is_err()); // literal chunk, no body
        assert!(decompress(&[0x80 + 5]).is_err()); // run chunk, no byte
    }

    #[test]
    fn csv_like_payload() {
        let row = b"poller1,router_a,2010-12-30,00,12345,0.00000\n";
        let data = row.repeat(50);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // the zero-run should at least shave something off
        assert!(c.len() < data.len());
    }

    #[test]
    fn bounded_decode_stops_a_bomb_within_one_chunk_of_the_declared_length() {
        // nothing but maximum runs: 2 stream bytes per 130 decoded
        let stream = [0xFF, b'x'].repeat(500_000);
        assert_eq!(decompress(&stream[..2_000]).unwrap().len(), 130_000);
        for declared in [0, 10, 129, 130, 131, 100_000] {
            match decompress_bounded(&stream, declared) {
                Err(CompressError::LengthMismatch { expected, actual }) => {
                    assert_eq!(expected, declared as u64);
                    assert!(actual > expected && actual <= expected + 130);
                }
                other => panic!("declared {declared}: {:?}", other.map(|v| v.len())),
            }
        }
    }

    #[test]
    fn bounded_decode_keeps_the_error_variants() {
        let data = b"aaaaaaaabcdefgh\x00\x00\x00\x00\x00ij".repeat(30);
        let c = compress(&data);
        let exact = decompress_bounded(&c, data.len()).unwrap();
        assert_eq!(exact, data);
        assert!(
            exact.capacity() < data.len() + 64,
            "cap {}",
            exact.capacity()
        );
        // declared longer than the stream decodes to: the caller compares
        assert_eq!(decompress_bounded(&c, data.len() + 5).unwrap(), data);
        assert!(decompress_bounded(&c, usize::MAX).unwrap().capacity() <= c.len() * 65);
        assert!(matches!(
            decompress_bounded(&c, data.len() - 1),
            Err(CompressError::LengthMismatch { .. })
        ));
        // truncated streams are still `Corrupt`, whatever was declared
        for declared in [0, 100] {
            for cut in [&[0x05u8][..], &[0x80 + 5]] {
                assert!(matches!(
                    decompress_bounded(cut, declared),
                    Err(CompressError::Corrupt(_))
                ));
            }
        }
    }
}

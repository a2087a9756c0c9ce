//! Golden pins of the LZSS stream, taken from the encoder as it stood
//! before the hash-chain kernel rewrite (commit 0eea0d2).
//!
//! Inside `bistro-compress` the new encoder is checked against the old
//! body kept as a test oracle — but that oracle lives beside the code it
//! checks and could drift with it. These pins cannot: they are the
//! length and CRC-32 of `lzss::compress(payload_for(f))` for three named
//! generated files, computed once at the parent commit. Staged bytes,
//! `write_amp` and every receipt depend on this stream not moving.

use bistro::base::checksum::crc32;
use bistro::base::TimePoint;
use bistro::compress::{container, lzss, Codec};
use bistro::simnet::{payload::payload_for, GenFile};

/// `(name, subfeed, payload size, stream length, CRC-32 of the stream)`.
const PINS: [(&str, &str, u64, usize, u32); 3] = [
    // the benchmark's ingest_batch shape: one 8 kB CSV file
    (
        "MEMORY_POLLER1_2010092504_51.csv",
        "MEMORY",
        8_192,
        3_004,
        0x8be1_06c7,
    ),
    // several windows long: sliding, `prev` wrap-around, the limit cut
    (
        "CPU_POLLER7_2010092504_55.csv",
        "CPU",
        70_000,
        23_889,
        0xd245_e948,
    ),
    // a few rows, cut mid-row: matches up against the `n - MIN_MATCH` tail rule
    (
        "BPS_POLLER3_2010092505_00.csv",
        "BPS",
        200,
        141,
        0xfa38_8082,
    ),
];

#[test]
fn lzss_stream_matches_the_parent_commit() {
    let at = TimePoint::from_secs(1_285_372_800);
    for (name, subfeed, size, want_len, want_crc) in PINS {
        let payload = payload_for(&GenFile {
            name: name.to_string(),
            poller: 1,
            subfeed: subfeed.to_string(),
            feed_time: at,
            deposit_time: at,
            size,
        });
        let stream = lzss::compress(&payload);
        println!(
            "[golden] {name} {size} B -> {} B crc {:#010x}",
            stream.len(),
            crc32(&stream)
        );
        assert_eq!(
            (stream.len(), crc32(&stream)),
            (want_len, want_crc),
            "lzss stream of {name} moved"
        );
        // the sealed container is the header plus exactly that stream
        let sealed = container::seal(Codec::Lzss, &payload);
        assert_eq!(&sealed[container::HEADER_LEN..], &stream[..]);
        assert_eq!(container::open(&sealed).unwrap(), payload);
    }
}

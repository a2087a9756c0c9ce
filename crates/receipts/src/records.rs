//! Receipt record types and their binary encoding.

use bistro_base::{ByteReader, ByteWriter, CodecError, FileId, TimePoint};

/// The durable description of one received file (an *arrival receipt*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileRecord {
    /// Stable id assigned on arrival.
    pub id: FileId,
    /// The original filename (as deposited in the landing directory,
    /// relative to it).
    pub name: String,
    /// Where the normalized file lives in staging.
    pub staged_path: String,
    /// Size in bytes (after normalization).
    pub size: u64,
    /// When the file arrived at the server.
    pub arrival: TimePoint,
    /// The feed timestamp extracted from the filename, if any.
    pub feed_time: Option<TimePoint>,
    /// Names of the feeds the file was classified into (possibly several
    /// — feed definitions may overlap).
    pub feeds: Vec<String>,
}

/// One WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A file arrived and was classified.
    Arrival(FileRecord),
    /// A file fell out of the retention window and was expunged.
    Expire {
        /// The expired file.
        file: FileId,
        /// Expiration time.
        at: TimePoint,
    },
    /// A file's feed membership was recomputed after a feed definition
    /// changed (§4.2: "a feed definition can be revised at any moment").
    Reclassify {
        /// The affected file.
        file: FileId,
        /// The new complete feed list.
        feeds: Vec<String>,
    },
    /// A subscriber name entered the store's name table under `id`.
    /// Ids are dense, handed out in order of first use and never reused;
    /// the record precedes the first [`Record::Delivered`] naming its id,
    /// and every snapshot carries the whole table first.
    Subscriber {
        /// The id delivery sets name this subscriber by.
        id: u32,
        /// The subscriber's name.
        name: String,
    },
    /// A file was delivered to a set of subscribers: bit `i` of `bits`
    /// (LSB-first, as a [`bistro_base::Bitmap`] holds it) = the subscriber with id
    /// `i`. Sets OR-merge on replay, so any prefix or repetition of them
    /// is idempotent.
    Delivered {
        /// The delivered file.
        file: FileId,
        /// When the last delivery of the set completed.
        at: TimePoint,
        /// Subscriber-id bitmap.
        bits: Vec<u8>,
    },
}

const TAG_ARRIVAL: u8 = 1;
// tag 2 is retired: a delivery receipt is a `Delivered` set
const TAG_EXPIRE: u8 = 3;
const TAG_RECLASSIFY: u8 = 4;
// tag 5 is retired: a hub's per-group member-coverage mark (`GroupMark`);
// a relay group's delivery is a `Delivered` set naming the group's id
const TAG_SUBSCRIBER: u8 = 6;
const TAG_DELIVERED: u8 = 7;

// One record's bytes from borrowed parts, appended to `w`: neither the
// store's write path nor a snapshot builds an owned [`Record`] — or a
// buffer per record — to get them.

pub(crate) fn encode_arrival(w: &mut ByteWriter, f: &FileRecord) {
    w.put_u8(TAG_ARRIVAL);
    w.put_varint(f.id.raw());
    w.put_str(&f.name);
    w.put_str(&f.staged_path);
    w.put_varint(f.size);
    w.put_u64(f.arrival.as_micros());
    match f.feed_time {
        Some(t) => {
            w.put_u8(1);
            w.put_u64(t.as_micros());
        }
        None => w.put_u8(0),
    }
    w.put_varint(f.feeds.len() as u64);
    for feed in &f.feeds {
        w.put_str(feed);
    }
}

pub(crate) fn encode_subscriber(w: &mut ByteWriter, id: u32, name: &str) {
    w.put_u8(TAG_SUBSCRIBER);
    w.put_varint(u64::from(id));
    w.put_str(name);
}

/// The time is a varint: a snapshot's sets carry the epoch in one byte,
/// and a real timestamp takes no more than the eight of a `u64` until
/// the year 4253.
pub(crate) fn encode_delivered(w: &mut ByteWriter, file: FileId, at: TimePoint, bits: &[u8]) {
    w.put_u8(TAG_DELIVERED);
    w.put_varint(file.raw());
    w.put_varint(at.as_micros());
    w.put_bytes(bits);
}

impl Record {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Record::Arrival(f) => encode_arrival(&mut w, f),
            Record::Expire { file, at } => {
                w.put_u8(TAG_EXPIRE);
                w.put_varint(file.raw());
                w.put_u64(at.as_micros());
            }
            Record::Reclassify { file, feeds } => {
                w.put_u8(TAG_RECLASSIFY);
                w.put_varint(file.raw());
                w.put_varint(feeds.len() as u64);
                for feed in feeds {
                    w.put_str(feed);
                }
            }
            Record::Subscriber { id, name } => encode_subscriber(&mut w, *id, name),
            Record::Delivered { file, at, bits } => encode_delivered(&mut w, *file, *at, bits),
        }
        w.into_bytes()
    }

    /// Decode from bytes.
    pub fn decode(data: &[u8]) -> Result<Record, CodecError> {
        let mut r = ByteReader::new(data);
        let tag = r.get_u8()?;
        let rec = match tag {
            TAG_ARRIVAL => {
                let id = FileId(r.get_varint()?);
                let name = r.get_str()?.to_string();
                let staged_path = r.get_str()?.to_string();
                let size = r.get_varint()?;
                let arrival = TimePoint::from_micros(r.get_u64()?);
                let feed_time = match r.get_u8()? {
                    0 => None,
                    _ => Some(TimePoint::from_micros(r.get_u64()?)),
                };
                let n = r.get_varint()? as usize;
                let mut feeds = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    feeds.push(r.get_str()?.to_string());
                }
                Record::Arrival(FileRecord {
                    id,
                    name,
                    staged_path,
                    size,
                    arrival,
                    feed_time,
                    feeds,
                })
            }
            TAG_EXPIRE => Record::Expire {
                file: FileId(r.get_varint()?),
                at: TimePoint::from_micros(r.get_u64()?),
            },
            TAG_RECLASSIFY => {
                let file = FileId(r.get_varint()?);
                let n = r.get_varint()? as usize;
                let mut feeds = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    feeds.push(r.get_str()?.to_string());
                }
                Record::Reclassify { file, feeds }
            }
            TAG_SUBSCRIBER => {
                let id = r.get_varint()?;
                Record::Subscriber {
                    id: u32::try_from(id).map_err(|_| CodecError::BadLength { len: id })?,
                    name: r.get_str()?.to_string(),
                }
            }
            TAG_DELIVERED => Record::Delivered {
                file: FileId(r.get_varint()?),
                at: TimePoint::from_micros(r.get_varint()?),
                bits: r.get_bytes()?.to_vec(),
            },
            other => {
                return Err(CodecError::BadTag {
                    what: "receipt record",
                    tag: other,
                })
            }
        };
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> FileRecord {
        FileRecord {
            id: FileId(42),
            name: "MEMORY_poller1_20100925.gz".to_string(),
            staged_path: "staging/SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz".to_string(),
            size: 123_456,
            arrival: TimePoint::from_secs(1_285_372_800),
            feed_time: Some(TimePoint::from_secs(1_285_372_800)),
            feeds: vec!["SNMP/MEMORY".to_string(), "ALL".to_string()],
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        let records = vec![
            Record::Arrival(sample_file()),
            Record::Arrival(FileRecord {
                feed_time: None,
                feeds: vec![],
                ..sample_file()
            }),
            Record::Expire {
                file: FileId(42),
                at: TimePoint::from_secs(1_285_977_600),
            },
            Record::Reclassify {
                file: FileId(42),
                feeds: vec!["SNMP/MEMORY".to_string()],
            },
            Record::Subscriber {
                id: 0,
                name: "warehouse_dallas".to_string(),
            },
            Record::Subscriber {
                id: u32::MAX,
                name: String::new(),
            },
            Record::Delivered {
                file: FileId(42),
                at: TimePoint::from_secs(1_285_372_860),
                bits: vec![0xFF, 0b0000_0101],
            },
            Record::Delivered {
                file: FileId(u64::MAX),
                at: TimePoint::EPOCH,
                bits: vec![],
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), rec, "roundtrip {rec:?}");
        }
    }

    /// The on-disk layout of one record of each live tag, as hex. A WAL
    /// segment and `snapshot.bin` are these bytes in CRC frames, so any
    /// change here is a format change that old stores cannot replay.
    #[test]
    fn golden_record_bytes_of_every_live_tag() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let golden = [
            (
                Record::Arrival(sample_file()),
                concat!(
                    "012a1a4d454d4f52595f706f6c6c6572315f32303130303932352e677a397374",
                    "6167696e672f534e4d502f4d454d4f52592f323031302f30392f32352f4d454d",
                    "4f52595f706f6c6c6572315f32303130303932352e677ac0c40700e0252d0a91",
                    "04000100e0252d0a910400020b534e4d502f4d454d4f525903414c4c",
                ),
            ),
            (
                Record::Arrival(FileRecord {
                    feed_time: None,
                    feeds: vec!["ALL".to_string()],
                    ..sample_file()
                }),
                concat!(
                    "012a1a4d454d4f52595f706f6c6c6572315f32303130303932352e677a397374",
                    "6167696e672f534e4d502f4d454d4f52592f323031302f30392f32352f4d454d",
                    "4f52595f706f6c6c6572315f32303130303932352e677ac0c40700e0252d0a91",
                    "0400000103414c4c",
                ),
            ),
            (
                Record::Expire {
                    file: FileId(42),
                    at: TimePoint::from_secs(1_285_977_600),
                },
                "032a008009fe96910400",
            ),
            (
                Record::Reclassify {
                    file: FileId(300),
                    feeds: vec!["SNMP/MEMORY".to_string(), "ALL".to_string()],
                },
                "04ac02020b534e4d502f4d454d4f525903414c4c",
            ),
            (
                Record::Subscriber {
                    id: 300,
                    name: "warehouse_dallas".to_string(),
                },
                "06ac021077617265686f7573655f64616c6c6173",
            ),
            (
                Record::Delivered {
                    file: FileId(42),
                    at: TimePoint::from_secs(1_285_372_860),
                    bits: vec![0xFF, 0b0000_0101],
                },
                "072a80cee585a3a1a40202ff05",
            ),
        ];
        for (rec, want) in golden {
            let bytes = rec.encode();
            assert_eq!(hex(&bytes), want, "{rec:?}");
            assert_eq!(Record::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Record::decode(&[99]),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = Record::Arrival(sample_file()).encode();
        for cut in [1usize, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(Record::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// The two delivery-set records decode totally: every cut is an
    /// error, never a panic or a shorter record, and an id too wide for
    /// the table's `u32` is refused where it enters.
    #[test]
    fn subscriber_and_delivered_records_reject_every_cut() {
        let records = [
            Record::Subscriber {
                id: 300,
                name: "warehouse_dallas".to_string(),
            },
            Record::Delivered {
                file: FileId(1 << 40),
                at: TimePoint::from_secs(1_285_372_860),
                bits: vec![0xFF; 25],
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), rec);
            for cut in 0..bytes.len() {
                assert!(Record::decode(&bytes[..cut]).is_err(), "{rec:?} cut {cut}");
            }
        }
        let mut w = ByteWriter::new();
        w.put_u8(TAG_SUBSCRIBER);
        w.put_varint(u64::from(u32::MAX) + 1);
        w.put_str("s");
        assert!(matches!(
            Record::decode(w.as_bytes()),
            Err(CodecError::BadLength { .. })
        ));
        // a bitmap whose length prefix overruns the record
        let mut w = ByteWriter::new();
        w.put_u8(TAG_DELIVERED);
        w.put_varint(1);
        w.put_varint(0);
        w.put_varint(1 << 30);
        assert!(matches!(
            Record::decode(w.as_bytes()),
            Err(CodecError::BadLength { .. })
        ));
    }
}

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
    /// A file was delivered to a subscriber, named in full. The legacy
    /// encoding of a delivery receipt: still decoded (old WALs, v1/v2
    /// snapshots) and encodable so tests can build such logs, but never
    /// written by the store — [`Record::Delivered`] replaced it.
    Delivery {
        /// The delivered file.
        file: FileId,
        /// The receiving subscriber's name.
        subscriber: String,
        /// Delivery completion time.
        at: TimePoint,
    },
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
    /// Member-coverage mark for a shared-delivery-tree group: the relay
    /// has confirmed delivery of `file` to the members set in `bits`
    /// (bit `i`, LSB-first, = member `i` of the group's sorted member
    /// list), of which the first `watermark` form a fully-covered
    /// prefix. Re-applied marks OR-merge, so replay and cascaded
    /// backfill stay exactly-once without one receipt per member.
    GroupMark {
        /// The delivered file.
        file: FileId,
        /// Subscriber-group name.
        group: String,
        /// Member-coverage bitmap.
        bits: Vec<u8>,
        /// Count of leading fully-covered members.
        watermark: u64,
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
    /// (LSB-first, as in [`Record::GroupMark`]) = the subscriber with id
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

/// A pre-serialized arrival record, minus the two fields only the commit
/// stage knows: the [`FileId`] (allocated in commit order so ids stay
/// deterministic under parallel prepare) and the arrival timestamp.
///
/// Prepare workers build the template off the hot path — encoding the
/// name, staged path, size, feed time and feed list once — and the
/// commit stage stamps id + arrival with [`ArrivalTemplate::finish`],
/// which is guaranteed to produce bytes identical to
/// `Record::Arrival(..).encode()` on the equivalent [`FileRecord`]
/// (checked by a unit test).
#[derive(Clone, Debug)]
pub struct ArrivalTemplate {
    /// Original (landing-relative) filename.
    pub name: String,
    /// Staging path of the primary classification.
    pub staged_path: String,
    /// Deposited size in bytes.
    pub size: u64,
    /// Feed timestamp parsed from the filename, if any.
    pub feed_time: Option<TimePoint>,
    /// Feeds the file classified into.
    pub feeds: Vec<String>,
    /// Encoded bytes between the id and the arrival timestamp
    /// (name, staged_path, size).
    mid: Vec<u8>,
    /// Encoded bytes after the arrival timestamp (feed_time, feeds).
    tail: Vec<u8>,
}

impl ArrivalTemplate {
    /// Pre-serialize everything but the id and arrival time.
    pub fn new(
        name: String,
        staged_path: String,
        size: u64,
        feed_time: Option<TimePoint>,
        feeds: Vec<String>,
    ) -> ArrivalTemplate {
        let mut mid = ByteWriter::new();
        mid.put_str(&name);
        mid.put_str(&staged_path);
        mid.put_varint(size);
        let mut tail = ByteWriter::new();
        match feed_time {
            Some(t) => {
                tail.put_u8(1);
                tail.put_u64(t.as_micros());
            }
            None => tail.put_u8(0),
        }
        tail.put_varint(feeds.len() as u64);
        for feed in &feeds {
            tail.put_str(feed);
        }
        ArrivalTemplate {
            name,
            staged_path,
            size,
            feed_time,
            feeds,
            mid: mid.into_bytes(),
            tail: tail.into_bytes(),
        }
    }

    /// Stamp the commit-assigned id and arrival time, yielding the exact
    /// WAL payload bytes and the in-memory [`FileRecord`].
    pub fn finish(&self, id: FileId, arrival: TimePoint) -> (Vec<u8>, FileRecord) {
        // sized once: tag, id varint, the halves, the 8-byte arrival
        let mut w = ByteWriter::with_capacity(19 + self.mid.len() + self.tail.len());
        w.put_u8(TAG_ARRIVAL);
        w.put_varint(id.raw());
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&self.mid);
        bytes.extend_from_slice(&arrival.as_micros().to_le_bytes());
        bytes.extend_from_slice(&self.tail);
        let record = FileRecord {
            id,
            name: self.name.clone(),
            staged_path: self.staged_path.clone(),
            size: self.size,
            arrival,
            feed_time: self.feed_time,
            feeds: self.feeds.clone(),
        };
        (bytes, record)
    }
}

const TAG_ARRIVAL: u8 = 1;
const TAG_DELIVERY: u8 = 2;
const TAG_EXPIRE: u8 = 3;
const TAG_RECLASSIFY: u8 = 4;
const TAG_GROUP_MARK: u8 = 5;
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

pub(crate) fn encode_group_mark(
    w: &mut ByteWriter,
    file: FileId,
    group: &str,
    bits: &[u8],
    watermark: u64,
) {
    w.put_u8(TAG_GROUP_MARK);
    w.put_varint(file.raw());
    w.put_str(group);
    w.put_bytes(bits);
    w.put_varint(watermark);
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
            Record::Delivery {
                file,
                subscriber,
                at,
            } => {
                w.put_u8(TAG_DELIVERY);
                w.put_varint(file.raw());
                w.put_str(subscriber);
                w.put_u64(at.as_micros());
            }
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
            Record::GroupMark {
                file,
                group,
                bits,
                watermark,
            } => encode_group_mark(&mut w, *file, group, bits, *watermark),
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
            TAG_DELIVERY => Record::Delivery {
                file: FileId(r.get_varint()?),
                subscriber: r.get_str()?.to_string(),
                at: TimePoint::from_micros(r.get_u64()?),
            },
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
            TAG_GROUP_MARK => Record::GroupMark {
                file: FileId(r.get_varint()?),
                group: r.get_str()?.to_string(),
                bits: r.get_bytes()?.to_vec(),
                watermark: r.get_varint()?,
            },
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
            Record::Delivery {
                file: FileId(42),
                subscriber: "warehouse_dallas".to_string(),
                at: TimePoint::from_secs(1_285_372_860),
            },
            Record::Expire {
                file: FileId(42),
                at: TimePoint::from_secs(1_285_977_600),
            },
            Record::Reclassify {
                file: FileId(42),
                feeds: vec!["SNMP/MEMORY".to_string()],
            },
            Record::GroupMark {
                file: FileId(42),
                group: "EAST_COAST".to_string(),
                bits: vec![0xFF, 0b0000_0101],
                watermark: 8,
            },
            Record::GroupMark {
                file: FileId(7),
                group: "G".to_string(),
                bits: vec![],
                watermark: 0,
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

    #[test]
    fn template_finish_matches_full_encode_byte_for_byte() {
        for f in [
            sample_file(),
            FileRecord {
                feed_time: None,
                feeds: vec![],
                ..sample_file()
            },
            FileRecord {
                id: FileId(u64::MAX),
                size: 0,
                name: String::new(),
                ..sample_file()
            },
        ] {
            let template = ArrivalTemplate::new(
                f.name.clone(),
                f.staged_path.clone(),
                f.size,
                f.feed_time,
                f.feeds.clone(),
            );
            let (bytes, record) = template.finish(f.id, f.arrival);
            assert_eq!(bytes, Record::Arrival(f.clone()).encode());
            assert_eq!(record, f);
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
        let bytes = Record::GroupMark {
            file: FileId(42),
            group: "G".to_string(),
            bits: vec![0xFF, 0x01],
            watermark: 8,
        }
        .encode();
        for cut in 1..bytes.len() {
            assert!(
                Record::decode(&bytes[..cut]).is_err(),
                "group mark cut at {cut}"
            );
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

    /// What the store's hot records cost on disk: a set of one is never
    /// larger than the named record it replaced, and a set of 200 is one
    /// record of 38 bytes where there were 200 of 17.
    #[test]
    fn a_delivery_set_is_no_larger_than_the_named_record() {
        let at = TimePoint::from_secs(1_285_372_860);
        let named = |sub: &str| {
            Record::Delivery {
                file: FileId(70_000),
                subscriber: sub.to_string(),
                at,
            }
            .encode()
            .len()
        };
        let set = |bits: Vec<u8>| {
            Record::Delivered {
                file: FileId(70_000),
                at,
                bits,
            }
            .encode()
            .len()
        };
        assert!(set(vec![0b1]) <= named("s"));
        assert!(set(vec![0, 0b10]) <= named("s09"));
        assert_eq!((set(vec![0xFF; 25]), named("s000")), (38, 17));
    }
}

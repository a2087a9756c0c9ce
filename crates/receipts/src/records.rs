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
    /// A file was delivered to a subscriber.
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
        let mut w = ByteWriter::new();
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

/// The bytes of `Record::Delivery { file, subscriber, at }` from borrowed
/// parts, appended to `w`: the one record written per subscriber per
/// file, so neither the store's hot path nor a snapshot builds an owned
/// [`Record`] — or a buffer of its own — to get them.
pub(crate) fn encode_delivery(w: &mut ByteWriter, file: FileId, subscriber: &str, at: TimePoint) {
    w.put_u8(TAG_DELIVERY);
    w.put_varint(file.raw());
    w.put_str(subscriber);
    w.put_u64(at.as_micros());
}

/// A record as replay reads it: a `Delivery` — nearly every record of a
/// long log — keeps its subscriber name borrowed from the log bytes, to
/// be interned by the table it lands in rather than allocated per record.
pub(crate) enum Replayed<'a> {
    /// `Record::Delivery` minus the time, which no table keeps.
    Delivery {
        /// The delivered file.
        file: FileId,
        /// The receiving subscriber's name.
        subscriber: &'a str,
    },
    /// Any other record, owned.
    Other(Record),
}

impl<'a> Replayed<'a> {
    pub(crate) fn decode(data: &'a [u8]) -> Result<Replayed<'a>, CodecError> {
        if data.first() != Some(&TAG_DELIVERY) {
            return Record::decode(data).map(Replayed::Other);
        }
        let (file, subscriber, _) = decode_delivery(&mut ByteReader::new(&data[1..]))?;
        Ok(Replayed::Delivery { file, subscriber })
    }
}

/// The fields of a delivery record, after its tag.
fn decode_delivery<'a>(r: &mut ByteReader<'a>) -> Result<(FileId, &'a str, TimePoint), CodecError> {
    Ok((
        FileId(r.get_varint()?),
        r.get_str()?,
        TimePoint::from_micros(r.get_u64()?),
    ))
}

impl Record {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Record::Arrival(f) => {
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
            Record::Delivery {
                file,
                subscriber,
                at,
            } => encode_delivery(&mut w, *file, subscriber, *at),
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
            } => {
                w.put_u8(TAG_GROUP_MARK);
                w.put_varint(file.raw());
                w.put_str(group);
                w.put_bytes(bits);
                w.put_varint(*watermark);
            }
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
            TAG_DELIVERY => {
                let (file, subscriber, at) = decode_delivery(&mut r)?;
                Record::Delivery {
                    file,
                    subscriber: subscriber.to_string(),
                    at,
                }
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
            TAG_GROUP_MARK => Record::GroupMark {
                file: FileId(r.get_varint()?),
                group: r.get_str()?.to_string(),
                bits: r.get_bytes()?.to_vec(),
                watermark: r.get_varint()?,
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
}

//! Protocol messages.
//!
//! Encoded with the `bistro-base` codec so the simulated network carries
//! realistic byte sizes; a Bistro relay (a server subscribing to another
//! server) exchanges exactly these messages.

use bistro_base::{varint_len, BatchId, ByteReader, ByteWriter, CodecError, FileId, TimePoint};

/// Messages a data source (or its lightweight client library) sends to a
/// Bistro server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceMsg {
    /// "I have deposited a file in your landing directory."
    Deposited {
        /// Path within the landing directory.
        path: String,
        /// Payload size in bytes.
        size: u64,
    },
    /// End-of-batch punctuation: every file of this source for the given
    /// interval has been deposited (§4.1: "data source specific
    /// end-of-batch markers perform a function very similar to stream
    /// punctuations").
    EndOfBatch {
        /// The source's name.
        source: String,
        /// Start of the covered interval.
        interval_start: TimePoint,
        /// End of the covered interval.
        interval_end: TimePoint,
    },
}

/// Messages a Bistro server sends to a subscriber.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubscriberMsg {
    /// Push delivery: the file body follows (body travels out of band in
    /// the simulation; `size` accounts for its cost).
    FileDelivered {
        /// The file's receipt id.
        file: FileId,
        /// The feed it belongs to.
        feed: String,
        /// Destination path at the subscriber.
        dest_path: String,
        /// Payload size.
        size: u64,
    },
    /// Hybrid push-pull: the file is available for retrieval.
    FileAvailable {
        /// The file's receipt id.
        file: FileId,
        /// The feed it belongs to.
        feed: String,
        /// Path on the server the subscriber may fetch.
        staged_path: String,
        /// Payload size.
        size: u64,
    },
    /// A batch closed: fire the subscriber's trigger.
    BatchComplete {
        /// Batch identity.
        batch: BatchId,
        /// The feed the batch belongs to.
        feed: String,
        /// Files in the batch.
        files: Vec<FileId>,
        /// Why the batch closed.
        reason: BatchCloseReason,
    },
}

/// Why a batch boundary was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchCloseReason {
    /// The configured file count was reached.
    Count,
    /// The configured time window elapsed.
    Window,
    /// The source sent end-of-batch punctuation.
    Punctuation,
}

/// The acknowledgement/retry envelope for reliable delivery (§4.2).
///
/// A server that delivers reliably wraps each subscriber message in an
/// [`ReliableMsg::Attempt`] carrying an attempt number; the subscriber
/// answers every attempt with an [`ReliableMsg::Ack`] echoing the
/// `(file, attempt)` pair, and dedupes redeliveries on its side. The
/// server writes the `delivery_receipt` only when the ack arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReliableMsg {
    /// Server → subscriber: delivery attempt `attempt` of `inner`.
    Attempt {
        /// 1-based attempt number (bumped on every retransmission).
        attempt: u32,
        /// The wrapped delivery or notification.
        inner: SubscriberMsg,
    },
    /// Subscriber → server: `file` received; echoes the attempt id so
    /// the server can match it against its unacked-send table.
    Ack {
        /// The acknowledged file.
        file: FileId,
        /// The attempt number being acknowledged.
        attempt: u32,
    },
}

/// Cluster control-plane and server↔server data-channel messages.
///
/// The directory protocol (`DirLookup`/`DirHome`/`DirAssign`) maps feed
/// groups to home servers and fences every assignment with an epoch so a
/// stale home can be told apart from the current one after a failover.
/// `Replicate` is the server-to-server channel a failover-policy feed's
/// deposits travel on; `BackfillPage` streams the failed home's delivery
/// receipts (positioned by a receipt-WAL sequence cursor) to the new
/// home so re-homed subscribers are backfilled exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterMsg {
    /// Server → directory: liveness beacon.
    Heartbeat {
        /// The sending server's name.
        server: String,
        /// The directory epoch the sender last observed.
        epoch: u64,
    },
    /// Any node → directory: who homes this feed group?
    DirLookup {
        /// Feed-group name (top-level feed-name prefix).
        group: String,
    },
    /// Directory → asker: current home for the group.
    DirHome {
        /// Feed-group name.
        group: String,
        /// Home server name (empty = unassigned).
        home: String,
        /// Assignment epoch.
        epoch: u64,
    },
    /// Directory → members: the group was (re-)assigned — a failover
    /// bumps the epoch, and members discard assignments with a stale one.
    DirAssign {
        /// Feed-group name.
        group: String,
        /// New home server name.
        home: String,
        /// Assignment epoch.
        epoch: u64,
    },
    /// Home → standby: replicate one deposited file (the server-to-server
    /// data channel backing the `failover` policy).
    Replicate {
        /// Feed-group the file classified into.
        group: String,
        /// Deposited filename (landing-relative).
        name: String,
        /// File body.
        payload: Vec<u8>,
        /// The group's directory epoch at the sending home. A receiver
        /// whose view of the group has a *higher* epoch rejects the
        /// replica: it was sent by a deposed home, and applying it after
        /// backfill marking would re-deliver the file (the in-flight
        /// replicate vs. backfill race found by `bistro-mc`).
        epoch: u64,
    },
    /// New home → directory: request the failed home's delivery receipts
    /// for one subscriber, starting at a receipt-WAL sequence cursor.
    BackfillRequest {
        /// Feed-group being re-homed.
        group: String,
        /// Subscriber whose delivered-set is wanted.
        subscriber: String,
        /// Resume cursor: receipt-WAL sequence to start from.
        from_seq: u64,
    },
    /// Directory → new home: one page of the failed home's delivery
    /// receipts (file *names* — receipt ids are store-local).
    BackfillPage {
        /// Feed-group being re-homed.
        group: String,
        /// Subscriber the page belongs to.
        subscriber: String,
        /// Delivered file names in this page.
        delivered: Vec<String>,
        /// Cursor for the next page.
        next_seq: u64,
        /// True on the final page: re-homing may complete.
        done: bool,
    },
}

/// Shared-delivery-tree messages: one delivery per subscriber *group* to
/// its relay node, acknowledged with a compact member-coverage bitmap.
///
/// With a million subscribers partitioned into groups, the feed's home
/// server sends one [`GroupMsg::Deliver`] per group instead of one
/// attempt per member; the relay fans out locally and answers with a
/// [`GroupMsg::Ack`] describing *which members* it has covered so far
/// (bitmap over the group's sorted member list, plus a high-watermark
/// counting the fully-delivered prefix). Partial coverage keeps the
/// delivery outstanding upstream; retries double as coverage refreshes
/// and the relay backfills stragglers from its own store (cascaded
/// backfill).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupMsg {
    /// Home server → relay: deliver `file` once on behalf of the whole
    /// group. The body travels out of band (the relay pulls it from the
    /// upstream staging store); `size` accounts for its wire cost.
    Deliver {
        /// Subscriber-group name.
        group: String,
        /// The file's receipt id *at the sender* (store-local).
        file: FileId,
        /// The file's landing name — stable across stores.
        file_name: String,
        /// Payload size in bytes.
        size: u64,
        /// 1-based attempt number (bumped on every retransmission).
        attempt: u32,
    },
    /// Relay → home server: member-coverage report for `(group, file)`.
    /// Bit `i` of `bits` (LSB-first within each byte) is set when member
    /// `i` of the group's sorted member list has the file; `watermark`
    /// counts the fully-covered member prefix. A complete bitmap
    /// finishes the delivery upstream; a partial one leaves it
    /// outstanding for retry-driven cascaded backfill.
    Ack {
        /// Subscriber-group name.
        group: String,
        /// The acknowledged file (sender-local id, echoed back).
        file: FileId,
        /// Member-coverage bitmap over the sorted member list.
        bits: Vec<u8>,
        /// Count of leading members known fully delivered.
        watermark: u64,
    },
}

/// Any protocol message (what travels on a [`crate::net::SimNetwork`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Source → server.
    Source(SourceMsg),
    /// Server → subscriber.
    Subscriber(SubscriberMsg),
    /// The reliable-delivery envelope (either direction).
    Reliable(ReliableMsg),
    /// Cluster control plane / server↔server channel.
    Cluster(ClusterMsg),
    /// Shared delivery trees: group fan-out via relay nodes.
    Group(GroupMsg),
}

impl BatchCloseReason {
    fn tag(self) -> u8 {
        match self {
            BatchCloseReason::Count => 0,
            BatchCloseReason::Window => 1,
            BatchCloseReason::Punctuation => 2,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(BatchCloseReason::Count),
            1 => Some(BatchCloseReason::Window),
            2 => Some(BatchCloseReason::Punctuation),
            _ => None,
        }
    }
}

const TAG_DEPOSITED: u8 = 1;
const TAG_EOB: u8 = 2;
const TAG_DELIVERED: u8 = 3;
const TAG_AVAILABLE: u8 = 4;
const TAG_BATCH: u8 = 5;
const TAG_ATTEMPT: u8 = 6;
const TAG_ACK: u8 = 7;
const TAG_HEARTBEAT: u8 = 8;
const TAG_DIR_LOOKUP: u8 = 9;
const TAG_DIR_HOME: u8 = 10;
const TAG_DIR_ASSIGN: u8 = 11;
const TAG_REPLICATE: u8 = 12;
const TAG_BACKFILL_REQ: u8 = 13;
const TAG_BACKFILL_PAGE: u8 = 14;
const TAG_GROUP_DELIVER: u8 = 15;
const TAG_GROUP_ACK: u8 = 16;

/// Encoded size of a length-prefixed field of `len` bytes
/// ([`ByteWriter::put_bytes`] / [`ByteWriter::put_str`]).
fn prefixed(len: usize) -> usize {
    varint_len(len as u64) + len
}

impl SubscriberMsg {
    fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            SubscriberMsg::FileDelivered {
                file,
                feed,
                dest_path,
                size,
            } => {
                w.put_u8(TAG_DELIVERED);
                w.put_varint(file.raw());
                w.put_str(feed);
                w.put_str(dest_path);
                w.put_varint(*size);
            }
            SubscriberMsg::FileAvailable {
                file,
                feed,
                staged_path,
                size,
            } => {
                w.put_u8(TAG_AVAILABLE);
                w.put_varint(file.raw());
                w.put_str(feed);
                w.put_str(staged_path);
                w.put_varint(*size);
            }
            SubscriberMsg::BatchComplete {
                batch,
                feed,
                files,
                reason,
            } => {
                w.put_u8(TAG_BATCH);
                w.put_varint(batch.raw());
                w.put_str(feed);
                w.put_u8(reason.tag());
                w.put_varint(files.len() as u64);
                for f in files {
                    w.put_varint(f.raw());
                }
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            SubscriberMsg::FileDelivered {
                file,
                feed,
                dest_path: path,
                size,
            }
            | SubscriberMsg::FileAvailable {
                file,
                feed,
                staged_path: path,
                size,
            } => {
                1 + varint_len(file.raw())
                    + prefixed(feed.len())
                    + prefixed(path.len())
                    + varint_len(*size)
            }
            SubscriberMsg::BatchComplete {
                batch, feed, files, ..
            } => {
                1 + varint_len(batch.raw())
                    + prefixed(feed.len())
                    + 1
                    + varint_len(files.len() as u64)
                    + files.iter().map(|f| varint_len(f.raw())).sum::<usize>()
            }
        }
    }
}

impl Message {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        match self {
            Message::Source(SourceMsg::Deposited { path, size }) => {
                w.put_u8(TAG_DEPOSITED);
                w.put_str(path);
                w.put_varint(*size);
            }
            Message::Source(SourceMsg::EndOfBatch {
                source,
                interval_start,
                interval_end,
            }) => {
                w.put_u8(TAG_EOB);
                w.put_str(source);
                w.put_u64(interval_start.as_micros());
                w.put_u64(interval_end.as_micros());
            }
            Message::Subscriber(inner) => inner.encode_into(&mut w),
            Message::Reliable(ReliableMsg::Attempt { attempt, inner }) => {
                w.put_u8(TAG_ATTEMPT);
                w.put_varint(*attempt as u64);
                w.put_varint(inner.encoded_len() as u64);
                inner.encode_into(&mut w);
            }
            Message::Reliable(ReliableMsg::Ack { file, attempt }) => {
                w.put_u8(TAG_ACK);
                w.put_varint(file.raw());
                w.put_varint(*attempt as u64);
            }
            Message::Cluster(ClusterMsg::Heartbeat { server, epoch }) => {
                w.put_u8(TAG_HEARTBEAT);
                w.put_str(server);
                w.put_varint(*epoch);
            }
            Message::Cluster(ClusterMsg::DirLookup { group }) => {
                w.put_u8(TAG_DIR_LOOKUP);
                w.put_str(group);
            }
            Message::Cluster(ClusterMsg::DirHome { group, home, epoch }) => {
                w.put_u8(TAG_DIR_HOME);
                w.put_str(group);
                w.put_str(home);
                w.put_varint(*epoch);
            }
            Message::Cluster(ClusterMsg::DirAssign { group, home, epoch }) => {
                w.put_u8(TAG_DIR_ASSIGN);
                w.put_str(group);
                w.put_str(home);
                w.put_varint(*epoch);
            }
            Message::Cluster(ClusterMsg::Replicate {
                group,
                name,
                payload,
                epoch,
            }) => {
                w.put_u8(TAG_REPLICATE);
                w.put_str(group);
                w.put_str(name);
                w.put_bytes(payload);
                w.put_varint(*epoch);
            }
            Message::Cluster(ClusterMsg::BackfillRequest {
                group,
                subscriber,
                from_seq,
            }) => {
                w.put_u8(TAG_BACKFILL_REQ);
                w.put_str(group);
                w.put_str(subscriber);
                w.put_varint(*from_seq);
            }
            Message::Cluster(ClusterMsg::BackfillPage {
                group,
                subscriber,
                delivered,
                next_seq,
                done,
            }) => {
                w.put_u8(TAG_BACKFILL_PAGE);
                w.put_str(group);
                w.put_str(subscriber);
                w.put_varint(delivered.len() as u64);
                for name in delivered {
                    w.put_str(name);
                }
                w.put_varint(*next_seq);
                w.put_u8(u8::from(*done));
            }
            Message::Group(GroupMsg::Deliver {
                group,
                file,
                file_name,
                size,
                attempt,
            }) => {
                w.put_u8(TAG_GROUP_DELIVER);
                w.put_str(group);
                w.put_varint(file.raw());
                w.put_str(file_name);
                w.put_varint(*size);
                w.put_varint(*attempt as u64);
            }
            Message::Group(GroupMsg::Ack {
                group,
                file,
                bits,
                watermark,
            }) => {
                w.put_u8(TAG_GROUP_ACK);
                w.put_str(group);
                w.put_varint(file.raw());
                w.put_bytes(bits);
                w.put_varint(*watermark);
            }
        }
        w.into_bytes()
    }

    /// Decode from wire bytes.
    pub fn decode(data: &[u8]) -> Result<Message, CodecError> {
        let mut r = ByteReader::new(data);
        let tag = r.get_u8()?;
        let msg = match tag {
            TAG_DEPOSITED => Message::Source(SourceMsg::Deposited {
                path: r.get_str()?.to_string(),
                size: r.get_varint()?,
            }),
            TAG_EOB => Message::Source(SourceMsg::EndOfBatch {
                source: r.get_str()?.to_string(),
                interval_start: TimePoint::from_micros(r.get_u64()?),
                interval_end: TimePoint::from_micros(r.get_u64()?),
            }),
            TAG_DELIVERED => Message::Subscriber(SubscriberMsg::FileDelivered {
                file: FileId(r.get_varint()?),
                feed: r.get_str()?.to_string(),
                dest_path: r.get_str()?.to_string(),
                size: r.get_varint()?,
            }),
            TAG_AVAILABLE => Message::Subscriber(SubscriberMsg::FileAvailable {
                file: FileId(r.get_varint()?),
                feed: r.get_str()?.to_string(),
                staged_path: r.get_str()?.to_string(),
                size: r.get_varint()?,
            }),
            TAG_BATCH => {
                let batch = BatchId(r.get_varint()?);
                let feed = r.get_str()?.to_string();
                let reason_tag = r.get_u8()?;
                let reason = BatchCloseReason::from_tag(reason_tag).ok_or(CodecError::BadTag {
                    what: "batch close reason",
                    tag: reason_tag,
                })?;
                let n = r.get_varint()?;
                // each element costs ≥ 1 byte, so a count beyond the
                // remaining input is a lie — reject before allocating
                if n > r.remaining() as u64 {
                    return Err(CodecError::BadLength { len: n });
                }
                let mut files = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    files.push(FileId(r.get_varint()?));
                }
                Message::Subscriber(SubscriberMsg::BatchComplete {
                    batch,
                    feed,
                    files,
                    reason,
                })
            }
            TAG_ATTEMPT => {
                let attempt = r.get_varint()? as u32;
                let inner_bytes = r.get_bytes()?;
                match Message::decode(inner_bytes)? {
                    Message::Subscriber(inner) => {
                        Message::Reliable(ReliableMsg::Attempt { attempt, inner })
                    }
                    _ => {
                        return Err(CodecError::BadTag {
                            what: "reliable attempt inner message",
                            tag,
                        })
                    }
                }
            }
            TAG_ACK => Message::Reliable(ReliableMsg::Ack {
                file: FileId(r.get_varint()?),
                attempt: r.get_varint()? as u32,
            }),
            TAG_HEARTBEAT => Message::Cluster(ClusterMsg::Heartbeat {
                server: r.get_str()?.to_string(),
                epoch: r.get_varint()?,
            }),
            TAG_DIR_LOOKUP => Message::Cluster(ClusterMsg::DirLookup {
                group: r.get_str()?.to_string(),
            }),
            TAG_DIR_HOME => Message::Cluster(ClusterMsg::DirHome {
                group: r.get_str()?.to_string(),
                home: r.get_str()?.to_string(),
                epoch: r.get_varint()?,
            }),
            TAG_DIR_ASSIGN => Message::Cluster(ClusterMsg::DirAssign {
                group: r.get_str()?.to_string(),
                home: r.get_str()?.to_string(),
                epoch: r.get_varint()?,
            }),
            TAG_REPLICATE => Message::Cluster(ClusterMsg::Replicate {
                group: r.get_str()?.to_string(),
                name: r.get_str()?.to_string(),
                payload: r.get_bytes()?.to_vec(),
                epoch: r.get_varint()?,
            }),
            TAG_BACKFILL_REQ => Message::Cluster(ClusterMsg::BackfillRequest {
                group: r.get_str()?.to_string(),
                subscriber: r.get_str()?.to_string(),
                from_seq: r.get_varint()?,
            }),
            TAG_BACKFILL_PAGE => {
                let group = r.get_str()?.to_string();
                let subscriber = r.get_str()?.to_string();
                let n = r.get_varint()?;
                if n > r.remaining() as u64 {
                    return Err(CodecError::BadLength { len: n });
                }
                let mut delivered = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    delivered.push(r.get_str()?.to_string());
                }
                Message::Cluster(ClusterMsg::BackfillPage {
                    group,
                    subscriber,
                    delivered,
                    next_seq: r.get_varint()?,
                    done: r.get_u8()? != 0,
                })
            }
            TAG_GROUP_DELIVER => Message::Group(GroupMsg::Deliver {
                group: r.get_str()?.to_string(),
                file: FileId(r.get_varint()?),
                file_name: r.get_str()?.to_string(),
                size: r.get_varint()?,
                attempt: r.get_varint()? as u32,
            }),
            TAG_GROUP_ACK => Message::Group(GroupMsg::Ack {
                group: r.get_str()?.to_string(),
                file: FileId(r.get_varint()?),
                bits: r.get_bytes()?.to_vec(),
                watermark: r.get_varint()?,
            }),
            other => {
                return Err(CodecError::BadTag {
                    what: "transport message",
                    tag: other,
                })
            }
        };
        // a frame must be exactly one message: leftover bytes mean a
        // corrupt length field upstream, not harmless padding
        if !r.is_exhausted() {
            return Err(CodecError::TrailingBytes { n: r.remaining() });
        }
        Ok(msg)
    }

    /// `self.encode().len()`, computed from the field lengths: the
    /// fabric sizes every message it carries, and encoding one to count
    /// its bytes was an allocation and a copy per send.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::Source(SourceMsg::Deposited { path, size }) => {
                1 + prefixed(path.len()) + varint_len(*size)
            }
            Message::Source(SourceMsg::EndOfBatch { source, .. }) => {
                1 + prefixed(source.len()) + 8 + 8
            }
            Message::Subscriber(inner) => inner.encoded_len(),
            Message::Reliable(ReliableMsg::Attempt { attempt, inner }) => {
                1 + varint_len(*attempt as u64) + prefixed(inner.encoded_len())
            }
            Message::Reliable(ReliableMsg::Ack { file, attempt }) => {
                1 + varint_len(file.raw()) + varint_len(*attempt as u64)
            }
            Message::Cluster(ClusterMsg::Heartbeat { server, epoch }) => {
                1 + prefixed(server.len()) + varint_len(*epoch)
            }
            Message::Cluster(ClusterMsg::DirLookup { group }) => 1 + prefixed(group.len()),
            Message::Cluster(
                ClusterMsg::DirHome { group, home, epoch }
                | ClusterMsg::DirAssign { group, home, epoch },
            ) => 1 + prefixed(group.len()) + prefixed(home.len()) + varint_len(*epoch),
            Message::Cluster(ClusterMsg::Replicate {
                group,
                name,
                payload,
                epoch,
            }) => {
                1 + prefixed(group.len())
                    + prefixed(name.len())
                    + prefixed(payload.len())
                    + varint_len(*epoch)
            }
            Message::Cluster(ClusterMsg::BackfillRequest {
                group,
                subscriber,
                from_seq,
            }) => 1 + prefixed(group.len()) + prefixed(subscriber.len()) + varint_len(*from_seq),
            Message::Cluster(ClusterMsg::BackfillPage {
                group,
                subscriber,
                delivered,
                next_seq,
                ..
            }) => {
                1 + prefixed(group.len())
                    + prefixed(subscriber.len())
                    + varint_len(delivered.len() as u64)
                    + delivered.iter().map(|n| prefixed(n.len())).sum::<usize>()
                    + varint_len(*next_seq)
                    + 1
            }
            Message::Group(GroupMsg::Deliver {
                group,
                file,
                file_name,
                size,
                attempt,
            }) => {
                1 + prefixed(group.len())
                    + varint_len(file.raw())
                    + prefixed(file_name.len())
                    + varint_len(*size)
                    + varint_len(*attempt as u64)
            }
            Message::Group(GroupMsg::Ack {
                group,
                file,
                bits,
                watermark,
            }) => {
                1 + prefixed(group.len())
                    + varint_len(file.raw())
                    + prefixed(bits.len())
                    + varint_len(*watermark)
            }
        }
    }

    /// The size used for network-cost accounting: header bytes plus any
    /// out-of-band payload (for [`SubscriberMsg::FileDelivered`], the
    /// file body itself).
    pub fn wire_size(&self) -> u64 {
        let header = self.encoded_len() as u64;
        match self {
            Message::Subscriber(SubscriberMsg::FileDelivered { size, .. })
            | Message::Reliable(ReliableMsg::Attempt {
                inner: SubscriberMsg::FileDelivered { size, .. },
                ..
            })
            | Message::Group(GroupMsg::Deliver { size, .. }) => header + size,
            _ => header,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            Message::Source(SourceMsg::Deposited {
                path: "poller1/MEMORY_poller1_20100925.gz".to_string(),
                size: 123_456,
            }),
            Message::Source(SourceMsg::EndOfBatch {
                source: "poller1".to_string(),
                interval_start: TimePoint::from_secs(1000),
                interval_end: TimePoint::from_secs(1300),
            }),
            Message::Subscriber(SubscriberMsg::FileDelivered {
                file: FileId(7),
                feed: "SNMP/MEMORY".to_string(),
                dest_path: "incoming/SNMP/MEMORY/x.gz".to_string(),
                size: 10,
            }),
            Message::Subscriber(SubscriberMsg::FileAvailable {
                file: FileId(8),
                feed: "SNMP/CPU".to_string(),
                staged_path: "staging/SNMP/CPU/y.txt".to_string(),
                size: 20,
            }),
            Message::Subscriber(SubscriberMsg::BatchComplete {
                batch: BatchId(3),
                feed: "SNMP/MEMORY".to_string(),
                files: vec![FileId(1), FileId(2), FileId(3)],
                reason: BatchCloseReason::Count,
            }),
            Message::Reliable(ReliableMsg::Attempt {
                attempt: 3,
                inner: SubscriberMsg::FileDelivered {
                    file: FileId(9),
                    feed: "SNMP/MEMORY".to_string(),
                    dest_path: "incoming/x.gz".to_string(),
                    size: 42,
                },
            }),
            Message::Reliable(ReliableMsg::Ack {
                file: FileId(9),
                attempt: 3,
            }),
            Message::Cluster(ClusterMsg::Heartbeat {
                server: "bistro-east".to_string(),
                epoch: 4,
            }),
            Message::Cluster(ClusterMsg::DirLookup {
                group: "SNMP".to_string(),
            }),
            Message::Cluster(ClusterMsg::DirHome {
                group: "SNMP".to_string(),
                home: "bistro-east".to_string(),
                epoch: 4,
            }),
            Message::Cluster(ClusterMsg::DirAssign {
                group: "SNMP".to_string(),
                home: "bistro-west".to_string(),
                epoch: 5,
            }),
            Message::Cluster(ClusterMsg::Replicate {
                group: "SNMP".to_string(),
                name: "MEMORY_poller1_201009250000.csv".to_string(),
                payload: b"body bytes".to_vec(),
                epoch: 6,
            }),
            Message::Cluster(ClusterMsg::BackfillRequest {
                group: "SNMP".to_string(),
                subscriber: "warehouse".to_string(),
                from_seq: 17,
            }),
            Message::Cluster(ClusterMsg::BackfillPage {
                group: "SNMP".to_string(),
                subscriber: "warehouse".to_string(),
                delivered: vec!["a.csv".to_string(), "b.csv".to_string()],
                next_seq: 19,
                done: true,
            }),
            Message::Group(GroupMsg::Deliver {
                group: "EAST_COAST".to_string(),
                file: FileId(21),
                file_name: "MEMORY_poller1_20100925.gz".to_string(),
                size: 123_456,
                attempt: 2,
            }),
            Message::Group(GroupMsg::Ack {
                group: "EAST_COAST".to_string(),
                file: FileId(21),
                bits: vec![0b1011_0101, 0b0000_0011],
                watermark: 4,
            }),
        ];
        for m in msgs {
            let bytes = m.encode();
            assert_eq!(Message::decode(&bytes).unwrap(), m, "roundtrip {m:?}");
        }
    }

    #[test]
    fn wire_size_includes_payload_for_push() {
        let push = Message::Subscriber(SubscriberMsg::FileDelivered {
            file: FileId(1),
            feed: "F".to_string(),
            dest_path: "d".to_string(),
            size: 1_000_000,
        });
        assert!(push.wire_size() > 1_000_000);
        let notify = Message::Subscriber(SubscriberMsg::FileAvailable {
            file: FileId(1),
            feed: "F".to_string(),
            staged_path: "s".to_string(),
            size: 1_000_000,
        });
        assert!(notify.wire_size() < 100, "notification is lightweight");
        // the reliable envelope does not hide the payload cost
        let wrapped = Message::Reliable(ReliableMsg::Attempt {
            attempt: 1,
            inner: SubscriberMsg::FileDelivered {
                file: FileId(1),
                feed: "F".to_string(),
                dest_path: "d".to_string(),
                size: 1_000_000,
            },
        });
        assert!(wrapped.wire_size() > 1_000_000);
        let ack = Message::Reliable(ReliableMsg::Ack {
            file: FileId(1),
            attempt: 1,
        });
        assert!(ack.wire_size() < 16, "acks are tiny");
    }

    #[test]
    fn garbage_rejected() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[77]).is_err());
    }

    /// One well-formed frame of every wire variant — the adversarial
    /// decode sweeps below mutate each of these.
    fn every_variant() -> Vec<Message> {
        vec![
            Message::Source(SourceMsg::Deposited {
                path: "p/x.gz".to_string(),
                size: 9,
            }),
            Message::Source(SourceMsg::EndOfBatch {
                source: "poller1".to_string(),
                interval_start: TimePoint::from_secs(1),
                interval_end: TimePoint::from_secs(2),
            }),
            Message::Subscriber(SubscriberMsg::FileDelivered {
                file: FileId(7),
                feed: "SNMP/MEMORY".to_string(),
                dest_path: "incoming/x.gz".to_string(),
                size: 10,
            }),
            Message::Subscriber(SubscriberMsg::FileAvailable {
                file: FileId(8),
                feed: "SNMP/CPU".to_string(),
                staged_path: "staging/y.txt".to_string(),
                size: 20,
            }),
            Message::Subscriber(SubscriberMsg::BatchComplete {
                batch: BatchId(3),
                feed: "SNMP".to_string(),
                files: vec![FileId(1), FileId(2)],
                reason: BatchCloseReason::Window,
            }),
            Message::Reliable(ReliableMsg::Attempt {
                attempt: 2,
                inner: SubscriberMsg::FileDelivered {
                    file: FileId(9),
                    feed: "F".to_string(),
                    dest_path: "d".to_string(),
                    size: 42,
                },
            }),
            Message::Reliable(ReliableMsg::Ack {
                file: FileId(9),
                attempt: 3,
            }),
            Message::Cluster(ClusterMsg::Heartbeat {
                server: "s1".to_string(),
                epoch: 4,
            }),
            Message::Cluster(ClusterMsg::DirLookup {
                group: "SNMP".to_string(),
            }),
            Message::Cluster(ClusterMsg::DirHome {
                group: "SNMP".to_string(),
                home: "s1".to_string(),
                epoch: 4,
            }),
            Message::Cluster(ClusterMsg::DirAssign {
                group: "SNMP".to_string(),
                home: "s2".to_string(),
                epoch: 5,
            }),
            Message::Cluster(ClusterMsg::Replicate {
                group: "SNMP".to_string(),
                name: "a.csv".to_string(),
                payload: b"body".to_vec(),
                epoch: 6,
            }),
            Message::Cluster(ClusterMsg::BackfillRequest {
                group: "SNMP".to_string(),
                subscriber: "wh".to_string(),
                from_seq: 17,
            }),
            Message::Cluster(ClusterMsg::BackfillPage {
                group: "SNMP".to_string(),
                subscriber: "wh".to_string(),
                delivered: vec!["a.csv".to_string()],
                next_seq: 19,
                done: false,
            }),
            Message::Group(GroupMsg::Deliver {
                group: "G".to_string(),
                file: FileId(21),
                file_name: "a.csv".to_string(),
                size: 9,
                attempt: 1,
            }),
            Message::Group(GroupMsg::Ack {
                group: "G".to_string(),
                file: FileId(21),
                bits: vec![0xFF, 0x01],
                watermark: 9,
            }),
        ]
    }

    /// Every wire variant built from one tuple of arbitrary fields, so
    /// the length property below sweeps field magnitudes (varint widths,
    /// empty and long strings) across all sixteen frames.
    fn variants_from(a: u64, b: u64, s: &str, t: &str, list: &[u64]) -> Vec<Message> {
        let (s, t) = (s.to_string(), t.to_string());
        vec![
            Message::Source(SourceMsg::Deposited {
                path: s.clone(),
                size: a,
            }),
            Message::Source(SourceMsg::EndOfBatch {
                source: s.clone(),
                interval_start: TimePoint::from_micros(a),
                interval_end: TimePoint::from_micros(b),
            }),
            Message::Subscriber(SubscriberMsg::FileDelivered {
                file: FileId(a),
                feed: s.clone(),
                dest_path: t.clone(),
                size: b,
            }),
            Message::Subscriber(SubscriberMsg::FileAvailable {
                file: FileId(a),
                feed: s.clone(),
                staged_path: t.clone(),
                size: b,
            }),
            Message::Subscriber(SubscriberMsg::BatchComplete {
                batch: BatchId(a),
                feed: s.clone(),
                files: list.iter().map(|&f| FileId(f)).collect(),
                reason: BatchCloseReason::Punctuation,
            }),
            Message::Reliable(ReliableMsg::Attempt {
                attempt: b as u32,
                inner: SubscriberMsg::FileDelivered {
                    file: FileId(a),
                    feed: s.clone(),
                    dest_path: t.clone(),
                    size: b,
                },
            }),
            Message::Reliable(ReliableMsg::Attempt {
                attempt: a as u32,
                inner: SubscriberMsg::BatchComplete {
                    batch: BatchId(b),
                    feed: t.clone(),
                    files: list.iter().map(|&f| FileId(f)).collect(),
                    reason: BatchCloseReason::Count,
                },
            }),
            Message::Reliable(ReliableMsg::Ack {
                file: FileId(a),
                attempt: b as u32,
            }),
            Message::Cluster(ClusterMsg::Heartbeat {
                server: s.clone(),
                epoch: a,
            }),
            Message::Cluster(ClusterMsg::DirLookup { group: s.clone() }),
            Message::Cluster(ClusterMsg::DirHome {
                group: s.clone(),
                home: t.clone(),
                epoch: a,
            }),
            Message::Cluster(ClusterMsg::DirAssign {
                group: s.clone(),
                home: t.clone(),
                epoch: b,
            }),
            Message::Cluster(ClusterMsg::Replicate {
                group: s.clone(),
                name: t.clone(),
                payload: list.iter().map(|&f| f as u8).collect(),
                epoch: a,
            }),
            Message::Cluster(ClusterMsg::BackfillRequest {
                group: s.clone(),
                subscriber: t.clone(),
                from_seq: a,
            }),
            Message::Cluster(ClusterMsg::BackfillPage {
                group: s.clone(),
                subscriber: t.clone(),
                delivered: list.iter().map(|f| format!("{s}{f}")).collect(),
                next_seq: b,
                done: a.is_multiple_of(2),
            }),
            Message::Group(GroupMsg::Deliver {
                group: s.clone(),
                file: FileId(a),
                file_name: t.clone(),
                size: b,
                attempt: a as u32,
            }),
            Message::Group(GroupMsg::Ack {
                group: s,
                file: FileId(a),
                bits: list.iter().map(|&f| f as u8).collect(),
                watermark: b,
            }),
        ]
    }

    #[test]
    fn prop_encoded_len_equals_encode_len_for_every_variant() {
        use bistro_base::prop::{self, Runner};
        use bistro_base::prop_assert_eq;
        // magnitudes on either side of every varint width boundary
        let magnitude = |r: &mut bistro_base::Rng| r.next_u64() >> r.gen_range(0u32..64);
        Runner::new("encoded_len_equals_encode_len").run(
            |rng| {
                (
                    magnitude(rng),
                    magnitude(rng),
                    prop::unicode_string(rng, 0..=200),
                    prop::string(rng, "A-Za-z0-9_./-", 0..=40),
                    prop::vec_of(rng, 0..=150, magnitude),
                )
            },
            |(a, b, s, t, list)| {
                let msgs = variants_from(*a, *b, s, t, list);
                prop_assert_eq!(msgs.len(), every_variant().len() + 1);
                for m in msgs {
                    let bytes = m.encode();
                    prop_assert_eq!(m.encoded_len(), bytes.len(), "{:?}", m);
                    prop_assert_eq!(Message::decode(&bytes), Ok(m));
                }
                Ok(())
            },
        );
    }

    /// The four frames of the two reliable protocols, as hex: a change
    /// to their encoding moves `net.bytes_per_delivery` and every
    /// fault-plan replay, so it has to show up here first.
    #[test]
    fn golden_hex_for_the_delivery_frames() {
        let hex =
            |m: &Message| -> String { m.encode().iter().map(|b| format!("{b:02x}")).collect() };
        let attempt = Message::Reliable(ReliableMsg::Attempt {
            attempt: 2,
            inner: SubscriberMsg::FileDelivered {
                file: FileId(300),
                feed: "F".to_string(),
                dest_path: "incoming/F/a.csv".to_string(),
                size: 1000,
            },
        });
        assert_eq!(
            hex(&attempt),
            "06021803ac02014610696e636f6d696e672f462f612e637376e807"
        );
        let ack = Message::Reliable(ReliableMsg::Ack {
            file: FileId(300),
            attempt: 2,
        });
        assert_eq!(hex(&ack), "07ac0202");
        let deliver = Message::Group(GroupMsg::Deliver {
            group: "G01".to_string(),
            file: FileId(300),
            file_name: "a.csv".to_string(),
            size: 1000,
            attempt: 2,
        });
        assert_eq!(hex(&deliver), "0f03473031ac0205612e637376e80702");
        let group_ack = Message::Group(GroupMsg::Ack {
            group: "G01".to_string(),
            file: FileId(300),
            bits: vec![0xff, 0x03],
            watermark: 10,
        });
        assert_eq!(hex(&group_ack), "1003473031ac0202ff030a");
        for m in [attempt, ack, deliver, group_ack] {
            assert_eq!(m.encoded_len(), m.encode().len());
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        // The model checker feeds adversarial orderings; decoding must be
        // total. Every proper prefix of every variant's encoding must
        // come back as Err — never panic, never a silently-shorter value.
        for m in every_variant() {
            let bytes = m.encode();
            for cut in 0..bytes.len() {
                let r = Message::decode(&bytes[..cut]);
                assert!(
                    r.is_err(),
                    "truncated frame decoded: {m:?} cut at {cut}/{} gave {r:?}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for m in every_variant() {
            let mut bytes = m.encode();
            bytes.push(0);
            assert!(
                matches!(
                    Message::decode(&bytes),
                    Err(CodecError::TrailingBytes { n: 1 })
                ),
                "frame with a trailing byte accepted: {m:?}"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        for tag in [0u8, 17, 77, 255] {
            assert!(
                matches!(
                    Message::decode(&[tag, 0, 0, 0]),
                    Err(CodecError::BadTag { .. } | CodecError::TrailingBytes { .. })
                ),
                "unknown tag {tag} accepted"
            );
        }
        // a bad byte inside a well-tagged frame is reported as itself,
        // not as the frame tag that was fine
        let mut w = bistro_base::ByteWriter::new();
        w.put_u8(TAG_BATCH);
        w.put_varint(3); // batch id
        w.put_str("F");
        w.put_u8(0xEE); // no such close reason
        assert_eq!(
            Message::decode(w.as_bytes()),
            Err(CodecError::BadTag {
                what: "batch close reason",
                tag: 0xEE
            })
        );
    }

    #[test]
    fn implausible_counts_rejected_before_allocation() {
        // BatchComplete claiming 2^40 files in a 10-byte frame
        let mut w = bistro_base::ByteWriter::new();
        w.put_u8(TAG_BATCH);
        w.put_varint(3); // batch id
        w.put_str("F");
        w.put_u8(0); // reason = Count
        w.put_varint(1 << 40); // file count
        assert!(matches!(
            Message::decode(w.as_bytes()),
            Err(CodecError::BadLength { .. })
        ));

        // BackfillPage claiming more names than there are bytes
        let mut w = bistro_base::ByteWriter::new();
        w.put_u8(TAG_BACKFILL_PAGE);
        w.put_str("SNMP");
        w.put_str("wh");
        w.put_varint(1_000_000);
        assert!(matches!(
            Message::decode(w.as_bytes()),
            Err(CodecError::BadLength { .. })
        ));

        // GroupAck whose bitmap length prefix exceeds the frame
        let mut w = bistro_base::ByteWriter::new();
        w.put_u8(TAG_GROUP_ACK);
        w.put_str("G");
        w.put_varint(21); // file id
        w.put_varint(1 << 40); // bitmap length — a lie
        assert!(matches!(
            Message::decode(w.as_bytes()),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn corrupt_group_frames_rejected_not_panicked() {
        // byte-level fuzz of both group frames: flip each byte through a
        // handful of values; decode must be total — it returns Ok or a
        // typed Err, never panics, and anything it does accept must
        // survive a re-encode/re-decode cycle unchanged
        for m in [
            Message::Group(GroupMsg::Deliver {
                group: "G".to_string(),
                file: FileId(5),
                file_name: "f_1.csv".to_string(),
                size: 7,
                attempt: 3,
            }),
            Message::Group(GroupMsg::Ack {
                group: "G".to_string(),
                file: FileId(5),
                bits: vec![0x0F],
                watermark: 2,
            }),
        ] {
            let bytes = m.encode();
            for i in 0..bytes.len() {
                for delta in [1u8, 0x7F, 0xFF] {
                    let mut mutated = bytes.clone();
                    mutated[i] = mutated[i].wrapping_add(delta);
                    if let Ok(decoded) = Message::decode(&mutated) {
                        let reencoded = decoded.encode();
                        assert_eq!(
                            Message::decode(&reencoded).unwrap(),
                            decoded,
                            "re-encode of accepted mutation of {m:?} at byte {i} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn attempt_with_non_subscriber_inner_rejected() {
        // hand-craft an Attempt whose inner frame is an Ack
        let inner = Message::Reliable(ReliableMsg::Ack {
            file: FileId(1),
            attempt: 1,
        })
        .encode();
        let mut w = bistro_base::ByteWriter::new();
        w.put_u8(TAG_ATTEMPT);
        w.put_varint(1);
        w.put_bytes(&inner);
        assert!(matches!(
            Message::decode(w.as_bytes()),
            Err(CodecError::BadTag { .. })
        ));
    }
}

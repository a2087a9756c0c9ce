//! The receipt store: arrival/delivery tables over the WAL.
//!
//! All mutations are logged to the WAL *before* the in-memory indexes are
//! updated (write-ahead), so any state observable through queries is
//! durable. Recovery = load snapshot (if present) + replay WAL; every
//! record application is idempotent, so a crash between snapshotting and
//! pruning is harmless.
//!
//! `delivery_receipts` is one set per file: the store interns subscriber
//! names to dense ids ([`Record::Subscriber`], first use, never reused),
//! a live file carries the bitmap of ids it has been delivered to, and a
//! delivery is logged as one [`Record::Delivered`] per file — however many
//! subscribers it covers — through [`ReceiptStore::record_deliveries`],
//! the only way a delivery receipt reaches the log. Ids never leave this
//! crate: every query takes and returns names.

use crate::records::{
    encode_arrival, encode_delivered, encode_group_mark, encode_subscriber, ArrivalTemplate,
    FileRecord, Record,
};
use crate::wal::{Wal, WalError};
use bistro_base::checksum::crc32;
use bistro_base::sync::Mutex;
use bistro_base::{ByteReader, ByteWriter, CodecError, FileId, IdGen, TimePoint};
use bistro_vfs::{FileStore, VfsError};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Errors from receipt-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiptError {
    /// Underlying WAL / filesystem error.
    Wal(WalError),
    /// Underlying filesystem error.
    Vfs(VfsError),
    /// Snapshot file is corrupt.
    CorruptSnapshot(String),
    /// The file is not live: expired, or never seen.
    UnknownFile(FileId),
    /// The WAL holds an intact record of a kind this build does not
    /// know — a newer build wrote it. Skipping it would forget whatever
    /// it recorded (a set of receipts is a mass re-delivery), so the
    /// store refuses to open.
    UnknownRecord {
        /// WAL sequence of the record.
        seq: u64,
        /// Its tag byte.
        tag: u8,
    },
}

impl fmt::Display for ReceiptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReceiptError::Wal(e) => write!(f, "{e}"),
            ReceiptError::Vfs(e) => write!(f, "{e}"),
            ReceiptError::CorruptSnapshot(m) => write!(f, "corrupt snapshot: {m}"),
            ReceiptError::UnknownFile(id) => write!(f, "unknown file {id}"),
            ReceiptError::UnknownRecord { seq, tag } => write!(
                f,
                "receipt WAL record {seq} has tag {tag}, unknown to this build"
            ),
        }
    }
}

impl std::error::Error for ReceiptError {}

impl From<WalError> for ReceiptError {
    fn from(e: WalError) -> Self {
        ReceiptError::Wal(e)
    }
}

impl From<VfsError> for ReceiptError {
    fn from(e: VfsError) -> Self {
        ReceiptError::Vfs(e)
    }
}

// Sets of subscriber ids are LSB-first bitmaps, as `GroupMark`'s member
// sets are: bit `i % 8` of byte `i / 8`, absent bytes read as zero.

fn has_bit(bits: &[u8], i: u32) -> bool {
    bits.get(i as usize / 8)
        .is_some_and(|b| b & (1 << (i % 8)) != 0)
}

fn set_bit(bits: &mut Vec<u8>, i: u32) {
    let byte = i as usize / 8;
    if bits.len() <= byte {
        bits.resize(byte + 1, 0);
    }
    bits[byte] |= 1 << (i % 8);
}

/// OR-merge: a set only grows, so replaying any prefix, repetition or
/// reordering of the records that built it is idempotent.
fn or_into(dst: &mut Vec<u8>, src: &[u8]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// The ids in `bits`, ascending.
fn ones(bits: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(byte, &b)| {
        (0..8u32)
            .filter(move |k| b & (1 << k) != 0)
            .map(move |k| byte as u32 * 8 + k)
    })
}

/// Why replay refused an intact record.
#[derive(Debug)]
enum ReplayError {
    /// It does not decode.
    Codec(CodecError),
    /// It contradicts the name table: a `Subscriber` record out of
    /// sequence or renaming an id, or a set naming an id no `Subscriber`
    /// record introduced.
    Subscriber(u32),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Codec(e) => write!(f, "{e}"),
            ReplayError::Subscriber(id) => {
                write!(f, "subscriber id {id} contradicts the name table")
            }
        }
    }
}

impl From<CodecError> for ReplayError {
    fn from(e: CodecError) -> Self {
        ReplayError::Codec(e)
    }
}

/// Every subscriber name a delivery has named, stored once, and the id
/// delivery sets know it by: dense, in order of first use, never reused
/// (a name stays after its last file expired — one entry per subscriber
/// ever named is what the store keeps forever).
#[derive(Default)]
struct Names {
    by_id: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    /// Ids below this have their `Subscriber` record in the log or in
    /// the snapshot. The rest were named only by legacy `Delivery`
    /// records (or by a write that failed): the next set written logs
    /// their records first.
    recorded: usize,
}

impl Names {
    fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.id(name) {
            return id;
        }
        let id = u32::try_from(self.by_id.len()).expect("fewer than 2^32 subscribers ever named");
        let name: Arc<str> = Arc::from(name);
        self.by_id.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// Replay a `Subscriber` record: the next id in sequence, or an id
    /// already holding this name (a snapshot and the log it covers both
    /// carry the record).
    fn restore(&mut self, id: u32, name: &str) -> Result<(), ReplayError> {
        let known = self.id(name);
        if known.is_none() && id as usize == self.by_id.len() {
            self.intern(name);
        } else if known != Some(id) {
            return Err(ReplayError::Subscriber(id));
        }
        if id as usize == self.recorded {
            self.recorded += 1;
        }
        Ok(())
    }
}

/// A live file and its delivery state. They share an entry so that
/// expiring the file drops all of it: the store's memory is bounded by
/// the live set, not by how many deliveries it ever recorded.
struct LiveFile {
    rec: FileRecord,
    /// Ids of the subscribers the file has been delivered to.
    delivered: Vec<u8>,
    /// Ids a [`ReceiptStore::record_deliveries`] call in progress has
    /// gathered for this file and not yet logged. Empty between calls.
    pending: Vec<u8>,
    /// One entry per delivery record that added receipts — its WAL
    /// sequence and the ids it added — in WAL order: the file's part of
    /// the backfill cursor ([`ReceiptStore::deliveries_since`]). Receipts
    /// recovered from a snapshot (whose covering segments were pruned)
    /// carry seq 0.
    log: Vec<(u64, Vec<u8>)>,
    /// group name → (member ack bitmap, high-watermark).
    /// Shared-delivery-tree coverage (§3 delivery network): one compact
    /// mark per (file, group) instead of one receipt per member. BTreeMap
    /// so snapshots serialize the marks in a deterministic order.
    group_marks: BTreeMap<String, (Vec<u8>, u64)>,
}

impl LiveFile {
    /// Mark the file delivered to the ids in `bits`, logged at `seq`;
    /// returns how many of them are new. Only those enter the log — the
    /// table dedupes, and the log must match it.
    fn deliver(&mut self, seq: u64, mut bits: Vec<u8>) -> u64 {
        for (b, held) in bits.iter_mut().zip(&self.delivered) {
            *b &= !held;
        }
        while bits.last() == Some(&0) {
            bits.pop();
        }
        if bits.is_empty() {
            return 0;
        }
        let added = bits.iter().map(|b| u64::from(b.count_ones())).sum();
        or_into(&mut self.delivered, &bits);
        match self.log.last_mut() {
            // one entry per record: only a snapshot's seq 0 repeats
            Some((last, held)) if *last == seq => or_into(held, &bits),
            _ => self.log.push((seq, bits)),
        }
        added
    }
}

#[derive(Default)]
struct Tables {
    /// Live (non-expired) files by id. Boxed to keep the tree's nodes
    /// small: with the record inline a leaf is well over 1 kB, and every
    /// request of 1 kB or more makes glibc consolidate its fast bins first
    /// — on replay that was a quarter of the time.
    files: BTreeMap<u64, Box<LiveFile>>,
    /// feed name → live file ids.
    by_feed: HashMap<String, BTreeSet<u64>>,
    names: Names,
    /// Count of expired files (for monitoring).
    expired_count: u64,
    /// Count of delivery receipts (including to since-expired files).
    delivery_count: u64,
    /// Highest file id seen in any applied `Arrival` (snapshot or WAL);
    /// a durable lower bound for id recovery.
    max_arrival_id: u64,
}

impl Tables {
    /// [`Tables::apply`] for a record still in its log bytes.
    fn replay(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ReplayError> {
        self.apply(seq, Record::decode(bytes)?)
    }

    /// Apply the record logged at WAL sequence `seq` (0: a snapshot
    /// record). Only replay comes through here — a write applies what it
    /// logged through the method of its kind below.
    fn apply(&mut self, seq: u64, rec: Record) -> Result<(), ReplayError> {
        match rec {
            Record::Arrival(f) => self.arrive(f),
            Record::Delivery {
                file, subscriber, ..
            } => {
                // the legacy receipt names its subscriber in full; the
                // id it gets here goes on record with the next set written
                if let Some(f) = self.files.get_mut(&file.raw()) {
                    let mut bits = Vec::new();
                    set_bit(&mut bits, self.names.intern(&subscriber));
                    self.delivery_count += f.deliver(seq, bits);
                }
            }
            Record::Subscriber { id, name } => self.names.restore(id, &name)?,
            Record::Delivered { file, bits, .. } => {
                if let Some(stray) = ones(&bits).find(|&id| id as usize >= self.names.by_id.len()) {
                    return Err(ReplayError::Subscriber(stray));
                }
                // a set replayed after its file expired is stale
                if let Some(f) = self.files.get_mut(&file.raw()) {
                    self.delivery_count += f.deliver(seq, bits);
                }
            }
            Record::Expire { file, .. } => self.expire(file),
            Record::GroupMark {
                file,
                group,
                bits,
                watermark,
            } => self.group_mark(file, &group, &bits, watermark),
            Record::Reclassify { file, feeds } => self.reclassify(file, feeds),
        }
        Ok(())
    }

    fn arrive(&mut self, f: FileRecord) {
        let id = f.id.raw();
        self.max_arrival_id = self.max_arrival_id.max(id);
        for feed in &f.feeds {
            // get_mut first: the feed's set almost always exists
            // already, and `entry` would clone the name every time
            match self.by_feed.get_mut(feed) {
                Some(set) => {
                    set.insert(id);
                }
                None => {
                    self.by_feed.entry(feed.clone()).or_default().insert(id);
                }
            }
        }
        match self.files.get_mut(&id) {
            // replayed over a snapshot that holds the file already: its
            // delivery state stays
            Some(live) => live.rec = f,
            None => {
                let live = LiveFile {
                    rec: f,
                    delivered: Vec::new(),
                    pending: Vec::new(),
                    log: Vec::new(),
                    group_marks: BTreeMap::new(),
                };
                self.files.insert(id, Box::new(live));
            }
        }
    }

    fn expire(&mut self, file: FileId) {
        if let Some(f) = self.files.remove(&file.raw()) {
            for feed in &f.rec.feeds {
                if let Some(set) = self.by_feed.get_mut(feed) {
                    set.remove(&file.raw());
                }
            }
            self.expired_count += 1;
        }
    }

    /// Marks only make sense against a live arrival; a mark for a file
    /// that is not live is stale and dropped.
    fn group_mark(&mut self, file: FileId, group: &str, bits: &[u8], watermark: u64) {
        let Some(f) = self.files.get_mut(&file.raw()) else {
            return;
        };
        let slot = match f.group_marks.get_mut(group) {
            Some(slot) => slot,
            None => f.group_marks.entry(group.to_string()).or_default(),
        };
        or_into(&mut slot.0, bits);
        slot.1 = slot.1.max(watermark);
    }

    fn reclassify(&mut self, file: FileId, feeds: Vec<String>) {
        let Some(f) = self.files.get_mut(&file.raw()) else {
            return;
        };
        for feed in &f.rec.feeds {
            if let Some(set) = self.by_feed.get_mut(feed) {
                set.remove(&file.raw());
            }
        }
        f.rec.feeds = feeds;
        for feed in &f.rec.feeds {
            self.by_feed
                .entry(feed.clone())
                .or_default()
                .insert(file.raw());
        }
    }
}

/// What [`ReceiptStore::open`] found while recovering. Published as
/// `recovery.*` telemetry counters by [`ReceiptStore::set_telemetry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryInfo {
    /// A snapshot was present and loaded.
    pub snapshot_loaded: bool,
    /// Records applied from the snapshot body.
    pub snapshot_records: u64,
    /// Records replayed from the WAL.
    pub wal_records: u64,
    /// Intact WAL records of a known kind that did not decode or
    /// contradicted the name table, and were skipped. Never expected;
    /// whatever they recorded is re-done (a receipt: re-delivered).
    pub undecodable_records: u64,
    /// A leftover `snapshot.tmp` from a torn snapshot write was discarded.
    pub tmp_discarded: bool,
}

/// What [`ReceiptStore::record_deliveries`] did with one
/// (file, subscriber) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The receipt is new: logged, and the delivery is now on record.
    Recorded,
    /// The pair already had its receipt — on record, or from an earlier
    /// pair of the same call.
    AlreadyDelivered,
    /// The file is not live (expired, or never seen): nothing was
    /// logged and no table grew.
    UnknownFile,
}

/// The transactional receipt database (paper §4.2).
pub struct ReceiptStore {
    store: Arc<dyn FileStore>,
    dir: String,
    inner: Mutex<Inner>,
    ids: IdGen,
    recovery: RecoveryInfo,
}

struct Inner {
    log: Log,
    tables: Tables,
}

/// The WAL and the group-commit buffer in front of it.
struct Log {
    wal: Wal,
    /// Group-commit buffering between [`ReceiptStore::begin_group`] and
    /// [`ReceiptStore::end_group`]; `None` = per-record durability.
    group: Option<Group>,
}

impl Log {
    /// Log one encoded record: straight to the WAL normally, or into the
    /// group buffer (flushing at `max`) inside a group-commit window.
    /// Returns the record's WAL sequence; inside a group window the
    /// sequence is the one the buffered record *will* receive at flush
    /// (batch appends assign consecutive sequences and nothing else can
    /// interleave while the window is open). The group buffer takes the
    /// bytes out of `bytes` (leaving it empty); the WAL only reads them.
    fn append(&mut self, bytes: &mut Vec<u8>) -> Result<u64, ReceiptError> {
        let next = self.wal.next_seq();
        let (seq, flush_now) = match self.group.as_mut() {
            Some(g) => {
                g.pending.push(std::mem::take(bytes));
                g.stats.records += 1;
                (next + g.pending.len() as u64 - 1, g.pending.len() >= g.max)
            }
            None => return Ok(self.wal.append(bytes)?),
        };
        if flush_now {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Log several records, which receive consecutive sequences from the
    /// one returned: one physical append outside a group window, the
    /// window's buffer (and its flush rule, record by record) inside.
    fn append_all(&mut self, payloads: impl Iterator<Item = Vec<u8>>) -> Result<u64, ReceiptError> {
        let Some(g) = &self.group else {
            let first = self.wal.next_seq();
            let payloads: Vec<_> = payloads.collect();
            if let [one] = &payloads[..] {
                // the same bytes, without a batch's buffers
                self.wal.append(one)?;
            } else {
                self.wal.append_batch(&payloads)?;
            }
            return Ok(first);
        };
        let first = self.wal.next_seq() + g.pending.len() as u64;
        for mut bytes in payloads {
            self.append(&mut bytes)?;
        }
        Ok(first)
    }

    /// Durably append every buffered group record in one batched WAL
    /// append. No-op outside a group window or with nothing pending.
    fn flush(&mut self) -> Result<(), ReceiptError> {
        let payloads = match self.group.as_mut() {
            Some(g) if !g.pending.is_empty() => std::mem::take(&mut g.pending),
            _ => return Ok(()),
        };
        let n = payloads.len() as u64;
        let s = self.wal.append_batch(&payloads)?;
        if let Some(g) = self.group.as_mut() {
            g.stats.physical_appends += s.physical_appends;
            g.stats.flushes += 1;
            g.stats.flush_sizes.push(n);
        }
        Ok(())
    }
}

/// One delivery receipt positioned by its receipt-WAL sequence number.
///
/// Carries the file *name* rather than its [`FileId`]: ids are local to
/// one store, names are the cross-server join key a standby uses to mark
/// the failed home's deliveries against its own replicated arrivals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryMark {
    /// WAL sequence of the delivery record (0 = recovered from a
    /// snapshot whose WAL coverage was pruned). The receipts of one
    /// record share its sequence.
    pub seq: u64,
    /// The delivered file's id in *this* store.
    pub file: FileId,
    /// The delivered file's original deposited name.
    pub file_name: String,
    /// Who it was delivered to.
    pub subscriber: String,
}

/// In-flight group-commit state.
struct Group {
    /// Flush whenever this many records are pending.
    max: usize,
    /// Encoded record payloads awaiting their batched WAL append.
    pending: Vec<Vec<u8>>,
    stats: GroupCommitStats,
}

/// How a [`ReceiptStore::begin_group`] … [`ReceiptStore::end_group`]
/// window was committed, for telemetry. None of this feeds back into the
/// record stream: the WAL bytes are identical for every group size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Records logged inside the group window.
    pub records: u64,
    /// Physical store appends issued (≤ flushes + rotations).
    pub physical_appends: u64,
    /// Batched flushes performed.
    pub flushes: u64,
    /// Records per flush, in flush order (the `wal.group_size` samples).
    pub flush_sizes: Vec<u64>,
}

const SNAPSHOT_MAGIC: &[u8; 4] = b"BSNP";
/// v2 widened `expired_count` to u64 and added the id high-water mark.
/// v3 keeps v2's header; its body leads with the subscriber table and
/// holds one delivery set per file where v1/v2 held one `Delivery` per
/// (file, subscriber) — a build that predates the set record refuses the
/// version instead of misreading the body. v1
/// (`[magic 4][ver 1][crc 4][expired u32][body]`) and v2 stay readable.
const SNAPSHOT_VERSION: u8 = 3;
const V1_HEADER: usize = 13;
const V2_HEADER: usize = 25;

impl ReceiptStore {
    /// Open (or create) a receipt store rooted at `dir` within `store`.
    /// Performs crash recovery: snapshot load + WAL replay.
    pub fn open(store: Arc<dyn FileStore>, dir: &str) -> Result<ReceiptStore, ReceiptError> {
        store.create_dir_all(dir)?;
        let mut tables = Tables::default();
        let mut recovery = RecoveryInfo::default();

        // A crash mid-snapshot can only tear the temp file: the write of
        // `snapshot.bin` itself is an atomic replace. Discard the debris.
        let tmp_path = format!("{dir}/snapshot.tmp");
        if store.exists(&tmp_path) {
            store.remove(&tmp_path)?;
            recovery.tmp_discarded = true;
        }

        // Snapshot-covered deliveries pre-date the surviving WAL: they
        // enter the backfill log at seq 0, so a cursor of 0 always
        // replays the full delivered set.
        let snap_path = format!("{dir}/snapshot.bin");
        let mut snapshot_high_water = None;
        if store.exists(&snap_path) {
            let data = store.read(&snap_path)?;
            let (hw, n) = Self::load_snapshot(&data, &mut tables)?;
            snapshot_high_water = hw;
            recovery.snapshot_loaded = true;
            recovery.snapshot_records = n;
        }

        let wal_dir = format!("{dir}/wal");
        let mut unknown = None;
        let wal = Wal::open(store.clone(), &wal_dir, |seq, payload| {
            match tables.replay(seq, payload) {
                Ok(()) => recovery.wal_records += 1,
                Err(ReplayError::Codec(CodecError::BadTag { tag, .. })) => {
                    unknown.get_or_insert(ReceiptError::UnknownRecord { seq, tag });
                }
                Err(_) => recovery.undecodable_records += 1,
            }
        })?;
        if let Some(e) = unknown {
            return Err(e);
        }

        // Never reissue an id: resume past the persisted high-water mark
        // (which covers allocations burned by failed appends) and past
        // every arrival actually on record. v1 snapshots carried no
        // high-water, so fall back to the legacy live-max + expired-count
        // heuristic for them.
        let hint = match snapshot_high_water {
            Some(hw) => hw,
            None => {
                let max_live = tables.files.keys().next_back().copied().unwrap_or(0);
                max_live + tables.expired_count
            }
        };
        let ids = IdGen::starting_at(1);
        ids.bump_past(hint.max(tables.max_arrival_id));

        Ok(ReceiptStore {
            store,
            dir: dir.to_string(),
            inner: Mutex::new(Inner {
                log: Log { wal, group: None },
                tables,
            }),
            ids,
            recovery,
        })
    }

    /// Apply a snapshot to `tables`; returns the persisted id high-water
    /// mark (v2 on) and the number of records applied.
    fn load_snapshot(data: &[u8], tables: &mut Tables) -> Result<(Option<u64>, u64), ReceiptError> {
        if data.len() < 5 || &data[0..4] != SNAPSHOT_MAGIC {
            return Err(ReceiptError::CorruptSnapshot("bad header".to_string()));
        }
        let (body, crc_expected, high_water) = match data[4] {
            1 => {
                if data.len() < V1_HEADER {
                    return Err(ReceiptError::CorruptSnapshot("short v1 header".to_string()));
                }
                let crc = u32::from_le_bytes(data[5..9].try_into().unwrap());
                let expired = u32::from_le_bytes(data[9..13].try_into().unwrap());
                tables.expired_count = expired as u64;
                (&data[V1_HEADER..], crc, None)
            }
            2 | 3 => {
                if data.len() < V2_HEADER {
                    return Err(ReceiptError::CorruptSnapshot("short header".to_string()));
                }
                let crc = u32::from_le_bytes(data[5..9].try_into().unwrap());
                tables.expired_count = u64::from_le_bytes(data[9..17].try_into().unwrap());
                let hw = u64::from_le_bytes(data[17..25].try_into().unwrap());
                (&data[V2_HEADER..], crc, Some(hw))
            }
            v => {
                return Err(ReceiptError::CorruptSnapshot(format!(
                    "unsupported version {v}"
                )));
            }
        };
        if crc32(body) != crc_expected {
            return Err(ReceiptError::CorruptSnapshot(
                "checksum mismatch".to_string(),
            ));
        }
        let mut r = ByteReader::new(body);
        let n = r
            .get_varint()
            .map_err(|e| ReceiptError::CorruptSnapshot(e.to_string()))?;
        for _ in 0..n {
            let rec_bytes = r
                .get_bytes()
                .map_err(|e| ReceiptError::CorruptSnapshot(e.to_string()))?;
            tables
                .replay(0, rec_bytes)
                .map_err(|e| ReceiptError::CorruptSnapshot(e.to_string()))?;
        }
        Ok((high_water, n))
    }

    /// What the last `open` recovered (snapshot/WAL record counts, torn
    /// temp cleanup).
    pub fn recovery_info(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Attach `wal.*` telemetry (append/rotation counters, durable-write
    /// latency histogram timed on `clock`) to the underlying WAL, and
    /// publish what recovery found as `recovery.*` counters.
    pub fn set_telemetry(&self, reg: &bistro_telemetry::Registry, clock: bistro_base::SharedClock) {
        reg.counter("recovery.snapshot_records")
            .add(self.recovery.snapshot_records);
        reg.counter("recovery.wal_records")
            .add(self.recovery.wal_records);
        reg.counter("recovery.undecodable_records")
            .add(self.recovery.undecodable_records);
        let torn = reg.counter("recovery.snapshot_tmp_discarded");
        if self.recovery.tmp_discarded {
            torn.inc();
        }
        self.inner.lock().log.wal.set_telemetry(reg, clock);
    }

    /// Enter a group-commit window: subsequent records buffer their WAL
    /// bytes and are appended in batches of at most `max` (one physical
    /// append + fsync per batch instead of per record), until
    /// [`ReceiptStore::end_group`]. Records still apply to the in-memory
    /// tables immediately — queries and delivery-queue computation see
    /// them as usual — so the write-ahead discipline is relaxed *within
    /// the window only*: a crash inside it loses a suffix of whole
    /// records (never a torn one; see [`Wal::append_batch`]), exactly as
    /// if the deposit batch had been cut short. That is only safe while
    /// nothing outside this process has seen the buffered records: the
    /// caller must [`ReceiptStore::flush_group`] before anything naming a
    /// buffered record (a `FileId` above all) leaves over a network, or a
    /// restart would reissue an id a subscriber already holds. `max` is
    /// clamped to ≥ 1; nested calls are not supported.
    pub fn begin_group(&self, max: usize) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.log.group.is_none(), "nested begin_group");
        inner.log.group = Some(Group {
            max: max.max(1),
            pending: Vec::new(),
            stats: GroupCommitStats::default(),
        });
    }

    /// Make every record buffered in the open group-commit window
    /// durable now (one batched append), keeping the window open. No-op
    /// outside a window or with nothing pending.
    pub fn flush_group(&self) -> Result<(), ReceiptError> {
        self.inner.lock().log.flush()
    }

    /// Leave the group-commit window, flushing anything still buffered.
    /// Returns how the window was committed. The window is closed even if
    /// the final flush fails (the error is returned and the store must be
    /// treated as crashed, per the WAL error contract).
    pub fn end_group(&self) -> Result<GroupCommitStats, ReceiptError> {
        let mut inner = self.inner.lock();
        let flushed = inner.log.flush();
        let stats = inner.log.group.take().map(|g| g.stats).unwrap_or_default();
        flushed.map(|()| stats)
    }

    /// Log one record, then apply it to the tables.
    fn log_then(
        &self,
        mut bytes: Vec<u8>,
        apply: impl FnOnce(&mut Tables),
    ) -> Result<(), ReceiptError> {
        let mut inner = self.inner.lock();
        inner.log.append(&mut bytes)?;
        apply(&mut inner.tables);
        Ok(())
    }

    /// [`ReceiptStore::record_arrival`] from a pre-serialized
    /// [`ArrivalTemplate`]: the commit stage only stamps the id and
    /// arrival time, reusing the record bytes the prepare stage encoded.
    /// Byte-identical to the unprepared path.
    pub fn record_arrival_prepared(
        &self,
        template: &ArrivalTemplate,
        arrival: TimePoint,
    ) -> Result<FileId, ReceiptError> {
        let id: FileId = self.ids.next();
        let (bytes, rec) = template.finish(id, arrival);
        self.log_then(bytes, |t| t.arrive(rec))?;
        Ok(id)
    }

    /// Record a classified file arrival; returns its new [`FileId`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_arrival(
        &self,
        name: &str,
        staged_path: &str,
        size: u64,
        arrival: TimePoint,
        feed_time: Option<TimePoint>,
        feeds: Vec<String>,
    ) -> Result<FileId, ReceiptError> {
        let id: FileId = self.ids.next();
        let rec = FileRecord {
            id,
            name: name.to_string(),
            staged_path: staged_path.to_string(),
            size,
            arrival,
            feed_time,
            feeds,
        };
        let mut w = ByteWriter::new();
        encode_arrival(&mut w, &rec);
        self.log_then(w.into_bytes(), |t| t.arrive(rec))?;
        Ok(id)
    }

    /// Record completed deliveries — every (file, subscriber) pair of one
    /// drain of acknowledgements, or of one file's local fan-out — as
    /// **one delivery set per file**, in the order the files first
    /// appear, logged together: one physical append outside a
    /// group-commit window, the window's buffer inside one. `at` is when
    /// the last of them completed. A subscriber named for the first time
    /// gets its `Subscriber` record ahead of the sets. Returns what
    /// became of each pair, in order; only a
    /// [`DeliveryOutcome::Recorded`] pair wrote anything. The whole call
    /// holds the store's lock, so the still-owed check, the append and
    /// the table update are one step.
    ///
    /// A crash inside the append loses a suffix of whole records: the
    /// receipts in them were never observable, and their deliveries are
    /// re-sent after recovery (subscribers dedup a resend).
    pub fn record_deliveries<'a>(
        &self,
        pairs: impl IntoIterator<Item = (FileId, &'a str)>,
        at: TimePoint,
    ) -> Result<Vec<DeliveryOutcome>, ReceiptError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Tables { files, names, .. } = &mut inner.tables;
        let mut outcomes = Vec::new();
        // the files that gain receipts, in first-seen order; the ids each
        // gains gather in its `pending` and move here once all are in
        let mut sets: Vec<(FileId, Vec<u8>)> = Vec::new();
        for (file, subscriber) in pairs {
            let Some(f) = files.get_mut(&file.raw()) else {
                outcomes.push(DeliveryOutcome::UnknownFile);
                continue;
            };
            let id = names.intern(subscriber);
            if has_bit(&f.delivered, id) || has_bit(&f.pending, id) {
                outcomes.push(DeliveryOutcome::AlreadyDelivered);
                continue;
            }
            if f.pending.is_empty() {
                sets.push((file, Vec::new()));
            }
            set_bit(&mut f.pending, id);
            outcomes.push(DeliveryOutcome::Recorded);
        }
        if sets.is_empty() {
            return Ok(outcomes);
        }
        for (file, bits) in &mut sets {
            let f = files.get_mut(&file.raw()).expect("found live above");
            *bits = std::mem::take(&mut f.pending);
        }

        let unrecorded = names.recorded..names.by_id.len();
        let subscribers = unrecorded.clone().map(|id| {
            let mut w = ByteWriter::new();
            encode_subscriber(&mut w, id as u32, &names.by_id[id]);
            w.into_bytes()
        });
        let delivered = sets.iter().map(|(file, bits)| {
            let mut w = ByteWriter::with_capacity(bits.len() + 24);
            encode_delivered(&mut w, *file, at, bits);
            w.into_bytes()
        });
        let first = inner.log.append_all(subscribers.chain(delivered))?;

        let tables = &mut inner.tables;
        tables.names.recorded = unrecorded.end;
        for (seq, (file, bits)) in (first + unrecorded.len() as u64..).zip(sets) {
            let f = tables.files.get_mut(&file.raw());
            tables.delivery_count += f.expect("found live above").deliver(seq, bits);
        }
        Ok(outcomes)
    }

    /// Record one completed delivery: [`ReceiptStore::record_deliveries`]
    /// of a single pair. Idempotent for a pair already on record; a file
    /// that is not live is an error, and nothing is logged for it.
    pub fn record_delivery(
        &self,
        file: FileId,
        subscriber: &str,
        at: TimePoint,
    ) -> Result<(), ReceiptError> {
        match self.record_deliveries([(file, subscriber)], at)?[0] {
            DeliveryOutcome::UnknownFile => Err(ReceiptError::UnknownFile(file)),
            DeliveryOutcome::Recorded | DeliveryOutcome::AlreadyDelivered => Ok(()),
        }
    }

    /// Record (or widen) a group delivery mark: the member ack bitmap and
    /// high-watermark for `group`'s shared delivery of `file`. Marks
    /// OR-merge, so logging every coverage change keeps crash recovery
    /// exactly-once: a recovered server resumes the group delivery from
    /// the last durable coverage instead of refanning to every member.
    pub fn record_group_mark(
        &self,
        file: FileId,
        group: &str,
        bits: &[u8],
        watermark: u64,
    ) -> Result<(), ReceiptError> {
        let mut w = ByteWriter::new();
        encode_group_mark(&mut w, file, group, bits, watermark);
        self.log_then(w.into_bytes(), |t| {
            t.group_mark(file, group, bits, watermark)
        })
    }

    /// The merged (bitmap, high-watermark) coverage recorded for a group's
    /// delivery of `file`, if any mark has been logged.
    pub fn group_coverage(&self, file: FileId, group: &str) -> Option<(Vec<u8>, u64)> {
        let inner = self.inner.lock();
        let f = inner.tables.files.get(&file.raw())?;
        f.group_marks.get(group).cloned()
    }

    /// Record a file expiration (caller removes the staged payload).
    pub fn record_expiration(&self, file: FileId, at: TimePoint) -> Result<(), ReceiptError> {
        self.log_then(Record::Expire { file, at }.encode(), |t| t.expire(file))
    }

    /// Record new feed membership for a file after a definition change.
    pub fn record_reclassification(
        &self,
        file: FileId,
        feeds: Vec<String>,
    ) -> Result<(), ReceiptError> {
        let rec = Record::Reclassify {
            file,
            feeds: feeds.clone(),
        };
        self.log_then(rec.encode(), |t| t.reclassify(file, feeds))
    }

    /// Fetch a live file record.
    pub fn file(&self, id: FileId) -> Option<FileRecord> {
        let inner = self.inner.lock();
        inner.tables.files.get(&id.raw()).map(|f| f.rec.clone())
    }

    /// Number of live (non-expired) files.
    pub fn live_count(&self) -> usize {
        self.inner.lock().tables.files.len()
    }

    /// Number of expired files.
    pub fn expired_count(&self) -> u64 {
        self.inner.lock().tables.expired_count
    }

    /// Number of delivery receipts recorded.
    pub fn delivery_count(&self) -> u64 {
        self.inner.lock().tables.delivery_count
    }

    /// All live files belonging to a feed, ordered by id (arrival order).
    pub fn files_in_feed(&self, feed: &str) -> Vec<FileRecord> {
        let inner = self.inner.lock();
        inner
            .tables
            .by_feed
            .get(feed)
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| inner.tables.files.get(id).map(|f| f.rec.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True if `file` has been delivered to `subscriber`.
    pub fn is_delivered(&self, file: FileId, subscriber: &str) -> bool {
        let tables = &self.inner.lock().tables;
        match (tables.files.get(&file.raw()), tables.names.id(subscriber)) {
            (Some(f), Some(id)) => has_bit(&f.delivered, id),
            _ => false,
        }
    }

    /// True if `file` is live and has no delivery receipt for
    /// `subscriber` yet, answered under one lock.
    pub fn owes(&self, file: FileId, subscriber: &str) -> bool {
        let tables = &self.inner.lock().tables;
        tables.files.get(&file.raw()).is_some_and(|f| {
            !tables
                .names
                .id(subscriber)
                .is_some_and(|id| has_bit(&f.delivered, id))
        })
    }

    /// The current backfill cursor: the WAL sequence the *next* record
    /// will receive. `deliveries_since(cursor)` returns only receipts
    /// recorded after this point; `deliveries_since(0)` replays all.
    pub fn delivery_cursor(&self) -> u64 {
        self.inner.lock().log.wal.next_seq()
    }

    /// Delivery receipts of live files whose WAL sequence is ≥
    /// `from_seq`, in WAL order (the receipts of one record share its
    /// sequence). This is the query behind cross-server backfill: a
    /// failover coordinator pages through the failed home's delivered set
    /// (by file *name* — ids are store-local) so the new home can mark
    /// them against its replicated arrivals and deliver only the
    /// remainder. Receipts recovered from a snapshot carry seq 0 and are
    /// therefore always included when paging from the start.
    pub fn deliveries_since(&self, from_seq: u64) -> Vec<DeliveryMark> {
        let tables = &self.inner.lock().tables;
        let mut sets: Vec<(u64, &LiveFile, &[u8])> = tables
            .files
            .values()
            .flat_map(|f| {
                let start = f.log.partition_point(|(seq, _)| *seq < from_seq);
                f.log[start..]
                    .iter()
                    .map(move |(seq, bits)| (*seq, &**f, &bits[..]))
            })
            .collect();
        // stable: the seq-0 sets of a snapshot stay in file-id order
        sets.sort_by_key(|(seq, _, _)| *seq);
        sets.into_iter()
            .flat_map(|(seq, f, bits)| {
                ones(bits).map(move |id| DeliveryMark {
                    seq,
                    file: f.rec.id,
                    file_name: f.rec.name.clone(),
                    subscriber: tables.names.by_id[id as usize].to_string(),
                })
            })
            .collect()
    }

    /// Look up a live file by its original deposited name (linear scan —
    /// the cross-server backfill join; names are unique per retention
    /// window in practice, the first match in id order wins).
    pub fn file_by_name(&self, name: &str) -> Option<FileRecord> {
        let inner = self.inner.lock();
        inner
            .tables
            .files
            .values()
            .find(|f| f.rec.name == name)
            .map(|f| f.rec.clone())
    }

    /// Compute a subscriber's **delivery queue**: all live files in any of
    /// `feeds` that have not yet been delivered to `subscriber`, in
    /// arrival (id) order. This is the query the paper calls out as the
    /// core of reliable delivery (§4.2) — new subscribers and recovered
    /// subscribers are backfilled from exactly this.
    pub fn pending_for(&self, subscriber: &str, feeds: &[String]) -> Vec<FileRecord> {
        let tables = &self.inner.lock().tables;
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        for feed in feeds {
            if let Some(set) = tables.by_feed.get(feed) {
                ids.extend(set.iter().copied());
            }
        }
        let sub = tables.names.id(subscriber);
        ids.into_iter()
            .filter_map(|id| tables.files.get(&id))
            .filter(|f| !sub.is_some_and(|sub| has_bit(&f.delivered, sub)))
            .map(|f| f.rec.clone())
            .collect()
    }

    /// All live files, in id (arrival) order.
    pub fn all_live(&self) -> Vec<FileRecord> {
        let inner = self.inner.lock();
        inner.tables.files.values().map(|f| f.rec.clone()).collect()
    }

    /// A content digest of the delivery state: live files (name, feeds,
    /// size) and the delivered (file name, subscriber) pairs, plus the
    /// expired-file count. One ingredient of a model-checker state hash,
    /// so it is deliberately *schedule-independent*: file ids, subscriber
    /// ids, WAL sequences and timestamps — which vary with the order
    /// operations interleaved in — are excluded, and everything is hashed
    /// in sorted order. Two stores that agree on this digest hold the
    /// same files and owe the same subscribers the same deliveries.
    pub fn state_digest(&self) -> u64 {
        use bistro_base::fnv1a64;
        let tables = &self.inner.lock().tables;
        let mut lines: Vec<String> = Vec::with_capacity(tables.files.len() * 2);
        for f in tables.files.values() {
            let name = &f.rec.name;
            let mut feeds = f.rec.feeds.clone();
            feeds.sort_unstable();
            lines.push(format!("live\0{name}\0{}\0{}", feeds.join(","), f.rec.size));
            for id in ones(&f.delivered) {
                let sub = &tables.names.by_id[id as usize];
                lines.push(format!("delivered\0{name}\0{sub}"));
            }
            for (group, (bits, wm)) in &f.group_marks {
                let mut hex = String::with_capacity(bits.len() * 2);
                for b in bits {
                    hex.push_str(&format!("{b:02x}"));
                }
                lines.push(format!("gmark\0{name}\0{group}\0{hex}\0{wm}"));
            }
        }
        lines.sort_unstable();
        let mut acc = Vec::with_capacity(lines.len() * 32);
        for line in &lines {
            acc.extend_from_slice(line.as_bytes());
            acc.push(b'\n');
        }
        acc.extend_from_slice(&tables.expired_count.to_le_bytes());
        fnv1a64(&acc)
    }

    /// Files whose reference time (feed time when available, else arrival
    /// time) is before `cutoff` — the candidates for retention expiration
    /// (§4.2: "every Bistro server maintains a limited time window of
    /// data and regularly expunges files that fall outside the window").
    pub fn expire_candidates(&self, cutoff: TimePoint) -> Vec<FileRecord> {
        let inner = self.inner.lock();
        inner
            .tables
            .files
            .values()
            .filter(|f| f.rec.feed_time.unwrap_or(f.rec.arrival) < cutoff)
            .map(|f| f.rec.clone())
            .collect()
    }

    /// Write a snapshot of the live state and prune covered WAL segments.
    /// Bounds recovery time; returns the number of segments removed.
    ///
    /// Body: the subscriber table first (every id, in order), then per
    /// live file its arrival, its delivery set if it has one, and its
    /// group marks.
    pub fn snapshot(&self) -> Result<usize, ReceiptError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // a snapshot inside a group window must not cover records that
        // are buffered but not yet durable: flush them first
        inner.log.flush()?;
        // records are encoded — through one scratch buffer, for the
        // length each is prefixed with — straight into the body, counted
        // as they go: the count leads the body, so it is prepended
        // afterwards
        let tables = &inner.tables;
        let mut records = ByteWriter::new();
        let mut n = 0u64;
        let mut scratch = Vec::new();
        let mut put = |encode: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::from_bytes(std::mem::take(&mut scratch));
            encode(&mut w);
            records.put_bytes(w.as_bytes());
            scratch = w.into_bytes();
            scratch.clear();
            n += 1;
        };
        for (id, name) in tables.names.by_id.iter().enumerate() {
            put(&|w| encode_subscriber(w, id as u32, name));
        }
        for f in tables.files.values() {
            put(&|w| encode_arrival(w, &f.rec));
            if !f.delivered.is_empty() {
                // delivery times are not part of queue computation
                put(&|w| encode_delivered(w, f.rec.id, TimePoint::EPOCH, &f.delivered));
            }
            for (group, (bits, wm)) in &f.group_marks {
                put(&|w| encode_group_mark(w, f.rec.id, group, bits, *wm));
            }
        }
        let mut body = ByteWriter::with_capacity(records.len() + 10);
        body.put_varint(n);
        let mut body = body.into_bytes();
        body.extend_from_slice(records.as_bytes());

        let mut out = Vec::with_capacity(V2_HEADER + body.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&tables.expired_count.to_le_bytes());
        // the id high-water mark: even ids whose arrival append failed
        // must never be reissued after recovery
        out.extend_from_slice(&self.ids.peek().saturating_sub(1).to_le_bytes());
        out.extend_from_slice(&body);

        // Write-then-rename: a crash can tear only `snapshot.tmp`, never
        // `snapshot.bin`, so recovery always sees a whole snapshot (old or
        // new). WAL segments are pruned only after the replace lands —
        // until then they still cover the pre-snapshot history.
        let tmp = format!("{}/snapshot.tmp", self.dir);
        let dst = format!("{}/snapshot.bin", self.dir);
        self.store.write(&tmp, &out)?;
        self.store.replace(&tmp, &dst)?;
        // every name is on record now, whatever the log goes on to lose
        inner.tables.names.recorded = inner.tables.names.by_id.len();

        let wal = &mut inner.log.wal;
        let covered = wal.next_seq().saturating_sub(1);
        wal.rotate()?;
        let removed = wal.prune(covered)?;
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::SimClock;
    use bistro_vfs::MemFs;

    fn open(store: &Arc<MemFs>) -> ReceiptStore {
        ReceiptStore::open(store.clone() as Arc<dyn FileStore>, "receipts").unwrap()
    }

    fn arrive(db: &ReceiptStore, name: &str, feeds: &[&str], t: u64) -> FileId {
        db.record_arrival(
            name,
            &format!("staging/{name}"),
            100,
            TimePoint::from_secs(t),
            Some(TimePoint::from_secs(t)),
            feeds.iter().map(|s| s.to_string()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn arrival_and_queue() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f1 = arrive(&db, "a.csv", &["F"], 100);
        let f2 = arrive(&db, "b.csv", &["F"], 200);
        arrive(&db, "c.csv", &["G"], 300);

        let queue = db.pending_for("sub1", &["F".to_string()]);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue[0].id, f1);
        assert_eq!(queue[1].id, f2);

        db.record_delivery(f1, "sub1", TimePoint::from_secs(101))
            .unwrap();
        let queue = db.pending_for("sub1", &["F".to_string()]);
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].id, f2);
        // another subscriber's queue is unaffected
        assert_eq!(db.pending_for("sub2", &["F".to_string()]).len(), 2);
    }

    /// What the store keeps is bounded by the live set: a name is stored
    /// once however many receipts name it, a file's receipts are one set
    /// and one log entry per record, and expiry takes all of a file's
    /// delivery state with it — only the name table (one entry per
    /// subscriber ever named) outlives the files.
    #[test]
    fn delivery_names_are_stored_once() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let mut files = Vec::new();
        for (name, t) in [("a.csv", 1), ("b.csv", 2)] {
            let f = arrive(&db, name, &["F"], t);
            db.record_deliveries([(f, "sub1"), (f, "sub2")], TimePoint::from_secs(3))
                .unwrap();
            db.record_delivery(f, "sub3", TimePoint::from_secs(4))
                .unwrap();
            files.push(f);
        }
        let reopened = open(&store);
        for db in [&db, &reopened] {
            assert_eq!(db.delivery_count(), 6);
            let inner = db.inner.lock();
            let names: Vec<&str> = inner.tables.names.by_id.iter().map(|n| &**n).collect();
            assert_eq!(names, ["sub1", "sub2", "sub3"]);
            assert_eq!(inner.tables.names.recorded, 3);
            for f in inner.tables.files.values() {
                assert_eq!(f.delivered, [0b111]);
                let log: Vec<&[u8]> = f.log.iter().map(|(_, bits)| &bits[..]).collect();
                assert_eq!(log, [&[0b011u8][..], &[0b100][..]], "one entry per record");
            }
        }
        for db in [db, reopened] {
            for &f in &files {
                db.record_expiration(f, TimePoint::from_secs(9)).unwrap();
            }
            assert!(db.deliveries_since(0).is_empty());
            let inner = db.inner.lock();
            assert!(inner.tables.files.is_empty(), "sets and log went with them");
            assert!(inner.tables.by_feed.values().all(BTreeSet::is_empty));
            assert_eq!(inner.tables.names.by_id.len(), 3);
        }
    }

    fn wal_len(store: &Arc<MemFs>) -> usize {
        wal_dump(store).iter().map(|(_, bytes)| bytes.len()).sum()
    }

    /// A receipt for a file that is not live — expired, or never seen —
    /// used to append a record, count, and leave a table entry no
    /// `Expire` would ever remove.
    #[test]
    fn delivery_to_a_file_that_is_not_live_is_refused() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let gone = arrive(&db, "gone.csv", &["F"], 1);
        let live = arrive(&db, "live.csv", &["F"], 2);
        db.record_delivery(gone, "sub1", TimePoint::from_secs(3))
            .unwrap();
        db.record_expiration(gone, TimePoint::from_secs(4)).unwrap();
        let (count, len, digest) = (db.delivery_count(), wal_len(&store), db.state_digest());

        for file in [gone, FileId(999)] {
            assert_eq!(
                db.record_delivery(file, "sub2", TimePoint::from_secs(5)),
                Err(ReceiptError::UnknownFile(file))
            );
        }
        // in a drain such pairs are skipped, and name nobody
        let outcomes = db
            .record_deliveries(
                [
                    (gone, "sub3"),
                    (live, "sub1"),
                    (FileId(999), "sub1"),
                    (live, "sub1"),
                ],
                TimePoint::from_secs(5),
            )
            .unwrap();
        use DeliveryOutcome::*;
        assert_eq!(
            outcomes,
            [UnknownFile, Recorded, UnknownFile, AlreadyDelivered]
        );
        db.record_expiration(live, TimePoint::from_secs(7)).unwrap();
        assert_eq!(db.delivery_count(), count + 1);
        assert_eq!(db.inner.lock().tables.names.by_id.len(), 1);
        assert!(db.inner.lock().tables.files.is_empty());

        // and before the drain nothing had moved at all
        let fresh = MemFs::shared(SimClock::new());
        let db2 = open(&fresh);
        let gone = arrive(&db2, "gone.csv", &["F"], 1);
        arrive(&db2, "live.csv", &["F"], 2);
        db2.record_delivery(gone, "sub1", TimePoint::from_secs(3))
            .unwrap();
        db2.record_expiration(gone, TimePoint::from_secs(4))
            .unwrap();
        assert!(db2
            .record_delivery(gone, "sub2", TimePoint::from_secs(5))
            .is_err());
        assert_eq!(
            (db2.delivery_count(), wal_len(&fresh), db2.state_digest()),
            (count, len, digest)
        );
        let reopened = open(&fresh);
        assert_eq!(reopened.delivery_count(), count);
        assert_eq!(reopened.state_digest(), digest);
    }

    /// Hand-write a receipt WAL: `payloads` as consecutive records.
    fn write_wal(store: &Arc<MemFs>, payloads: &[Vec<u8>]) {
        let mut wal = Wal::open(
            store.clone() as Arc<dyn FileStore>,
            "receipts/wal",
            |_, _| {},
        )
        .unwrap();
        for p in payloads {
            wal.append(p).unwrap();
        }
    }

    fn file_record(id: u64, name: &str) -> FileRecord {
        FileRecord {
            id: FileId(id),
            name: name.to_string(),
            staged_path: format!("staging/{name}"),
            size: 100,
            arrival: TimePoint::from_secs(id),
            feed_time: None,
            feeds: vec!["F".to_string()],
        }
    }

    /// Recovery used to skip an intact record it could not decode without
    /// a count or an error — for a record kind a newer build added, every
    /// receipt in it silently became a re-delivery.
    #[test]
    fn recovery_does_not_silently_drop_what_it_cannot_decode() {
        let arrivals = [
            Record::Arrival(file_record(1, "a.csv")).encode(),
            Record::Arrival(file_record(2, "b.csv")).encode(),
        ];
        // a tag no build knows, between two arrivals: open fails, loudly
        let store = MemFs::shared(SimClock::new());
        write_wal(
            &store,
            &[arrivals[0].clone(), vec![99, 1, 2, 3], arrivals[1].clone()],
        );
        let err = ReceiptStore::open(store.clone() as Arc<dyn FileStore>, "receipts")
            .err()
            .expect("an unknown record kind must not open clean");
        assert_eq!(err, ReceiptError::UnknownRecord { seq: 2, tag: 99 });
        assert!(err.to_string().contains("record 2 has tag 99"), "{err}");

        // a known kind that does not decode, or contradicts the name
        // table: skipped, but counted
        let store = MemFs::shared(SimClock::new());
        let mut cut = arrivals[1].clone();
        cut.truncate(cut.len() - 1);
        let set_of_nobody = Record::Delivered {
            file: FileId(1),
            at: TimePoint::from_secs(3),
            bits: vec![0b1],
        };
        write_wal(
            &store,
            &[
                arrivals[0].clone(),
                cut,
                set_of_nobody.encode(),
                arrivals[1].clone(),
            ],
        );
        let db = open(&store);
        assert_eq!(db.live_count(), 2);
        assert_eq!(db.delivery_count(), 0);
        let info = db.recovery_info();
        assert_eq!((info.wal_records, info.undecodable_records), (2, 2));
        let reg = bistro_telemetry::Registry::new();
        db.set_telemetry(&reg, SimClock::new());
        assert_eq!(reg.counter_value("recovery.undecodable_records"), Some(2));
    }

    /// A store the previous format wrote — a v2 snapshot and a WAL of
    /// per-pair `Delivery` records — opens to the same tables, keeps
    /// working with set records following in the same log, and never
    /// hands out an id twice.
    #[test]
    fn stores_written_with_legacy_delivery_records_open_and_keep_working() {
        let delivery = |file: u64, sub: &str| {
            Record::Delivery {
                file: FileId(file),
                subscriber: sub.to_string(),
                at: TimePoint::from_secs(50),
            }
            .encode()
        };
        let store = MemFs::shared(SimClock::new());
        let snap_records = [
            Record::Arrival(file_record(4, "a.csv")).encode(),
            Record::Arrival(file_record(5, "b.csv")).encode(),
            delivery(4, "alice"),
            delivery(4, "bob"),
            delivery(5, "bob"),
        ];
        let mut body = ByteWriter::new();
        body.put_varint(snap_records.len() as u64);
        for rec in &snap_records {
            body.put_bytes(rec);
        }
        let body = body.into_bytes();
        let mut snap = Vec::new();
        snap.extend_from_slice(b"BSNP");
        snap.push(2u8);
        snap.extend_from_slice(&crc32(&body).to_le_bytes());
        snap.extend_from_slice(&3u64.to_le_bytes()); // expired
        snap.extend_from_slice(&5u64.to_le_bytes()); // id high-water
        snap.extend_from_slice(&body);
        store.create_dir_all("receipts").unwrap();
        store.write("receipts/snapshot.bin", &snap).unwrap();
        write_wal(
            &store,
            &[
                Record::Arrival(file_record(6, "c.csv")).encode(),
                delivery(6, "carol"),
                delivery(4, "carol"),
                delivery(5, "alice"),
                delivery(5, "alice"), // the old log could repeat itself
            ],
        );

        let feeds = ["F".to_string()];
        let pending = |db: &ReceiptStore, sub: &str| -> Vec<String> {
            let files = db.pending_for(sub, &feeds);
            files.into_iter().map(|f| f.name).collect()
        };
        let db = open(&store);
        // as the build that wrote them recovers these bytes
        assert_eq!(db.state_digest(), LEGACY_FIXTURE_DIGEST);
        assert_eq!(db.delivery_count(), 6);
        assert_eq!(db.expired_count(), 3);
        assert_eq!(pending(&db, "alice"), ["c.csv"]);
        assert_eq!(pending(&db, "bob"), ["c.csv"]);
        assert_eq!(pending(&db, "carol"), ["b.csv"]);
        assert_eq!(db.deliveries_since(0).len(), 6);
        assert_eq!(db.deliveries_since(1).len(), 3);

        // set records follow in the same log; a new name joins the table
        let (c, at) = (FileId(6), TimePoint::from_secs(60));
        db.record_deliveries([(c, "alice"), (c, "dave"), (FileId(5), "dave")], at)
            .unwrap();
        let (digest, names) = (
            db.state_digest(),
            db.inner.lock().tables.names.by_id.clone(),
        );
        assert_eq!(names.len(), 4);
        drop(db);
        let db = open(&store);
        assert_eq!(db.recovery_info().undecodable_records, 0);
        assert_eq!(db.state_digest(), digest);
        assert_eq!(db.inner.lock().tables.names.by_id, names);
        assert_eq!(db.delivery_count(), 9);
        assert_eq!(pending(&db, "dave"), ["a.csv"]);

        // an id handed out after the reopen is a fresh one, and the ids
        // on record still mean who they meant
        db.record_delivery(FileId(4), "erin", at).unwrap();
        {
            let inner = db.inner.lock();
            assert_eq!(inner.tables.names.by_id[..4], names[..]);
            assert_eq!(&*inner.tables.names.by_id[4], "erin");
        }
        assert!(db.is_delivered(FileId(4), "alice") && !db.is_delivered(FileId(4), "dave"));
        let digest = db.state_digest();
        db.snapshot().unwrap();
        assert_eq!(store.read("receipts/snapshot.bin").unwrap()[4], 3);
        drop(db);
        let db = open(&store);
        assert_eq!(db.state_digest(), digest);
        assert_eq!(pending(&db, "erin"), ["b.csv", "c.csv"]);
        let next = arrive(&db, "d.csv", &["F"], 70);
        assert_eq!(next.raw(), 7, "file ids resume past the high-water mark");
    }

    /// `state_digest` of the legacy fixture above, as the last build that
    /// wrote `Delivery` records computes it from the same bytes.
    const LEGACY_FIXTURE_DIGEST: u64 = 12_598_060_974_288_948_117;

    #[test]
    fn recovery_replays_state() {
        let store = MemFs::shared(SimClock::new());
        let (f1, f2);
        {
            let db = open(&store);
            f1 = arrive(&db, "a.csv", &["F"], 100);
            f2 = arrive(&db, "b.csv", &["F", "G"], 200);
            db.record_delivery(f1, "sub1", TimePoint::from_secs(150))
                .unwrap();
        } // "crash"
        let db = open(&store);
        assert_eq!(db.live_count(), 2);
        assert!(db.is_delivered(f1, "sub1"));
        assert!(!db.is_delivered(f2, "sub1"));
        let queue = db.pending_for("sub1", &["F".to_string()]);
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].id, f2);
        // ids continue without collision
        let f3 = arrive(&db, "c.csv", &["F"], 300);
        assert!(f3.raw() > f2.raw());
    }

    #[test]
    fn expiration_removes_from_queues() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f1 = arrive(&db, "old.csv", &["F"], 100);
        let _f2 = arrive(&db, "new.csv", &["F"], 10_000);

        let victims = db.expire_candidates(TimePoint::from_secs(1_000));
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].id, f1);
        db.record_expiration(f1, TimePoint::from_secs(10_001))
            .unwrap();

        assert_eq!(db.live_count(), 1);
        assert_eq!(db.expired_count(), 1);
        assert_eq!(db.pending_for("s", &["F".to_string()]).len(), 1);
    }

    #[test]
    fn reclassification_moves_feeds() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f1 = arrive(&db, "a.csv", &["OLD"], 100);
        db.record_reclassification(f1, vec!["NEW".to_string()])
            .unwrap();
        assert!(db.pending_for("s", &["OLD".to_string()]).is_empty());
        assert_eq!(db.pending_for("s", &["NEW".to_string()]).len(), 1);
        // survives recovery
        drop(db);
        let db = open(&store);
        assert_eq!(db.pending_for("s", &["NEW".to_string()]).len(), 1);
    }

    #[test]
    fn snapshot_bounds_recovery_and_preserves_state() {
        let store = MemFs::shared(SimClock::new());
        {
            let db = open(&store);
            for i in 0..100 {
                let id = arrive(&db, &format!("f{i}.csv"), &["F"], 100 + i);
                if i % 2 == 0 {
                    db.record_delivery(id, "sub1", TimePoint::from_secs(200 + i))
                        .unwrap();
                }
            }
            let f_exp = db.pending_for("never", &["F".to_string()])[0].id;
            db.record_expiration(f_exp, TimePoint::from_secs(9_999))
                .unwrap();
            db.snapshot().unwrap();
            // post-snapshot activity must also survive
            arrive(&db, "post.csv", &["F"], 500);
        }
        let db = open(&store);
        assert_eq!(db.live_count(), 100); // 100 - 1 expired + 1 post
        assert_eq!(db.expired_count(), 1);
        let pending = db.pending_for("sub1", &["F".to_string()]);
        // 99 live originals: 50 delivered (one of which expired ⇒ 49 or 50
        // delivered among live), compute directly instead:
        let expect: usize = 100 - 50 + 1 - 1; // originals - delivered + post - expired(undelivered even id? id1 is odd)
        let _ = expect;
        assert!(!pending.is_empty());
        for f in &pending {
            assert!(!db.is_delivered(f.id, "sub1"));
        }
    }

    #[test]
    fn torn_snapshot_tmp_is_discarded_on_open() {
        let store = MemFs::shared(SimClock::new());
        {
            let db = open(&store);
            for i in 0..5 {
                arrive(&db, &format!("f{i}.csv"), &["F"], 100 + i);
            }
            db.snapshot().unwrap();
            arrive(&db, "post.csv", &["F"], 500);
        }
        // simulate a crash mid-snapshot: a torn temp file is left behind,
        // while snapshot.bin (the previous one) is whole
        store
            .write("receipts/snapshot.tmp", b"BSNP\x02torn-partial-garbage")
            .unwrap();
        let db = open(&store);
        assert_eq!(db.live_count(), 6);
        assert!(db.recovery_info().tmp_discarded);
        assert!(!store.exists("receipts/snapshot.tmp"));
    }

    #[test]
    fn snapshot_is_written_via_atomic_replace() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        arrive(&db, "a.csv", &["F"], 100);
        db.snapshot().unwrap();
        arrive(&db, "b.csv", &["F"], 200);
        db.snapshot().unwrap();
        assert!(!store.exists("receipts/snapshot.tmp"));
        let snap = store.read("receipts/snapshot.bin").unwrap();
        assert_eq!(&snap[0..4], b"BSNP");
        assert_eq!(snap[4], 3);
    }

    #[test]
    fn v1_snapshots_still_readable() {
        let store = MemFs::shared(SimClock::new());
        // hand-craft a v1 snapshot: one live arrival (id 1), 7 expired
        let rec = Record::Arrival(FileRecord {
            id: FileId(1),
            name: "old.csv".to_string(),
            staged_path: "staging/old.csv".to_string(),
            size: 42,
            arrival: TimePoint::from_secs(100),
            feed_time: None,
            feeds: vec!["F".to_string()],
        });
        let mut body = ByteWriter::new();
        body.put_varint(1);
        body.put_bytes(&rec.encode());
        let body = body.into_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(b"BSNP");
        out.push(1u8);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&7u32.to_le_bytes());
        out.extend_from_slice(&body);
        store.create_dir_all("receipts").unwrap();
        store.write("receipts/snapshot.bin", &out).unwrap();

        let db = open(&store);
        assert_eq!(db.live_count(), 1);
        assert_eq!(db.expired_count(), 7);
        // v1 has no high-water: the legacy heuristic (live max + expired)
        // must still apply, so the next id clears the expired range
        let next = arrive(&db, "new.csv", &["F"], 200);
        assert_eq!(next.raw(), 9);
    }

    #[test]
    fn burned_ids_are_never_reissued_after_restarts() {
        // An arrival append can fail after its id was allocated — the id
        // is "burned": never durable, but also never safe to hand out
        // again once *later* ids are on record. The old heuristic
        // (live max + expired count) under-estimated after expirations
        // emptied the live set, re-issuing a durably-used id.
        let store = MemFs::shared(SimClock::new());
        let mut seen = std::collections::BTreeSet::new();
        {
            let db = open(&store);
            let a = arrive(&db, "a.csv", &["F"], 100);
            let b = arrive(&db, "b.csv", &["F"], 110);
            db.record_expiration(a, TimePoint::from_secs(1_000))
                .unwrap();
            db.record_expiration(b, TimePoint::from_secs(1_000))
                .unwrap();
            let c = arrive(&db, "c.csv", &["F"], 10_000);
            let d = arrive(&db, "d.csv", &["F"], 10_001);
            seen.extend([a.raw(), b.raw(), c.raw()]);
            let _ = d; // torn below: never becomes durable
        }
        // tear the tail of the WAL so d's arrival never happened
        let mut seg = store.read("receipts/wal/0000000001.seg").unwrap();
        let n = seg.len();
        seg.truncate(n - 3);
        store.write("receipts/wal/0000000001.seg", &seg).unwrap();

        {
            let db = open(&store);
            assert_eq!(db.live_count(), 1); // only c survived
            let e = arrive(&db, "e.csv", &["F"], 10_002);
            assert!(!seen.contains(&e.raw()), "id {e} reissued");
            seen.insert(e.raw());
            for f in db.all_live() {
                db.record_expiration(f.id, TimePoint::from_secs(20_000))
                    .unwrap();
            }
        }
        {
            let db = open(&store);
            assert_eq!(db.live_count(), 0);
            for name in ["f.csv", "g.csv"] {
                let id = arrive(&db, name, &["F"], 30_000);
                assert!(!seen.contains(&id.raw()), "id {id} reissued for {name}");
                seen.insert(id.raw());
            }
        }
    }

    #[test]
    fn high_water_survives_snapshot_roundtrip() {
        let store = MemFs::shared(SimClock::new());
        {
            let db = open(&store);
            let a = arrive(&db, "a.csv", &["F"], 100);
            db.record_expiration(a, TimePoint::from_secs(500)).unwrap();
            db.snapshot().unwrap(); // live set empty; high-water = 1
        }
        let db = open(&store);
        let b = arrive(&db, "b.csv", &["F"], 600);
        assert!(b.raw() > 1, "expired id 1 reissued");
    }

    #[test]
    fn corrupt_snapshot_detected() {
        let store = MemFs::shared(SimClock::new());
        {
            let db = open(&store);
            arrive(&db, "a.csv", &["F"], 100);
            db.snapshot().unwrap();
        }
        let mut snap = store.read("receipts/snapshot.bin").unwrap();
        let n = snap.len();
        snap[n - 1] ^= 0x01;
        store.write("receipts/snapshot.bin", &snap).unwrap();
        let err = ReceiptStore::open(store.clone() as Arc<dyn FileStore>, "receipts");
        assert!(matches!(err, Err(ReceiptError::CorruptSnapshot(_))));
    }

    #[test]
    fn new_subscriber_sees_full_history() {
        // §4.2: "New feed subscribers can be added at any moment with the
        // expectation that they will be receiving a full available history"
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        for i in 0..10 {
            arrive(&db, &format!("f{i}.csv"), &["F"], 100 + i);
        }
        let queue = db.pending_for("brand_new_subscriber", &["F".to_string()]);
        assert_eq!(queue.len(), 10);
    }

    #[test]
    fn multi_feed_files_dedupe_in_queue() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        arrive(&db, "x.csv", &["A", "B"], 100);
        let queue = db.pending_for("s", &["A".to_string(), "B".to_string()]);
        assert_eq!(queue.len(), 1, "file in two subscribed feeds appears once");
    }

    /// Sorted (path, bytes) view of the receipt WAL directory.
    fn wal_dump(store: &Arc<MemFs>) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = store
            .list_dir("receipts/wal")
            .unwrap()
            .iter()
            .map(|e| {
                let p = format!("receipts/wal/{}", e.name);
                let d = store.read(&p).unwrap();
                (p, d)
            })
            .collect();
        out.sort();
        out
    }

    /// Drive the same mixed workload with and without group commit: the
    /// WAL bytes and recovered state must be identical for every group
    /// size, and batching must actually amortize physical appends.
    #[test]
    fn group_commit_wal_bytes_identical_across_group_sizes() {
        let drive = |group: Option<usize>| -> (Arc<MemFs>, GroupCommitStats) {
            let store = MemFs::shared(SimClock::new());
            let db = open(&store);
            let mut stats = GroupCommitStats::default();
            for round in 0..3u64 {
                if let Some(g) = group {
                    db.begin_group(g);
                }
                let mut ids = Vec::new();
                for i in 0..7u64 {
                    let t = ArrivalTemplate::new(
                        format!("r{round}_f{i}.csv"),
                        format!("staging/r{round}_f{i}.csv"),
                        64 + i,
                        Some(TimePoint::from_secs(100 + i)),
                        vec!["F".to_string()],
                    );
                    ids.push(
                        db.record_arrival_prepared(&t, TimePoint::from_secs(1_000 + round))
                            .unwrap(),
                    );
                }
                // deliveries raised mid-window route through the buffer too
                db.record_delivery(ids[0], "sub1", TimePoint::from_secs(2_000))
                    .unwrap();
                if group.is_some() {
                    let s = db.end_group().unwrap();
                    stats.records += s.records;
                    stats.physical_appends += s.physical_appends;
                    stats.flushes += s.flushes;
                }
            }
            (store, stats)
        };
        let (reference, _) = drive(None);
        let expect = wal_dump(&reference);
        for group in [1usize, 2, 3, 64] {
            let (store, stats) = drive(Some(group));
            assert_eq!(wal_dump(&store), expect, "group={group}");
            // 3 × (7 arrivals + a set), and sub1's `Subscriber` record once
            assert_eq!(stats.records, 25, "group={group}");
            if group >= 8 {
                assert_eq!(stats.physical_appends, 3, "group={group}");
            }
            // recovery sees the same world
            let db = open(&store);
            assert_eq!(db.live_count(), 21);
            assert!(db.is_delivered(FileId(1), "sub1"));
        }
    }

    #[test]
    fn snapshot_inside_group_window_flushes_pending_first() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        db.begin_group(1024); // never auto-flushes
        arrive(&db, "a.csv", &["F"], 100);
        arrive(&db, "b.csv", &["F"], 200);
        db.snapshot().unwrap();
        let s = db.end_group().unwrap();
        assert_eq!(s.records, 2);
        assert_eq!(s.flushes, 1, "snapshot forced the flush");
        // both records are durable: a reopen (snapshot + pruned WAL) sees them
        drop(db);
        let db = open(&store);
        assert_eq!(db.live_count(), 2);
    }

    #[test]
    fn crash_mid_group_loses_whole_suffix_only() {
        let store = MemFs::shared(SimClock::new());
        {
            let db = open(&store);
            db.begin_group(2); // flush after every 2 records
            for i in 0..5u64 {
                arrive(&db, &format!("f{i}.csv"), &["F"], 100 + i);
            }
            // crash before end_group: the 5th record was never flushed
        }
        let db = open(&store);
        assert_eq!(
            db.live_count(),
            4,
            "buffered suffix lost, flushed prefix kept"
        );
        let live: Vec<u64> = db.all_live().iter().map(|f| f.id.raw()).collect();
        assert_eq!(live, vec![1, 2, 3, 4], "prefix of whole records");
        // id 5 burned but never durable and nothing later on record: it
        // may be reissued, same contract as a failed per-record append
        let next = arrive(&db, "next.csv", &["F"], 999);
        assert!(next.raw() >= 5);
    }

    #[test]
    fn prepared_arrival_equals_plain_arrival_bytes() {
        let a = MemFs::shared(SimClock::new());
        let b = MemFs::shared(SimClock::new());
        let da = open(&a);
        let db = open(&b);
        arrive(&da, "x.csv", &["F", "G"], 123);
        let t = ArrivalTemplate::new(
            "x.csv".to_string(),
            "staging/x.csv".to_string(),
            100,
            Some(TimePoint::from_secs(123)),
            vec!["F".to_string(), "G".to_string()],
        );
        db.record_arrival_prepared(&t, TimePoint::from_secs(123))
            .unwrap();
        assert_eq!(wal_dump(&a), wal_dump(&b));
    }

    #[test]
    fn delivery_cursor_pages_and_survives_recovery() {
        let store = MemFs::shared(SimClock::new());
        let (f1, f2, cursor_mid);
        {
            let db = open(&store);
            f1 = arrive(&db, "a.csv", &["F"], 100);
            f2 = arrive(&db, "b.csv", &["F"], 200);
            db.record_delivery(f1, "s1", TimePoint::from_secs(150))
                .unwrap();
            cursor_mid = db.delivery_cursor();
            db.record_delivery(f2, "s1", TimePoint::from_secs(250))
                .unwrap();
            db.record_delivery(f1, "s2", TimePoint::from_secs(260))
                .unwrap();
            // duplicates never re-enter the log
            db.record_delivery(f1, "s1", TimePoint::from_secs(270))
                .unwrap();

            let all = db.deliveries_since(0);
            assert_eq!(all.len(), 3);
            assert_eq!(all[0].file_name, "a.csv");
            assert_eq!(all[0].subscriber, "s1");
            // marks are ordered by WAL sequence and pageable mid-stream
            let tail = db.deliveries_since(cursor_mid);
            assert_eq!(tail.len(), 2);
            assert_eq!(tail[0].file_name, "b.csv");
            assert_eq!(tail[1].subscriber, "s2");
            assert!(db.deliveries_since(db.delivery_cursor()).is_empty());
        } // crash
        let db = open(&store);
        // WAL replay rebuilds the log with the original sequences
        assert_eq!(db.deliveries_since(0).len(), 3);
        assert_eq!(db.deliveries_since(cursor_mid).len(), 2);
    }

    #[test]
    fn delivery_cursor_covers_snapshot_receipts_at_seq_zero() {
        let store = MemFs::shared(SimClock::new());
        {
            let db = open(&store);
            let f1 = arrive(&db, "a.csv", &["F"], 100);
            db.record_delivery(f1, "s1", TimePoint::from_secs(150))
                .unwrap();
            db.snapshot().unwrap(); // prunes the covering WAL segments
            let f2 = arrive(&db, "b.csv", &["F"], 200);
            db.record_delivery(f2, "s1", TimePoint::from_secs(250))
                .unwrap();
        }
        let db = open(&store);
        let all = db.deliveries_since(0);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].seq, 0, "snapshot-covered receipt enters at seq 0");
        assert_eq!(all[0].file_name, "a.csv");
        assert!(all[1].seq > 0, "post-snapshot receipt keeps its WAL seq");
        assert_eq!(all[1].file_name, "b.csv");
    }

    #[test]
    fn delivery_cursor_group_commit_sequences_match_flushed_wal() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f1 = arrive(&db, "a.csv", &["F"], 100);
        let f2 = arrive(&db, "b.csv", &["F"], 200);
        db.begin_group(64);
        db.record_delivery(f1, "s1", TimePoint::from_secs(300))
            .unwrap();
        db.record_delivery(f2, "s1", TimePoint::from_secs(301))
            .unwrap();
        db.end_group().unwrap();
        let predicted: Vec<u64> = db.deliveries_since(1).iter().map(|m| m.seq).collect();
        drop(db);
        // replay assigns the real sequences: they must match the
        // predictions made while the records were still buffered
        let db = open(&store);
        let replayed: Vec<u64> = db.deliveries_since(1).iter().map(|m| m.seq).collect();
        assert_eq!(predicted, replayed);
    }

    #[test]
    fn file_by_name_finds_live_files_only() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f1 = arrive(&db, "a.csv", &["F"], 100);
        assert_eq!(db.file_by_name("a.csv").unwrap().id, f1);
        assert!(db.file_by_name("missing.csv").is_none());
        db.record_expiration(f1, TimePoint::from_secs(500)).unwrap();
        assert!(db.file_by_name("a.csv").is_none());
    }

    #[test]
    fn delivery_idempotent() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f = arrive(&db, "a.csv", &["F"], 100);
        db.record_delivery(f, "s", TimePoint::from_secs(1)).unwrap();
        db.record_delivery(f, "s", TimePoint::from_secs(2)).unwrap();
        assert_eq!(db.delivery_count(), 1);
    }

    #[test]
    fn group_marks_merge_idempotently() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f = arrive(&db, "a.csv", &["F"], 100);
        assert!(db.group_coverage(f, "G").is_none());
        db.record_group_mark(f, "G", &[0b0000_0101], 1).unwrap();
        assert_eq!(db.group_coverage(f, "G"), Some((vec![0b0000_0101], 1)));
        // widening mark ORs in; watermark is a max
        db.record_group_mark(f, "G", &[0b0000_0010, 0x01], 3)
            .unwrap();
        assert_eq!(
            db.group_coverage(f, "G"),
            Some((vec![0b0000_0111, 0x01], 3))
        );
        // replaying an old (narrower) mark changes nothing
        db.record_group_mark(f, "G", &[0b0000_0101], 1).unwrap();
        assert_eq!(
            db.group_coverage(f, "G"),
            Some((vec![0b0000_0111, 0x01], 3))
        );
        // per-group isolation
        db.record_group_mark(f, "H", &[0x01], 1).unwrap();
        assert_eq!(db.group_coverage(f, "H"), Some((vec![0x01], 1)));
        assert_eq!(
            db.group_coverage(f, "G"),
            Some((vec![0b0000_0111, 0x01], 3))
        );
        // marks against an unknown file are dropped, not indexed
        db.record_group_mark(FileId(999), "G", &[0xFF], 8).unwrap();
        assert!(db.group_coverage(FileId(999), "G").is_none());
    }

    #[test]
    fn group_marks_survive_replay_and_snapshot() {
        let store = MemFs::shared(SimClock::new());
        let (f1, f2);
        {
            let db = open(&store);
            f1 = arrive(&db, "a.csv", &["F"], 100);
            f2 = arrive(&db, "b.csv", &["F"], 200);
            db.record_group_mark(f1, "G", &[0b0000_1111], 4).unwrap();
            db.record_group_mark(f2, "G", &[0x01], 1).unwrap();
        } // crash: WAL replay
        {
            let db = open(&store);
            assert_eq!(db.group_coverage(f1, "G"), Some((vec![0b0000_1111], 4)));
            assert_eq!(db.group_coverage(f2, "G"), Some((vec![0x01], 1)));
            db.record_group_mark(f1, "G", &[0b0011_0000], 6).unwrap();
            db.snapshot().unwrap(); // marks must round-trip the snapshot
            db.record_expiration(f2, TimePoint::from_secs(900)).unwrap();
        }
        let db = open(&store);
        assert_eq!(db.group_coverage(f1, "G"), Some((vec![0b0011_1111], 6)));
        assert!(
            db.group_coverage(f2, "G").is_none(),
            "expiration drops the file's group marks"
        );
    }

    #[test]
    fn group_marks_change_state_digest() {
        let store = MemFs::shared(SimClock::new());
        let db = open(&store);
        let f = arrive(&db, "a.csv", &["F"], 100);
        let before = db.state_digest();
        db.record_group_mark(f, "G", &[0x03], 2).unwrap();
        let after = db.state_digest();
        assert_ne!(before, after, "coverage is part of the recovery state");
        // merging in an already-covered mark leaves the digest fixed
        db.record_group_mark(f, "G", &[0x01], 1).unwrap();
        assert_eq!(db.state_digest(), after);
    }
}

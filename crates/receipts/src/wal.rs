//! Segmented, CRC-framed write-ahead log.
//!
//! Records are appended to numbered segment files
//! (`<dir>/0000000001.seg`, …) under a [`FileStore`]. A segment is
//! frames and nothing else:
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload bytes]
//! ```
//!
//! Replay reads segments in order and stops at the first torn or corrupt
//! frame — everything before it is durable, everything after is treated
//! as a crashed-in-flight write and discarded (and the segment is
//! truncated on the next append). A snapshot covers every segment below
//! the active one: it [rotates](Wal::rotate) first and records the number
//! of the segment it does not cover, [`Wal::open`] removes the segments
//! below that number without reading them, and [`Wal::prune`] removes
//! them once the snapshot is in place. [`Wal::bytes`] counts what is
//! left: the bytes a reopen would replay.

use bistro_base::checksum::crc32;
use bistro_base::SharedClock;
use bistro_telemetry::{Counter, Histogram, Registry};
use bistro_vfs::{FileStore, VfsError};
use std::fmt;
use std::sync::Arc;

/// Errors from WAL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying filesystem error.
    Vfs(VfsError),
    /// A segment filename did not parse.
    BadSegmentName(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Vfs(e) => write!(f, "wal i/o: {e}"),
            WalError::BadSegmentName(n) => write!(f, "bad wal segment name: {n}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<VfsError> for WalError {
    fn from(e: VfsError) -> Self {
        WalError::Vfs(e)
    }
}

/// Frame header size.
const FRAME_HEADER: usize = 8;

/// Telemetry handles for a WAL (attached via [`Wal::set_telemetry`]).
struct WalMetrics {
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    rotations: Arc<Counter>,
    /// Durable-write latency per append, in clock microseconds. Under a
    /// `SimClock` this is the simulated cost (zero unless something
    /// advances the clock mid-append), keeping instrumented runs
    /// deterministic.
    fsync_us: Arc<Histogram>,
    clock: SharedClock,
}

/// How a [`Wal::append_batch`] group was committed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupAppendStats {
    /// Records in the group.
    pub records: u64,
    /// Physical store appends issued (one per segment the group touched;
    /// 1 when no rotation happened mid-group).
    pub physical_appends: u64,
}

/// A segmented write-ahead log.
pub struct Wal {
    store: Arc<dyn FileStore>,
    dir: String,
    /// The active segment's path, rendered when the segment changes
    /// instead of once per append.
    active_path: String,
    /// The frame under construction, reused across [`Wal::append`]s.
    frame: Vec<u8>,
    /// Bytes in the active segment: whole frames only, so it holds a
    /// record exactly when this is not zero.
    active_bytes: u64,
    /// Bytes of whole frames in every segment on disk, the active one
    /// included — what a reopen would replay, counting what the last
    /// open replayed.
    bytes: u64,
    /// The numbers of the segments on disk, oldest first; the active one
    /// is last (it has no file until its first append).
    segments: Vec<u64>,
    /// Rotate segments at this size.
    segment_bytes: u64,
    /// Optional `wal.*` metrics.
    metrics: Option<WalMetrics>,
}

/// Default segment rotation size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

fn segment_path(dir: &str, n: u64) -> String {
    format!("{dir}/{n:010}.seg")
}

impl Wal {
    /// Open (or create) a WAL in `dir`, replaying existing records into
    /// `apply`. Returns the WAL positioned for appending.
    ///
    /// Segments numbered below `first` are covered by a snapshot: they
    /// are removed without being read, and no new segment is numbered
    /// below `first`. `apply` is called once per intact record of the
    /// rest, in order.
    pub fn open(
        store: Arc<dyn FileStore>,
        dir: &str,
        first: u64,
        mut apply: impl FnMut(&[u8]),
    ) -> Result<Wal, WalError> {
        store.create_dir_all(dir)?;
        let mut segments: Vec<u64> = Vec::new();
        for entry in store.list_dir(dir)? {
            if let Some(stem) = entry.name.strip_suffix(".seg") {
                let n: u64 = stem
                    .parse()
                    .map_err(|_| WalError::BadSegmentName(entry.name.clone()))?;
                segments.push(n);
            }
        }
        segments.sort_unstable();
        let covered = segments.partition_point(|&n| n < first);
        for n in segments.drain(..covered) {
            store.remove(&segment_path(dir, n))?;
        }

        let (mut active_bytes, mut bytes) = (0u64, 0u64);
        let mut end = segments.len();
        for (i, &seg) in segments.iter().enumerate() {
            let path = segment_path(dir, seg);
            let data = store.read(&path)?;
            let valid = Self::replay_segment(&data, &mut apply);
            active_bytes = valid as u64;
            bytes += active_bytes;
            if valid < data.len() {
                // a torn tail, or corruption in a non-final segment:
                // everything after it is unreachable, so truncate here
                // and make this the active segment (later segments are
                // stale garbage from a crash)
                store.write(&path, &data[..valid])?;
                for &later in &segments[i + 1..] {
                    store.remove(&segment_path(dir, later))?;
                }
                end = i + 1;
                break;
            }
        }
        segments.truncate(end);
        if segments.is_empty() {
            segments.push(first.max(1));
        }

        let active = segments[segments.len() - 1];
        Ok(Wal {
            store,
            dir: dir.to_string(),
            active_path: segment_path(dir, active),
            frame: Vec::new(),
            active_bytes,
            bytes,
            segments,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            metrics: None,
        })
    }

    /// Attach `wal.*` metrics: append/rotation counters and the
    /// durable-write latency histogram `wal.fsync_us`, timed on `clock`.
    pub fn set_telemetry(&mut self, reg: &Registry, clock: SharedClock) {
        self.metrics = Some(WalMetrics {
            appends: reg.counter("wal.appends"),
            bytes: reg.counter("wal.bytes"),
            rotations: reg.counter("wal.rotations"),
            fsync_us: reg.histogram("wal.fsync_us"),
            clock,
        });
    }

    /// Replay one segment buffer; returns the byte offset of the first
    /// invalid frame (== `data.len()` if the whole segment is intact).
    fn replay_segment(data: &[u8], apply: &mut impl FnMut(&[u8])) -> usize {
        let mut pos = 0usize;
        while pos + FRAME_HEADER <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let end = pos + FRAME_HEADER + len;
            if end > data.len() {
                break; // torn write
            }
            let payload = &data[pos + FRAME_HEADER..end];
            if crc32(payload) != crc {
                break; // corrupt
            }
            apply(payload);
            pos = end;
        }
        pos
    }

    /// Override the segment rotation size (tests use small segments).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(FRAME_HEADER as u64 + 1);
    }

    /// The segment rotation size.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Bytes of whole records in the segments on disk: what a reopen
    /// would replay, the records the last open replayed included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Move on to the next (empty) segment.
    fn advance_segment(&mut self) {
        let next = self.segments[self.segments.len() - 1] + 1;
        self.active_path = segment_path(&self.dir, next);
        self.active_bytes = 0;
        self.segments.push(next);
        if let Some(m) = &self.metrics {
            m.rotations.inc();
        }
    }

    /// Frame `payload` into `frame` (cleared first).
    fn frame_record(frame: &mut Vec<u8>, payload: &[u8]) {
        frame.clear();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
    }

    /// Append one record.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        if self.active_bytes >= self.segment_bytes {
            self.advance_segment();
        }
        let mut frame = std::mem::take(&mut self.frame);
        Self::frame_record(&mut frame, payload);
        let started = self.metrics.as_ref().map(|m| m.clock.now());
        let appended = self.store.append(&self.active_path, &frame);
        let len = frame.len() as u64;
        self.frame = frame;
        appended?;
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            m.fsync_us.record(m.clock.now().since(t0).as_micros());
            m.appends.inc();
            m.bytes.add(len);
        }
        self.active_bytes += len;
        self.bytes += len;
        Ok(())
    }

    /// Append a group of records with one physical store append (and so
    /// one fsync on a real filesystem) per touched segment, instead of
    /// one per record. Returns how the group was committed.
    ///
    /// The byte stream is **identical** to calling [`Wal::append`] once
    /// per payload: rotation is decided record by record while framing,
    /// so segment boundaries land exactly where the per-record path
    /// would put them — group size can never change the WAL bytes. Each
    /// frame is handed to the store as its own part via
    /// [`FileStore::append_many`], so the vfs ledger counts one write per
    /// record and a torn physical append still tears on a frame boundary
    /// at worst (replay then recovers a prefix of whole records; a tear
    /// *inside* a frame is caught by the CRC).
    ///
    /// Per-record metrics (`wal.appends`, `wal.bytes`, `wal.fsync_us`
    /// samples) are recorded per record — the fsync histogram gets the
    /// flush latency once per record in the flushed chunk, which under a
    /// `SimClock` is deterministically zero. If the underlying store
    /// errors mid-group the WAL's in-memory position is ahead of the
    /// durable bytes; callers must treat that as fatal and reopen, the
    /// same contract as a failed [`Wal::append`].
    pub fn append_batch(&mut self, payloads: &[Vec<u8>]) -> Result<GroupAppendStats, WalError> {
        let mut stats = GroupAppendStats {
            records: payloads.len() as u64,
            physical_appends: 0,
        };
        // frames accumulated for the active segment, flushed before a
        // rotation and at the end — one physical append per (group ×
        // segment)
        let mut chunk: Vec<Vec<u8>> = Vec::new();
        for payload in payloads {
            if self.active_bytes >= self.segment_bytes {
                self.flush_chunk(&mut chunk, &mut stats)?;
                self.advance_segment();
            }
            let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
            Self::frame_record(&mut frame, payload);
            self.active_bytes += frame.len() as u64;
            self.bytes += frame.len() as u64;
            chunk.push(frame);
        }
        self.flush_chunk(&mut chunk, &mut stats)?;
        Ok(stats)
    }

    /// Durably append the buffered frames of the active segment in a
    /// single [`FileStore::append_many`] call.
    fn flush_chunk(
        &mut self,
        chunk: &mut Vec<Vec<u8>>,
        stats: &mut GroupAppendStats,
    ) -> Result<(), WalError> {
        if chunk.is_empty() {
            return Ok(());
        }
        let parts: Vec<&[u8]> = chunk.iter().map(|f| f.as_slice()).collect();
        let started = self.metrics.as_ref().map(|m| m.clock.now());
        self.store.append_many(&self.active_path, &parts)?;
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            let elapsed = m.clock.now().since(t0).as_micros();
            m.fsync_us.record_n(elapsed, chunk.len() as u64);
            for frame in chunk.iter() {
                m.appends.inc();
                m.bytes.add(frame.len() as u64);
            }
        }
        stats.physical_appends += 1;
        chunk.clear();
        Ok(())
    }

    /// Start a fresh segment, so that every record logged so far lives
    /// in a segment below the active one; returns the active segment's
    /// number. Writes nothing: the new segment's file appears with its
    /// first append. A log whose active segment is still empty stays
    /// where it is.
    pub fn rotate(&mut self) -> u64 {
        if self.active_bytes > 0 {
            self.advance_segment();
        }
        self.segments[self.segments.len() - 1]
    }

    /// Delete every segment older than the active one — what a snapshot
    /// taken right after [`Wal::rotate`] covers. Returns how many went.
    pub fn prune(&mut self) -> Result<usize, WalError> {
        let covered = self.segments.len() - 1;
        for &seg in &self.segments[..covered] {
            self.store.remove(&segment_path(&self.dir, seg))?;
        }
        self.segments.drain(..covered);
        // every byte outside the active segment was in a removed one
        self.bytes = self.active_bytes;
        Ok(covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::SimClock;
    use bistro_vfs::MemFs;

    fn mem() -> Arc<MemFs> {
        MemFs::shared(SimClock::new())
    }

    fn open_at(store: &Arc<MemFs>, first: u64, out: &mut Vec<Vec<u8>>) -> Wal {
        Wal::open(store.clone() as Arc<dyn FileStore>, "wal", first, |p| {
            out.push(p.to_vec())
        })
        .unwrap()
    }

    fn open(store: &Arc<MemFs>) -> Wal {
        open_at(store, 1, &mut Vec::new())
    }

    fn replayed(store: &Arc<MemFs>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        open_at(store, 1, &mut out);
        out
    }

    fn payloads(items: &[&str]) -> Vec<Vec<u8>> {
        items.iter().map(|p| p.as_bytes().to_vec()).collect()
    }

    #[test]
    fn append_and_replay() {
        let store = mem();
        {
            let mut wal = open(&store);
            for p in ["one", "two", "three"] {
                wal.append(p.as_bytes()).unwrap();
            }
        }
        assert_eq!(replayed(&store), payloads(&["one", "two", "three"]));
    }

    #[test]
    fn reopen_appends_after_the_replayed_records() {
        let store = mem();
        open(&store).append(b"a").unwrap();
        open(&store).append(b"b").unwrap();
        assert_eq!(replayed(&store), payloads(&["a", "b"]));
    }

    #[test]
    fn torn_tail_discarded_and_truncated() {
        let store = mem();
        open(&store).append(b"good").unwrap();
        // simulate a torn write: append a partial frame
        store
            .append("wal/0000000001.seg", &[0x55, 0x00, 0x00])
            .unwrap();
        assert_eq!(replayed(&store), payloads(&["good"]));
        // after recovery the torn bytes are gone; appends resume cleanly
        open(&store).append(b"after").unwrap();
        assert_eq!(replayed(&store), payloads(&["good", "after"]));
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let store = mem();
        {
            let mut wal = open(&store);
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        // flip a bit inside the second record's payload
        let mut data = store.read("wal/0000000001.seg").unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        store.write("wal/0000000001.seg", &data).unwrap();
        assert_eq!(replayed(&store), payloads(&["first"]));
    }

    fn fifty_records(wal: &mut Wal) -> Vec<Vec<u8>> {
        let records: Vec<Vec<u8>> = (0..50u32)
            .map(|i| format!("record-{i:04}").into_bytes())
            .collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        records
    }

    #[test]
    fn segment_rotation() {
        let store = mem();
        let records = {
            let mut wal = open(&store);
            wal.set_segment_bytes(64);
            fifty_records(&mut wal)
        };
        let segs = store.list_dir("wal").unwrap();
        assert!(
            segs.len() > 1,
            "expected rotation, got {} segments",
            segs.len()
        );
        assert_eq!(replayed(&store), records);
    }

    #[test]
    fn prune_removes_every_segment_below_the_active_one() {
        let store = mem();
        let mut wal = open(&store);
        wal.set_segment_bytes(64);
        let records = fifty_records(&mut wal);
        let before = store.list_dir("wal").unwrap().len();
        let removed = wal.prune().unwrap();
        assert_eq!(removed, before - 1);
        // the active segment keeps its records and its place
        let left = replayed(&store);
        assert_eq!(left[..], records[records.len() - left.len()..]);
        wal.append(b"post-prune").unwrap();
        assert_eq!(replayed(&store).last().unwrap(), b"post-prune");
        assert_eq!(wal.prune().unwrap(), 0, "nothing more to prune");
    }

    #[test]
    fn prune_before_any_rotation_removes_nothing() {
        let store = mem();
        let mut wal = open(&store);
        let records = fifty_records(&mut wal);
        assert_eq!(wal.prune().unwrap(), 0);
        assert_eq!(replayed(&store), records);
    }

    /// What a snapshot does — rotate, then prune — leaves only an active
    /// segment with no file. Reopening at the number `rotate` returned
    /// must append to that segment, never to a lower one that the next
    /// open would remove unread.
    #[test]
    fn a_reopened_log_never_numbers_a_segment_below_its_first() {
        let store = mem();
        let mut wal = open(&store);
        fifty_records(&mut wal);
        let first = wal.rotate();
        assert_eq!(first, 2);
        assert_eq!(wal.rotate(), first, "an empty active segment stays");
        assert_eq!(wal.prune().unwrap(), 1);
        drop(wal);
        assert!(store.list_dir("wal").unwrap().is_empty());

        let mut recs = Vec::new();
        let mut wal = open_at(&store, first, &mut recs);
        assert!(recs.is_empty(), "pruned records must not replay");
        wal.append(b"later").unwrap();
        drop(wal);
        let mut recs = Vec::new();
        open_at(&store, first, &mut recs);
        assert_eq!(recs, payloads(&["later"]));
        assert!(store.exists("wal/0000000002.seg"));
    }

    /// Open removes the segments a snapshot covers without reading them,
    /// and replays the rest.
    #[test]
    fn open_removes_covered_segments_unread() {
        let store = mem();
        let records = {
            let mut wal = open(&store);
            wal.set_segment_bytes(64);
            fifty_records(&mut wal)
        };
        let segs = store.list_dir("wal").unwrap().len() as u64;
        assert!(segs > 3, "a multi-segment log: {segs}");
        let mut covered = 0;
        for n in [1, 2] {
            let data = store.read(&segment_path("wal", n)).unwrap();
            Wal::replay_segment(&data, &mut |_| covered += 1);
        }
        let reads = store.stats().snapshot();
        let mut recs = Vec::new();
        open_at(&store, 3, &mut recs);
        let delta = store.stats().snapshot().since(&reads);
        assert_eq!(delta.reads, segs - 2, "only the uncovered segments");
        assert_eq!(recs[..], records[covered..]);
        assert_eq!(store.list_dir("wal").unwrap().len() as u64, segs - 2);
    }

    /// A segment is frames and nothing else, so a fresh segment's first
    /// append torn at any byte is an ordinary torn frame: the records
    /// before it replay, and the next append lands cleanly.
    #[test]
    fn a_fresh_segments_first_frame_torn_at_every_cut() {
        let store = mem();
        let mut wal = open(&store);
        wal.append(b"before").unwrap();
        assert_eq!(wal.rotate(), 2);
        wal.append(b"torn").unwrap();
        let first = store.read("wal/0000000001.seg").unwrap();
        let full = store.read("wal/0000000002.seg").unwrap();
        for cut in 0..full.len() {
            let torn = mem();
            torn.create_dir_all("wal").unwrap();
            torn.write("wal/0000000001.seg", &first).unwrap();
            torn.write("wal/0000000002.seg", &full[..cut]).unwrap();
            assert_eq!(replayed(&torn), payloads(&["before"]), "cut={cut}");
            open(&torn).append(b"next").unwrap();
            assert_eq!(replayed(&torn), payloads(&["before", "next"]), "cut={cut}");
            assert_eq!(
                torn.read("wal/0000000002.seg").unwrap().len(),
                FRAME_HEADER + 4,
                "cut={cut}: the torn bytes were truncated"
            );
        }
    }

    #[test]
    fn telemetry_counts_appends_and_rotations() {
        let store = mem();
        let clock = SimClock::new();
        let reg = Registry::new();
        let mut wal = open(&store);
        wal.set_telemetry(&reg, clock.clone());
        wal.set_segment_bytes(64);
        for i in 0..10u32 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        wal.rotate();
        assert_eq!(reg.counter_value("wal.appends"), Some(10));
        let rotations = reg.counter_value("wal.rotations").unwrap();
        assert!(rotations >= 2, "size rotations + explicit: {rotations}");
        // SimClock never advanced mid-append: every fsync sample is 0
        assert_eq!(reg.histogram_quantile("wal.fsync_us", 0.99), Some(0));
        assert!(reg.counter_value("wal.bytes").unwrap() > 0);
    }

    /// Sorted (path, bytes) dump of every WAL segment in `store`.
    fn wal_bytes(store: &Arc<MemFs>) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = store
            .list_dir("wal")
            .unwrap()
            .iter()
            .map(|e| {
                let p = format!("wal/{}", e.name);
                let d = store.read(&p).unwrap();
                (p, d)
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn append_batch_bytes_identical_to_per_record_appends() {
        let payloads: Vec<Vec<u8>> = (0..37u32)
            .map(|i| format!("record-{i:04}-{}", "x".repeat((i % 11) as usize)).into_bytes())
            .collect();
        // reference: one append per record, with rotation forced often
        let ref_store = mem();
        {
            let mut wal = open(&ref_store);
            wal.set_segment_bytes(96);
            for p in &payloads {
                wal.append(p).unwrap();
            }
        }
        let reference = wal_bytes(&ref_store);
        // batched, at several group sizes including ones that straddle
        // rotation boundaries and a size larger than the whole stream
        for group in [1usize, 2, 5, 7, 64] {
            let store = mem();
            let mut wal = open(&store);
            wal.set_segment_bytes(96);
            let mut physical = 0u64;
            for batch in payloads.chunks(group) {
                let s = wal.append_batch(batch).unwrap();
                assert_eq!(s.records, batch.len() as u64);
                physical += s.physical_appends;
            }
            assert_eq!(wal_bytes(&store), reference, "group={group}");
            assert_eq!(replayed(&store), payloads, "group={group}");
            if group > 1 {
                assert!(
                    physical < payloads.len() as u64,
                    "group={group}: expected amortized appends, got {physical}"
                );
            }
            // the vfs ledger is a pure function of the record stream
            assert_eq!(
                store.stats().snapshot().writes,
                ref_store.stats().snapshot().writes,
                "group={group}"
            );
        }
    }

    #[test]
    fn torn_group_append_recovers_to_whole_record_prefix() {
        let store = mem();
        let whole = payloads(&["alpha", "beta", "gamma"]);
        open(&store).append_batch(&whole).unwrap();
        // tear the physical group append at every byte boundary: replay
        // must always land on a prefix of whole records, never half a one
        let full = store.read("wal/0000000001.seg").unwrap();
        for cut in 0..full.len() {
            let torn = mem();
            torn.create_dir_all("wal").unwrap();
            torn.write("wal/0000000001.seg", &full[..cut]).unwrap();
            let recs = replayed(&torn);
            assert_eq!(recs[..], whole[..recs.len()], "cut={cut}");
        }
    }

    #[test]
    fn append_batch_telemetry_counts_per_record() {
        let store = mem();
        let clock = SimClock::new();
        let reg = Registry::new();
        let mut wal = open(&store);
        wal.set_telemetry(&reg, clock.clone());
        let payloads: Vec<Vec<u8>> = (0..10u32).map(|i| vec![b'r', i as u8]).collect();
        let s = wal.append_batch(&payloads).unwrap();
        assert_eq!(s.records, 10);
        assert_eq!(s.physical_appends, 1);
        assert_eq!(reg.counter_value("wal.appends"), Some(10));
        assert_eq!(reg.histogram("wal.fsync_us").count(), 10);
        assert_eq!(reg.histogram_quantile("wal.fsync_us", 0.99), Some(0));
    }

    /// `bytes` is what a reopen would replay: every whole frame on disk,
    /// through appends, batches, rotations, a reopen and a prune.
    #[test]
    fn bytes_count_what_a_reopen_would_replay() {
        let store = mem();
        let on_disk = |store: &Arc<MemFs>| -> u64 {
            wal_bytes(store).iter().map(|(_, d)| d.len() as u64).sum()
        };
        let mut wal = open(&store);
        wal.set_segment_bytes(64);
        fifty_records(&mut wal);
        wal.append_batch(&payloads(&["x", "yy", "zzz"])).unwrap();
        assert_eq!(wal.bytes(), on_disk(&store));
        drop(wal);
        // a torn tail is not counted: the reopen truncates it
        let last = wal_bytes(&store).pop().unwrap().0;
        store.append(&last, &[1, 2, 3]).unwrap();
        let mut wal = open(&store);
        assert_eq!(wal.bytes(), on_disk(&store));
        wal.set_segment_bytes(64);
        wal.append(b"after").unwrap();
        let first = wal.rotate();
        wal.prune().unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(b"tail").unwrap();
        assert_eq!(wal.bytes(), on_disk(&store));
        drop(wal);
        let mut out = Vec::new();
        assert_eq!(open_at(&store, first, &mut out).bytes(), on_disk(&store));
        assert_eq!(out, payloads(&["tail"]));
    }

    #[test]
    fn empty_record_roundtrips() {
        let store = mem();
        open(&store).append(b"").unwrap();
        assert_eq!(replayed(&store), vec![Vec::<u8>::new()]);
    }
}

//! Segmented, CRC-framed write-ahead log.
//!
//! Records are appended to numbered segment files
//! (`<dir>/0000000001.seg`, …) under a [`FileStore`]. Each segment
//! starts with a small header pinning the sequence number of its first
//! record:
//!
//! ```text
//! [4B magic "BSG1"][u64 first-record sequence]
//! ```
//!
//! followed by records framed as:
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload bytes]
//! ```
//!
//! Replay reads segments in order and stops at the first torn or corrupt
//! frame — everything before it is durable, everything after is treated
//! as a crashed-in-flight write and discarded (and the segment is
//! truncated on the next append). A snapshot records the highest record
//! sequence number it covers; segments whose records are all covered can
//! be deleted. The per-segment base sequence is what keeps numbering
//! *stable* across pruning: surviving records replay with their original
//! sequence numbers instead of being renumbered from 1, so external
//! state keyed by WAL sequence never dangles. Headerless (legacy)
//! segments are still readable and number from the running sequence.

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

/// Segment header: magic + first-record sequence.
const SEG_MAGIC: &[u8; 4] = b"BSG1";
/// Segment header size.
const SEG_HEADER: usize = 12;

/// Parse an optional segment header; returns `(first_seq, body_offset)`.
fn segment_header(data: &[u8]) -> Option<(u64, usize)> {
    if data.len() >= SEG_HEADER && &data[0..4] == SEG_MAGIC {
        let first = u64::from_le_bytes(data[4..12].try_into().unwrap());
        Some((first, SEG_HEADER))
    } else {
        None
    }
}

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
    /// Bytes in the active segment (header included).
    active_bytes: u64,
    /// Whether the active segment holds at least one record.
    active_has_records: bool,
    /// Records are numbered from 1 across segments.
    next_seq: u64,
    /// Every segment on disk — the active one last — with the sequence
    /// of its first record: what its header pins (or, for a legacy
    /// headerless segment, where replay found it). A segment's records
    /// end where the next one's begin, so [`Wal::prune`] decides from
    /// this table without reading the log back.
    segments: Vec<(u64, u64)>,
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
    /// `apply` is called once per intact record, in order, with
    /// `(sequence_number, payload)`.
    pub fn open(
        store: Arc<dyn FileStore>,
        dir: &str,
        mut apply: impl FnMut(u64, &[u8]),
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

        let mut seq = 0u64;
        let last = segments.last().copied();
        let mut active_bytes = 0u64;
        let mut active_has_records = false;
        let mut first_seqs = Vec::with_capacity(segments.len().max(1));

        for &seg in &segments {
            let path = segment_path(dir, seg);
            let data = store.read(&path)?;
            let body_off = match segment_header(&data) {
                Some((first_seq, off)) => {
                    // the header pins this segment's numbering even when
                    // every earlier segment has been pruned away
                    seq = first_seq.saturating_sub(1);
                    off
                }
                None => 0, // legacy headerless segment
            };
            let before = seq;
            first_seqs.push((seg, before + 1));
            let valid = body_off + Self::replay_segment(&data[body_off..], &mut seq, &mut apply);
            if Some(seg) == last {
                active_bytes = valid as u64;
                active_has_records = seq > before;
                if valid < data.len() {
                    // torn tail: truncate so future appends are clean
                    store.write(&path, &data[..valid])?;
                }
            } else if valid < data.len() {
                // corruption in a non-final segment: everything after it
                // is unreachable; truncate here and make this the active
                // segment (later segments are stale garbage from a crash)
                store.write(&path, &data[..valid])?;
                for &later in segments.iter().filter(|&&s| s > seg) {
                    store.remove(&segment_path(dir, later))?;
                }
                active_bytes = valid as u64;
                active_has_records = seq > before;
                break;
            }
        }
        if first_seqs.is_empty() {
            first_seqs.push((1, seq + 1));
        }

        // the last segment replay reached is the active one
        let (active, _) = first_seqs[first_seqs.len() - 1];
        Ok(Wal {
            store,
            dir: dir.to_string(),
            active_path: segment_path(dir, active),
            frame: Vec::new(),
            active_bytes,
            active_has_records,
            next_seq: seq + 1,
            segments: first_seqs,
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
    fn replay_segment(data: &[u8], seq: &mut u64, apply: &mut impl FnMut(u64, &[u8])) -> usize {
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
            *seq += 1;
            apply(*seq, payload);
            pos = end;
        }
        pos
    }

    /// Override the segment rotation size (tests use small segments).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(FRAME_HEADER as u64 + 1);
    }

    /// Move on to the next (empty) segment.
    fn advance_segment(&mut self) {
        // the active segment is the table's last entry; prune keeps it
        let next = self.segments[self.segments.len() - 1].0 + 1;
        self.active_path = segment_path(&self.dir, next);
        self.active_bytes = 0;
        self.active_has_records = false;
        self.segments.push((next, self.next_seq));
        if let Some(m) = &self.metrics {
            m.rotations.inc();
        }
    }

    /// Frame `payload` as the next record of the active segment into
    /// `frame` (cleared first), led by the segment header when the
    /// segment is still empty.
    fn frame_record(&self, frame: &mut Vec<u8>, payload: &[u8]) {
        frame.clear();
        if self.active_bytes == 0 {
            // first bytes of a fresh segment: pin its base sequence
            frame.extend_from_slice(SEG_MAGIC);
            frame.extend_from_slice(&self.next_seq.to_le_bytes());
        }
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
    }

    /// Append one record; returns its sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        if self.active_bytes >= self.segment_bytes {
            self.advance_segment();
        }
        let mut frame = std::mem::take(&mut self.frame);
        self.frame_record(&mut frame, payload);
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
        self.active_has_records = true;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Append a group of records with one physical store append (and so
    /// one fsync on a real filesystem) per touched segment, instead of
    /// one per record. Returns how the group was committed.
    ///
    /// The byte stream is **identical** to calling [`Wal::append`] once
    /// per payload: rotation is decided record by record while framing,
    /// so segment boundaries, headers and sequence numbers land exactly
    /// where the per-record path would put them — group size can never
    /// change the WAL bytes. Each frame is handed to the store as its
    /// own part via [`FileStore::append_many`], so the vfs ledger counts
    /// one write per record and a torn physical append still tears on a
    /// frame boundary at worst (replay then recovers a prefix of whole
    /// records; a tear *inside* a frame is caught by the CRC).
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
            let mut frame = Vec::with_capacity(SEG_HEADER + FRAME_HEADER + payload.len());
            self.frame_record(&mut frame, payload);
            self.active_bytes += frame.len() as u64;
            self.active_has_records = true;
            self.next_seq += 1;
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

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Start a fresh segment so that every record logged so far lives in
    /// a non-active segment (and can be pruned once covered by a
    /// snapshot). The new segment's header is written eagerly so the base
    /// sequence survives even if every older segment is pruned before the
    /// next append.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        if self.active_has_records {
            self.advance_segment();
            let mut header = Vec::with_capacity(SEG_HEADER);
            header.extend_from_slice(SEG_MAGIC);
            header.extend_from_slice(&self.next_seq.to_le_bytes());
            self.store.append(&self.active_path, &header)?;
            self.active_bytes = SEG_HEADER as u64;
        }
        Ok(())
    }

    /// Delete all segments strictly older than the active one whose
    /// records are covered by a snapshot at `covered_seq`: whole segments
    /// only, and only those that cannot contain a record after
    /// `covered_seq` — the next segment begins at or before
    /// `covered_seq + 1`.
    pub fn prune(&mut self, covered_seq: u64) -> Result<usize, WalError> {
        let covered = (self.segments.windows(2))
            .take_while(|pair| pair[1].1 <= covered_seq.saturating_add(1))
            .count();
        for &(seg, _) in &self.segments[..covered] {
            self.store.remove(&segment_path(&self.dir, seg))?;
        }
        self.segments.drain(..covered);
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

    fn replayed(store: &Arc<MemFs>) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let _ = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |seq, p| {
            out.push((seq, p.to_vec()))
        })
        .unwrap();
        out
    }

    #[test]
    fn append_and_replay() {
        let store = mem();
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            assert_eq!(wal.append(b"three").unwrap(), 3);
        }
        let recs = replayed(&store);
        assert_eq!(
            recs,
            vec![
                (1, b"one".to_vec()),
                (2, b"two".to_vec()),
                (3, b"three".to_vec())
            ]
        );
    }

    #[test]
    fn reopen_continues_sequence() {
        let store = mem();
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.append(b"a").unwrap();
        }
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            assert_eq!(wal.append(b"b").unwrap(), 2);
        }
        assert_eq!(replayed(&store).len(), 2);
    }

    #[test]
    fn torn_tail_discarded_and_truncated() {
        let store = mem();
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.append(b"good").unwrap();
        }
        // simulate a torn write: append a partial frame
        store
            .append("wal/0000000001.seg", &[0x55, 0x00, 0x00])
            .unwrap();
        let recs = replayed(&store);
        assert_eq!(recs, vec![(1, b"good".to_vec())]);
        // after recovery the torn bytes are gone; appends resume cleanly
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.append(b"after").unwrap();
        }
        assert_eq!(replayed(&store).len(), 2);
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let store = mem();
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        // flip a bit inside the second record's payload
        let mut data = store.read("wal/0000000001.seg").unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        store.write("wal/0000000001.seg", &data).unwrap();
        let recs = replayed(&store);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, b"first");
    }

    #[test]
    fn segment_rotation() {
        let store = mem();
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.set_segment_bytes(64);
            for i in 0..50u32 {
                wal.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
        }
        let segs = store.list_dir("wal").unwrap();
        assert!(
            segs.len() > 1,
            "expected rotation, got {} segments",
            segs.len()
        );
        let recs = replayed(&store);
        assert_eq!(recs.len(), 50);
        assert_eq!(recs[49].1, b"record-0049");
    }

    #[test]
    fn prune_removes_covered_segments() {
        let store = mem();
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        wal.set_segment_bytes(64);
        for i in 0..50u32 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        let before = store.list_dir("wal").unwrap().len();
        let removed = wal.prune(50).unwrap();
        assert!(removed > 0);
        assert_eq!(store.list_dir("wal").unwrap().len(), before - removed);
        // numbering must not restart after prune: the surviving segments'
        // headers pin the base sequence, so the next record is exactly 51
        let mut wal2 = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        let seq = wal2.append(b"post-prune").unwrap();
        assert_eq!(seq, 51);
    }

    #[test]
    fn prune_all_then_reopen_preserves_numbering() {
        let store = mem();
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        for i in 0..50u32 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        // rotate so every record lives in a prunable segment, then cover
        // all of them: only the (empty) active segment remains on disk
        wal.rotate().unwrap();
        assert!(wal.prune(50).unwrap() > 0);
        drop(wal);
        let mut recs = Vec::new();
        let mut wal2 = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |seq, p| {
            recs.push((seq, p.to_vec()))
        })
        .unwrap();
        assert!(recs.is_empty(), "pruned records must not replay");
        assert_eq!(wal2.next_seq(), 51, "sequence restarted after prune");
        assert_eq!(wal2.append(b"later").unwrap(), 51);
        // and the replayed sequence numbers stay pinned on the next reopen
        drop(wal2);
        let replayed = replayed(&store);
        assert_eq!(replayed, vec![(51, b"later".to_vec())]);
    }

    #[test]
    fn legacy_headerless_segment_replays_from_one() {
        let store = mem();
        // hand-build a pre-header segment: raw frames, no magic
        let payload = b"old-style";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        store.create_dir_all("wal").unwrap();
        store.write("wal/0000000001.seg", &frame).unwrap();
        let recs = replayed(&store);
        assert_eq!(recs, vec![(1, b"old-style".to_vec())]);
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        assert_eq!(wal.append(b"new").unwrap(), 2);
    }

    #[test]
    fn legacy_segment_coexists_with_headered_segments() {
        // Regression for the mixed case: a pre-"BSG1" headerless segment
        // followed by headered segments must replay as one continuous
        // sequence — the legacy segment numbers from the running
        // sequence, the headered one from its pinned base — and reopen
        // must keep appending where the stream left off.
        let store = mem();
        // hand-build the legacy segment: raw frames, no magic
        let mut legacy = Vec::new();
        for p in [b"old-1".as_slice(), b"old-2".as_slice()] {
            legacy.extend_from_slice(&(p.len() as u32).to_le_bytes());
            legacy.extend_from_slice(&crc32(p).to_le_bytes());
            legacy.extend_from_slice(p);
        }
        store.create_dir_all("wal").unwrap();
        store.write("wal/0000000001.seg", &legacy).unwrap();

        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            assert_eq!(wal.next_seq(), 3, "legacy records must count");
            assert_eq!(wal.append(b"new-3").unwrap(), 3);
            wal.rotate().unwrap(); // segment 2 gets an eager "BSG1" header
            assert_eq!(wal.append(b"new-4").unwrap(), 4);
        }
        // on disk: segment 1 is still headerless, segment 2 is headered
        // and pinned at the running sequence
        assert!(segment_header(&store.read("wal/0000000001.seg").unwrap()).is_none());
        assert_eq!(
            segment_header(&store.read("wal/0000000002.seg").unwrap()).map(|(first, _)| first),
            Some(4)
        );
        // mixed replay is one continuous, correctly numbered stream
        let recs = replayed(&store);
        assert_eq!(
            recs,
            vec![
                (1, b"old-1".to_vec()),
                (2, b"old-2".to_vec()),
                (3, b"new-3".to_vec()),
                (4, b"new-4".to_vec()),
            ]
        );
        // and a further reopen keeps the sequence going
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        assert_eq!(wal.append(b"new-5").unwrap(), 5);
    }

    /// Which segments `prune` removes, decided the way it used to:
    /// re-read every segment and count its frames.
    fn prunable_by_counting(store: &Arc<MemFs>, active: u64, covered_seq: u64) -> Vec<String> {
        let mut seq = 0u64;
        let mut out = Vec::new();
        for (path, data) in wal_bytes(store) {
            let (body_off, base) = match segment_header(&data) {
                Some((first_seq, off)) => (off, first_seq.saturating_sub(1)),
                None => (0, seq),
            };
            let mut last = base;
            Wal::replay_segment(&data[body_off..], &mut last, &mut |_, _| {});
            if path != segment_path("wal", active) && last <= covered_seq {
                out.push(path);
            }
            seq = last;
        }
        out
    }

    /// `prune` used to read and checksum the whole log back at every
    /// snapshot to learn where each segment ends; the segment table
    /// answers that, so pruning reads nothing — and removes exactly what
    /// counting frames would.
    #[test]
    fn prune_reads_nothing_and_removes_what_counting_would() {
        for covered in [0u64, 1, 17, 49, 50, 10_000] {
            for reopen in [false, true] {
                let store = mem();
                let open = || Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {});
                let mut wal = open().unwrap();
                wal.set_segment_bytes(64);
                for i in 0..50u32 {
                    wal.append(format!("record-{i:04}").as_bytes()).unwrap();
                }
                // what a snapshot does: rotate, then prune what it covers
                wal.rotate().unwrap();
                if reopen {
                    // the table `open` rebuilds equals the one appends grew
                    drop(wal);
                    wal = open().unwrap();
                }
                let before: Vec<String> = wal_bytes(&store).into_iter().map(|(p, _)| p).collect();
                assert!(before.len() > 3, "a multi-segment log: {before:?}");
                let expect = prunable_by_counting(&store, wal.segments.last().unwrap().0, covered);
                let reads = store.stats().snapshot();
                let removed = wal.prune(covered).unwrap();
                let delta = store.stats().snapshot().since(&reads);
                assert_eq!((delta.reads, delta.bytes_read), (0, 0), "covered={covered}");
                let after: Vec<String> = wal_bytes(&store).into_iter().map(|(p, _)| p).collect();
                let gone: Vec<String> = (before.into_iter())
                    .filter(|p| !after.contains(p))
                    .collect();
                assert_eq!(gone, expect, "covered={covered} reopen={reopen}");
                assert_eq!(removed, expect.len());
                // a second prune finds nothing more, and numbering holds
                assert_eq!(wal.prune(covered).unwrap(), 0);
                assert_eq!(wal.append(b"next").unwrap(), 51);
            }
        }
    }

    #[test]
    fn prune_keeps_uncovered() {
        let store = mem();
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        wal.set_segment_bytes(64);
        for i in 0..50u32 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        // nothing covered: nothing pruned
        assert_eq!(wal.prune(0).unwrap(), 0);
    }

    #[test]
    fn telemetry_counts_appends_and_rotations() {
        let store = mem();
        let clock = SimClock::new();
        let reg = Registry::new();
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        wal.set_telemetry(&reg, clock.clone());
        wal.set_segment_bytes(64);
        for i in 0..10u32 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        wal.rotate().unwrap();
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
            let mut wal =
                Wal::open(ref_store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
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
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.set_segment_bytes(96);
            let mut physical = 0u64;
            for batch in payloads.chunks(group) {
                let s = wal.append_batch(batch).unwrap();
                assert_eq!(s.records, batch.len() as u64);
                physical += s.physical_appends;
            }
            assert_eq!(wal.next_seq(), payloads.len() as u64 + 1);
            assert_eq!(wal_bytes(&store), reference, "group={group}");
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
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.append_batch(&[b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()])
                .unwrap();
        }
        // tear the physical group append at every byte boundary: replay
        // must always land on a prefix of whole records, never half a one
        let full = store.read("wal/0000000001.seg").unwrap();
        for cut in 0..full.len() {
            let torn = mem();
            torn.create_dir_all("wal").unwrap();
            torn.write("wal/0000000001.seg", &full[..cut]).unwrap();
            let recs = replayed(&torn);
            let whole: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()];
            assert!(recs.len() <= whole.len());
            for (i, (seq, payload)) in recs.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1, "cut={cut}");
                assert_eq!(payload, &whole[i], "cut={cut}: half-record replayed");
            }
        }
    }

    #[test]
    fn append_batch_telemetry_counts_per_record() {
        let store = mem();
        let clock = SimClock::new();
        let reg = Registry::new();
        let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
        wal.set_telemetry(&reg, clock.clone());
        let payloads: Vec<Vec<u8>> = (0..10u32).map(|i| vec![b'r', i as u8]).collect();
        let s = wal.append_batch(&payloads).unwrap();
        assert_eq!(s.records, 10);
        assert_eq!(s.physical_appends, 1);
        assert_eq!(reg.counter_value("wal.appends"), Some(10));
        assert_eq!(reg.histogram("wal.fsync_us").count(), 10);
        assert_eq!(reg.histogram_quantile("wal.fsync_us", 0.99), Some(0));
    }

    #[test]
    fn empty_record_roundtrips() {
        let store = mem();
        {
            let mut wal = Wal::open(store.clone() as Arc<dyn FileStore>, "wal", |_, _| {}).unwrap();
            wal.append(b"").unwrap();
        }
        let recs = replayed(&store);
        assert_eq!(recs, vec![(1, vec![])]);
    }
}

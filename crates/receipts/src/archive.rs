//! The archiver (paper §4.2).
//!
//! "The Bistro feed manager implements an archival mechanism by
//! maintaining a set of special archiver nodes that are responsible for
//! storing long-term feed history and optionally undo/redo logs of
//! delivery receipt database on tertiary storage."
//!
//! An [`Archiver`] owns a second [`FileStore`] (the "tertiary storage").
//! When the server expires a file from its retention window, the archiver
//! receives the payload plus the file's receipt record, appending the
//! record to an append-only redo log. The archive can later be queried
//! for historical files (long-term analysis subscribers) and can rebuild
//! receipt history after a catastrophic primary-storage loss.

use crate::records::{FileRecord, Record};
use bistro_base::checksum::crc32;
use bistro_base::TimePoint;
use bistro_vfs::{FileStore, VfsError};
use std::sync::Arc;

/// An archiver node over tertiary storage.
pub struct Archiver {
    store: Arc<dyn FileStore>,
    data_dir: String,
    log_path: String,
}

impl Archiver {
    /// Create an archiver rooted at `dir` within `store`.
    pub fn new(store: Arc<dyn FileStore>, dir: &str) -> Result<Archiver, VfsError> {
        store.create_dir_all(&format!("{dir}/data"))?;
        Ok(Archiver {
            data_dir: format!("{dir}/data"),
            log_path: format!("{dir}/receipts.log"),
            store,
        })
    }

    /// Archive an expired file: store the payload and log the receipt.
    pub fn archive_file(
        &self,
        record: &FileRecord,
        payload: &[u8],
        expired_at: TimePoint,
    ) -> Result<(), VfsError> {
        let dest = format!("{}/{}", self.data_dir, record.staged_path);
        self.store.write(&dest, payload)?;
        self.log(&Record::Arrival(record.clone()))?;
        self.log(&Record::Expire {
            file: record.id,
            at: expired_at,
        })?;
        Ok(())
    }

    /// Append a receipt record to the redo log.
    fn log(&self, rec: &Record) -> Result<(), VfsError> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.store.append(&self.log_path, &frame)
    }

    /// Read back an archived payload by its original staged path.
    pub fn fetch(&self, staged_path: &str) -> Result<Vec<u8>, VfsError> {
        self.store.read(&format!("{}/{staged_path}", self.data_dir))
    }

    /// Replay the redo log, returning all intact records in order.
    pub fn replay(&self) -> Result<Vec<Record>, VfsError> {
        let mut out = Vec::new();
        if !self.store.exists(&self.log_path) {
            return Ok(out);
        }
        let data = self.store.read(&self.log_path)?;
        let mut pos = 0usize;
        while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let end = pos + 8 + len;
            if end > data.len() {
                break;
            }
            let payload = &data[pos + 8..end];
            if crc32(payload) != crc {
                break;
            }
            if let Ok(rec) = Record::decode(payload) {
                out.push(rec);
            }
            pos = end;
        }
        Ok(out)
    }

    /// All archived file records (from the redo log), for historical
    /// backfill of long-term-analysis subscribers. Deduplicated by file
    /// id: a crash between the payload write and the expiration sweep's
    /// receipt can make the server re-archive a file on the next pass,
    /// appending a second redo-log entry for the same file.
    pub fn archived_files(&self) -> Result<Vec<FileRecord>, VfsError> {
        let mut seen = std::collections::BTreeSet::new();
        Ok(self
            .replay()?
            .into_iter()
            .filter_map(|r| match r {
                Record::Arrival(f) if seen.insert(f.id.raw()) => Some(f),
                _ => None,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::{FileId, SimClock};
    use bistro_vfs::MemFs;

    fn record(id: u64, name: &str) -> FileRecord {
        FileRecord {
            id: FileId(id),
            name: name.to_string(),
            staged_path: format!("F/{name}"),
            size: 10,
            arrival: TimePoint::from_secs(100),
            feed_time: Some(TimePoint::from_secs(90)),
            feeds: vec!["F".to_string()],
        }
    }

    #[test]
    fn archive_and_fetch() {
        let store = MemFs::shared(SimClock::new());
        let arch = Archiver::new(store.clone() as Arc<dyn FileStore>, "archive").unwrap();
        let rec = record(1, "a.csv");
        arch.archive_file(&rec, b"payload-bytes", TimePoint::from_secs(1000))
            .unwrap();
        assert_eq!(arch.fetch("F/a.csv").unwrap(), b"payload-bytes");
    }

    #[test]
    fn redo_log_replays_history() {
        let store = MemFs::shared(SimClock::new());
        let arch = Archiver::new(store.clone() as Arc<dyn FileStore>, "archive").unwrap();
        for i in 0..5 {
            arch.archive_file(
                &record(i, &format!("f{i}.csv")),
                b"x",
                TimePoint::from_secs(1000 + i),
            )
            .unwrap();
        }
        arch.log(&Record::Delivered {
            file: FileId(3),
            at: TimePoint::from_secs(500),
            bits: vec![0b1],
        })
        .unwrap();

        let recs = arch.replay().unwrap();
        assert_eq!(recs.len(), 11); // 5 × (arrival + expire) + 1 delivery
        let files = arch.archived_files().unwrap();
        assert_eq!(files.len(), 5);
        assert_eq!(files[0].name, "f0.csv");
    }

    #[test]
    fn re_archived_files_dedupe() {
        // crash-retry: the same file archived twice appears once
        let store = MemFs::shared(SimClock::new());
        let arch = Archiver::new(store.clone() as Arc<dyn FileStore>, "archive").unwrap();
        let rec = record(1, "a.csv");
        arch.archive_file(&rec, b"x", TimePoint::from_secs(1000))
            .unwrap();
        arch.archive_file(&rec, b"x", TimePoint::from_secs(1001))
            .unwrap();
        assert_eq!(arch.archived_files().unwrap().len(), 1);
    }

    #[test]
    fn torn_log_tail_ignored() {
        let store = MemFs::shared(SimClock::new());
        let arch = Archiver::new(store.clone() as Arc<dyn FileStore>, "archive").unwrap();
        arch.archive_file(&record(1, "a.csv"), b"x", TimePoint::from_secs(1))
            .unwrap();
        store.append("archive/receipts.log", &[0x01, 0x02]).unwrap();
        assert_eq!(arch.replay().unwrap().len(), 2);
    }

    #[test]
    fn empty_archive_replays_empty() {
        let store = MemFs::shared(SimClock::new());
        let arch = Archiver::new(store.clone() as Arc<dyn FileStore>, "archive").unwrap();
        assert!(arch.replay().unwrap().is_empty());
        assert!(arch.archived_files().unwrap().is_empty());
    }
}

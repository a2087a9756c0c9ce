//! # bistro-receipts
//!
//! The transactional receipt database at the heart of Bistro's reliable
//! feed delivery (paper §4.2):
//!
//! > "Every file received from data feed providers is logged in an
//! > `arrival_receipts` database along with list of feeds that the file
//! > belongs to. Additionally a separate `delivery_receipts` database is
//! > maintained that for each file stores a list of subscribers it has
//! > been delivered to. Based on the state of these two databases Bistro
//! > feed manager can always compute the content of subscriber's delivery
//! > queues — a list of files that have not been delivered to a
//! > particular subscriber."
//!
//! Implementation: a single-writer, CRC-framed, segmented write-ahead log
//! ([`wal`]) over a `bistro-vfs` [`bistro_vfs::FileStore`], with the
//! tables maintained as in-memory indexes rebuilt on recovery
//! ([`store::ReceiptStore`]). Snapshots bound recovery time and let old
//! segments be reclaimed. Retention windows expire old files (§4.2), and
//! expired records can be shipped to an [`archive::Archiver`] together
//! with the payloads and an undo/redo log.

pub mod archive;
pub mod records;
pub mod store;
pub mod wal;

pub use archive::Archiver;
pub use records::{ArrivalTemplate, FileRecord, Record};
pub use store::{
    DeliveryMark, DeliveryOutcome, GroupCommitStats, ReceiptError, ReceiptStore, RecoveryInfo,
};
pub use wal::{GroupAppendStats, Wal, WalError};

//! # bistro-base
//!
//! Shared substrate for the Bistro data feed management system: time points
//! and clocks (wall and simulated), strongly-typed identifiers, checksums
//! (CRC32 / FNV-1a), the binary byte codecs used by the receipt store's
//! write-ahead log and the transport message formats, plus the hermetic
//! build substrate: seedable PRNG ([`rng`]), property-testing harness
//! ([`prop`]) and poison-ignoring lock wrappers ([`sync`]).
//!
//! Everything in this crate is dependency-free and deterministic so that
//! the higher layers (receipts, scheduler, transport, core) can be tested
//! under a fully simulated clock, offline, with no external crates.

pub mod checksum;
pub mod clock;
pub mod codec;
pub mod id;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod sync;
pub mod time;

pub use checksum::{crc32, fnv1a64};
pub use clock::{Clock, SharedClock, SimClock, WallClock};
pub use codec::{varint_len, ByteReader, ByteWriter, CodecError};
pub use id::{BatchId, FeedId, FileId, IdGen, SubscriberId};
pub use pool::{Pool, ShardStat};
pub use rng::Rng;
pub use time::{TimePoint, TimeSpan};

//! # bistro-core
//!
//! The Bistro server (paper §3, Figure 2): the component that ties every
//! substrate together.
//!
//! ```text
//!  landing dirs ──► classifier ──► normalizer ──► staging dirs
//!                       │                             │
//!                  feed analyzer                delivery subsystem ──► subscribers
//!                       │                             │        └───► triggers
//!                  suggestions                  delivery receipts
//!                                                     │
//!                                                 archiver
//! ```
//!
//! * [`classifier`] — compiles the configuration's feed patterns and maps
//!   each incoming filename to its feeds (with typed captures).
//! * [`normalizer`] — renders staging paths from capture semantics and
//!   applies the feed's compression option.
//! * [`parallel`] — the pure classify + normalize "prepare" stage that
//!   [`server::Server::deposit_batch`] fans out across a
//!   `bistro_base::Pool` of workers (side effects stay sequential).
//! * [`server::Server`] — landing-zone ingest (notification-driven, §4.1),
//!   reliable push/notify delivery backed by the receipt store (§4.2),
//!   batching and trigger invocation, retention expiration with
//!   archiving, feed progress monitoring, and continuous analyzer feeds
//!   (§5).
//! * [`baselines`] — the §2.2 strawmen, implemented over the same VFS so
//!   their metadata costs are directly comparable: a polling pull
//!   subscriber and an rsync/cron-style stateless tree synchronizer.
//! * `index` (crate-private) — the inverted feed→subscriber /
//!   feed→group-plan / endpoint→subscriber delivery index that keeps
//!   `Server::ingest_prepared`'s per-deposit match
//!   `O(matched)` instead of `O(subscribers)` (DESIGN.md §12.5).
//! * [`relay`] — Bistro-as-subscriber-of-Bistro: the distributed feed
//!   delivery network of §3.
//! * [`cluster`] — multi-server Bistro: feed groups partitioned across
//!   servers by a directory service, with per-feed fault-tolerance
//!   policy (discard / spill / failover), heartbeat failure detection,
//!   and subscriber re-homing with exactly-once backfill.
//! * [`log`] — the logging subsystem: leveled event ring with alarms.

pub mod baselines;
pub mod classifier;
pub mod cluster;
mod index;
pub mod log;
pub mod normalizer;
pub mod parallel;
pub mod relay;
pub mod server;

pub use classifier::{Classification, Classifier};
pub use cluster::{Cluster, ClusterError, Directory, HomeEntry};
pub use log::{EventLog, LogEvent, LogLevel};
pub use server::{DeliveryStats, Server, ServerError};

//! # bistro-transport
//!
//! Bistro's communication protocols (paper §4.1).
//!
//! The paper's diagnosis of pull- and push-based feed delivery is that
//! "the main issue lies not with using pull or push-based data
//! transmission, but rather with the poor communication protocols used".
//! This crate implements the protocols Bistro defines to fix that:
//!
//! * [`messages`] — the wire messages: server → subscriber *file
//!   deliveries and notifications* for push and hybrid push-pull
//!   delivery, the reliable attempt/ack envelope, the cluster control
//!   plane and group fan-out. Sources notify deposits and punctuate
//!   batches through `Server` calls, not frames;
//! * [`batching`] — the batch-boundary engine: count-based, time-based
//!   and hybrid batch specs from the configuration language, plus
//!   source punctuation, deciding when subscriber triggers fire (§2.3);
//! * [`trigger`] — trigger invocation with `%N`/`%f`/`%b` command
//!   expansion, local or remote;
//! * [`net`] — a simulated network of named endpoints with per-link
//!   bandwidth, latency and outage windows, driven by the simulated
//!   clock, plus a seeded fault-injection plan (drops, duplicates, link
//!   flaps). This is the substitute for the paper's production WAN (see
//!   DESIGN.md): propagation-delay experiments measure time through this
//!   fabric;
//! * [`reliable`] — the acknowledgement/retry bookkeeping behind
//!   reliable delivery (§4.2): unacked-send table, per-subscriber
//!   timeout, exponential backoff with seeded jitter.

pub mod adaptive;
pub mod batching;
pub mod client;
pub mod messages;
pub mod net;
pub mod reliable;
pub mod trigger;

pub use adaptive::AdaptiveBatcher;
pub use batching::{BatchOutcome, Batcher};
pub use client::{PendingFile, SubscriberClient};
pub use messages::{ClusterMsg, GroupMsg, Message, ReliableMsg, SubscriberMsg};
pub use net::{Delivery, FaultPlan, FaultSpec, LinkFlap, LinkSpec, PendingMessage, SimNetwork};
pub use reliable::{
    Cohort, CohortSend, GroupSend, Payload, Resend, RetryPolicy, RetryRound, RetryTracker, Target,
};
pub use trigger::{expand_command, Invocation, TriggerLog};

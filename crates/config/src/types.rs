//! Configuration data model.

use bistro_base::TimeSpan;
use bistro_compress::Codec;
use bistro_pattern::{Pattern, Template};
use std::collections::BTreeSet;
use std::fmt;

/// What the normalizer does about compression for a feed (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CompressOpt {
    /// Leave files exactly as the source delivered them.
    #[default]
    Keep,
    /// Decompress on ingest (subscribers receive expanded data).
    Expand,
    /// (Re-)compress with the given codec before staging.
    To(Codec),
}

impl fmt::Display for CompressOpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressOpt::Keep => write!(f, "keep"),
            CompressOpt::Expand => write!(f, "expand"),
            CompressOpt::To(c) => write!(f, "{c}"),
        }
    }
}

/// What happens to a feed's ingest while its home server is down
/// (cluster fault-tolerance policy, after the AsterixDB feeds taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FeedPolicy {
    /// Drop files deposited while the home is unreachable.
    Discard,
    /// Buffer ("spill") files at the ingress and replay them when the
    /// home server comes back; the feed is never re-homed.
    Spill,
    /// Re-home the feed's group to a standby server: deposits are
    /// replicated to the standby, subscribers are re-homed on failure,
    /// and the standby backfills from the failed server's receipts.
    #[default]
    Failover,
}

impl fmt::Display for FeedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedPolicy::Discard => write!(f, "discard"),
            FeedPolicy::Spill => write!(f, "spill"),
            FeedPolicy::Failover => write!(f, "failover"),
        }
    }
}

/// A consumer feed definition (§3.1).
#[derive(Clone, Debug)]
pub struct FeedDef {
    /// Hierarchical name, e.g. `SNMP/MEMORY`.
    pub name: String,
    /// Filename patterns; a file belongs to the feed if any pattern
    /// matches.
    pub patterns: Vec<Pattern>,
    /// Optional staging-layout template.
    pub normalize: Option<Template>,
    /// Compression handling.
    pub compress: CompressOpt,
    /// Cluster fault-tolerance policy (ignored by a singleton server).
    pub policy: FeedPolicy,
    /// Free-text description.
    pub description: Option<String>,
}

/// An explicit (non-prefix) feed group, or — when `relay` is set — a
/// **subscriber group with a shared delivery plan** (§3 delivery
/// network): members are subscriber names and the server delivers each
/// file once to the relay endpoint, which fans out to the members and
/// acks the file once every member that wants it has it.
#[derive(Clone, Debug)]
pub struct GroupDef {
    /// Group name.
    pub name: String,
    /// Member feed or group names (feed group), or member subscriber
    /// names (relay group).
    pub members: Vec<String>,
    /// Relay endpoint for shared delivery; `None` = plain feed group.
    pub relay: Option<String>,
}

impl GroupDef {
    /// True if this group is a shared-delivery subscriber group.
    pub fn is_relay(&self) -> bool {
        self.relay.is_some()
    }
}

/// How files reach a subscriber (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Bistro pushes file contents to the subscriber.
    #[default]
    Push,
    /// Hybrid push-pull: Bistro pushes a notification; the subscriber
    /// retrieves the file at a time of its choosing.
    Notify,
}

/// Where a trigger program runs (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerKind {
    /// Invoked on the subscriber's host on delivery.
    Remote,
    /// Invoked locally by the Bistro server.
    Local,
}

/// A trigger registration.
#[derive(Clone, Debug)]
pub struct TriggerDef {
    /// Where the program runs.
    pub kind: TriggerKind,
    /// The command line (template specifiers `%N`/`%f` are expanded by
    /// the transport layer at invocation time).
    pub command: String,
}

/// Batch boundary specification (§2.3, §4.1): files accumulate into a
/// batch until `count` files have arrived, `window` has elapsed since the
/// batch opened, or the source emits an explicit end-of-batch punctuation.
/// When both `count` and `window` are set the spec is the paper's
/// recommended *hybrid*: "a combination of count and time-based batch
/// specification works well in practice".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSpec {
    /// Close the batch after this many files.
    pub count: Option<u32>,
    /// Close the batch this long after it opened.
    pub window: Option<TimeSpan>,
}

impl BatchSpec {
    /// Per-file notification (no batching): the default.
    pub fn per_file() -> BatchSpec {
        BatchSpec::default()
    }

    /// True if no batching is configured (per-file triggers).
    pub fn is_per_file(&self) -> bool {
        self.count.is_none() && self.window.is_none()
    }
}

/// A subscriber definition (§3.1).
#[derive(Clone, Debug)]
pub struct SubscriberDef {
    /// Subscriber name.
    pub name: String,
    /// Network endpoint (host:port in the simulated network).
    pub endpoint: String,
    /// Subscribed feed / group / hierarchy-prefix names.
    pub subscriptions: Vec<String>,
    /// Push or hybrid delivery.
    pub delivery: DeliveryMode,
    /// Per-file tardiness target driving the real-time scheduler (§4.3).
    pub deadline: TimeSpan,
    /// Batch spec for notifications.
    pub batch: BatchSpec,
    /// Optional trigger.
    pub trigger: Option<TriggerDef>,
    /// Destination-path template at the subscriber (the "landing zone"
    /// the subscriber controls — rsync's loss of destination control is
    /// one of the §2.2.2 complaints).
    pub dest: Option<Template>,
}

/// Server-wide settings.
#[derive(Clone, Debug)]
pub struct ServerDef {
    /// How long received files are retained before expiration (§4.2).
    pub retention: TimeSpan,
    /// Landing-zone directory (relative to the store root).
    pub landing: String,
    /// Staging directory (relative to the store root).
    pub staging: String,
    /// Number of responsiveness partitions in the delivery scheduler
    /// (§4.3).
    pub scheduler_partitions: usize,
    /// Whether expired files are shipped to the archiver (§4.2).
    pub archive: bool,
}

impl Default for ServerDef {
    fn default() -> Self {
        ServerDef {
            retention: TimeSpan::from_days(7),
            landing: "landing".to_string(),
            staging: "staging".to_string(),
            scheduler_partitions: 3,
            archive: false,
        }
    }
}

/// A fully parsed and validated configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Server-wide settings.
    pub server: ServerDef,
    /// All feed definitions.
    pub feeds: Vec<FeedDef>,
    /// All explicit groups.
    pub groups: Vec<GroupDef>,
    /// All subscribers.
    pub subscribers: Vec<SubscriberDef>,
}

impl Config {
    /// Look up a feed by exact name.
    pub fn feed(&self, name: &str) -> Option<&FeedDef> {
        self.feeds.iter().find(|f| f.name == name)
    }

    /// Look up a group by exact name.
    pub fn group(&self, name: &str) -> Option<&GroupDef> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// Look up a subscriber by exact name.
    pub fn subscriber(&self, name: &str) -> Option<&SubscriberDef> {
        self.subscribers.iter().find(|s| s.name == name)
    }

    /// Expand a subscription target (feed name, group name, or hierarchy
    /// prefix) into the set of concrete feed names, recursively for
    /// groups. Returns an error if the name resolves to nothing.
    pub fn resolve_subscription(&self, target: &str) -> Result<Vec<String>, ConfigError> {
        let mut out = BTreeSet::new();
        let mut visiting = Vec::new();
        self.resolve_into(target, &mut out, &mut visiting)?;
        Ok(out.into_iter().collect())
    }

    fn resolve_into(
        &self,
        target: &str,
        out: &mut BTreeSet<String>,
        visiting: &mut Vec<String>,
    ) -> Result<(), ConfigError> {
        if visiting.iter().any(|v| v == target) {
            return Err(ConfigError::GroupCycle(target.to_string()));
        }
        if self.feed(target).is_some() {
            out.insert(target.to_string());
            return Ok(());
        }
        // relay groups name subscribers, not feeds: they are delivery
        // plans, never subscription targets
        if let Some(group) = self.group(target).filter(|g| !g.is_relay()) {
            visiting.push(target.to_string());
            for m in &group.members {
                self.resolve_into(m, out, visiting)?;
            }
            visiting.pop();
            return Ok(());
        }
        // hierarchy prefix: all feeds under "target/"
        let prefix = format!("{target}/");
        let mut any = false;
        for f in &self.feeds {
            if f.name.starts_with(&prefix) {
                out.insert(f.name.clone());
                any = true;
            }
        }
        if any {
            Ok(())
        } else {
            Err(ConfigError::UnknownSubscription(target.to_string()))
        }
    }

    /// All concrete feed names a subscriber receives.
    pub fn subscriber_feeds(&self, subscriber: &str) -> Result<Vec<String>, ConfigError> {
        let sub = self
            .subscriber(subscriber)
            .ok_or_else(|| ConfigError::UnknownSubscriber(subscriber.to_string()))?;
        let mut out = BTreeSet::new();
        for target in &sub.subscriptions {
            let mut visiting = Vec::new();
            self.resolve_into(target, &mut out, &mut visiting)?;
        }
        Ok(out.into_iter().collect())
    }
}

/// Errors from parsing or validating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Lexical error at a line.
    Lex {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
    /// Syntax error at a line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
    /// A feed pattern failed to parse.
    BadPattern {
        /// Owning feed.
        feed: String,
        /// Pattern text.
        pattern: String,
        /// Underlying error.
        msg: String,
    },
    /// A normalize/dest template failed to parse.
    BadTemplate {
        /// Owning feed or subscriber.
        owner: String,
        /// Template text.
        template: String,
        /// Underlying error.
        msg: String,
    },
    /// Two definitions share a name.
    DuplicateName(String),
    /// A subscription target resolved to nothing.
    UnknownSubscription(String),
    /// Unknown subscriber name.
    UnknownSubscriber(String),
    /// Group membership is cyclic.
    GroupCycle(String),
    /// A feed has no patterns.
    NoPatterns(String),
    /// A subscriber has no subscriptions.
    NoSubscriptions(String),
    /// Invalid numeric value.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Lex { line, msg } => write!(f, "line {line}: lexical error: {msg}"),
            ConfigError::Parse { line, msg } => write!(f, "line {line}: syntax error: {msg}"),
            ConfigError::BadPattern { feed, pattern, msg } => {
                write!(f, "feed {feed}: bad pattern {pattern:?}: {msg}")
            }
            ConfigError::BadTemplate {
                owner,
                template,
                msg,
            } => write!(f, "{owner}: bad template {template:?}: {msg}"),
            ConfigError::DuplicateName(n) => write!(f, "duplicate definition: {n}"),
            ConfigError::UnknownSubscription(n) => {
                write!(f, "subscription target resolves to no feeds: {n}")
            }
            ConfigError::UnknownSubscriber(n) => write!(f, "unknown subscriber: {n}"),
            ConfigError::GroupCycle(n) => write!(f, "cyclic group membership at: {n}"),
            ConfigError::NoPatterns(n) => write!(f, "feed {n} has no patterns"),
            ConfigError::NoSubscriptions(n) => write!(f, "subscriber {n} has no subscriptions"),
            ConfigError::BadValue { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

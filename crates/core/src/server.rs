//! The Bistro server (paper §3, Figure 2).
//!
//! Drives the full pipeline deterministically on a shared clock:
//! landing-zone ingest → classification → normalization → staging →
//! reliable delivery (receipts) → batching → triggers, plus retention
//! expiration with archiving, progress monitoring, and the continuous
//! analyzer taps (new-feed discovery and false-negative detection on
//! unmatched files).

use crate::classifier::Classifier;
use crate::index::DeliveryIndex;
use crate::log::{EventLog, LogLevel};
use crate::normalizer::NormalizeError;
use crate::parallel::{self, Prepared};
use bistro_analyzer::discovery::DiscoveredFeed;
use bistro_analyzer::fn_detect::FnWarning;
use bistro_analyzer::{
    fp_report, FeedDiscoverer, FeedProgress, FnDetector, FpReport, ProgressAlert,
};
use bistro_base::{
    BatchId, Bitmap, FileId, IdGen, Pool, ShardStat, SharedClock, SubscriberId, TimePoint, TimeSpan,
};
use bistro_config::validate::validate;
use bistro_config::{BatchSpec, Config, DeliveryMode, FeedDef, SubscriberDef};
use bistro_receipts::{
    Archiver, DeliveryOutcome, FileRecord, GroupCommitStats, ReceiptError, ReceiptStore,
};
use bistro_telemetry::{
    AlarmRule, AlarmSet, Condition, Counter, Histogram, Json, Registry, SharedRegistry, Span,
};
use bistro_transport::batching::BatchCloseReason;
use bistro_transport::messages::{GroupMsg, Message, ReliableMsg, SubscriberMsg};
use bistro_transport::trigger::TriggerContext;
use bistro_transport::{
    BatchOutcome, Batcher, Cohort, CohortSend, Coverage, GroupSend, RetryPolicy, RetryRound,
    RetryTracker, SimNetwork, TriggerLog,
};
use bistro_vfs::{FileStore, VfsError};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Errors from server operations.
#[derive(Debug)]
pub enum ServerError {
    /// Filesystem error.
    Vfs(VfsError),
    /// Receipt store error.
    Receipts(ReceiptError),
    /// Normalization error.
    Normalize(NormalizeError),
    /// Configuration error.
    Config(bistro_config::ConfigError),
    /// Unknown subscriber name.
    UnknownSubscriber(String),
    /// The subscriber is a member of a relay delivery group; its
    /// lifecycle is tied to the group plan and it cannot be removed
    /// individually.
    GroupedSubscriber(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Vfs(e) => write!(f, "{e}"),
            ServerError::Receipts(e) => write!(f, "{e}"),
            ServerError::Normalize(e) => write!(f, "{e}"),
            ServerError::Config(e) => write!(f, "{e}"),
            ServerError::UnknownSubscriber(s) => write!(f, "unknown subscriber {s}"),
            ServerError::GroupedSubscriber(s) => {
                write!(f, "subscriber {s} is a relay-group member")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<VfsError> for ServerError {
    fn from(e: VfsError) -> Self {
        ServerError::Vfs(e)
    }
}
impl From<ReceiptError> for ServerError {
    fn from(e: ReceiptError) -> Self {
        ServerError::Receipts(e)
    }
}
impl From<NormalizeError> for ServerError {
    fn from(e: NormalizeError) -> Self {
        ServerError::Normalize(e)
    }
}
impl From<bistro_config::ConfigError> for ServerError {
    fn from(e: bistro_config::ConfigError) -> Self {
        ServerError::Config(e)
    }
}

/// Server-wide delivery totals, read off the telemetry counters
/// ([`Server::stats`]). Per-subscriber latency lives with the subscriber
/// ([`Server::latency_summary`]).
#[derive(Clone, Debug, Default)]
pub struct DeliveryStats {
    /// Files classified into at least one feed.
    pub files_ingested: u64,
    /// Files that matched no feed (analyzer territory).
    pub files_unknown: u64,
    /// Delivery receipts recorded.
    pub deliveries: u64,
    /// Bytes pushed to subscribers.
    pub bytes_delivered: u64,
}

/// Everything the server holds per subscriber, in the table slot of its
/// durable id. Registration creates it and deregistration drops it
/// whole; the delivery index, the retry tracker, the receipt store and
/// the per-deposit match know the subscriber by its id alone.
struct SubscriberState {
    id: SubscriberId,
    def: SubscriberDef,
    feeds: Vec<String>,
    /// A member of a relay group this server plans for: the group's one
    /// send serves it, so it is never fanned out to or backfilled
    /// directly.
    grouped: bool,
    online: bool,
    /// Deposit→delivery latency (microseconds; detached — never renders
    /// into `status_json`). A fixed-size histogram, so memory is
    /// O(subscribers) however many deliveries a long run records.
    latency: Histogram,
    /// This subscriber's open batch per feed, created at the first
    /// delivery under that feed.
    batchers: BTreeMap<String, Batcher>,
}

impl SubscriberState {
    fn new(id: SubscriberId, def: SubscriberDef, feeds: Vec<String>) -> SubscriberState {
        SubscriberState {
            id,
            def,
            feeds,
            grouped: false,
            online: true,
            latency: Histogram::detached(),
            batchers: BTreeMap::new(),
        }
    }
}

/// The subscriber table: a slot per durable id the receipt store handed
/// this server ([`ReceiptStore::register_subscriber`]), empty once its
/// subscriber left — ids are never reused, so a slot is never refilled by
/// anyone else — plus the name → id map the name-based API and the
/// name-ordered walks (status output, backfill) go through. Slots hold
/// their state inline, so a walk over every subscriber reads one array.
#[derive(Default)]
struct Subscribers {
    slots: Vec<Option<SubscriberState>>,
    by_name: BTreeMap<String, SubscriberId>,
}

impl Subscribers {
    fn get(&self, id: SubscriberId) -> Option<&SubscriberState> {
        self.slots.get(id.raw() as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: SubscriberId) -> Option<&mut SubscriberState> {
        self.slots.get_mut(id.raw() as usize)?.as_mut()
    }

    fn id(&self, name: &str) -> Option<SubscriberId> {
        self.by_name.get(name).copied()
    }

    /// The id registered under `name`, or [`ServerError::UnknownSubscriber`].
    fn known(&self, name: &str) -> Result<SubscriberId, ServerError> {
        self.id(name)
            .ok_or_else(|| ServerError::UnknownSubscriber(name.to_string()))
    }

    fn named(&self, name: &str) -> Option<&SubscriberState> {
        self.get(self.id(name)?)
    }

    fn insert(&mut self, st: SubscriberState) {
        let slot = st.id.raw() as usize;
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.by_name.insert(st.def.name.clone(), st.id);
        self.slots[slot] = Some(st);
    }

    fn remove(&mut self, id: SubscriberId) -> Option<SubscriberState> {
        let st = self.slots.get_mut(id.raw() as usize)?.take()?;
        self.by_name.remove(&st.def.name);
        Some(st)
    }

    /// Every subscriber, in name order.
    fn in_name_order(&self) -> impl Iterator<Item = &SubscriberState> {
        self.by_name.values().filter_map(|&id| self.get(id))
    }

    /// Every subscriber, in id order.
    fn in_id_order(&self) -> impl Iterator<Item = &SubscriberState> {
        self.slots.iter().flatten()
    }

    /// Ids in name order, for a walk that mutates the server.
    fn ids(&self) -> Vec<SubscriberId> {
        self.by_name.values().copied().collect()
    }
}

/// What delivering one file takes that does not depend on who receives
/// it, computed once per file and shared (`Arc`) by every subscriber's
/// send, its unacked-table entry and its ack.
struct FilePlan {
    rec: FileRecord,
    /// The staged payload's size, from one `metadata` call.
    size: u64,
    /// `incoming/<staged path>`: where a subscriber without a `dest`
    /// template receives the file.
    default_dest: String,
}

impl FilePlan {
    /// The feed `st` receives this file under: the first of the file's
    /// feeds it subscribes to.
    fn feed_for(&self, st: &SubscriberState) -> &str {
        let feeds = &self.rec.feeds;
        feeds
            .iter()
            .find(|f| st.feeds.contains(f))
            .unwrap_or(&feeds[0])
    }

    /// The wire message delivering this file to `st` under `feed` at
    /// `dest_path`.
    fn message(&self, st: &SubscriberState, feed: &str, dest_path: &str) -> SubscriberMsg {
        match st.def.delivery {
            DeliveryMode::Push => SubscriberMsg::FileDelivered {
                file: self.rec.id,
                feed: feed.to_string(),
                dest_path: dest_path.to_string(),
                size: self.size,
            },
            DeliveryMode::Notify => SubscriberMsg::FileAvailable {
                file: self.rec.id,
                feed: feed.to_string(),
                staged_path: self.rec.staged_path.clone(),
                size: self.size,
            },
        }
    }
}

/// A delivery that is complete as far as this server can tell — its
/// acknowledgement arrived, or its send needs none — and awaits its
/// receipt ([`Server::complete_deliveries`]).
struct Completed {
    sub: SubscriberId,
    file: FileId,
    /// The file's plan, where the caller holds it; an acknowledgement
    /// the unacked table no longer knew has it rebuilt from the arrival
    /// record.
    plan: Option<Arc<FilePlan>>,
    /// When it completed (reliable mode: the ack's arrival).
    at: TimePoint,
    /// Where the subscriber received the file, when the send already
    /// rendered it.
    dest_path: Option<String>,
}

/// One active shared-delivery plan, built from a relay group in the
/// config. The relay server itself (whose name equals the relay
/// endpoint) skips the plan and fans out to the members through the
/// regular subscriber path — the same config drives both tiers.
struct GroupPlan {
    name: String,
    endpoint: String,
    /// Member subscriber names, sorted: the ack bitmap index of a member
    /// is its position here (the relay sorts identically).
    members: Vec<String>,
    /// Union of the members' concrete feeds.
    feeds: Vec<String>,
    /// Each member's concrete feeds, by member position — `None` when
    /// every member subscribes to the same feeds, and so wants every file
    /// the plan matches.
    member_feeds: Option<Vec<Vec<String>>>,
}

impl GroupPlan {
    /// The coverage a send of a file in `feeds` starts from: the bits of
    /// the members that subscribe to none of them are set, because the
    /// relay never delivers the file to them.
    fn coverage_for(&self, feeds: &[String]) -> Coverage {
        let mut coverage = Coverage::new(self.members.len() as u32);
        for (i, mine) in self.member_feeds.iter().flatten().enumerate() {
            if !mine.iter().any(|f| feeds.contains(f)) {
                coverage.set(i as u32);
            }
        }
        coverage
    }
}

/// Shared-delivery-tree state (§3 delivery network): one tracker entry
/// and one coverage bitmap per `(group, file)` in flight, instead of a
/// per-subscriber tracker entry per member — fanout bookkeeping scales
/// with the group count, not the member count. Tallies live in the
/// server's telemetry registry (`group.*`), created with the plans so a
/// server without delivery trees renders no `group.*` metrics.
struct GroupState {
    plans: Vec<GroupPlan>,
    tracker: RetryTracker<GroupSend>,
    /// `group.completed`: deliveries whose coverage reached every member.
    completed: Arc<Counter>,
    /// `group.undeliverable`: group sends dropped for want of a network.
    undeliverable: Arc<Counter>,
}

/// Seed for the group tracker's retry jitter when the server is not in
/// reliable mode (XORed into the reliable seed when it is, so the two
/// trackers never share an RNG stream).
const GROUP_RETRY_SEED: u64 = 0xB157_0009;

/// Handles into the server's telemetry registry, resolved once at
/// construction so the hot paths never re-look-up metric names.
struct ServerMetrics {
    ingest_total: Arc<Counter>,
    ingest_files: Arc<Counter>,
    ingest_unknown: Arc<Counter>,
    ingest_bytes_staged: Arc<Counter>,
    classify_us: Arc<Histogram>,
    normalize_us: Arc<Histogram>,
    delivery_receipts: Arc<Counter>,
    delivery_bytes: Arc<Counter>,
    dest_fallback: Arc<Counter>,
    acks_processed: Arc<Counter>,
    archiver_skipped: Arc<Counter>,
}

impl ServerMetrics {
    fn new(reg: &Registry) -> ServerMetrics {
        ServerMetrics {
            ingest_total: reg.counter("ingest.total"),
            ingest_files: reg.counter("ingest.files"),
            ingest_unknown: reg.counter("ingest.unknown"),
            ingest_bytes_staged: reg.counter("ingest.bytes_staged"),
            classify_us: reg.histogram("ingest.classify_us"),
            normalize_us: reg.histogram("ingest.normalize_us"),
            delivery_receipts: reg.counter("delivery.receipts"),
            delivery_bytes: reg.counter("delivery.bytes"),
            dest_fallback: reg.counter("delivery.dest_fallback"),
            acks_processed: reg.counter("reliable.acks_processed"),
            archiver_skipped: reg.counter("archiver.skipped"),
        }
    }
}

/// Handles into the pool registry ([`Server::pool_telemetry`]),
/// resolved when the worker count is set: every deposit passes through
/// the prepare pool and the commit window, so neither may look a metric
/// name up.
struct PoolMetrics {
    prepare_us: Arc<Histogram>,
    batches: Arc<Counter>,
    group_size: Arc<Histogram>,
    physical_appends: Arc<Counter>,
    group_flushes: Arc<Counter>,
    /// `(pool.worker{i}.files, pool.worker{i}.busy_us)` per worker.
    workers: Vec<(Arc<Counter>, Arc<Counter>)>,
}

impl PoolMetrics {
    fn new(reg: &Registry, workers: usize) -> PoolMetrics {
        PoolMetrics {
            prepare_us: reg.histogram("pool.prepare_us"),
            batches: reg.counter("pool.batches"),
            group_size: reg.histogram("wal.group_size"),
            physical_appends: reg.counter("wal.physical_appends"),
            group_flushes: reg.counter("wal.group_flushes"),
            workers: (0..workers)
                .map(|w| {
                    (
                        reg.counter(&format!("pool.worker{w}.files")),
                        reg.counter(&format!("pool.worker{w}.busy_us")),
                    )
                })
                .collect(),
        }
    }
}

/// A Bistro server instance.
pub struct Server {
    name: String,
    config: Config,
    clock: SharedClock,
    store: Arc<dyn FileStore>,
    classifier: Arc<Classifier>,
    /// [`parallel::compresses`] of `config`, kept beside the classifier
    /// it is recomputed with: the inline-vs-pool rule of
    /// [`Server::deposit_batch`].
    compresses: bool,
    /// The *ceiling* on prepare threads; a batch uses them only when
    /// `compresses`.
    workers: Pool,
    receipts: ReceiptStore,
    archiver: Option<Archiver>,
    log: EventLog,
    triggers: TriggerLog,
    batch_ids: IdGen,
    subscribers: Subscribers,
    /// Inverted feed→subscriber / feed→plan / endpoint→subscriber maps,
    /// maintained at every subscriber/group mutation point so the
    /// per-deposit match is `O(matched)` (DESIGN.md §12.5).
    index: DeliveryIndex,
    net: Option<Arc<SimNetwork>>,
    /// The direct unacked-send table when reliable delivery is enabled
    /// (§4.2): an entry is one send cohort of a file — a deposit's whole
    /// fan-out, or one backfill send — holding the file's plan, from
    /// which a resend re-renders its messages and an ack completes its
    /// delivery, and the bitmap of subscriber ids still owed an ack. Its
    /// tallies (`reliable.*`) count (subscriber, file) pairs.
    reliable: Option<RetryTracker<CohortSend<Arc<FilePlan>>, Cohort>>,
    /// The number the next send cohort takes.
    cohorts: u64,
    groups: Option<GroupState>,
    progress: HashMap<String, FeedProgress>,
    discoverer: FeedDiscoverer,
    fn_detector: FnDetector,
    telemetry: SharedRegistry,
    pool_telemetry: SharedRegistry,
    metrics: ServerMetrics,
    pool_metrics: PoolMetrics,
    alarms: AlarmSet,
}

impl Server {
    /// Create a server over `store` with the given validated
    /// configuration. Opens (recovering if necessary) the receipt store
    /// and creates the landing/staging/unknown directories.
    pub fn new(
        name: &str,
        config: Config,
        clock: SharedClock,
        store: Arc<dyn FileStore>,
    ) -> Result<Server, ServerError> {
        validate(&config)?;
        store.create_dir_all(&config.server.landing)?;
        store.create_dir_all(&config.server.staging)?;
        store.create_dir_all("unknown")?;

        let telemetry = Registry::new();
        let metrics = ServerMetrics::new(&telemetry);
        let receipts = ReceiptStore::open(store.clone(), "receipts")?;
        receipts.set_telemetry(&telemetry, clock.clone());
        let archiver = if config.server.archive {
            Some(Archiver::new(store.clone(), "archive").map_err(ServerError::Vfs)?)
        } else {
            None
        };

        let classifier = Classifier::compile(&config);
        let compresses = parallel::compresses(&config);
        let fn_detector = FnDetector::new(
            config
                .feeds
                .iter()
                .map(|f| (f.name.clone(), f.patterns.clone()))
                .collect(),
        );

        let mut subscribers = Subscribers::default();
        // subscription targets repeat across wide deployments (every
        // member of a delivery tree names the same feed), so memoize
        // resolution per target instead of re-walking the config — and
        // resolve from the def at hand rather than `subscriber_feeds`,
        // whose by-name lookup would make this loop quadratic. Names
        // register in name order, so on a fresh store ids follow names;
        // a name the store already knows keeps its id.
        let mut resolved: HashMap<String, Vec<String>> = HashMap::new();
        let mut defs: Vec<&SubscriberDef> = config.subscribers.iter().collect();
        defs.sort_by(|a, b| a.name.cmp(&b.name));
        for def in defs {
            let mut feeds: BTreeSet<String> = BTreeSet::new();
            for target in &def.subscriptions {
                if let Some(r) = resolved.get(target) {
                    feeds.extend(r.iter().cloned());
                } else {
                    let r = config.resolve_subscription(target)?;
                    feeds.extend(r.iter().cloned());
                    resolved.insert(target.clone(), r);
                }
            }
            let id = receipts.register_subscriber(&def.name);
            subscribers.insert(SubscriberState::new(
                id,
                def.clone(),
                feeds.into_iter().collect(),
            ));
        }

        // Shared delivery plans from the config's relay groups. The
        // relay endpoint itself skips its own plans: there the members
        // stay in the direct fan-out path, so one config drives both the
        // upstream tier (deliver once per group) and the relay tier
        // (fan out per member).
        let mut plans: Vec<GroupPlan> = Vec::new();
        for g in &config.groups {
            let Some(relay) = &g.relay else { continue };
            if relay == name {
                continue;
            }
            let mut members = g.members.clone();
            members.sort();
            let mut feeds: BTreeSet<String> = BTreeSet::new();
            let mut member_feeds = Vec::with_capacity(members.len());
            for m in &members {
                // validated: every member is a subscriber, whose feeds
                // were just resolved above
                if let Some(st) = subscribers.id(m).and_then(|id| subscribers.get_mut(id)) {
                    feeds.extend(st.feeds.iter().cloned());
                    st.grouped = true;
                    member_feeds.push(st.feeds.clone());
                }
            }
            let alike = member_feeds.windows(2).all(|w| w[0] == w[1]);
            plans.push(GroupPlan {
                name: g.name.clone(),
                endpoint: relay.clone(),
                members,
                feeds: feeds.into_iter().collect(),
                member_feeds: (!alike).then_some(member_feeds),
            });
        }
        plans.sort_by(|a, b| a.name.cmp(&b.name));
        let groups = if plans.is_empty() {
            None
        } else {
            Some(GroupState {
                plans,
                tracker: RetryTracker::with_telemetry(
                    RetryPolicy::default(),
                    GROUP_RETRY_SEED,
                    &telemetry,
                    "group",
                ),
                completed: telemetry.counter("group.completed"),
                undeliverable: telemetry.counter("group.undeliverable"),
            })
        };

        // The inverted delivery index over the freshly resolved
        // subscriber table and compiled plans. Its `index.*` tallies live
        // in the pool registry, keeping lookup tallies out of the
        // byte-stable `status --json` surface the main registry renders.
        let pool_telemetry = Registry::new();
        let mut index = DeliveryIndex::new(&pool_telemetry);
        for st in subscribers.in_id_order() {
            let (def, feeds) = (&st.def, &st.feeds);
            index.insert_subscriber(
                st.id,
                &def.name,
                feeds,
                &def.endpoint,
                st.online,
                st.grouped,
            );
        }
        if let Some(g) = &groups {
            index.set_group_plans(
                g.plans
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.feeds.as_slice())),
            );
        }

        // Rebuild analyzer state from files parked in unknown/ by a
        // previous incarnation: discovery and drift detection must
        // survive restarts just like receipts do.
        let mut discoverer = FeedDiscoverer::new();
        let mut fn_detector = fn_detector;
        for full in bistro_vfs::walk_files(store.as_ref(), "unknown")? {
            let rel = full.strip_prefix("unknown/").unwrap_or(&full);
            discoverer.observe(rel);
            fn_detector.observe(rel);
        }

        Ok(Server {
            name: name.to_string(),
            config,
            clock,
            store,
            classifier: Arc::new(classifier),
            compresses,
            workers: Pool::new(1),
            receipts,
            archiver,
            log: EventLog::default(),
            triggers: TriggerLog::new(),
            batch_ids: IdGen::new(),
            subscribers,
            index,
            net: None,
            reliable: None,
            cohorts: 0,
            groups,
            progress: HashMap::new(),
            discoverer,
            fn_detector,
            telemetry,
            pool_metrics: PoolMetrics::new(&pool_telemetry, 1),
            pool_telemetry,
            metrics,
            alarms: Server::default_alarms(),
        })
    }

    /// The alarm rules every server starts with (checked on each
    /// [`Server::tick`]; firings land in the event log at `Alarm` level).
    fn default_alarms() -> AlarmSet {
        let mut set = AlarmSet::new();
        set.add(AlarmRule::new(
            "retry-exhaustion",
            Condition::CounterAtLeast {
                metric: "reliable.exhausted".into(),
                threshold: 1,
            },
            "reliable delivery abandoned after exhausting its retry budget",
        ));
        set.add(AlarmRule::new(
            "group-retry-exhaustion",
            Condition::CounterAtLeast {
                metric: "group.exhausted".into(),
                threshold: 1,
            },
            "a shared group delivery was abandoned after exhausting its retry budget",
        ));
        set.add(AlarmRule::new(
            "classifier-miss-ratio",
            Condition::RatioAtLeast {
                num: "ingest.unknown".into(),
                den: "ingest.total".into(),
                threshold: 0.5,
                min_den: 8,
            },
            "at least half of ingested files match no configured feed",
        ));
        set.add(AlarmRule::new(
            "wal-fsync-p99",
            Condition::QuantileAtLeast {
                metric: "wal.fsync_us".into(),
                q: 0.99,
                threshold: 50_000,
            },
            "receipt WAL fsync p99 above 50ms",
        ));
        set
    }

    /// Attach a simulated network; deliveries and notifications then
    /// travel through it (with its bandwidth/latency/outages).
    pub fn with_network(mut self, net: Arc<SimNetwork>) -> Server {
        self.net = Some(net);
        self
    }

    /// Route deliveries through the ack/retry protocol (§4.2): every
    /// send travels as a [`ReliableMsg::Attempt`] envelope, the delivery
    /// receipt is written only when the subscriber's acknowledgement
    /// comes back, and unacked sends are retransmitted with seeded
    /// exponential backoff (drive via [`Server::poll_network`] and
    /// [`Server::retry_tick`]). Requires an attached network.
    pub fn with_reliable_delivery(mut self, policy: RetryPolicy, seed: u64) -> Server {
        self.reliable = Some(RetryTracker::with_telemetry(
            policy,
            seed,
            &self.telemetry,
            "reliable",
        ));
        // group deliveries retry on the same policy, with a distinct RNG
        // stream so the two trackers' jitter draws stay independent
        if let Some(g) = self.groups.as_mut() {
            g.tracker = RetryTracker::with_telemetry(
                policy,
                seed ^ GROUP_RETRY_SEED,
                &self.telemetry,
                "group",
            );
        }
        self
    }

    /// Let [`Server::deposit_batch`] fan its classify + normalize stage
    /// out to at most `workers` threads (1 = always inline, the default).
    /// A ceiling, not a demand: a batch is prepared inline unless some
    /// feed compresses ([`parallel::compresses`]), so a high count cannot
    /// slow a config with nothing to parallelize. Any count yields
    /// byte-identical results — see `parallel` for the contract.
    pub fn with_workers(mut self, workers: usize) -> Server {
        self.set_workers(workers);
        self
    }

    /// Change the ingest worker ceiling at runtime.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = Pool::new(workers);
        self.pool_metrics = PoolMetrics::new(&self.pool_telemetry, self.workers.workers());
    }

    /// The configured ingest worker ceiling.
    pub fn worker_count(&self) -> usize {
        self.workers.workers()
    }

    /// The server's name (its network endpoint).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Register progress monitoring for a feed: expect
    /// `files_per_interval` files every `period`.
    pub fn monitor_feed(&mut self, feed: &str, period: TimeSpan, files_per_interval: usize) {
        self.progress.insert(
            feed.to_string(),
            FeedProgress::new(period, files_per_interval),
        );
    }

    /// Deposit a file *with* a source notification (the
    /// cooperative-source path of §4.1): ingest happens immediately, as a
    /// [`Server::deposit_batch`] of one. The payload never touches the
    /// landing zone.
    pub fn deposit(&mut self, rel_path: &str, data: &[u8]) -> Result<(), ServerError> {
        self.deposit_batch(vec![(rel_path.to_string(), data.to_vec())])
    }

    /// A source notified us that `rel_path` is in the landing zone:
    /// ingest it as a batch of one, then remove the landing copy. The
    /// remove runs only once the commit window is flushed, so a crash
    /// leaves either the landing copy (re-ingested by the next
    /// [`Server::scan_landing`]) or a durable arrival — at-least-once,
    /// never lost.
    pub fn notify_deposit(&mut self, rel_path: &str) -> Result<(), ServerError> {
        let landing = format!("{}/{rel_path}", self.config.server.landing);
        let payload = self.store.read(&landing)?;
        self.deposit_batch(vec![(rel_path.to_string(), payload)])?;
        self.store.remove(&landing)?;
        Ok(())
    }

    /// Deposit a batch of files — the one ingest path every entry point
    /// runs. The pure classify + normalize stage fans across the
    /// configured worker pool ([`Server::with_workers`]) when some feed
    /// compresses and runs inline otherwise; the results —
    /// staging writes, receipt WAL appends, deliveries — commit strictly
    /// in deposit order on the caller's thread, inside one group-commit
    /// window: the batch's receipts reach the WAL in one batched append
    /// and fsync — or more, when a file's deliveries go over a network,
    /// since its arrival is flushed before the first send naming it.
    ///
    /// Determinism contract: because workers run only the pure
    /// [`parallel::prepare`] stage (they never touch the store, the WAL
    /// or the main telemetry registry) and the commit loop replays their
    /// results in input order, the store operation sequence, receipt
    /// sequence numbers, telemetry counters and `status_json` bytes are
    /// identical for *any* worker count. Per-worker fan-out accounting
    /// goes to the separate [`Server::pool_telemetry`] registry, which is
    /// deliberately excluded from that surface.
    pub fn deposit_batch(&mut self, files: Vec<(String, Vec<u8>)>) -> Result<(), ServerError> {
        let prepare_span = Span::start(self.clock.clone(), self.pool_metrics.prepare_us.clone());
        let (classifier, config, clock) = (&self.classifier, &self.config, &self.clock);
        let pool = if self.compresses {
            self.workers
        } else {
            Pool::new(1)
        };
        let (prepared, shard_stats) = pool.map_with_stats(files, |_, (rel, payload)| {
            let r = parallel::prepare(classifier, config, clock, &rel, payload);
            (rel, r)
        });
        prepare_span.finish();
        self.record_pool_stats(&shard_stats, &prepared);

        self.receipts.begin_group();
        let result = prepared
            .into_iter()
            .try_for_each(|(rel, r)| self.ingest_prepared(&rel, r?));
        // the window must close even on error so buffered records become
        // durable before the error propagates (suffix-loss only on crash)
        match self.receipts.end_group() {
            Ok(stats) => {
                self.record_group_stats(&stats);
                result
            }
            Err(e) => result.and(Err(e.into())),
        }
    }

    /// Group-commit telemetry for one batch, into the pool registry
    /// (it depends on how deposits were cut into batches, so it stays
    /// out of `status_json` just like the per-worker tallies).
    fn record_group_stats(&self, stats: &GroupCommitStats) {
        let m = &self.pool_metrics;
        for &n in &stats.flush_sizes {
            m.group_size.record(n);
        }
        m.physical_appends.add(stats.physical_appends);
        m.group_flushes.add(stats.flushes);
    }

    /// Per-worker fan-out accounting for one [`Server::deposit_batch`].
    /// Recorded into a registry *separate* from the server's main
    /// telemetry: `status_json` embeds the full main registry, and
    /// per-worker tallies necessarily differ with the worker count,
    /// which would break the `--workers N` byte-identity contract.
    fn record_pool_stats(
        &self,
        stats: &[ShardStat],
        prepared: &[(String, Result<Prepared, NormalizeError>)],
    ) {
        let m = &self.pool_metrics;
        m.batches.inc();
        for (s, (files, _)) in stats.iter().zip(&m.workers) {
            if s.jobs > 0 {
                files.add(s.jobs);
            }
        }
        let busy_us = |(_, r): &(String, Result<Prepared, NormalizeError>)| {
            r.as_ref().map_or(0, |p| p.classify_us + p.normalize_us)
        };
        // items shard statically as i % effective, so per-worker busy
        // time is reconstructible on the commit thread; an inline call
        // (one effective worker) needs no per-worker table
        let effective = stats.iter().filter(|s| s.jobs > 0).count().max(1);
        if effective == 1 {
            m.workers[0].1.add(prepared.iter().map(busy_us).sum());
            return;
        }
        let mut busy = vec![0u64; effective];
        for (i, item) in prepared.iter().enumerate() {
            busy[i % effective] += busy_us(item);
        }
        for (us, (_, counter)) in busy.into_iter().zip(&m.workers) {
            counter.add(us);
        }
    }

    /// Scan the landing zone for files from non-cooperating sources and
    /// ingest everything found, one [`Server::notify_deposit`] per file
    /// (so memory stays bounded by one payload). Cheap because ingest
    /// keeps the landing zone empty (§4.1: "Bistro minimizes the overhead
    /// of directory scans by immediately moving incoming files to staging
    /// directories").
    pub fn scan_landing(&mut self) -> Result<usize, ServerError> {
        let files = bistro_vfs::walk_files(self.store.as_ref(), &self.config.server.landing)?;
        let prefix = format!("{}/", self.config.server.landing);
        for full in &files {
            self.notify_deposit(full.strip_prefix(&prefix).unwrap_or(full))?;
        }
        Ok(files.len())
    }

    /// Commit one prepared file: stage the normalized payloads, record
    /// the arrival receipt, deliver, batch. All the pipeline's side
    /// effects, on the caller's thread, in call order.
    fn ingest_prepared(
        &mut self,
        rel_path: &str,
        mut prepared: Prepared,
    ) -> Result<(), ServerError> {
        let now = self.clock.now();
        self.metrics.ingest_total.inc();
        self.metrics.classify_us.record(prepared.classify_us);

        if prepared.classifications.is_empty() {
            // unknown feed: park for the analyzer, from the buffer prepare
            // handed back. A duplicate deposit of the same unknown name
            // (sources do retransmit) replaces the parked copy in one op.
            let raw = prepared.raw.take().expect("unknown files keep the payload");
            self.store
                .write_owned(&format!("unknown/{rel_path}"), raw)?;
            self.discoverer.observe(rel_path);
            self.fn_detector.observe(rel_path);
            self.metrics.ingest_unknown.inc();
            self.log.log(
                now,
                LogLevel::Warn,
                "classifier",
                format!("no feed matches {rel_path}"),
            );
            return Ok(());
        }

        // stage once per matching feed, adopting the prepared buffers
        self.metrics.normalize_us.record(prepared.normalize_us);
        for normalized in std::mem::take(&mut prepared.staged) {
            let staged = format!("{}/{}", self.config.server.staging, normalized.staged_path);
            self.metrics
                .ingest_bytes_staged
                .add(normalized.data.len() as u64);
            self.store.write_owned(&staged, normalized.data)?;
        }

        let feed_time = prepared.feed_time;
        let template = prepared
            .receipt
            .as_ref()
            .expect("classified files carry a pre-serialized receipt");
        let file = self.receipts.record_arrival_prepared(template, now)?;
        self.metrics.ingest_files.inc();

        let feeds = &template.feeds;
        for feed in feeds {
            if let Some(p) = self.progress.get_mut(feed) {
                p.record(feed_time.unwrap_or(now));
            }
        }

        // delivery to online subscribers of any matched feed, in id order
        // (so the network send order — and hence a faulty run's RNG
        // stream — replays bit-for-bit). The interested set is collected
        // up front: delivering to one subscriber never changes another's
        // online state or feed set, and the common case — nobody
        // subscribes to this feed — then skips the receipt lookup
        // entirely. Members of a relay group are excluded: their delivery
        // is the one send per group below. The index lookup touches only
        // the matched postings.
        let (interested, group_matches) = self.index.matches(feeds);
        if !interested.is_empty() || !group_matches.is_empty() {
            // the one durability rule: nothing naming this file leaves
            // over a network while its arrival is still buffered in the
            // commit window — a crash would reissue an id a subscriber
            // already holds. Local deliveries keep buffering.
            if self.net.is_some() {
                self.receipts.flush_group()?;
            }
            let plan = self.file_plan(self.receipts.file(file).expect("just recorded"));
            let done = self.deliver(&plan, interested)?;
            self.complete_deliveries(done)?;
            for group in group_matches {
                self.deliver_group(group, &plan)?;
            }
        }
        Ok(())
    }

    /// The pre-index brute-force delivery match: filter every
    /// subscriber, enumerate every plan. `O(subscribers + plans)` per
    /// call — kept as the oracle [`DeliveryIndex`] is checked against
    /// (`tests/delivery_index.rs`). Must return exactly what
    /// [`DeliveryIndex::matches`] returns for the same state: the
    /// subscribers' names in ascending id order, then the plan indices.
    #[doc(hidden)]
    pub fn match_via_scan(&self, feeds: &[String]) -> (Vec<String>, Vec<usize>) {
        let interested: Vec<String> = (self.subscribers.in_id_order())
            .filter(|st| st.online && !st.grouped && st.feeds.iter().any(|f| feeds.contains(f)))
            .map(|st| st.def.name.clone())
            .collect();
        let group_matches: Vec<usize> = match &self.groups {
            Some(g) => g
                .plans
                .iter()
                .enumerate()
                .filter(|(_, p)| p.feeds.iter().any(|f| feeds.contains(f)))
                .map(|(i, _)| i)
                .collect(),
            None => Vec::new(),
        };
        (interested, group_matches)
    }

    /// The indexed delivery match for `feeds` — exposed for the
    /// index-vs-scan equivalence property test. A posting whose id has
    /// no subscriber renders as `#<id>`, which no scan returns.
    #[doc(hidden)]
    pub fn match_via_index(&self, feeds: &[String]) -> (Vec<String>, Vec<usize>) {
        let (subs, plans) = self.index.matches(feeds);
        let mut names = Vec::with_capacity(subs.count() as usize);
        names.extend(
            subs.ones()
                .map(|id| match self.subscribers.get(SubscriberId(id)) {
                    Some(st) => st.def.name.clone(),
                    None => format!("#{id}"),
                }),
        );
        (names, plans)
    }

    /// Endpoint→subscriber resolution — exposed for ack-lookup
    /// regression tests (rename, re-home).
    #[doc(hidden)]
    pub fn resolve_endpoint(&self, endpoint: &str) -> Option<String> {
        let id = self.index.subscriber_for_endpoint(endpoint)?;
        Some(self.subscribers.get(id)?.def.name.clone())
    }

    /// Live `(feed, endpoint)` posting counts in the delivery index —
    /// exposed so churn tests can assert nothing leaks.
    #[doc(hidden)]
    pub fn index_entry_counts(&self) -> (usize, usize) {
        self.index.entry_counts()
    }

    /// The per-file half of a delivery, from the file's arrival record.
    fn file_plan(&self, rec: FileRecord) -> Arc<FilePlan> {
        let staged_full = format!("{}/{}", self.config.server.staging, rec.staged_path);
        let size = self
            .store
            .metadata(&staged_full)
            .map(|m| m.size)
            .unwrap_or(rec.size);
        Arc::new(FilePlan {
            default_dest: format!("incoming/{}", rec.staged_path),
            size,
            rec,
        })
    }

    /// Where `st` receives the file under `feed_name`: its `dest`
    /// template rendered for this file, or the staged layout. A failed
    /// re-match or render falls back to the staged layout — loudly: the
    /// file still lands somewhere the subscriber can fetch it, but
    /// silently ignoring the configured template buries a config/pattern
    /// drift bug (the dest template no longer agrees with the feed's
    /// patterns) that only the subscriber's downstream tooling would
    /// notice.
    fn dest_path<'p>(
        &self,
        plan: &'p FilePlan,
        st: &SubscriberState,
        feed_name: &str,
    ) -> Cow<'p, str> {
        let (Some(tpl), Some(feed)) = (&st.def.dest, self.config.feed(feed_name)) else {
            return Cow::Borrowed(&plan.default_dest);
        };
        let rec = &plan.rec;
        // re-match to recover captures for the template
        let caps = match feed.patterns.iter().find_map(|p| p.match_str(&rec.name)) {
            Some(caps) => caps,
            None => {
                self.log.log(
                    self.clock.now(),
                    LogLevel::Warn,
                    "delivery",
                    format!(
                        "dest re-match failed: file {} no longer matches any {} pattern; \
                         rendering {}'s dest template with empty captures",
                        rec.name, feed_name, st.def.name
                    ),
                );
                Default::default()
            }
        };
        match tpl.render(&caps, &rec.name, feed_name) {
            Ok(dest) => Cow::Owned(dest),
            Err(e) => {
                self.metrics.dest_fallback.inc();
                self.log.log(
                    self.clock.now(),
                    LogLevel::Warn,
                    "delivery",
                    format!(
                        "dest template for {} failed on file {} ({e}); \
                         falling back to incoming/{}",
                        st.def.name, rec.name, rec.staged_path
                    ),
                );
                Cow::Borrowed(&plan.default_dest)
            }
        }
    }

    /// Deliver (push or notify) one file to the subscribers in `to`, in
    /// id order — the caller names only pairs the receipt store still
    /// owes; a pair an earlier send of the file still owes is skipped,
    /// its send being in flight. In reliable mode the sends are one
    /// cohort — a [`ReliableMsg::Attempt`] per subscriber and one
    /// unacked-table entry with one deadline — and nothing is returned:
    /// each delivery completes in [`Server::poll_network`] when its ack
    /// comes back. Otherwise they are complete now, and returned for the
    /// caller to receipt together with the rest of its fan-out
    /// ([`Server::complete_deliveries`]).
    fn deliver(
        &mut self,
        plan: &Arc<FilePlan>,
        mut to: Bitmap,
    ) -> Result<Vec<Completed>, ServerError> {
        let (now, file) = (self.clock.now(), plan.rec.id);
        let done = |sub, at, dest_path| Completed {
            sub: SubscriberId(sub),
            file,
            plan: Some(plan.clone()),
            at,
            dest_path,
        };
        let Some(net) = &self.net else {
            return Ok(to.ones().map(|sub| done(sub, now, None)).collect());
        };
        if let Some(tracker) = &self.reliable {
            for owed in tracker.owed(file) {
                to.and_not(owed.bytes());
            }
        }
        let mut completed = Vec::new();
        for sub in to.ones() {
            let st = (self.subscribers.get(SubscriberId(sub)))
                .ok_or_else(|| ServerError::UnknownSubscriber(SubscriberId(sub).to_string()))?;
            let feed = plan.feed_for(st);
            let dest_path = self.dest_path(plan, st, feed);
            let inner = plan.message(st, feed, &dest_path);
            let endpoint = st.def.endpoint.as_str();
            if self.reliable.is_some() {
                let msg = Message::Reliable(ReliableMsg::Attempt { attempt: 1, inner });
                net.send(now, &self.name, endpoint, msg);
            } else {
                let at = net.send(now, &self.name, endpoint, Message::Subscriber(inner));
                completed.push(done(sub, at, Some(dest_path.into_owned())));
            }
        }
        if let Some(tracker) = self.reliable.as_mut() {
            if !to.is_empty() {
                let cohort = (file, self.cohorts);
                self.cohorts += 1;
                let send = CohortSend {
                    plan: plan.clone(),
                    owed: to,
                };
                tracker.track_key(cohort, send, now);
            }
        }
        Ok(completed)
    }

    /// Deliver one file to a group's relay endpoint: a single
    /// [`GroupMsg::Deliver`] regardless of member count, tracked by the
    /// bitmap tracker until the relay's coverage report shows every
    /// member that subscribes to the file served. Returns whether a send
    /// actually went out (skipped when the delivery is already in flight
    /// or durably complete).
    fn deliver_group(&mut self, plan_idx: usize, file: &FilePlan) -> Result<bool, ServerError> {
        let (rec, size) = (&file.rec, file.size);
        let now = self.clock.now();
        let (group, endpoint, coverage) = {
            let g = self.groups.as_ref().expect("caller checked group state");
            let p = &g.plans[plan_idx];
            (
                p.name.clone(),
                p.endpoint.clone(),
                p.coverage_for(&rec.feeds),
            )
        };
        // durably complete from a previous incarnation: the group mark
        // is the crash-recovery boundary, exactly like a delivery receipt
        if let Some((bits, wm)) = self.receipts.group_coverage(rec.id, &group) {
            let mut durable = coverage.clone();
            durable.merge_wire(&bits, wm);
            if durable.complete() {
                return Ok(false);
            }
        }
        let Some(net) = self.net.clone() else {
            // group delivery is a network construct, and the members are
            // excluded from direct fan-out: without a network nobody
            // receives this file, so say so
            let g = self.groups.as_ref().expect("caller checked group state");
            g.undeliverable.inc();
            self.log.log(
                now,
                LogLevel::Warn,
                "delivery",
                format!(
                    "group {group} delivery of file {} dropped: no network attached",
                    rec.id.raw()
                ),
            );
            return Ok(false);
        };
        let g = self.groups.as_mut().expect("caller checked group state");
        if g.tracker.is_outstanding(&group, rec.id) {
            return Ok(false); // a send is already in flight
        }
        let send = GroupSend {
            coverage,
            file_name: rec.name.clone(),
            size,
        };
        let attempt = g.tracker.track(&group, rec.id, send, now);
        net.send(
            now,
            &self.name,
            &endpoint,
            Message::Group(GroupMsg::Deliver {
                group,
                file: rec.id,
                file_name: rec.name.clone(),
                size,
                attempt,
            }),
        );
        Ok(true)
    }

    /// Write the receipts of completed deliveries — one record per file,
    /// logged together ([`ReceiptStore::record_deliveries`]) — and only
    /// then run each delivery's in-memory tail, in the order given:
    /// nothing a delivery causes, a trigger above all, is observable
    /// before its receipt is logged. Idempotent: a pair the store no
    /// longer owes (a late or duplicate ack, a file no longer live) gets
    /// neither receipt nor tail.
    fn complete_deliveries(&mut self, done: Vec<Completed>) -> Result<(), ServerError> {
        let Some(at) = done.iter().map(|c| c.at).max() else {
            return Ok(());
        };
        let pairs = done.iter().map(|c| (c.file, c.sub));
        let outcomes = self.receipts.record_deliveries(pairs, at)?;
        for (c, outcome) in done.into_iter().zip(outcomes) {
            if outcome == DeliveryOutcome::Recorded {
                self.finish_delivery(c)?;
            }
        }
        Ok(())
    }

    /// The tail of a delivery whose receipt is on record: update stats,
    /// and run the subscriber's batcher/trigger.
    fn finish_delivery(&mut self, done: Completed) -> Result<(), ServerError> {
        let Completed {
            sub,
            file,
            plan,
            at: delivered_at,
            dest_path,
        } = done;
        let plan = match plan {
            Some(plan) => plan,
            None => self.file_plan(self.receipts.file(file).expect("receipted files are live")),
        };
        let unknown = || ServerError::UnknownSubscriber(sub.to_string());
        let st = self.subscribers.get(sub).ok_or_else(unknown)?;
        let feed_name = plan.feed_for(st);
        let dest_path = match &dest_path {
            Some(rendered) => Cow::Borrowed(rendered.as_str()),
            None => self.dest_path(&plan, st, feed_name),
        };
        let rec = &plan.rec;
        let st = self.subscribers.get_mut(sub).ok_or_else(unknown)?;
        self.metrics.delivery_receipts.inc();
        if st.def.delivery == DeliveryMode::Push {
            self.metrics.delivery_bytes.add(plan.size);
        }
        st.latency
            .record(delivered_at.since(rec.arrival).as_micros());

        // batching + trigger: first close any batch whose window lapsed
        // between deliveries (otherwise this file would be folded into a
        // stale batch), then account this file with its feed-time origin
        // so the window stays anchored to the interval it covers
        let spec: BatchSpec = st.def.batch;
        let batcher = match st.batchers.get_mut(feed_name) {
            Some(b) => b,
            None => st
                .batchers
                .entry(feed_name.to_string())
                .or_insert_with(|| Batcher::new(spec)),
        };
        let lapsed = batcher.take_lapsed(delivered_at);
        let closed = batcher.on_file_at(rec.id, delivered_at, rec.feed_time);
        for batch in lapsed.into_iter().chain(closed) {
            self.close_batch(feed_name, sub, batch, &dest_path);
        }
        Ok(())
    }

    /// A batch closed: take the next [`BatchId`] and fire the
    /// subscriber's trigger, if it has one. Only a batch completed by a
    /// file (count close) names that file's `dest_path`; a window or
    /// punctuation close happened apart from any one file and has none.
    fn close_batch(&mut self, feed: &str, sub: SubscriberId, batch: BatchOutcome, dest_path: &str) {
        let batch_id: BatchId = self.batch_ids.next();
        let Some(st) = self.subscribers.get(sub) else {
            return;
        };
        let Some(def) = st.def.trigger.as_ref() else {
            return;
        };
        let by_file = batch.reason == BatchCloseReason::Count;
        self.triggers.fire(
            &st.def.name,
            def,
            &TriggerContext {
                feed,
                file_path: if by_file { dest_path } else { "" },
                batch: Some(batch_id),
                count: batch.files.len(),
            },
            batch.files,
            batch.closed,
        );
    }

    /// Drain the server's network inbox: acknowledgements clear their
    /// unacked-send entries and write the delivery receipts — all the
    /// receipts of the drain as one append, before any of them shows in a
    /// trigger or a counter. An ack that the tracker no longer knows
    /// (late duplicate, or sent before a server restart) still proves
    /// delivery and completes idempotently. A crash inside the append
    /// loses a suffix of whole records; their deliveries are re-sent
    /// after recovery, and subscribers dedup a resend. Returns the number
    /// of acks processed.
    pub fn poll_network(&mut self) -> Result<usize, ServerError> {
        let Some(net) = self.net.clone() else {
            return Ok(0);
        };
        let now = self.clock.now();
        let mut n = 0;
        let ready = net.recv_ready(&self.name, now);
        let mut acked = Vec::with_capacity(ready.len());
        for d in ready {
            if self.take_message(&d.from, d.at, d.msg, &mut acked)? {
                n += 1;
            }
        }
        self.complete_deliveries(acked)?;
        Ok(n)
    }

    /// Apply one message addressed to this server's own endpoint — a
    /// [`Server::poll_network`] drain of one, exposed so a model checker
    /// can deliver messages one at a time in any order. Returns `true` if
    /// the message was an acknowledgement (per-subscriber or group
    /// coverage report) this server processed (anything else is
    /// discarded, exactly as the drain does).
    pub fn handle_network_message(
        &mut self,
        from: &str,
        at: TimePoint,
        msg: Message,
    ) -> Result<bool, ServerError> {
        let mut acked = Vec::new();
        let processed = self.take_message(from, at, msg, &mut acked)?;
        self.complete_deliveries(acked)?;
        Ok(processed)
    }

    /// One message of a drain. A subscriber's ack only resolves here —
    /// endpoint → subscriber, unacked entry → plan — and joins `acked`,
    /// which the caller completes at the end of the drain.
    fn take_message(
        &mut self,
        from: &str,
        at: TimePoint,
        msg: Message,
        acked: &mut Vec<Completed>,
    ) -> Result<bool, ServerError> {
        match msg {
            Message::Reliable(ReliableMsg::Ack { file, .. }) => {
                // acks carry no name on the wire: the sender's endpoint
                // identifies the subscriber
                let Some(sub) = self.index.subscriber_for_endpoint(from) else {
                    return Ok(false);
                };
                let mut plan = None;
                if let Some(tracker) = self.reliable.as_mut() {
                    plan = tracker.ack_member(file, sub.raw());
                    // counts every processed ack — including late duplicates
                    // the tracker no longer knows (those still prove delivery)
                    self.metrics.acks_processed.inc();
                }
                acked.push(Completed {
                    sub,
                    file,
                    plan,
                    at,
                    dest_path: None,
                });
                Ok(true)
            }
            Message::Group(GroupMsg::Ack {
                group,
                file,
                bits,
                watermark,
            }) => {
                // a coverage report writes a record and log lines of its
                // own: the acks ahead of it complete first, so a mixed
                // drain's effects keep message order
                self.complete_deliveries(std::mem::take(acked))?;
                self.handle_group_ack(&group, file, &bits, watermark, at)
            }
            _ => Ok(false),
        }
    }

    /// Merge a relay's coverage report into the group tracker and, when
    /// the coverage advanced, persist it as a group delivery mark — the
    /// durable high-watermark crash recovery and cascaded backfill
    /// resume from, so members already served are never re-fanned.
    fn handle_group_ack(
        &mut self,
        group: &str,
        file: FileId,
        bits: &[u8],
        watermark: u64,
        at: TimePoint,
    ) -> Result<bool, ServerError> {
        let Some(g) = self.groups.as_mut() else {
            return Ok(false);
        };
        let Some((coverage, changed)) = g.tracker.on_coverage(group, file, bits, watermark) else {
            return Ok(false); // stale report after completion
        };
        if coverage.complete() {
            g.completed.inc();
        }
        if changed {
            self.receipts.record_group_mark(
                file,
                group,
                coverage.bits(),
                u64::from(coverage.watermark()),
            )?;
        }
        if coverage.complete() {
            self.log.log(
                at,
                LogLevel::Info,
                "delivery",
                format!(
                    "group {group} delivery of file {} complete ({} members)",
                    file.raw(),
                    coverage.members()
                ),
            );
        }
        Ok(true)
    }

    /// Sweep both unacked tables: lapsed sends are retransmitted (Warn)
    /// with exponential backoff; sends that exhausted the policy's
    /// attempt budget raise an Alarm and — for a direct send — flag each
    /// subscriber still owed offline (recovery then goes through
    /// backfill, §4.2). A lapsed group fanout is re-sent to its relay.
    pub fn retry_tick(&mut self) -> Result<(), ServerError> {
        self.sweep_retries(false)
    }

    /// Retransmit *every* outstanding unacked send immediately,
    /// regardless of deadlines — the model checker's "retry timer
    /// fires" action ([`RetryTracker::fire_all`]): an interleaving with
    /// a retransmission is explored without simulating the backoff
    /// schedule that would produce one.
    pub fn retry_fire(&mut self) -> Result<(), ServerError> {
        self.sweep_retries(true)
    }

    /// One retry sweep over the direct table, then the group table;
    /// `fire_all` lapses every deadline first.
    fn sweep_retries(&mut self, fire_all: bool) -> Result<(), ServerError> {
        let now = self.clock.now();
        if let Some(tracker) = self.reliable.as_mut() {
            let round = if fire_all {
                tracker.fire_all(now)
            } else {
                tracker.due(now)
            };
            let max_attempts = tracker.policy().max_attempts;
            self.retry_direct(round, now, max_attempts)?;
        }
        if let Some(g) = self.groups.as_mut() {
            let round = if fire_all {
                g.tracker.fire_all(now)
            } else {
                g.tracker.due(now)
            };
            let max_attempts = g.tracker.policy().max_attempts;
            self.retry_groups(round, now, max_attempts);
        }
        Ok(())
    }

    /// Walk a direct retry round: a lapsed cohort is re-sent to each
    /// subscriber it still owes, in id order, under its one bumped
    /// attempt; an exhausted one alarms per pair and flags each
    /// subscriber still owed offline, in id order.
    fn retry_direct(
        &mut self,
        round: RetryRound<CohortSend<Arc<FilePlan>>, Cohort>,
        now: TimePoint,
        max_attempts: u32,
    ) -> Result<(), ServerError> {
        let Some(net) = self.net.clone() else {
            return Ok(());
        };
        for r in &round.resend {
            let plan = &r.payload.plan;
            for id in r.payload.owed.ones() {
                let Some(st) = self.subscribers.get(SubscriberId(id)) else {
                    continue;
                };
                let feed = plan.feed_for(st);
                let attempt = ReliableMsg::Attempt {
                    attempt: r.attempt,
                    inner: plan.message(st, feed, &self.dest_path(plan, st, feed)),
                };
                net.send(
                    now,
                    &self.name,
                    &st.def.endpoint,
                    Message::Reliable(attempt),
                );
                self.log.log(
                    now,
                    LogLevel::Warn,
                    "delivery",
                    format!(
                        "retrying file {} to {} (attempt {})",
                        plan.rec.id.raw(),
                        st.def.name,
                        r.attempt
                    ),
                );
            }
        }
        for ((file, _), send) in round.exhausted {
            for id in send.owed.ones().map(SubscriberId) {
                let Some(st) = self.subscribers.get(id) else {
                    continue;
                };
                let line = format!(
                    "delivery of file {} to {} abandoned after {max_attempts} attempts",
                    file.raw(),
                    st.def.name
                );
                self.log.log(now, LogLevel::Alarm, "delivery", line);
                self.set_online(id, false)?;
            }
        }
        Ok(())
    }

    /// Walk a group retry round: a lapsed fanout is re-sent to its
    /// relay; an exhausted one only alarms — the relay is shared
    /// infrastructure, and members' own health is tracked at the relay
    /// tier.
    fn retry_groups(&self, round: RetryRound<GroupSend>, now: TimePoint, max_attempts: u32) {
        let (Some(net), Some(g)) = (&self.net, &self.groups) else {
            return;
        };
        for r in &round.resend {
            let (group, file) = &r.key;
            let Some(plan) = g.plans.iter().find(|p| *p.name == **group) else {
                continue;
            };
            let deliver = GroupMsg::Deliver {
                group: group.to_string(),
                file: *file,
                file_name: r.payload.file_name.clone(),
                size: r.payload.size,
                attempt: r.attempt,
            };
            net.send(now, &self.name, &plan.endpoint, Message::Group(deliver));
            self.log.log(
                now,
                LogLevel::Warn,
                "delivery",
                format!(
                    "retrying file {} to group {group} (attempt {})",
                    file.raw(),
                    r.attempt
                ),
            );
        }
        for ((group, file), _) in &round.exhausted {
            let line = format!(
                "group {group} delivery of file {} abandoned after {max_attempts} attempts",
                file.raw()
            );
            self.log.log(now, LogLevel::Alarm, "delivery", line);
        }
    }

    /// Re-deliver everything the receipt store does not show as
    /// delivered, across all online subscribers (sorted for determinism).
    /// In reliable mode receipts record only acked sends, so after a
    /// crash-restart this is exactly the unacked backfill.
    pub fn backfill_unacked(&mut self) -> Result<usize, ServerError> {
        let mut n = 0;
        for id in self.subscribers.ids() {
            n += self.deliver_pending(id)?;
        }
        n += self.backfill_groups()?;
        Ok(n)
    }

    /// Re-fan every live file whose durable group coverage is still
    /// incomplete. Crash recovery for delivery trees: the relay reports
    /// cumulative member coverage on every ack, so redelivery resumes
    /// from the persisted bitmap instead of restarting the whole group.
    fn backfill_groups(&mut self) -> Result<usize, ServerError> {
        let plan_feeds: Vec<Vec<String>> = match self.groups.as_ref() {
            Some(g) => g.plans.iter().map(|p| p.feeds.clone()).collect(),
            None => return Ok(0),
        };
        let mut n = 0;
        for (idx, feeds) in plan_feeds.iter().enumerate() {
            let mut files: BTreeMap<u64, FileRecord> = BTreeMap::new();
            for feed in feeds {
                for rec in self.receipts.files_in_feed(feed) {
                    files.insert(rec.id.raw(), rec);
                }
            }
            for rec in files.into_values() {
                let plan = self.file_plan(rec);
                if self.deliver_group(idx, &plan)? {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Unfinished group (delivery-tree) fanouts currently in flight.
    pub fn group_outstanding(&self) -> usize {
        self.groups
            .as_ref()
            .map(|g| g.tracker.outstanding_count())
            .unwrap_or(0)
    }

    /// `(acks merged, resends, exhausted)` for group deliveries since
    /// start; all zero when this server plans no delivery trees.
    pub fn group_counters(&self) -> (u64, u64, u64) {
        self.groups
            .as_ref()
            .map(|g| g.tracker.totals())
            .unwrap_or((0, 0, 0))
    }

    /// Unacked reliable sends currently in flight.
    pub fn unacked_count(&self) -> usize {
        self.reliable
            .as_ref()
            .map(|t| t.outstanding_count())
            .unwrap_or(0)
    }

    /// `(acks received, retries sent, deliveries abandoned)` since start;
    /// all zero when reliable delivery is not enabled. Acks counts every
    /// processed acknowledgement (late duplicates included), which is why
    /// it reads `reliable.acks_processed` rather than the tracker's
    /// `reliable.acks` (only acks that cleared an outstanding entry).
    pub fn reliability_counters(&self) -> (u64, u64, u64) {
        match &self.reliable {
            Some(tracker) => {
                let (_cleared, resends, exhausted) = tracker.totals();
                (self.metrics.acks_processed.get(), resends, exhausted)
            }
            None => (0, 0, 0),
        }
    }

    /// Mark a subscriber offline (failure detected) or online
    /// (recovered). Recovery triggers backfill of the full pending queue
    /// (§4.2).
    pub fn set_subscriber_online(&mut self, sub: &str, online: bool) -> Result<(), ServerError> {
        let id = self.subscribers.known(sub)?;
        self.set_online(id, online)
    }

    /// [`Server::set_subscriber_online`] by id. Offline drops the
    /// subscriber's bit from every unacked send: it is owed nothing until
    /// recovery backfills it.
    fn set_online(&mut self, id: SubscriberId, online: bool) -> Result<(), ServerError> {
        let now = self.clock.now();
        let st = (self.subscribers.get_mut(id))
            .ok_or_else(|| ServerError::UnknownSubscriber(id.to_string()))?;
        if st.online == online {
            return Ok(());
        }
        st.online = online;
        self.index.set_online(id, &st.feeds, online, st.grouped);
        let sub = st.def.name.clone();
        if online {
            self.log.log(
                now,
                LogLevel::Info,
                "delivery",
                format!("{sub} recovered; backfilling"),
            );
            self.deliver_pending(id)?;
        } else {
            // stop retrying into a dead subscriber; recovery backfills
            if let Some(tracker) = self.reliable.as_mut() {
                tracker.forget_member(id.raw());
            }
            self.log.log(
                now,
                LogLevel::Alarm,
                "delivery",
                format!("{sub} flagged offline"),
            );
        }
        Ok(())
    }

    /// Deliver everything pending for one subscriber (backfill).
    pub fn deliver_pending_for(&mut self, sub: &str) -> Result<usize, ServerError> {
        let id = self.subscribers.known(sub)?;
        self.deliver_pending(id)
    }

    /// [`Server::deliver_pending_for`] by id. Each file is a send cohort
    /// of its own, so a backfill never shares an attempt count with a
    /// send that went out before it.
    fn deliver_pending(&mut self, id: SubscriberId) -> Result<usize, ServerError> {
        let st = (self.subscribers.get(id))
            .ok_or_else(|| ServerError::UnknownSubscriber(id.to_string()))?;
        // members of a relay group ride the shared delivery plan — direct
        // backfill here would double-deliver what the relay fans out
        if st.grouped || !st.online {
            return Ok(0);
        }
        let pending = self.receipts.pending_for(&st.def.name, &st.feeds);
        let n = pending.len();
        let mut done = Vec::new();
        for rec in pending {
            let plan = self.file_plan(rec);
            let mut to = Bitmap::default();
            to.set(id.raw());
            done.extend(self.deliver(&plan, to)?);
        }
        self.complete_deliveries(done)?;
        Ok(n)
    }

    /// Register a new subscriber at runtime; it immediately receives the
    /// full available history of its feeds (§4.2). The receipt store
    /// hands out its id — the one it had before, if the name was
    /// registered here earlier.
    pub fn add_subscriber(&mut self, def: SubscriberDef) -> Result<usize, ServerError> {
        // validate against the candidate config, rolling the push back on
        // rejection — leaving the invalid def in place would poison every
        // later validate() call on this server
        self.config.subscribers.push(def.clone());
        let feeds = match validate(&self.config)
            .map_err(ServerError::from)
            .and_then(|()| self.config.subscriber_feeds(&def.name).map_err(Into::into))
        {
            Ok(feeds) => feeds,
            Err(e) => {
                self.config.subscribers.pop();
                return Err(e);
            }
        };
        let grouped = (self.groups.as_ref()).is_some_and(|g| {
            g.plans
                .iter()
                .any(|p| p.members.binary_search(&def.name).is_ok())
        });
        let id = self.receipts.register_subscriber(&def.name);
        let mut st = SubscriberState::new(id, def, feeds);
        st.grouped = grouped;
        let (def, feeds) = (&st.def, &st.feeds);
        self.index
            .insert_subscriber(id, &def.name, feeds, &def.endpoint, true, grouped);
        self.subscribers.insert(st);
        self.deliver_pending(id)
    }

    /// Deregister a subscriber at runtime: drops its config entry, live
    /// state (latency histogram and open batches with it), index
    /// postings and its bit in every in-flight reliable send. Its id
    /// stays its own: registering the name again gets it back. Members
    /// of a relay delivery group are refused — their delivery rides the
    /// shared group plan, which cannot lose a member without recompiling
    /// the tree.
    pub fn remove_subscriber(&mut self, sub: &str) -> Result<(), ServerError> {
        let id = self.subscribers.known(sub)?;
        if self.subscribers.get(id).is_some_and(|st| st.grouped) {
            return Err(ServerError::GroupedSubscriber(sub.to_string()));
        }
        let st = self.subscribers.remove(id).expect("known above");
        self.config.subscribers.retain(|d| d.name != sub);
        self.index
            .remove_subscriber(id, sub, &st.feeds, &st.def.endpoint);
        if let Some(tracker) = self.reliable.as_mut() {
            tracker.forget_member(id.raw());
        }
        self.log.log(
            self.clock.now(),
            LogLevel::Info,
            "delivery",
            format!("{sub} deregistered"),
        );
        Ok(())
    }

    /// Replace a feed definition (subscriber-approved analyzer
    /// suggestion, §5): recompiles the classifier and reclassifies live
    /// files, then backfills any newly matching deliveries.
    pub fn redefine_feed(&mut self, def: FeedDef) -> Result<(), ServerError> {
        let name = def.name.clone();
        // validate against the candidate config and put the previous def
        // back on rejection, as `add_subscriber` does
        let slot = self.config.feeds.iter().position(|f| f.name == name);
        let previous = match slot {
            Some(i) => Some(std::mem::replace(&mut self.config.feeds[i], def)),
            None => {
                self.config.feeds.push(def);
                None
            }
        };
        if let Err(e) = validate(&self.config) {
            match (slot, previous) {
                (Some(i), Some(old)) => self.config.feeds[i] = old,
                _ => {
                    self.config.feeds.pop();
                }
            }
            return Err(e.into());
        }
        self.classifier = Arc::new(Classifier::compile(&self.config));
        self.compresses = parallel::compresses(&self.config);
        self.fn_detector = FnDetector::new(
            self.config
                .feeds
                .iter()
                .map(|f| (f.name.clone(), f.patterns.clone()))
                .collect(),
        );
        // reclassify live files
        for rec in self.receipts.all_live() {
            let feeds = self.classifier.feeds_for(&rec.name);
            if feeds != rec.feeds && !feeds.is_empty() {
                self.receipts.record_reclassification(rec.id, feeds)?;
            }
        }
        // re-scan unknown directory: drifted files may now match
        let unknowns = bistro_vfs::walk_files(self.store.as_ref(), "unknown")?;
        for full in unknowns {
            let rel = full.strip_prefix("unknown/").unwrap_or(&full).to_string();
            if !self.classifier.classify(&rel).is_empty() {
                // move back through the landing zone and ingest
                self.store
                    .rename(&full, &format!("{}/{rel}", self.config.server.landing))?;
                self.notify_deposit(&rel)?;
            }
        }
        // deliver any newly pending files, subscribers in name order
        for id in self.subscribers.ids() {
            self.deliver_pending(id)?;
        }
        self.log.log(
            self.clock.now(),
            LogLevel::Info,
            "config",
            format!("feed {name} redefined"),
        );
        Ok(())
    }

    /// Periodic housekeeping: close lapsed batch windows (firing
    /// triggers) and audit feed progress (raising alarms).
    pub fn tick(&mut self) {
        let now = self.clock.now();
        // batch windows ((feed, subscriber) order, so trigger-log order
        // is deterministic)
        for (feed, sub) in self.open_batchers(None) {
            self.on_batcher(&feed, sub, |b| b.on_tick(now));
        }
        // progress audits (sorted: HashMap iteration order must not
        // decide the event-log line order)
        let mut audited: Vec<&String> = self.progress.keys().collect();
        audited.sort();
        for feed in audited {
            let progress = &self.progress[feed];
            for alert in progress.audit(now) {
                let (level, msg) = match alert {
                    ProgressAlert::MissingData {
                        interval,
                        expected,
                        got,
                    } => (
                        LogLevel::Alarm,
                        format!("feed {feed}: interval {interval} has {got}/{expected} files"),
                    ),
                    ProgressAlert::SurplusData {
                        interval,
                        expected,
                        got,
                    } => (
                        LogLevel::Warn,
                        format!(
                            "feed {feed}: interval {interval} has {got} files, expected {expected}"
                        ),
                    ),
                    ProgressAlert::FeedSilent { silent_for, .. } => (
                        LogLevel::Alarm,
                        format!("feed {feed}: silent for {silent_for}"),
                    ),
                };
                self.log.log(now, level, "monitor", msg);
            }
        }
        // bridge the store's metadata ledger, then sweep the alarm rules;
        // edge-triggered firings land in the event log
        self.store.stats().publish(&self.telemetry);
        for firing in self.alarms.check(&self.telemetry) {
            self.log.log(
                now,
                LogLevel::Alarm,
                "telemetry",
                format!("{}: {} ({})", firing.rule, firing.message, firing.detail),
            );
        }
    }

    /// A cooperative source marked end-of-batch for a feed: close the
    /// feed's open batches immediately (§4.1 punctuation).
    pub fn punctuate_feed(&mut self, feed: &str) {
        let now = self.clock.now();
        for (feed, sub) in self.open_batchers(Some(feed)) {
            self.on_batcher(&feed, sub, |b| b.on_punctuation(now));
        }
    }

    /// Every `(feed, subscriber)` that has a batcher — those of one feed
    /// when `only` names it — in `(feed, subscriber name)` order.
    fn open_batchers(&self, only: Option<&str>) -> Vec<(String, SubscriberId)> {
        let mut keys: Vec<(&String, &String, SubscriberId)> = (self.subscribers.in_id_order())
            .flat_map(|st| (st.batchers.keys()).map(move |feed| (feed, &st.def.name, st.id)))
            .filter(|(feed, _, _)| only.is_none_or(|f| f == *feed))
            .collect();
        keys.sort_unstable();
        (keys.into_iter())
            .map(|(feed, _, sub)| (feed.clone(), sub))
            .collect()
    }

    /// Run a clock- or source-driven close (`on_tick`, `on_punctuation`)
    /// on one batcher; a batch it closes names no file's path.
    fn on_batcher(
        &mut self,
        feed: &str,
        sub: SubscriberId,
        close: impl FnOnce(&mut Batcher) -> Option<BatchOutcome>,
    ) {
        let batcher = self
            .subscribers
            .get_mut(sub)
            .and_then(|st| st.batchers.get_mut(feed));
        if let Some(batch) = batcher.and_then(close) {
            self.close_batch(feed, sub, batch, "");
        }
    }

    /// Expire files beyond the retention window (§4.2), in crash-safe
    /// order per victim: archive the payload (if configured), log the
    /// expiration receipt, and only then delete the staged payload. A
    /// crash between the receipt and the delete leaves a harmless orphan
    /// payload — never a live receipt pointing at a deleted file. A
    /// transient archive failure skips the victim entirely (payload and
    /// receipt intact) so the next sweep retries it.
    pub fn expire(&mut self) -> Result<usize, ServerError> {
        let now = self.clock.now();
        let cutoff = now.saturating_sub(self.config.server.retention);
        let victims = self.receipts.expire_candidates(cutoff);
        let mut n = 0usize;
        for rec in victims {
            let staged = format!("{}/{}", self.config.server.staging, rec.staged_path);
            if let Some(arch) = &self.archiver {
                match self.store.read(&staged) {
                    Ok(payload) => {
                        arch.archive_file(&rec, &payload, now)
                            .map_err(ServerError::Vfs)?;
                    }
                    Err(VfsError::NotFound(_)) => {
                        // already removed by a previous, interrupted sweep
                        // (the expiration receipt is what got lost, not
                        // the payload) — nothing left to archive
                    }
                    Err(e) => {
                        self.metrics.archiver_skipped.inc();
                        self.log.log(
                            now,
                            LogLevel::Warn,
                            "expirer",
                            format!(
                                "archiving {} failed ({e}); keeping payload for retry",
                                rec.staged_path
                            ),
                        );
                        continue;
                    }
                }
            }
            self.receipts.record_expiration(rec.id, now)?;
            match self.store.remove(&staged) {
                Ok(()) | Err(VfsError::NotFound(_)) => {}
                Err(e) => return Err(ServerError::Vfs(e)),
            }
            n += 1;
        }
        if n > 0 {
            self.log.log(
                now,
                LogLevel::Info,
                "expirer",
                format!("expired {n} files beyond {}", self.config.server.retention),
            );
        }
        Ok(n)
    }

    /// Snapshot the receipt store (bounds recovery time).
    pub fn snapshot(&self) -> Result<usize, ServerError> {
        Ok(self.receipts.snapshot()?)
    }

    /// Persist the *current* configuration — including runtime-added
    /// subscribers and approved feed redefinitions — into the store, so
    /// [`Server::open_existing`] restarts with exactly what was running.
    pub fn persist_config(&self) -> Result<(), ServerError> {
        // write-then-rename: a crash mid-write must never tear the config
        // the next incarnation boots from
        self.store
            .write("bistro.conf.tmp", self.config.to_source().as_bytes())?;
        self.store.replace("bistro.conf.tmp", "bistro.conf")?;
        Ok(())
    }

    /// Reopen a server from a store that carries a persisted
    /// configuration (written by [`Server::persist_config`]). Recovers
    /// the receipt database as usual.
    pub fn open_existing(
        name: &str,
        clock: SharedClock,
        store: Arc<dyn FileStore>,
    ) -> Result<Server, ServerError> {
        let src = store.read("bistro.conf")?;
        let src = String::from_utf8(src).map_err(|e| {
            ServerError::Config(bistro_config::ConfigError::Parse {
                line: 0,
                msg: format!("persisted config is not utf-8: {e}"),
            })
        })?;
        let config = bistro_config::parse_config(&src)?;
        Server::new(name, config, clock, store)
    }

    /// Suggested groupings of the analyzer's discovered feeds (the §5.1
    /// future-work direction implemented in `bistro_analyzer::grouping`).
    pub fn group_suggestions(&self, min_support: usize) -> Vec<bistro_analyzer::GroupSuggestion> {
        bistro_analyzer::suggest_groups(
            &self.discoverer.suggestions(min_support),
            bistro_analyzer::grouping::DEFAULT_GROUP_THRESHOLD,
        )
    }

    /// Content schema of a parked unknown file (LEARNPADS-direction
    /// evidence for reviewing discovery suggestions, §3.2).
    pub fn unknown_file_schema(
        &self,
        rel_path: &str,
    ) -> Result<Option<bistro_analyzer::RecordSchema>, ServerError> {
        let data = self.store.read(&format!("unknown/{rel_path}"))?;
        Ok(bistro_analyzer::infer_schema(&data))
    }

    /// New-feed suggestions from the unmatched-file stream (§5.1).
    pub fn discovery_report(&self, min_support: usize) -> Vec<DiscoveredFeed> {
        self.discoverer.suggestions(min_support)
    }

    /// False-negative warnings from the unmatched-file stream (§5.2).
    pub fn fn_warnings(&self) -> Vec<FnWarning> {
        self.fn_detector.warnings()
    }

    /// False-positive / composition report for one feed (§5.3).
    pub fn feed_composition(&self, feed: &str) -> FpReport {
        let files = self.receipts.files_in_feed(feed);
        fp_report(feed, files.iter().map(|f| f.name.as_str()), 0.05)
    }

    /// The receipt store (for inspection).
    pub fn receipts(&self) -> &ReceiptStore {
        &self.receipts
    }

    /// Schedule-independent digest of this server's protocol state: the
    /// receipt store's content digest, each subscriber's liveness, and
    /// the unacked reliable sends — one line per owed (subscriber, file)
    /// pair, by file *name*, not id (ids depend on arrival order). Two
    /// runs that reached the same logical state through different
    /// interleavings hash equal; used by the model checker to dedup
    /// explored states.
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut acc = String::new();
        for st in self.subscribers.in_name_order() {
            let name = &st.def.name;
            writeln!(acc, "sub\0{name}\0{}", st.online).unwrap();
        }
        // per table, a sorted `tag\0target\0file-name\0attempt…` line
        // per unacked (target, file) send
        let file_name = |file: FileId| match self.receipts.file(file) {
            Some(rec) => rec.name,
            None => format!("#{}", file.raw()),
        };
        let mut append = |mut lines: Vec<String>| {
            lines.sort();
            for line in lines {
                acc.push_str(&line);
                acc.push('\n');
            }
        };
        if let Some(tracker) = &self.reliable {
            let mut out = Vec::new();
            for (&(file, _), attempt, send) in tracker.entries() {
                let name = file_name(file);
                for st in send
                    .owed
                    .ones()
                    .filter_map(|id| self.subscribers.get(SubscriberId(id)))
                {
                    out.push(format!("out\0{}\0{name}\0{attempt}", st.def.name));
                }
            }
            append(out);
        }
        if let Some(g) = &self.groups {
            append(
                (g.tracker.entries())
                    .map(|((group, file), attempt, send)| {
                        let (name, covered) = (file_name(*file), send.coverage.count());
                        format!("gout\0{group}\0{name}\0{attempt}\0{covered}")
                    })
                    .collect(),
            );
        }
        let mut bytes = acc.into_bytes();
        bytes.extend_from_slice(&self.receipts.state_digest().to_le_bytes());
        bistro_base::fnv1a64(&bytes)
    }

    /// The trigger invocation log.
    pub fn trigger_log(&self) -> &TriggerLog {
        &self.triggers
    }

    /// The event log.
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Delivery statistics: the `ingest.files`, `ingest.unknown`,
    /// `delivery.receipts` and `delivery.bytes` counters.
    pub fn stats(&self) -> DeliveryStats {
        let m = &self.metrics;
        DeliveryStats {
            files_ingested: m.ingest_files.get(),
            files_unknown: m.ingest_unknown.get(),
            deliveries: m.delivery_receipts.get(),
            bytes_delivered: m.delivery_bytes.get(),
        }
    }

    /// `(mean, p95, max)` deposit→delivery latency of a registered
    /// subscriber's deliveries, `None` before the first. Mean and max are
    /// exact; p95 is the histogram's rank-exact upper quantile bound.
    pub fn latency_summary(&self, subscriber: &str) -> Option<(TimeSpan, TimeSpan, TimeSpan)> {
        let h = &self.subscribers.named(subscriber)?.latency;
        let count = h.count();
        if count == 0 {
            return None;
        }
        let mean = h.sum() / count;
        let p95 = h.quantile(0.95).unwrap_or(0);
        let max = h.max().unwrap_or(0);
        Some((
            TimeSpan::from_micros(mean),
            TimeSpan::from_micros(p95),
            TimeSpan::from_micros(max),
        ))
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<dyn FileStore> {
        &self.store
    }

    /// The archiver, if archiving is enabled.
    pub fn archiver(&self) -> Option<&Archiver> {
        self.archiver.as_ref()
    }

    /// The telemetry registry every pipeline stage records into.
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.telemetry
    }

    /// Per-worker fan-out accounting (`pool.batches`,
    /// `pool.worker{i}.files`, `pool.worker{i}.busy_us`,
    /// `pool.prepare_us`). Separate from [`Server::telemetry`] so
    /// worker-count-dependent tallies never leak into the
    /// [`Server::status_json`] determinism surface.
    pub fn pool_telemetry(&self) -> &SharedRegistry {
        &self.pool_telemetry
    }

    /// Add an alarm rule to the set checked on every [`Server::tick`].
    pub fn add_alarm_rule(&mut self, rule: AlarmRule) {
        self.alarms.add(rule);
    }

    /// One-screen health snapshot as JSON: identity, subscriber states,
    /// receipt totals, event-log counts, and the full metric registry.
    /// Deterministic — identical runs render byte-identical snapshots.
    pub fn status_json(&self) -> Json {
        self.store.stats().publish(&self.telemetry);
        let subscribers = Json::Arr(
            (self.subscribers.in_name_order())
                .map(|st| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(st.def.name.clone())),
                        ("online".into(), Json::Bool(st.online)),
                        ("feeds".into(), Json::Num(st.feeds.len() as f64)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("server".into(), Json::Str(self.name.clone())),
            (
                "now_us".into(),
                Json::Num(self.clock.now().as_micros() as f64),
            ),
            ("subscribers".into(), subscribers),
            (
                "receipts".into(),
                Json::Obj(vec![
                    (
                        "deliveries".into(),
                        Json::Num(self.receipts.delivery_count() as f64),
                    ),
                    ("unacked".into(), Json::Num(self.unacked_count() as f64)),
                ]),
            ),
            (
                "events".into(),
                Json::Obj(vec![
                    (
                        "info".into(),
                        Json::Num(self.log.count(LogLevel::Info) as f64),
                    ),
                    (
                        "warn".into(),
                        Json::Num(self.log.count(LogLevel::Warn) as f64),
                    ),
                    (
                        "alarm".into(),
                        Json::Num(self.log.count(LogLevel::Alarm) as f64),
                    ),
                ]),
            ),
            ("metrics".into(), self.telemetry.snapshot_json()),
        ])
    }

    /// Human-readable rendering of the [`Server::status_json`] snapshot.
    pub fn status_text(&self) -> String {
        self.store.stats().publish(&self.telemetry);
        let mut out = String::new();
        out.push_str(&format!(
            "server {} @ {}\n",
            self.name,
            self.clock.now().as_micros()
        ));
        for st in self.subscribers.in_name_order() {
            out.push_str(&format!(
                "  subscriber {}: {} ({} feeds)\n",
                st.def.name,
                if st.online { "online" } else { "OFFLINE" },
                st.feeds.len()
            ));
        }
        out.push_str(&format!(
            "  receipts: {} deliveries, {} unacked\n",
            self.receipts.delivery_count(),
            self.unacked_count()
        ));
        out.push_str(&format!(
            "  events: {} info / {} warn / {} alarm\n",
            self.log.count(LogLevel::Info),
            self.log.count(LogLevel::Warn),
            self.log.count(LogLevel::Alarm)
        ));
        out.push_str("  counters:\n");
        for (name, v) in self.telemetry.counters_sorted() {
            out.push_str(&format!("    {name} = {v}\n"));
        }
        let gauges = self.telemetry.gauges_sorted();
        if !gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, v) in gauges {
                out.push_str(&format!("    {name} = {v}\n"));
            }
        }
        let hists = self.telemetry.histograms_sorted();
        if !hists.is_empty() {
            out.push_str("  histograms (us):\n");
            for (name, s) in hists {
                out.push_str(&format!(
                    "    {name}: count={} p50={} p99={} max={}\n",
                    s.count, s.p50, s.p99, s.max
                ));
            }
        }
        out
    }
}

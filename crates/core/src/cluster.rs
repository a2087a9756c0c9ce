//! Multi-server Bistro: partitioned feed groups with failover.
//!
//! The paper runs Bistro as "a network of cooperating feed managers"
//! (§3); this module adds the placement layer that makes that network
//! survive a server loss. Feeds are partitioned into *feed groups* (the
//! top-level segment of the hierarchical feed name: `SNMP/CPU` belongs
//! to group `SNMP`), and a [`Directory`] maps every group to a *home*
//! server plus an ordered list of *standbys*. All placement state is
//! epoch-fenced: each reassignment bumps the directory epoch, and
//! members ignore assignments older than what they have already seen.
//!
//! Fault-tolerance is a per-feed knob (`policy discard|spill|failover`
//! in the configuration language), echoing the ingestion policies of
//! fault-tolerant feed platforms:
//!
//! * **discard** — deposits arriving while the group's home is down are
//!   dropped (counted in `cluster.discarded`);
//! * **spill** — deposits are buffered at the ingress and replayed into
//!   the group's home once one is live again;
//! * **failover** — every deposit is synchronously replicated to the
//!   first live standby over a [`ClusterMsg::Replicate`] channel; when
//!   heartbeat silence exceeds the failure window the directory
//!   promotes that standby, re-homes the group's subscribers to it, and
//!   backfills their delivery state from the failed home's durable
//!   receipt store so re-homed subscribers observe exactly-once
//!   delivery.
//!
//! All server↔directory traffic flows through the simulated network on
//! dedicated control endpoints ([`DIRECTORY_ENDPOINT`] and
//! `"<server>.cluster"` per member — a server's own endpoint belongs to
//! its ack stream and [`Server::poll_network`] discards everything
//! else). The re-homing handshake is fully message-driven and paged:
//!
//! ```text
//! directory --- DirAssign{group, home, epoch} ---> every live member
//! new home  --- BackfillRequest{from_seq: 0}  ---> directory
//! directory --- BackfillPage{names, next_seq} ---> new home   (repeat)
//! directory --- BackfillPage{done: true}      ---> new home
//! ```
//!
//! The pages carry file *names* (file ids are store-local) ordered by
//! the failed store's WAL sequence ([`ReceiptStore::deliveries_since`]);
//! the new home marks each named file it holds as already delivered and
//! only then attaches the subscriber, whose attach-time backfill covers
//! exactly the files the failed home never delivered.
//!
//! Everything is deterministic: `BTreeMap` iteration everywhere, the
//! same seed replays bit-for-bit.

use crate::classifier::Classifier;
use crate::server::{Server, ServerError};
use bistro_base::{TimePoint, TimeSpan};
use bistro_config::{Config, ConfigError, FeedPolicy, SubscriberDef};
use bistro_receipts::{ReceiptError, ReceiptStore};
use bistro_telemetry::{
    AlarmFiring, AlarmRule, AlarmSet, Condition, Counter, Json, Registry, SharedRegistry,
};
use bistro_transport::messages::{ClusterMsg, Message};
use bistro_transport::SimNetwork;
use bistro_vfs::FileStore;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The directory service's endpoint on the simulated network.
pub const DIRECTORY_ENDPOINT: &str = "directory";

/// Delivery receipts per [`ClusterMsg::BackfillPage`]. Pages are
/// extended past this to finish a run of equal WAL sequences (snapshot
/// receipts all recover at seq 0), so `next_seq` is always a clean
/// resume point.
pub const BACKFILL_PAGE: usize = 64;

/// A member's cluster-control endpoint (heartbeats out, directory
/// assignments / replicas / backfill pages in). Distinct from the
/// server's own endpoint, which carries subscriber acks.
pub fn control_endpoint(server: &str) -> String {
    format!("{server}.cluster")
}

/// The feed group a feed belongs to: the top-level segment of its
/// hierarchical name (`SNMP/CPU` → `SNMP`; a flat name is its own
/// group). Groups are the unit of placement and failover.
pub fn group_of(feed: &str) -> &str {
    feed.split('/').next().unwrap_or(feed)
}

/// Errors from cluster operations.
#[derive(Debug)]
pub enum ClusterError {
    /// An underlying server operation failed.
    Server(ServerError),
    /// Reading a failed member's receipt store failed.
    Receipts(ReceiptError),
    /// Subscription resolution failed.
    Config(ConfigError),
    /// A named server is not a cluster member.
    UnknownServer(String),
    /// A feed group has no directory entry.
    UnknownGroup(String),
    /// `add_server` with a name that is already a member.
    DuplicateServer(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Server(e) => write!(f, "{e}"),
            ClusterError::Receipts(e) => write!(f, "{e}"),
            ClusterError::Config(e) => write!(f, "{e}"),
            ClusterError::UnknownServer(s) => write!(f, "unknown server {s}"),
            ClusterError::UnknownGroup(g) => write!(f, "no home assigned for feed group {g}"),
            ClusterError::DuplicateServer(s) => write!(f, "server {s} already joined"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ServerError> for ClusterError {
    fn from(e: ServerError) -> Self {
        ClusterError::Server(e)
    }
}

impl From<ReceiptError> for ClusterError {
    fn from(e: ReceiptError) -> Self {
        ClusterError::Receipts(e)
    }
}

impl From<ConfigError> for ClusterError {
    fn from(e: ConfigError) -> Self {
        ClusterError::Config(e)
    }
}

/// One feed group's placement.
#[derive(Clone, Debug)]
pub struct HomeEntry {
    /// The server currently homing the group.
    pub home: String,
    /// Failover candidates, in promotion order.
    pub standbys: Vec<String>,
    /// Directory epoch of the last (re)assignment — members fence
    /// stale assignments with this.
    pub epoch: u64,
}

/// The feed-group → home-server map. Owned by [`Cluster`]; members see
/// it only through `DirHome` / `DirAssign` messages.
#[derive(Default)]
pub struct Directory {
    homes: BTreeMap<String, HomeEntry>,
    epoch: u64,
}

impl Directory {
    /// The placement of `group`, if assigned.
    pub fn home_of(&self, group: &str) -> Option<&HomeEntry> {
        self.homes.get(group)
    }

    /// The current directory epoch (bumped by every reassignment).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Groups currently homed on `server`, sorted.
    fn groups_homed_on(&self, server: &str) -> Vec<String> {
        self.homes
            .iter()
            .filter(|(_, e)| e.home == server)
            .map(|(g, _)| g.clone())
            .collect()
    }
}

struct Member {
    /// `None` after [`Cluster::kill`] — the crashed incarnation. The
    /// durable store below outlives it.
    server: Option<Server>,
    /// The member's durable store, kept so the directory can read a
    /// dead member's receipts for backfill and a restart can recover.
    store: Arc<dyn FileStore>,
    /// This member's view of placements: group → (home, epoch).
    view: BTreeMap<String, (String, u64)>,
    /// When this member last heartbeated (drives the send cadence).
    last_heartbeat: Option<TimePoint>,
}

/// Names accumulated from backfill pages for one (group, subscriber)
/// re-homing in flight.
#[derive(Default)]
struct Rehome {
    names: Vec<String>,
}

struct ClusterMetrics {
    heartbeats: Arc<Counter>,
    deposits: Arc<Counter>,
    replicated: Arc<Counter>,
    replica_applied: Arc<Counter>,
    replica_dropped: Arc<Counter>,
    replica_rejected: Arc<Counter>,
    stale_assigns: Arc<Counter>,
    spilled: Arc<Counter>,
    spill_replayed: Arc<Counter>,
    discarded: Arc<Counter>,
    unknown: Arc<Counter>,
    failovers: Arc<Counter>,
    stranded: Arc<Counter>,
    rehomed: Arc<Counter>,
    rehome_conflicts: Arc<Counter>,
    backfill_pages: Arc<Counter>,
    backfill_marked: Arc<Counter>,
    backfill_delivered: Arc<Counter>,
}

impl ClusterMetrics {
    fn new(reg: &Registry) -> ClusterMetrics {
        ClusterMetrics {
            heartbeats: reg.counter("cluster.heartbeats"),
            deposits: reg.counter("cluster.deposits_routed"),
            replicated: reg.counter("cluster.replicated"),
            replica_applied: reg.counter("cluster.replica_applied"),
            replica_dropped: reg.counter("cluster.replica_dropped"),
            replica_rejected: reg.counter("cluster.replica_rejected"),
            stale_assigns: reg.counter("cluster.stale_assigns"),
            spilled: reg.counter("cluster.spilled"),
            spill_replayed: reg.counter("cluster.spill_replayed"),
            discarded: reg.counter("cluster.discarded"),
            unknown: reg.counter("cluster.unknown"),
            failovers: reg.counter("cluster.failovers"),
            stranded: reg.counter("cluster.stranded"),
            rehomed: reg.counter("cluster.rehomed_subscribers"),
            rehome_conflicts: reg.counter("cluster.rehome_conflicts"),
            backfill_pages: reg.counter("cluster.backfill_pages"),
            backfill_marked: reg.counter("cluster.backfill_marked"),
            backfill_delivered: reg.counter("cluster.backfill_delivered"),
        }
    }
}

/// A set of Bistro servers partitioned by feed group, with a directory
/// service, heartbeat failure detection, per-feed fault-tolerance
/// policy and subscriber re-homing.
///
/// The cluster owns the member [`Server`]s and the ingress: sources
/// call [`Cluster::route_deposit`] instead of depositing at a specific
/// server, and subscribers register through
/// [`Cluster::register_subscriber`], which splits a subscription by
/// group and attaches each slice at that group's home. Member configs
/// should declare no subscribers of their own.
///
/// Drive it with [`Cluster::tick`] (heartbeats, failure detection,
/// alarms) and [`Cluster::pump`] (control-message processing) on every
/// simulation step.
pub struct Cluster {
    config: Config,
    classifier: Classifier,
    net: Arc<SimNetwork>,
    heartbeat_every: TimeSpan,
    failure_after: TimeSpan,
    members: BTreeMap<String, Member>,
    directory: Directory,
    /// When the directory last heard each member (heartbeat arrivals;
    /// seeded on the first tick after a member joins).
    last_seen: BTreeMap<String, TimePoint>,
    dead: BTreeSet<String>,
    /// group → the failed server whose receipt store seeds backfill.
    failover_source: BTreeMap<String, String>,
    /// Receipt stores of dead members, reopened read-mostly for
    /// backfill queries.
    dead_stores: BTreeMap<String, ReceiptStore>,
    /// group → deposits buffered while the group had no live home.
    spill: BTreeMap<String, Vec<(String, Vec<u8>)>>,
    /// (group, subscriber) → the per-group subscriber definition (its
    /// subscriptions narrowed to that group's feeds).
    defs: BTreeMap<(String, String), SubscriberDef>,
    /// Re-homings awaiting their final backfill page.
    rehomes: BTreeMap<(String, String), Rehome>,
    /// Epoch-fence replicas at the receiving member (default on). The
    /// model checker's revert-verified regression disables this to
    /// reproduce the in-flight-replicate vs. backfill-marking race.
    replica_fence: bool,
    telemetry: SharedRegistry,
    metrics: ClusterMetrics,
    alarms: AlarmSet,
}

impl Cluster {
    /// Create an empty cluster over `net`. `config` is the cluster-wide
    /// feed catalog (the union every member also runs) — it drives
    /// ingress classification, policy lookup and subscription
    /// resolution. Members heartbeat every `heartbeat_every`; a member
    /// silent for longer than `failure_after` is declared failed.
    pub fn new(
        config: Config,
        net: Arc<SimNetwork>,
        heartbeat_every: TimeSpan,
        failure_after: TimeSpan,
    ) -> Cluster {
        let classifier = Classifier::compile(&config);
        let telemetry = Registry::new();
        let metrics = ClusterMetrics::new(&telemetry);
        let mut alarms = AlarmSet::new();
        alarms.add(AlarmRule::new(
            "cluster-failover",
            Condition::CounterAtLeast {
                metric: "cluster.failovers".into(),
                threshold: 1,
            },
            "a feed group failed over to a standby home",
        ));
        alarms.add(AlarmRule::new(
            "cluster-stranded",
            Condition::CounterAtLeast {
                metric: "cluster.stranded".into(),
                threshold: 1,
            },
            "a failed feed group has no live standby",
        ));
        Cluster {
            config,
            classifier,
            net,
            heartbeat_every,
            failure_after,
            members: BTreeMap::new(),
            directory: Directory::default(),
            last_seen: BTreeMap::new(),
            dead: BTreeSet::new(),
            failover_source: BTreeMap::new(),
            dead_stores: BTreeMap::new(),
            spill: BTreeMap::new(),
            defs: BTreeMap::new(),
            rehomes: BTreeMap::new(),
            replica_fence: true,
            telemetry,
            metrics,
            alarms,
        }
    }

    /// Join `server` to the cluster. Its name becomes its member id.
    pub fn add_server(&mut self, server: Server) -> Result<(), ClusterError> {
        let name = server.name().to_string();
        if self.members.contains_key(&name) {
            return Err(ClusterError::DuplicateServer(name));
        }
        let store = server.store().clone();
        self.members.insert(
            name,
            Member {
                server: Some(server),
                store,
                view: BTreeMap::new(),
                last_heartbeat: None,
            },
        );
        Ok(())
    }

    /// Statically place `group` on `home` with `standbys` as failover
    /// candidates (promotion order). Initial placement is applied to
    /// every member's view directly — only *re*assignments travel over
    /// the wire.
    pub fn assign(
        &mut self,
        group: &str,
        home: &str,
        standbys: &[&str],
    ) -> Result<(), ClusterError> {
        for s in std::iter::once(&home).chain(standbys.iter()) {
            if !self.members.contains_key(*s) {
                return Err(ClusterError::UnknownServer(s.to_string()));
            }
        }
        self.directory.epoch += 1;
        let epoch = self.directory.epoch;
        self.directory.homes.insert(
            group.to_string(),
            HomeEntry {
                home: home.to_string(),
                standbys: standbys.iter().map(|s| s.to_string()).collect(),
                epoch,
            },
        );
        for member in self.members.values_mut() {
            member
                .view
                .insert(group.to_string(), (home.to_string(), epoch));
        }
        Ok(())
    }

    /// Register a subscriber cluster-wide. The subscription is resolved
    /// to feeds, sliced by feed group, and each slice is attached at
    /// that group's current home (narrowed `subscriptions` keep a home
    /// from delivering files it merely holds as a standby replica).
    /// Returns how many files were delivered by the attach-time
    /// backfills.
    pub fn register_subscriber(&mut self, def: &SubscriberDef) -> Result<usize, ClusterError> {
        let mut feeds: BTreeSet<String> = BTreeSet::new();
        for target in &def.subscriptions {
            feeds.extend(self.config.resolve_subscription(target)?);
        }
        let mut by_group: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for feed in feeds {
            by_group
                .entry(group_of(&feed).to_string())
                .or_default()
                .push(feed);
        }
        let mut delivered = 0;
        for (group, group_feeds) in by_group {
            let entry = self
                .directory
                .homes
                .get(&group)
                .ok_or_else(|| ClusterError::UnknownGroup(group.clone()))?;
            let mut slice = def.clone();
            slice.subscriptions = group_feeds;
            let home = entry.home.clone();
            self.defs
                .insert((group.clone(), def.name.clone()), slice.clone());
            let member = self
                .members
                .get_mut(&home)
                .ok_or(ClusterError::UnknownServer(home))?;
            if let Some(server) = member.server.as_mut() {
                delivered += server.add_subscriber(slice)?;
            }
        }
        Ok(delivered)
    }

    /// Ingress: classify `name`, route the deposit to the home of every
    /// matched feed group, and apply the per-feed fault-tolerance
    /// policy when a home is down. Failover-policy deposits are also
    /// replicated to the group's first live standby.
    pub fn route_deposit(
        &mut self,
        name: &str,
        payload: &[u8],
        now: TimePoint,
    ) -> Result<(), ClusterError> {
        let matches = self.classifier.classify(name);
        if matches.is_empty() {
            self.metrics.unknown.inc();
            return Ok(());
        }
        let mut by_group: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for m in matches {
            by_group
                .entry(group_of(&m.feed).to_string())
                .or_default()
                .push(m.feed);
        }
        for (group, feeds) in by_group {
            let entry = self
                .directory
                .homes
                .get(&group)
                .ok_or_else(|| ClusterError::UnknownGroup(group.clone()))?;
            // A file can match several feeds of the group; the
            // strongest policy among them governs it.
            let policy = feeds
                .iter()
                .filter_map(|f| self.config.feed(f))
                .map(|f| f.policy)
                .max_by_key(|p| match p {
                    FeedPolicy::Discard => 0,
                    FeedPolicy::Spill => 1,
                    FeedPolicy::Failover => 2,
                })
                .unwrap_or_default();
            let home = entry.home.clone();
            let group_epoch = entry.epoch;
            let standby = entry
                .standbys
                .iter()
                .find(|s| **s != home && self.members.get(*s).is_some_and(|m| m.server.is_some()))
                .cloned();
            let member = self
                .members
                .get_mut(&home)
                .ok_or_else(|| ClusterError::UnknownServer(home.clone()))?;
            match member.server.as_mut() {
                Some(server) => {
                    server.deposit(name, payload)?;
                    self.metrics.deposits.inc();
                    if policy == FeedPolicy::Failover {
                        if let Some(standby) = standby {
                            self.net.send(
                                now,
                                &control_endpoint(&home),
                                &control_endpoint(&standby),
                                Message::Cluster(ClusterMsg::Replicate {
                                    group: group.clone(),
                                    name: name.to_string(),
                                    payload: payload.to_vec(),
                                    epoch: group_epoch,
                                }),
                            );
                            self.metrics.replicated.inc();
                        }
                    }
                }
                None => match policy {
                    FeedPolicy::Discard => self.metrics.discarded.inc(),
                    FeedPolicy::Spill | FeedPolicy::Failover => {
                        self.spill
                            .entry(group.clone())
                            .or_default()
                            .push((name.to_string(), payload.to_vec()));
                        self.metrics.spilled.inc();
                    }
                },
            }
        }
        Ok(())
    }

    /// One control-plane step: send due heartbeats, absorb arrivals at
    /// the directory, declare members silent past the failure window
    /// dead (kicking off failover for their failover-policy groups),
    /// and evaluate alarms. Call once per simulation step, before
    /// [`Cluster::pump`].
    pub fn tick(&mut self, now: TimePoint) -> Result<Vec<AlarmFiring>, ClusterError> {
        // heartbeats (live members only — a crashed server is silent)
        for (name, member) in self.members.iter_mut() {
            if member.server.is_none() {
                continue;
            }
            let due = member
                .last_heartbeat
                .is_none_or(|t| now >= t + self.heartbeat_every);
            if due {
                let epoch = member.view.values().map(|(_, e)| *e).max().unwrap_or(0);
                self.net.send(
                    now,
                    &control_endpoint(name),
                    DIRECTORY_ENDPOINT,
                    Message::Cluster(ClusterMsg::Heartbeat {
                        server: name.clone(),
                        epoch,
                    }),
                );
                member.last_heartbeat = Some(now);
            }
        }

        self.drain_directory(now)?;

        // failure detection: baseline each member on its first tick, so
        // a member that never heartbeats is still eventually declared.
        let names: Vec<String> = self.members.keys().cloned().collect();
        for name in names {
            let seen = *self.last_seen.entry(name.clone()).or_insert(now);
            if self.dead.contains(&name) {
                continue;
            }
            if now > seen + self.failure_after {
                self.fail_over(&name, now)?;
            }
        }

        Ok(self.alarms.check(&self.telemetry))
    }

    /// Drain and apply all ready cluster-control messages: the
    /// directory's inbox (heartbeats, lookups, backfill requests) and
    /// every member's control inbox (assignments, replicas, backfill
    /// pages). Returns how many messages were processed. Multi-hop
    /// exchanges (assign → request → page → …) need one pump per
    /// network latency; pump until quiescent to settle a failover.
    pub fn pump(&mut self, now: TimePoint) -> Result<usize, ClusterError> {
        let mut n = self.drain_directory(now)?;
        let names: Vec<String> = self.members.keys().cloned().collect();
        for name in names {
            for d in self.net.recv_ready(&control_endpoint(&name), now) {
                n += 1;
                let Message::Cluster(msg) = d.msg else {
                    continue;
                };
                self.handle_member_msg(&name, msg, now)?;
            }
        }
        Ok(n)
    }

    /// Simulate a crash: drop the member's server. Its durable store
    /// survives for backfill and restart. Detection happens via
    /// heartbeat silence, not this call.
    pub fn kill(&mut self, name: &str) -> Result<(), ClusterError> {
        let member = self
            .members
            .get_mut(name)
            .ok_or_else(|| ClusterError::UnknownServer(name.to_string()))?;
        member.server = None;
        Ok(())
    }

    /// Rejoin a restarted incarnation (built over the member's original
    /// durable store — see [`Cluster::store_of`]). The member comes
    /// back as whatever the directory now says it is (groups that
    /// failed over stay with their new homes), and any spill buffered
    /// for groups it still homes is replayed into it.
    pub fn restart(&mut self, server: Server, now: TimePoint) -> Result<(), ClusterError> {
        let name = server.name().to_string();
        let member = self
            .members
            .get_mut(&name)
            .ok_or_else(|| ClusterError::UnknownServer(name.clone()))?;
        member.server = Some(server);
        member.last_heartbeat = None;
        self.dead.remove(&name);
        self.dead_stores.remove(&name);
        self.last_seen.insert(name.clone(), now);
        // replay spill for groups this member (still) homes
        let groups: Vec<String> = self.directory.groups_homed_on(&name);
        for group in groups {
            if let Some(files) = self.spill.remove(&group) {
                let server = self
                    .members
                    .get_mut(&name)
                    .and_then(|m| m.server.as_mut())
                    .expect("just restarted");
                for (f, p) in files {
                    server.deposit(&f, &p)?;
                    self.metrics.spill_replayed.inc();
                }
            }
        }
        Ok(())
    }

    /// Ask the directory (over the wire) where `group` lives; the
    /// `DirHome` reply updates `server`'s view when pumped.
    pub fn send_lookup(&self, server: &str, group: &str, now: TimePoint) {
        self.net.send(
            now,
            &control_endpoint(server),
            DIRECTORY_ENDPOINT,
            Message::Cluster(ClusterMsg::DirLookup {
                group: group.to_string(),
            }),
        );
    }

    /// A member's current view of a group: (home, epoch).
    pub fn view_of(&self, server: &str, group: &str) -> Option<(String, u64)> {
        self.members.get(server)?.view.get(group).cloned()
    }

    /// The member's server, if alive.
    pub fn server(&self, name: &str) -> Option<&Server> {
        self.members.get(name)?.server.as_ref()
    }

    /// A member's durable store (survives [`Cluster::kill`]; use it to
    /// build the restarted incarnation).
    pub fn store_of(&self, name: &str) -> Option<Arc<dyn FileStore>> {
        Some(self.members.get(name)?.store.clone())
    }

    /// The placement directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Cluster-level counters (`cluster.*`).
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.telemetry
    }

    /// Append an alarm rule over the cluster registry.
    pub fn add_alarm_rule(&mut self, rule: AlarmRule) {
        self.alarms.add(rule);
    }

    /// One deterministic JSON document for the whole cluster: the
    /// directory epoch, every live member's full status snapshot
    /// (sorted by name), and the cluster counters. Two same-seed runs
    /// render byte-identical documents.
    pub fn status_json(&self) -> Json {
        let mut servers = Vec::new();
        for (name, m) in &self.members {
            if let Some(s) = &m.server {
                servers.push((name.clone(), s.status_json()));
            }
        }
        Json::Obj(vec![
            ("epoch".to_string(), Json::Num(self.directory.epoch as f64)),
            ("servers".to_string(), Json::Obj(servers)),
            ("cluster".to_string(), self.telemetry.snapshot_json()),
        ])
    }

    fn drain_directory(&mut self, now: TimePoint) -> Result<usize, ClusterError> {
        let mut n = 0;
        for d in self.net.recv_ready(DIRECTORY_ENDPOINT, now) {
            n += 1;
            let Message::Cluster(msg) = d.msg else {
                continue;
            };
            self.handle_directory_msg(&d.from, d.at, msg, now)?;
        }
        Ok(n)
    }

    /// Apply one message at the directory endpoint — the per-message
    /// body of the directory drain, exposed so a model checker can
    /// deliver directory traffic one message at a time in any order.
    /// `at` is the message's arrival time (feeds heartbeat liveness);
    /// `now` stamps any replies sent.
    pub fn handle_directory_msg(
        &mut self,
        from: &str,
        at: TimePoint,
        msg: ClusterMsg,
        now: TimePoint,
    ) -> Result<(), ClusterError> {
        match msg {
            ClusterMsg::Heartbeat { server, .. } => {
                self.last_seen.insert(server, at);
                self.metrics.heartbeats.inc();
            }
            ClusterMsg::DirLookup { group } => {
                if let Some(entry) = self.directory.homes.get(&group) {
                    self.net.send(
                        now,
                        DIRECTORY_ENDPOINT,
                        from,
                        Message::Cluster(ClusterMsg::DirHome {
                            group,
                            home: entry.home.clone(),
                            epoch: entry.epoch,
                        }),
                    );
                }
            }
            ClusterMsg::BackfillRequest {
                group,
                subscriber,
                from_seq,
            } => {
                self.serve_backfill(&group, &subscriber, from_seq, from, now)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Declare `name` failed *now*, without waiting for heartbeat
    /// silence — the model checker's failure-detection action, which
    /// abstracts the failure window away just as
    /// [`RetryTracker::fire_all`] abstracts retry deadlines. Returns
    /// `false` if the member was already declared dead.
    ///
    /// [`RetryTracker::fire_all`]: bistro_transport::RetryTracker::fire_all
    pub fn declare_failed(&mut self, name: &str, now: TimePoint) -> Result<bool, ClusterError> {
        if !self.members.contains_key(name) {
            return Err(ClusterError::UnknownServer(name.to_string()));
        }
        if self.dead.contains(name) {
            return Ok(false);
        }
        self.fail_over(name, now)?;
        Ok(true)
    }

    /// True if `name` has been declared failed (and not restarted).
    pub fn is_dead(&self, name: &str) -> bool {
        self.dead.contains(name)
    }

    /// Member names, sorted.
    pub fn member_names(&self) -> Vec<String> {
        self.members.keys().cloned().collect()
    }

    /// Disable (or re-enable) the replica epoch fence. Test-only knob
    /// backing the revert-verified regression: with the fence off, the
    /// model checker must rediscover the in-flight-replicate race.
    pub fn set_replica_fence(&mut self, on: bool) {
        self.replica_fence = on;
    }

    /// A schedule-independent digest of the cluster's protocol state:
    /// the directory (epoch + placements), every member's placement
    /// view, liveness and server state digest, the dead set, spill
    /// buffers, pending re-homings and registered subscriber slices.
    /// Combined with [`SimNetwork::in_flight_digest`] this identifies a
    /// model-checker state; telemetry, logs and timing are excluded.
    ///
    /// [`SimNetwork::in_flight_digest`]: bistro_transport::SimNetwork::in_flight_digest
    pub fn state_digest(&self) -> u64 {
        use bistro_base::fnv1a64;
        use std::fmt::Write as _;
        let mut acc = String::new();
        let _ = writeln!(acc, "epoch={}", self.directory.epoch);
        for (g, e) in &self.directory.homes {
            let _ = writeln!(
                acc,
                "dir\0{g}\0{}\0{}\0{}",
                e.home,
                e.standbys.join(","),
                e.epoch
            );
        }
        let mut server_digests = Vec::new();
        for (name, m) in &self.members {
            let _ = writeln!(acc, "member\0{name}\0{}", m.server.is_some() as u8);
            for (g, (h, ep)) in &m.view {
                let _ = writeln!(acc, "view\0{name}\0{g}\0{h}\0{ep}");
            }
            if let Some(s) = &m.server {
                server_digests.push(s.state_digest());
            }
        }
        for name in &self.dead {
            let _ = writeln!(acc, "dead\0{name}");
        }
        for (g, s) in &self.failover_source {
            let _ = writeln!(acc, "failsrc\0{g}\0{s}");
        }
        for (g, files) in &self.spill {
            for (name, _) in files {
                let _ = writeln!(acc, "spill\0{g}\0{name}");
            }
        }
        for ((g, sub), r) in &self.rehomes {
            let _ = writeln!(acc, "rehome\0{g}\0{sub}\0{}", r.names.join(","));
        }
        for (g, sub) in self.defs.keys() {
            let _ = writeln!(acc, "def\0{g}\0{sub}");
        }
        let mut bytes = acc.into_bytes();
        for d in server_digests {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        fnv1a64(&bytes)
    }

    /// Serve one backfill page for `(group, subscriber)` from the
    /// failed home's durable receipt store.
    fn serve_backfill(
        &mut self,
        group: &str,
        subscriber: &str,
        from_seq: u64,
        reply_to: &str,
        now: TimePoint,
    ) -> Result<(), ClusterError> {
        let page = match self.failover_source.get(group) {
            None => ClusterMsg::BackfillPage {
                group: group.to_string(),
                subscriber: subscriber.to_string(),
                delivered: Vec::new(),
                next_seq: from_seq,
                done: true,
            },
            Some(source) => {
                let source = source.clone();
                if !self.dead_stores.contains_key(&source) {
                    let store = self
                        .members
                        .get(&source)
                        .ok_or_else(|| ClusterError::UnknownServer(source.clone()))?
                        .store
                        .clone();
                    self.dead_stores
                        .insert(source.clone(), ReceiptStore::open(store, "receipts")?);
                }
                let db = &self.dead_stores[&source];
                let marks: Vec<_> = db
                    .deliveries_since(from_seq)
                    .into_iter()
                    .filter(|m| m.subscriber == subscriber)
                    .collect();
                // cut at the page size, but finish any run of equal
                // seqs (snapshot-recovered receipts all carry seq 0)
                let mut cut = marks.len().min(BACKFILL_PAGE);
                while cut > 0 && cut < marks.len() && marks[cut].seq == marks[cut - 1].seq {
                    cut += 1;
                }
                let done = cut == marks.len();
                let next_seq = if done {
                    db.delivery_cursor()
                } else {
                    marks[cut - 1].seq + 1
                };
                ClusterMsg::BackfillPage {
                    group: group.to_string(),
                    subscriber: subscriber.to_string(),
                    delivered: marks[..cut].iter().map(|m| m.file_name.clone()).collect(),
                    next_seq,
                    done,
                }
            }
        };
        self.metrics.backfill_pages.inc();
        self.net
            .send(now, DIRECTORY_ENDPOINT, reply_to, Message::Cluster(page));
        Ok(())
    }

    /// Declare `name` dead and fail over every failover-policy group it
    /// homes to that group's first live standby.
    fn fail_over(&mut self, name: &str, now: TimePoint) -> Result<(), ClusterError> {
        self.dead.insert(name.to_string());
        for group in self.directory.groups_homed_on(name) {
            let eligible = self
                .config
                .feeds
                .iter()
                .any(|f| group_of(&f.name) == group && f.policy == FeedPolicy::Failover);
            if !eligible {
                continue; // spill/discard groups wait for a restart
            }
            let entry = &self.directory.homes[&group];
            let new_home = entry.standbys.iter().find(|s| {
                s.as_str() != name
                    && !self.dead.contains(*s)
                    && self.members.get(*s).is_some_and(|m| m.server.is_some())
            });
            let Some(new_home) = new_home.cloned() else {
                self.metrics.stranded.inc();
                continue;
            };
            self.directory.epoch += 1;
            let epoch = self.directory.epoch;
            let entry = self.directory.homes.get_mut(&group).expect("just read");
            entry.home = new_home.clone();
            entry.epoch = epoch;
            self.failover_source.insert(group.clone(), name.to_string());
            self.metrics.failovers.inc();
            for (member_name, member) in &self.members {
                if member.server.is_some() {
                    self.net.send(
                        now,
                        DIRECTORY_ENDPOINT,
                        &control_endpoint(member_name),
                        Message::Cluster(ClusterMsg::DirAssign {
                            group: group.clone(),
                            home: new_home.clone(),
                            epoch,
                        }),
                    );
                }
            }
        }
        Ok(())
    }

    /// Apply one cluster-control message at member `name`'s control
    /// endpoint — the per-message body of [`Cluster::pump`], exposed so
    /// a model checker can deliver control messages one at a time in any
    /// order. `name` must be a member.
    pub fn handle_member_msg(
        &mut self,
        name: &str,
        msg: ClusterMsg,
        now: TimePoint,
    ) -> Result<(), ClusterError> {
        if !self.members.contains_key(name) {
            return Err(ClusterError::UnknownServer(name.to_string()));
        }
        match msg {
            ClusterMsg::Replicate {
                group,
                name: file,
                payload,
                epoch,
            } => {
                let member = self.members.get_mut(name).expect("checked above");
                // Epoch fence: a replica stamped with an epoch older than
                // this member's view of the group was sent by a deposed
                // home. Applying it here after backfill marking ran would
                // deposit the file *fresh* at the promoted standby and
                // re-deliver it to the re-homed subscriber — the
                // in-flight-replicate race bistro-mc finds when the fence
                // is disabled (DESIGN.md §11).
                let view_epoch = member.view.get(&group).map(|(_, e)| *e).unwrap_or(0);
                if self.replica_fence && epoch < view_epoch {
                    self.metrics.replica_rejected.inc();
                    return Ok(());
                }
                match member.server.as_mut() {
                    Some(server) => {
                        server.deposit(&file, &payload)?;
                        self.metrics.replica_applied.inc();
                    }
                    None => self.metrics.replica_dropped.inc(),
                }
            }
            ClusterMsg::DirHome { group, home, epoch }
            | ClusterMsg::DirAssign { group, home, epoch } => {
                let is_assign = {
                    let member = self.members.get_mut(name).expect("checked above");
                    let seen = member.view.get(&group).map(|(_, e)| *e).unwrap_or(0);
                    if epoch <= seen {
                        // stale: epoch fencing. Counted so a test (or an
                        // operator) can see reordered assignments being
                        // rejected rather than silently swallowed.
                        self.metrics.stale_assigns.inc();
                        return Ok(());
                    }
                    member.view.insert(group.clone(), (home.clone(), epoch));
                    home == *name && member.server.is_some()
                };
                if is_assign {
                    // this member is the group's new home: pull backfill
                    // for each registered subscriber of the group, then
                    // absorb any deposits spilled while the group was
                    // homeless
                    let subs: Vec<String> = self
                        .defs
                        .keys()
                        .filter(|(g, _)| *g == group)
                        .map(|(_, s)| s.clone())
                        .collect();
                    for sub in subs {
                        self.rehomes
                            .insert((group.clone(), sub.clone()), Rehome::default());
                        self.net.send(
                            now,
                            &control_endpoint(name),
                            DIRECTORY_ENDPOINT,
                            Message::Cluster(ClusterMsg::BackfillRequest {
                                group: group.clone(),
                                subscriber: sub,
                                from_seq: 0,
                            }),
                        );
                    }
                    if let Some(files) = self.spill.remove(&group) {
                        let server = self
                            .members
                            .get_mut(name)
                            .and_then(|m| m.server.as_mut())
                            .expect("checked alive above");
                        for (f, p) in files {
                            server.deposit(&f, &p)?;
                            self.metrics.spill_replayed.inc();
                        }
                    }
                }
            }
            ClusterMsg::BackfillPage {
                group,
                subscriber,
                delivered,
                next_seq,
                done,
            } => {
                let key = (group.clone(), subscriber.clone());
                self.rehomes
                    .entry(key.clone())
                    .or_default()
                    .names
                    .extend(delivered);
                if !done {
                    self.net.send(
                        now,
                        &control_endpoint(name),
                        DIRECTORY_ENDPOINT,
                        Message::Cluster(ClusterMsg::BackfillRequest {
                            group,
                            subscriber,
                            from_seq: next_seq,
                        }),
                    );
                    return Ok(());
                }
                let rehome = self.rehomes.remove(&key).unwrap_or_default();
                let def = self.defs.get(&key).cloned();
                let member = self.members.get_mut(name).expect("pumping own member");
                let Some(server) = member.server.as_mut() else {
                    return Ok(()); // died mid-rehome: next failover retries
                };
                // Mark what the failed home already delivered, by name
                // (replicas the new home never received are skipped —
                // they were delivered, so nothing is owed), THEN attach:
                // the attach-time backfill delivers exactly the rest.
                let receipts = server.receipts();
                let marked: Vec<_> = (rehome.names.iter())
                    .filter_map(|name| receipts.file_by_name(name))
                    .map(|rec| rec.id)
                    .collect();
                receipts.record_deliveries(marked.iter().map(|&id| (id, &*subscriber)), now)?;
                self.metrics.backfill_marked.add(marked.len() as u64);
                if let Some(def) = def {
                    if server
                        .config()
                        .subscribers
                        .iter()
                        .any(|s| s.name == subscriber)
                    {
                        // already attached here for another group —
                        // per-group defs can't merge; deliver what the
                        // existing attachment now sees
                        self.metrics.rehome_conflicts.inc();
                        server.deliver_pending_for(&subscriber)?;
                    } else {
                        let n = server.add_subscriber(def)?;
                        self.metrics.backfill_delivered.add(n as u64);
                        self.metrics.rehomed.inc();
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::{Clock, SimClock};
    use bistro_config::parse_config;
    use bistro_transport::LinkSpec;
    use bistro_vfs::MemFs;

    const START: TimePoint = TimePoint::from_secs(1_285_372_800);

    const CONFIG: &str = r#"
        server { retention 7d; }

        feed SNMP/CPU {
            pattern "CPU_%Y%m%d%H%M.csv";
            policy failover;
        }

        feed SNMP/MEM {
            pattern "MEM_%Y%m%d%H%M.csv";
            policy failover;
        }

        feed SYSLOG/RAW {
            pattern "syslog_%Y%m%d.log";
            policy spill;
        }

        feed NETFLOW/V5 {
            pattern "nf5_%Y%m%d%H.dat";
            policy discard;
        }
    "#;

    fn harness(names: &[&str]) -> (Arc<SimClock>, Arc<SimNetwork>, Cluster) {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec {
            bandwidth: 10_000_000,
            latency: TimeSpan::from_millis(5),
        }));
        let cfg = parse_config(CONFIG).unwrap();
        let mut cluster = Cluster::new(
            cfg.clone(),
            net.clone(),
            TimeSpan::from_secs(1),
            TimeSpan::from_secs(5),
        );
        for name in names {
            let server = Server::new(
                name,
                cfg.clone(),
                clock.clone(),
                MemFs::shared(clock.clone()),
            )
            .unwrap()
            .with_network(net.clone());
            cluster.add_server(server).unwrap();
        }
        (clock, net, cluster)
    }

    fn sub(name: &str, targets: &[&str]) -> SubscriberDef {
        SubscriberDef {
            name: name.to_string(),
            endpoint: format!("{name}:7070"),
            subscriptions: targets.iter().map(|s| s.to_string()).collect(),
            delivery: bistro_config::DeliveryMode::Push,
            deadline: TimeSpan::from_secs(60),
            batch: bistro_config::BatchSpec::default(),
            trigger: None,
            dest: None,
        }
    }

    /// Unique (file, subscriber) deliveries recorded at `server` for
    /// `sub` — counted through the backfill cursor, which dedupes.
    fn delivered_count(server: &Server, sub: &str) -> usize {
        server
            .receipts()
            .deliveries_since(0)
            .iter()
            .filter(|m| m.subscriber == sub)
            .count()
    }

    /// Advance the clock one step and run a full control round.
    fn step(clock: &Arc<SimClock>, cluster: &mut Cluster, by: TimeSpan) -> Vec<AlarmFiring> {
        clock.advance(by);
        let now = clock.now();
        let fired = cluster.tick(now).unwrap();
        cluster.pump(now).unwrap();
        fired
    }

    #[test]
    fn group_of_uses_top_level_prefix() {
        assert_eq!(group_of("SNMP/CPU"), "SNMP");
        assert_eq!(group_of("SNMP/CPU/CORE"), "SNMP");
        assert_eq!(group_of("FLAT"), "FLAT");
    }

    #[test]
    fn directory_lookup_over_the_wire_updates_member_view() {
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap();
        // s2 forgets and asks again (simulate a fresh view)
        cluster.send_lookup("s2", "SNMP", clock.now());
        // lookup + reply need two latency hops
        for _ in 0..3 {
            step(&clock, &mut cluster, TimeSpan::from_millis(10));
        }
        let (home, epoch) = cluster.view_of("s2", "SNMP").unwrap();
        assert_eq!(home, "s1");
        assert_eq!(epoch, cluster.directory().epoch());
    }

    #[test]
    fn deposit_routes_to_home_and_replicates_to_standby() {
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap();
        cluster
            .route_deposit("CPU_201009010000.csv", b"cpu-data", clock.now())
            .unwrap();
        // replica needs a hop to arrive
        step(&clock, &mut cluster, TimeSpan::from_millis(10));
        assert!(cluster
            .server("s1")
            .unwrap()
            .receipts()
            .file_by_name("CPU_201009010000.csv")
            .is_some());
        assert!(cluster
            .server("s2")
            .unwrap()
            .receipts()
            .file_by_name("CPU_201009010000.csv")
            .is_some());
        let reg = cluster.telemetry();
        assert_eq!(reg.counter_value("cluster.replicated"), Some(1));
        assert_eq!(reg.counter_value("cluster.replica_applied"), Some(1));
    }

    #[test]
    fn discard_and_spill_policies_govern_deposits_to_a_dead_home() {
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SYSLOG", "s1", &[]).unwrap();
        cluster.assign("NETFLOW", "s1", &[]).unwrap();
        cluster.assign("SNMP", "s2", &[]).unwrap();
        cluster.kill("s1").unwrap();
        let now = clock.now();
        cluster
            .route_deposit("syslog_20100901.log", b"lines", now)
            .unwrap();
        cluster
            .route_deposit("nf5_2010090100.dat", b"flows", now)
            .unwrap();
        let reg = cluster.telemetry().clone();
        assert_eq!(reg.counter_value("cluster.spilled"), Some(1));
        assert_eq!(reg.counter_value("cluster.discarded"), Some(1));

        // restart over the same durable store: spill replays
        let store = cluster.store_of("s1").unwrap();
        let cfg = parse_config(CONFIG).unwrap();
        let server = Server::new("s1", cfg, clock.clone(), store).unwrap();
        cluster.restart(server, clock.now()).unwrap();
        assert_eq!(reg.counter_value("cluster.spill_replayed"), Some(1));
        assert!(cluster
            .server("s1")
            .unwrap()
            .receipts()
            .file_by_name("syslog_20100901.log")
            .is_some());
        // the discarded netflow file is gone for good
        assert!(cluster
            .server("s1")
            .unwrap()
            .receipts()
            .file_by_name("nf5_2010090100.dat")
            .is_none());
    }

    #[test]
    fn heartbeat_silence_promotes_standby_and_rehomes_subscriber() {
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap();
        cluster.register_subscriber(&sub("wh", &["SNMP"])).unwrap();

        // two deposits delivered by the home, replicated to the standby
        cluster
            .route_deposit("CPU_201009010000.csv", b"a", clock.now())
            .unwrap();
        cluster
            .route_deposit("MEM_201009010000.csv", b"b", clock.now())
            .unwrap();
        for _ in 0..3 {
            step(&clock, &mut cluster, TimeSpan::from_secs(1));
        }
        assert_eq!(delivered_count(cluster.server("s1").unwrap(), "wh"), 2);

        // kill the home; heartbeat silence crosses the failure window
        cluster.kill("s1").unwrap();
        let mut saw_failover_alarm = false;
        for _ in 0..12 {
            let fired = step(&clock, &mut cluster, TimeSpan::from_secs(1));
            saw_failover_alarm |= fired.iter().any(|a| a.rule == "cluster-failover");
        }
        assert!(saw_failover_alarm, "failover alarm should fire");
        assert_eq!(cluster.directory().home_of("SNMP").unwrap().home, "s2");

        // the subscriber was re-homed and owes nothing: both files were
        // already delivered by s1 and the backfill marked them
        let reg = cluster.telemetry();
        assert_eq!(reg.counter_value("cluster.failovers"), Some(1));
        assert_eq!(reg.counter_value("cluster.rehomed_subscribers"), Some(1));
        assert_eq!(reg.counter_value("cluster.backfill_marked"), Some(2));
        assert_eq!(reg.counter_value("cluster.backfill_delivered"), Some(0));

        // a post-failover deposit flows to the new home and is delivered
        cluster
            .route_deposit("CPU_201009010100.csv", b"c", clock.now())
            .unwrap();
        // 2 backfill-marked replicas + 1 fresh delivery
        assert_eq!(delivered_count(cluster.server("s2").unwrap(), "wh"), 3);
    }

    #[test]
    fn rehomed_subscriber_lands_in_new_home_delivery_index() {
        // re-homing rides Server::add_subscriber, so the promoted
        // standby's inverted delivery index must pick the subscriber up:
        // acks from its endpoint resolve at the new home, the indexed
        // deposit match equals the brute-force scan, and the dead home
        // no longer owns the endpoint's delivery path
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap();
        cluster.register_subscriber(&sub("wh", &["SNMP"])).unwrap();
        cluster
            .route_deposit("CPU_201009010000.csv", b"a", clock.now())
            .unwrap();
        for _ in 0..3 {
            step(&clock, &mut cluster, TimeSpan::from_secs(1));
        }
        // before failover: only the home resolves the endpoint
        assert_eq!(
            cluster
                .server("s1")
                .unwrap()
                .resolve_endpoint("wh:7070")
                .as_deref(),
            Some("wh")
        );
        assert_eq!(
            cluster.server("s2").unwrap().resolve_endpoint("wh:7070"),
            None
        );

        cluster.kill("s1").unwrap();
        for _ in 0..12 {
            step(&clock, &mut cluster, TimeSpan::from_secs(1));
        }
        assert_eq!(cluster.directory().home_of("SNMP").unwrap().home, "s2");
        let s2 = cluster.server("s2").unwrap();
        assert_eq!(s2.resolve_endpoint("wh:7070").as_deref(), Some("wh"));
        let feeds = vec!["SNMP/CPU".to_string(), "SNMP/MEM".to_string()];
        assert_eq!(s2.match_via_index(&feeds), s2.match_via_scan(&feeds));
        let (matched, _) = s2.match_via_index(&feeds);
        assert_eq!(matched, vec!["wh".to_string()]);

        // and a post-failover deposit actually uses that index entry
        cluster
            .route_deposit("CPU_201009010100.csv", b"c", clock.now())
            .unwrap();
        assert!(delivered_count(cluster.server("s2").unwrap(), "wh") >= 1);
    }

    #[test]
    fn stale_dir_assign_is_rejected_and_counted() {
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap(); // epoch 1
        cluster.assign("SNMP", "s2", &["s1"]).unwrap(); // epoch 2
        let now = clock.now();

        // a DirAssign from before the reassignment arrives late
        cluster
            .handle_member_msg(
                "s1",
                ClusterMsg::DirAssign {
                    group: "SNMP".to_string(),
                    home: "s1".to_string(),
                    epoch: 1,
                },
                now,
            )
            .unwrap();
        // the member's view keeps the newer assignment…
        assert_eq!(
            cluster.view_of("s1", "SNMP").unwrap(),
            ("s2".to_string(), 2)
        );
        // …and the rejection is visible in telemetry
        assert_eq!(
            cluster.telemetry().counter_value("cluster.stale_assigns"),
            Some(1)
        );
        // an equal-epoch redelivery (a duplicated frame) is also fenced
        cluster
            .handle_member_msg(
                "s1",
                ClusterMsg::DirAssign {
                    group: "SNMP".to_string(),
                    home: "s2".to_string(),
                    epoch: 2,
                },
                now,
            )
            .unwrap();
        assert_eq!(
            cluster.telemetry().counter_value("cluster.stale_assigns"),
            Some(2)
        );
    }

    #[test]
    fn stale_replica_is_fenced_by_epoch() {
        let (clock, _net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap(); // epoch 1
        let now = clock.now();

        // s2 learns of a failover (its view moves to epoch 2)…
        cluster
            .handle_member_msg(
                "s2",
                ClusterMsg::DirAssign {
                    group: "SNMP".to_string(),
                    home: "s2".to_string(),
                    epoch: 2,
                },
                now,
            )
            .unwrap();
        // …then a replica stamped by the deposed home limps in
        cluster
            .handle_member_msg(
                "s2",
                ClusterMsg::Replicate {
                    group: "SNMP".to_string(),
                    name: "CPU_201009010000.csv".to_string(),
                    payload: b"late".to_vec(),
                    epoch: 1,
                },
                now,
            )
            .unwrap();
        assert!(
            cluster
                .server("s2")
                .unwrap()
                .receipts()
                .file_by_name("CPU_201009010000.csv")
                .is_none(),
            "stale replica must not be deposited"
        );
        let reg = cluster.telemetry().clone();
        assert_eq!(reg.counter_value("cluster.replica_rejected"), Some(1));

        // with the fence disabled the same replica is applied — the
        // knob the model checker's revert-verified regression uses
        cluster.set_replica_fence(false);
        cluster
            .handle_member_msg(
                "s2",
                ClusterMsg::Replicate {
                    group: "SNMP".to_string(),
                    name: "CPU_201009010000.csv".to_string(),
                    payload: b"late".to_vec(),
                    epoch: 1,
                },
                now,
            )
            .unwrap();
        assert!(cluster
            .server("s2")
            .unwrap()
            .receipts()
            .file_by_name("CPU_201009010000.csv")
            .is_some());
    }

    #[test]
    fn declare_failed_promotes_without_waiting_for_silence() {
        let (clock, net, mut cluster) = harness(&["s1", "s2"]);
        cluster.assign("SNMP", "s1", &["s2"]).unwrap();
        cluster.kill("s1").unwrap();
        let now = clock.now();
        assert!(cluster.declare_failed("s1", now).unwrap());
        assert!(cluster.is_dead("s1"));
        // idempotent: a second declaration is a no-op
        assert!(!cluster.declare_failed("s1", now).unwrap());
        assert_eq!(cluster.directory().home_of("SNMP").unwrap().home, "s2");
        assert!(cluster.declare_failed("nobody", now).is_err());
        // the DirAssign fan-out is in flight, addressable by the checker
        let pending = net.pending_messages();
        assert!(pending.iter().any(|p| p.endpoint == "s2.cluster"));
    }
}

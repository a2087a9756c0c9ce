//! Checker harnesses over the real Bistro stack.
//!
//! Each scenario owns production objects — [`Server`], [`Cluster`],
//! [`SimNetwork`] — plus a small environment model (the subscriber's
//! dedupe state, the pending ingress events) and implements [`Model`]
//! by mapping checker actions onto the step hooks those layers expose:
//! [`SimNetwork::take_message`] and friends for controlled message
//! scheduling, [`Server::retry_fire`] for the retry timer,
//! [`Cluster::declare_failed`] for the failure detector. The simulated
//! clock never advances: the checker explores *orderings*, and every
//! time-driven behavior has an explicit action standing in for it.

use crate::{Action, Model};
use bistro_base::{fnv1a64, Clock, FileId, SimClock, TimePoint, TimeSpan};
use bistro_config::{parse_config, BatchSpec, Config, DeliveryMode, SubscriberDef};
use bistro_core::cluster::DIRECTORY_ENDPOINT;
use bistro_core::{Cluster, Server};
use bistro_transport::messages::{Message, ReliableMsg, SubscriberMsg};
use bistro_transport::{LinkSpec, RetryPolicy, SimNetwork};
use bistro_vfs::MemFs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800);

/// One feed group, failover policy — the catalog every scenario runs.
const CONFIG: &str = r#"
    server { retention 7d; }

    feed SNMP/CPU {
        pattern "CPU_%Y%m%d%H%M.csv";
        policy failover;
    }
"#;

fn mc_config() -> Config {
    parse_config(CONFIG).expect("scenario config parses")
}

fn mc_net() -> Arc<SimNetwork> {
    Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 10_000_000,
        latency: TimeSpan::from_millis(5),
    }))
}

/// No jitter (the tracker's RNG must not desynchronize replays) and a
/// small attempt budget so the exhaustion path is within reach.
fn mc_retry_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout: TimeSpan::from_secs(1),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(60),
        max_attempts: 3,
        jitter: 0.0,
    }
}

fn sub_def(name: &str, targets: &[&str]) -> SubscriberDef {
    SubscriberDef {
        name: name.to_string(),
        endpoint: format!("{name}:7070"),
        subscriptions: targets.iter().map(|s| s.to_string()).collect(),
        delivery: DeliveryMode::Push,
        deadline: TimeSpan::from_secs(60),
        batch: BatchSpec::default(),
        trigger: None,
        dest: None,
    }
}

/// The deposited file names the scenarios ingest (they match the
/// `SNMP/CPU` pattern).
fn ingress_files(n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| {
            (
                format!("CPU_2010090100{i:02}.csv"),
                format!("cpu-sample-{i}").into_bytes(),
            )
        })
        .collect()
}

/// The last path segment — subscribers key their dedupe state by the
/// deposited file name, which every delivery path preserves as the
/// basename of the destination it announces.
fn base_name(path: &str) -> String {
    path.rsplit('/').next().unwrap_or(path).to_string()
}

/// The environment's model of one subscriber endpoint: counts every
/// wire delivery per file and keeps the deduped applied set, acking
/// reliable attempts like the production client library does.
#[derive(Default)]
struct SubModel {
    name: String,
    endpoint: String,
    /// Applied (deduped) file names.
    seen: BTreeSet<String>,
    /// Raw wire deliveries per file name, before dedupe.
    wire: BTreeMap<String, u32>,
}

impl SubModel {
    fn new(name: &str) -> SubModel {
        SubModel {
            name: name.to_string(),
            endpoint: format!("{name}:7070"),
            ..SubModel::default()
        }
    }

    fn clear(&mut self) {
        self.seen.clear();
        self.wire.clear();
    }

    fn record(&mut self, file_name: String) {
        *self.wire.entry(file_name.clone()).or_insert(0) += 1;
        self.seen.insert(file_name);
    }

    /// Receive one message. Reliable attempts are acked back to
    /// `server_endpoint` (every attempt, duplicates included — the
    /// protocol's contract); plain pushes are just recorded.
    fn receive(
        &mut self,
        net: &SimNetwork,
        server_endpoint: &str,
        msg: Message,
        now: TimePoint,
    ) -> Result<(), String> {
        match msg {
            Message::Reliable(ReliableMsg::Attempt { attempt, inner }) => {
                let (file, name) = match &inner {
                    SubscriberMsg::FileDelivered {
                        file, dest_path, ..
                    } => (*file, base_name(dest_path)),
                    SubscriberMsg::FileAvailable {
                        file, staged_path, ..
                    } => (*file, base_name(staged_path)),
                };
                self.record(name);
                net.send(
                    now,
                    &self.endpoint,
                    server_endpoint,
                    Message::Reliable(ReliableMsg::Ack { file, attempt }),
                );
                Ok(())
            }
            Message::Subscriber(SubscriberMsg::FileDelivered { dest_path, .. }) => {
                self.record(base_name(&dest_path));
                Ok(())
            }
            Message::Subscriber(SubscriberMsg::FileAvailable { staged_path, .. }) => {
                self.record(base_name(&staged_path));
                Ok(())
            }
            other => Err(format!(
                "subscriber {} received unexpected message {other:?}",
                self.name
            )),
        }
    }

    fn digest(&self) -> u64 {
        let mut acc = String::new();
        for (name, n) in &self.wire {
            acc.push_str(&format!("wire\0{name}\0{n}\n"));
        }
        for name in &self.seen {
            acc.push_str(&format!("seen\0{name}\n"));
        }
        fnv1a64(acc.as_bytes())
    }
}

/// Scenarios 1 and 2: one server, one subscriber, reliable delivery
/// over a lossy link. [`SingleServer::reliable_delivery`] explores
/// drop/duplicate/retry interleavings on a healthy server;
/// [`SingleServer::crash_restart`] trades the message faults for
/// crash/restart, checking WAL recovery and unacked backfill.
pub struct SingleServer {
    clock: Arc<SimClock>,
    net: Arc<SimNetwork>,
    server: Option<Server>,
    store: Arc<MemFs>,
    subscriber: SubModel,
    files: Vec<(String, Vec<u8>)>,
    ingressed: usize,
    /// Enable drop/duplicate actions, bounded by `dup_cap` total
    /// in-flight messages.
    faults: bool,
    dup_cap: usize,
    /// Enable crash/restart actions.
    crashes: bool,
    /// The server's receipt digest frozen at crash time (the durable
    /// store cannot change while the server is down).
    crash_digest: u64,
    /// Watermark of delivery receipts, for the receipts-are-monotone
    /// invariant across restarts. Derived state: not part of the digest.
    acked: BTreeSet<String>,
    violation: Option<String>,
}

impl SingleServer {
    /// Scenario 1: reliable delivery over a link that can drop and
    /// duplicate, with the retry timer as an explicit action.
    pub fn reliable_delivery(n_files: usize, dup_cap: usize) -> SingleServer {
        let mut m = SingleServer::bare(n_files);
        m.faults = true;
        m.dup_cap = dup_cap;
        m.reset();
        m
    }

    /// Scenario 2: crash at any point, restart over the durable store,
    /// WAL replay plus unacked backfill.
    pub fn crash_restart(n_files: usize) -> SingleServer {
        let mut m = SingleServer::bare(n_files);
        m.crashes = true;
        m.reset();
        m
    }

    fn bare(n_files: usize) -> SingleServer {
        SingleServer {
            clock: SimClock::starting_at(START),
            net: mc_net(),
            server: None,
            store: MemFs::shared(SimClock::starting_at(START)),
            subscriber: SubModel::new("alpha"),
            files: ingress_files(n_files),
            ingressed: 0,
            faults: false,
            dup_cap: 0,
            crashes: false,
            crash_digest: 0,
            acked: BTreeSet::new(),
            violation: None,
        }
    }

    /// Delivery marks for the subscriber currently in the receipt store.
    fn marks(&self, server: &Server) -> BTreeSet<String> {
        server
            .receipts()
            .deliveries_after(FileId(0))
            .into_iter()
            .filter(|m| m.subscriber == self.subscriber.name)
            .map(|m| m.file_name)
            .collect()
    }

    /// Post-action bookkeeping: receipts must only ever grow (acked
    /// deliveries survive crashes — the WAL replay invariant).
    fn audit(&mut self) {
        let Some(server) = self.server.as_ref() else {
            return;
        };
        let marks = self.marks(server);
        if let Some(lost) = self.acked.difference(&marks).next() {
            self.violation = Some(format!(
                "delivery receipt for {lost} was lost (receipts must be monotone across restarts)"
            ));
        }
        self.acked = marks;
    }
}

impl Model for SingleServer {
    fn reset(&mut self) {
        self.clock = SimClock::starting_at(START);
        self.net = mc_net();
        self.store = MemFs::shared(self.clock.clone());
        let mut server = Server::new("s1", mc_config(), self.clock.clone(), self.store.clone())
            .expect("scenario server builds")
            .with_network(self.net.clone())
            .with_reliable_delivery(mc_retry_policy(), 7);
        server
            .add_subscriber(sub_def(&self.subscriber.name, &["SNMP/CPU"]))
            .expect("subscriber attaches");
        server.persist_config().expect("config persists");
        self.server = Some(server);
        self.subscriber.clear();
        self.ingressed = 0;
        self.crash_digest = 0;
        self.acked.clear();
        self.violation = None;
    }

    fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        if self.ingressed < self.files.len() && self.server.is_some() {
            out.push(Action::Ingress {
                index: self.ingressed,
            });
        }
        let pending = self.net.pending_messages();
        for pm in &pending {
            out.push(Action::Deliver {
                endpoint: pm.endpoint.clone(),
                seq: pm.seq,
            });
            if self.faults {
                out.push(Action::Drop {
                    endpoint: pm.endpoint.clone(),
                    seq: pm.seq,
                });
                if pending.len() < self.dup_cap {
                    out.push(Action::Duplicate {
                        endpoint: pm.endpoint.clone(),
                        seq: pm.seq,
                    });
                }
            }
        }
        if let Some(server) = &self.server {
            if server.unacked_count() > 0 {
                out.push(Action::RetryFire {
                    server: "s1".to_string(),
                });
            }
        }
        if self.crashes {
            match &self.server {
                Some(_) => out.push(Action::Crash {
                    server: "s1".to_string(),
                }),
                None => out.push(Action::Restart {
                    server: "s1".to_string(),
                }),
            }
        }
        out
    }

    fn apply(&mut self, action: &Action) -> Result<(), String> {
        let now = self.clock.now();
        match action {
            Action::Ingress { index } => {
                if *index != self.ingressed {
                    return Err(format!("ingress #{index} out of order"));
                }
                let (name, payload) = self.files[*index].clone();
                let server = self.server.as_mut().ok_or("server is down")?;
                server.deposit(&name, &payload).map_err(|e| e.to_string())?;
                self.ingressed += 1;
            }
            Action::Deliver { endpoint, seq } => {
                let d = self
                    .net
                    .take_message(endpoint, *seq)
                    .ok_or_else(|| format!("no pending message ({endpoint}, #{seq})"))?;
                if *endpoint == self.subscriber.endpoint {
                    self.subscriber.receive(&self.net, "s1", d.msg, now)?;
                } else if endpoint == "s1" {
                    // a message reaching a crashed server is lost
                    if let Some(server) = self.server.as_mut() {
                        server
                            .handle_network_message(&d.from, d.at, d.msg)
                            .map_err(|e| e.to_string())?;
                    }
                } else {
                    return Err(format!("no handler for endpoint {endpoint}"));
                }
            }
            Action::Drop { endpoint, seq } => {
                self.net
                    .drop_message(endpoint, *seq)
                    .ok_or_else(|| format!("no pending message ({endpoint}, #{seq})"))?;
            }
            Action::Duplicate { endpoint, seq } => {
                self.net
                    .duplicate_message(endpoint, *seq)
                    .ok_or_else(|| format!("no pending message ({endpoint}, #{seq})"))?;
            }
            Action::RetryFire { .. } => {
                let server = self.server.as_mut().ok_or("server is down")?;
                server.retry_fire().map_err(|e| e.to_string())?;
            }
            Action::Crash { .. } => {
                let server = self.server.take().ok_or("already crashed")?;
                self.crash_digest = server.state_digest();
                // the Server is dropped here: in-memory retry state and
                // inboxes die with it, the MemFs store survives
            }
            Action::Restart { .. } => {
                if self.server.is_some() {
                    return Err("server is not down".to_string());
                }
                let mut server =
                    Server::open_existing("s1", self.clock.clone(), self.store.clone())
                        .map_err(|e| e.to_string())?
                        .with_network(self.net.clone())
                        .with_reliable_delivery(mc_retry_policy(), 7);
                server.backfill_unacked().map_err(|e| e.to_string())?;
                self.server = Some(server);
            }
            other => return Err(format!("{other} not part of this scenario")),
        }
        self.audit();
        Ok(())
    }

    fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        let server_digest = match &self.server {
            Some(s) => s.state_digest(),
            None => self.crash_digest,
        };
        bytes.extend_from_slice(&server_digest.to_le_bytes());
        bytes.push(self.server.is_some() as u8);
        bytes.extend_from_slice(&self.net.in_flight_digest().to_le_bytes());
        bytes.extend_from_slice(&self.subscriber.digest().to_le_bytes());
        bytes.push(self.ingressed as u8);
        fnv1a64(&bytes)
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        let Some(server) = self.server.as_ref() else {
            return Ok(()); // durable invariants re-checked at restart
        };
        // no dangling receipt: a delivery receipt exists only for a file
        // the subscriber actually applied (receipts are written on ack)
        for name in self.marks(server) {
            if !self.subscriber.seen.contains(&name) {
                return Err(format!(
                    "dangling receipt: {name} recorded as delivered to {} but never received",
                    self.subscriber.name
                ));
            }
        }
        // quiescence completeness: nothing in flight, nothing unacked,
        // no abandoned deliveries → every deposited file was applied
        // and receipted
        let (_, _, exhausted) = server.reliability_counters();
        if self.ingressed == self.files.len()
            && self.net.pending_messages().is_empty()
            && server.unacked_count() == 0
            && exhausted == 0
        {
            let marks = self.marks(server);
            for (name, _) in &self.files {
                if !self.subscriber.seen.contains(name) {
                    return Err(format!(
                        "incomplete at quiescence: {name} was deposited but never delivered"
                    ));
                }
                if !marks.contains(name) {
                    return Err(format!(
                        "incomplete at quiescence: {name} delivered but never receipted"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Scenario 3: two servers, one failover-policy feed group homed on
/// `s1` with `s2` standing by, a registered subscriber, and a directory
/// that promotes on [`Cluster::declare_failed`]. Actions interleave
/// ingress, the crash, the failure declaration, and every control- and
/// data-plane message delivery — enough reordering freedom to race an
/// in-flight [`ClusterMsg::Replicate`] against backfill marking. With
/// the replica epoch fence disabled the checker finds that race as a
/// duplicate wire delivery; with the fence (the default) it proves the
/// race closed within the same bounds.
///
/// [`ClusterMsg::Replicate`]: bistro_transport::messages::ClusterMsg::Replicate
pub struct ClusterFailover {
    clock: Arc<SimClock>,
    net: Arc<SimNetwork>,
    cluster: Option<Cluster>,
    subscriber: SubModel,
    files: Vec<(String, Vec<u8>)>,
    ingressed: usize,
    fence: bool,
    crashed: bool,
    declared: bool,
    /// `s1`'s receipt digest frozen at crash time: the dead store still
    /// seeds backfill, so it stays part of the state identity.
    crash_digest: u64,
    /// Directory-epoch watermark (monotonicity invariant).
    epoch_floor: u64,
    /// Per-member view-epoch watermarks for the `SNMP` group.
    view_floor: BTreeMap<String, u64>,
    violation: Option<String>,
}

impl ClusterFailover {
    /// Build the scenario; `fence` wires through to
    /// [`Cluster::set_replica_fence`].
    pub fn new(n_files: usize, fence: bool) -> ClusterFailover {
        let mut m = ClusterFailover {
            clock: SimClock::starting_at(START),
            net: mc_net(),
            cluster: None,
            subscriber: SubModel::new("alpha"),
            files: ingress_files(n_files),
            ingressed: 0,
            fence,
            crashed: false,
            declared: false,
            crash_digest: 0,
            epoch_floor: 0,
            view_floor: BTreeMap::new(),
            violation: None,
        };
        m.reset();
        m
    }

    fn cluster(&self) -> &Cluster {
        self.cluster.as_ref().expect("cluster is built")
    }

    /// Post-action bookkeeping: directory and view epochs must never
    /// move backwards.
    fn audit(&mut self) {
        let cluster = self.cluster.as_ref().expect("cluster is built");
        let epoch = cluster.directory().epoch();
        if epoch < self.epoch_floor {
            self.violation = Some(format!(
                "directory epoch moved backwards: {epoch} < {}",
                self.epoch_floor
            ));
            return;
        }
        self.epoch_floor = epoch;
        for name in cluster.member_names() {
            if let Some((_, view_epoch)) = cluster.view_of(&name, "SNMP") {
                let floor = self.view_floor.entry(name.clone()).or_insert(0);
                if view_epoch < *floor {
                    self.violation = Some(format!(
                        "{name}'s view epoch moved backwards: {view_epoch} < {floor}"
                    ));
                    return;
                }
                *floor = view_epoch;
            }
        }
    }
}

impl Model for ClusterFailover {
    fn reset(&mut self) {
        self.clock = SimClock::starting_at(START);
        self.net = mc_net();
        let cfg = mc_config();
        let mut cluster = Cluster::new(
            cfg.clone(),
            self.net.clone(),
            TimeSpan::from_secs(1),
            TimeSpan::from_secs(5),
        );
        for name in ["s1", "s2"] {
            let server = Server::new(
                name,
                cfg.clone(),
                self.clock.clone(),
                MemFs::shared(self.clock.clone()),
            )
            .expect("member builds")
            .with_network(self.net.clone());
            cluster.add_server(server).expect("member joins");
        }
        cluster.assign("SNMP", "s1", &["s2"]).expect("group placed");
        cluster
            .register_subscriber(&sub_def(&self.subscriber.name, &["SNMP/CPU"]))
            .expect("subscriber registers");
        cluster.set_replica_fence(self.fence);
        self.cluster = Some(cluster);
        self.subscriber.clear();
        self.ingressed = 0;
        self.crashed = false;
        self.declared = false;
        self.crash_digest = 0;
        self.epoch_floor = 0;
        self.view_floor.clear();
        self.violation = None;
    }

    fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        if self.ingressed < self.files.len() {
            out.push(Action::Ingress {
                index: self.ingressed,
            });
        }
        if !self.crashed {
            out.push(Action::Crash {
                server: "s1".to_string(),
            });
        } else if !self.declared {
            out.push(Action::DeclareFailed {
                server: "s1".to_string(),
            });
        }
        for pm in self.net.pending_messages() {
            out.push(Action::Deliver {
                endpoint: pm.endpoint,
                seq: pm.seq,
            });
        }
        out
    }

    fn apply(&mut self, action: &Action) -> Result<(), String> {
        let now = self.clock.now();
        match action {
            Action::Ingress { index } => {
                if *index != self.ingressed {
                    return Err(format!("ingress #{index} out of order"));
                }
                let (name, payload) = self.files[*index].clone();
                self.cluster
                    .as_mut()
                    .expect("cluster is built")
                    .route_deposit(&name, &payload, now)
                    .map_err(|e| e.to_string())?;
                self.ingressed += 1;
            }
            Action::Crash { server } => {
                if self.crashed {
                    return Err("already crashed".to_string());
                }
                let cluster = self.cluster.as_mut().expect("cluster is built");
                self.crash_digest = cluster
                    .server(server)
                    .map(|s| s.receipts().state_digest())
                    .unwrap_or(0);
                cluster.kill(server).map_err(|e| e.to_string())?;
                self.crashed = true;
            }
            Action::DeclareFailed { server } => {
                if !self.crashed || self.declared {
                    return Err("failure declaration not applicable".to_string());
                }
                self.cluster
                    .as_mut()
                    .expect("cluster is built")
                    .declare_failed(server, now)
                    .map_err(|e| e.to_string())?;
                self.declared = true;
            }
            Action::Deliver { endpoint, seq } => {
                let d = self
                    .net
                    .take_message(endpoint, *seq)
                    .ok_or_else(|| format!("no pending message ({endpoint}, #{seq})"))?;
                let cluster = self.cluster.as_mut().expect("cluster is built");
                if endpoint == DIRECTORY_ENDPOINT {
                    if let Message::Cluster(msg) = d.msg {
                        cluster
                            .handle_directory_msg(&d.from, d.at, msg, now)
                            .map_err(|e| e.to_string())?;
                    }
                } else if let Some(member) = endpoint.strip_suffix(".cluster") {
                    if let Message::Cluster(msg) = d.msg {
                        cluster
                            .handle_member_msg(member, msg, now)
                            .map_err(|e| e.to_string())?;
                    }
                } else if *endpoint == self.subscriber.endpoint {
                    self.subscriber.receive(&self.net, "s1", d.msg, now)?;
                } else if endpoint == "s1" || endpoint == "s2" {
                    // a server's own (ack) endpoint: nothing reliable in
                    // this scenario, the message is discarded
                } else {
                    return Err(format!("no handler for endpoint {endpoint}"));
                }
            }
            other => return Err(format!("{other} not part of this scenario")),
        }
        self.audit();
        Ok(())
    }

    fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&self.cluster().state_digest().to_le_bytes());
        bytes.extend_from_slice(&self.crash_digest.to_le_bytes());
        bytes.extend_from_slice(&self.net.in_flight_digest().to_le_bytes());
        bytes.extend_from_slice(&self.subscriber.digest().to_le_bytes());
        bytes.push(self.ingressed as u8);
        bytes.push(u8::from(self.crashed) | (u8::from(self.declared) << 1));
        fnv1a64(&bytes)
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        let cluster = self.cluster();
        // exactly-once: no file reaches the subscriber's wire twice
        for (name, n) in &self.subscriber.wire {
            if *n > 1 {
                return Err(format!(
                    "{name} delivered {n} times to {} — exactly-once violated",
                    self.subscriber.name
                ));
            }
        }
        // at most one live member may believe it homes the group
        let claimants: Vec<String> = cluster
            .member_names()
            .into_iter()
            .filter(|m| {
                cluster.server(m).is_some()
                    && cluster
                        .view_of(m, "SNMP")
                        .is_some_and(|(home, _)| home == *m)
            })
            .collect();
        if claimants.len() > 1 {
            return Err(format!("two live homes for group SNMP: {claimants:?}"));
        }
        // no dangling receipt: every delivery mark at a live member is a
        // file the subscriber applied or one still on the wire to it
        // (push receipts record the send, not an ack)
        let in_flight: BTreeSet<String> = self
            .net
            .pending_messages()
            .into_iter()
            .filter(|pm| pm.endpoint == self.subscriber.endpoint)
            .filter_map(|pm| match pm.msg {
                Message::Subscriber(SubscriberMsg::FileDelivered { dest_path, .. }) => {
                    Some(base_name(&dest_path))
                }
                Message::Subscriber(SubscriberMsg::FileAvailable { staged_path, .. }) => {
                    Some(base_name(&staged_path))
                }
                _ => None,
            })
            .collect();
        for member in cluster.member_names() {
            let Some(server) = cluster.server(&member) else {
                continue;
            };
            for mark in server.receipts().deliveries_after(FileId(0)) {
                if mark.subscriber == self.subscriber.name
                    && !self.subscriber.seen.contains(&mark.file_name)
                    && !in_flight.contains(&mark.file_name)
                {
                    return Err(format!(
                        "dangling receipt at {member}: {} marked delivered to {} but neither \
                         applied nor in flight",
                        mark.file_name, self.subscriber.name
                    ));
                }
            }
        }
        // quiescence completeness: all ingress done, nothing in flight,
        // and any crash already declared → every deposit reached the
        // subscriber exactly once
        if self.ingressed == self.files.len()
            && (!self.crashed || self.declared)
            && self.net.pending_messages().is_empty()
        {
            for (name, _) in &self.files {
                if !self.subscriber.seen.contains(name) {
                    return Err(format!(
                        "incomplete at quiescence: {name} was deposited but never delivered"
                    ));
                }
            }
        }
        Ok(())
    }
}

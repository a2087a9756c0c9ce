//! `fanout_direct` and `fanout_tree`: the same delivery layer through
//! its two mechanisms, over `SimNetwork` with reliable delivery.
//!
//! Both drivers are event-driven: set the clock to the next arrival on
//! the fabric, run every endpoint's handler, and when nothing is in
//! flight but a tracker still holds an entry, advance by the retry
//! timeout. One file is in flight at a time (a closed loop with one
//! caller), so a file's propagation is the wall time from the start of
//! its deposit to the return of the handler that recorded its last
//! receipt.

use crate::gen::{churn_at, Churn, Gen, START};
use crate::harness::{Counters, Ctx, Recovery, Workload};
use crate::lifecycle::{
    add_ingest_counters, add_store_counters, check_receipt, housekeep, probe_expire_scan, reopen,
    snapshot, Spans, SERVER_SPANS,
};
use crate::probes::Path;
use crate::stats::Window;
use crate::trace::{SpanId, NONE};
use bistro_base::{Clock, SimClock, TimePoint, TimeSpan};
use bistro_config::{parse_config, Config};
use bistro_core::relay::Relay;
use bistro_core::Server;
use bistro_transport::{LinkSpec, RetryPolicy, SimNetwork, SubscriberClient};
use bistro_vfs::{FileStore, MemFs};
use std::sync::Arc;
use std::time::Instant;

const FEED: &str = "F";
pub(crate) const FEED_BLOCK: &str = "feed F { pattern \"tick_%i_%Y%m%d%H%M%S.csv\"; }\n";
const PAYLOAD_BYTES: usize = 1_000;
/// No jitter: the driver advances by exactly one timeout when idle.
const POLICY: RetryPolicy = RetryPolicy {
    base_timeout: TimeSpan::from_secs(1),
    backoff: 2,
    max_timeout: TimeSpan::from_secs(60),
    max_attempts: 12,
    jitter: 0.0,
};
const NETWORKED: Path = Path {
    seal: false,
    network: true,
    unknown: false,
};
/// A file that has not settled after this many driver rounds is failed.
const MAX_ROUNDS: u32 = 64;

const EDGE_SPANS: Spans = Spans {
    tick: "edge.tick",
    retry_tick: "edge.retry_tick",
    expire: "edge.expire",
    snapshot: "edge.snapshot",
};

/// A server of either tier: on the shared fabric, reliable delivery on.
fn networked(
    name: &str,
    config: Config,
    clock: &Arc<SimClock>,
    net: &Arc<SimNetwork>,
    store: Arc<dyn FileStore>,
    seed: u64,
) -> Result<Server, bistro_core::ServerError> {
    Ok(Server::new(name, config, clock.clone(), store)?
        .with_network(net.clone())
        .with_reliable_delivery(POLICY, seed))
}

/// [`reopen`] for a server of either tier.
fn reopen_networked(
    cx: &mut Ctx,
    rec: &mut Recovery,
    old: &Server,
    clock: &Arc<SimClock>,
    net: &Arc<SimNetwork>,
    seed: u64,
) {
    let (config, store) = (old.config().clone(), old.store().clone());
    reopen(cx, rec, old, || {
        networked(old.name(), config, clock, net, store, seed)
    });
}

fn counter(server: &Server, name: &str) -> u64 {
    server.telemetry().counter_value(name).unwrap_or(0)
}

/// The subscriber side of a fanout workload: one `SubscriberClient` per
/// endpoint, replaced by a fresh one at every window end. A client keeps
/// every file it ever saw; left alone, its growing tables would slow the
/// harness down over a run and the slowdown would read as the server's.
struct Members {
    clients: Vec<SubscriberClient>,
    /// Files received per endpoint by clients already retired.
    received: Vec<u64>,
    duplicates: u64,
    acks_sent: u64,
}

impl Members {
    fn new(clients: Vec<SubscriberClient>) -> Members {
        Members {
            received: vec![0; clients.len()],
            clients,
            duplicates: 0,
            acks_sent: 0,
        }
    }

    fn poll(&mut self, net: &SimNetwork, now: TimePoint) {
        for c in &mut self.clients {
            c.poll_notifications(net, now);
        }
    }

    /// Fold the clients' tallies into the totals and start fresh ones.
    /// Only when nothing is in flight: a fresh client has forgotten what
    /// its predecessor saw, so a late redelivery would count as new.
    fn retire(&mut self) {
        for (c, received) in self.clients.iter_mut().zip(&mut self.received) {
            *received += c.delivered().len() as u64;
            self.duplicates += c.duplicates_ignored();
            self.acks_sent += c.acks_sent();
            *c = SubscriberClient::new(&c.endpoint, &c.server);
        }
    }

    fn acks_sent(&self) -> u64 {
        self.acks_sent + self.clients.iter().map(|c| c.acks_sent()).sum::<u64>()
    }

    /// Every endpoint received every file exactly once.
    fn check(&mut self, cx: &mut Ctx, files: u64) {
        self.retire();
        for (c, &got) in self.clients.iter().zip(&self.received) {
            cx.op(got == files, || {
                format!("client {}: {got} delivered, reference {files}", c.endpoint)
            });
        }
        let duplicates = self.duplicates;
        cx.op(duplicates == 0, || {
            format!("{duplicates} redeliveries reached the clients")
        });
    }
}

fn check_counter(cx: &mut Ctx, server: &Server, metric: &str, want: u64) {
    let got = counter(server, metric);
    cx.op(got == want, || {
        format!("{}: {metric} = {got}, reference {want}", server.name())
    });
}

pub struct FanoutDirect {
    seed: u64,
    clock: Arc<SimClock>,
    net: Arc<SimNetwork>,
    hub: Server,
    members: Members,
    sub_names: Vec<String>,
    gen: Gen,
    payload: Vec<u8>,
    churn_order: Vec<usize>,
    offline: Option<usize>,
    files: u64,
    backfilled: u64,
    max_outstanding: u64,
}

impl FanoutDirect {
    const SUBSCRIBERS: usize = 200;
    /// Every `CHURN_PERIOD` files one subscriber goes offline for
    /// `CHURN_DOWN` files, then is backfilled with what it missed.
    const CHURN_PERIOD: u64 = 50;
    const CHURN_DOWN: u64 = 25;
    /// ~120 live files: what `pending_for` scans on every backfill.
    const RETENTION_SECS: u64 = 120;

    fn poll(&mut self, cx: &mut Ctx, root: SpanId) {
        let now = self.clock.now();
        cx.tr.span("client.poll", root, self.files, || {
            self.members.poll(&self.net, now)
        });
        let acks = cx.tr.span("server.poll_network", root, self.files, || {
            self.hub.poll_network()
        });
        cx.op(acks.is_ok(), || format!("poll_network: {acks:?}"));
        self.retry_tick(cx, root);
    }

    fn retry_tick(&mut self, cx: &mut Ctx, root: SpanId) {
        let r = cx.tr.span("server.retry_tick", root, self.files, || {
            self.hub.retry_tick()
        });
        cx.op(r.is_ok(), || format!("retry_tick: {r:?}"));
    }

    /// Drive the fabric until every send of the hub is acknowledged.
    fn settle(&mut self, cx: &mut Ctx, root: SpanId) {
        for _ in 0..MAX_ROUNDS {
            if let Some(at) = self.net.next_arrival_any() {
                self.clock.set(at);
                self.poll(cx, root);
            } else if self.hub.unacked_count() > 0 {
                self.clock.advance(POLICY.base_timeout);
                self.retry_tick(cx, root);
            } else {
                return;
            }
        }
        let left = self.hub.unacked_count();
        cx.op(false, || {
            format!(
                "file {}: {left} sends unacked after {MAX_ROUNDS} rounds",
                self.files
            )
        });
    }

    /// End of run, or a reopen: a reopened hub starts with every
    /// subscriber online and would backfill the one the churn holds
    /// offline, so bring it back first.
    fn all_online(&mut self, cx: &mut Ctx) {
        if let Some(sub) = self.offline {
            self.flip(cx, NONE, Churn::Online(sub));
            self.settle(cx, NONE);
        }
    }

    fn flip(&mut self, cx: &mut Ctx, root: SpanId, churn: Churn) {
        let (span, sub, online) = match churn {
            Churn::Offline(k) => ("server.set_offline", k, false),
            Churn::Online(k) => ("server.set_online", k, true),
        };
        let r = cx.tr.span(span, root, self.files, || {
            self.hub.set_subscriber_online(&self.sub_names[sub], online)
        });
        cx.op(r.is_ok(), || {
            format!("{span} {}: {r:?}", self.sub_names[sub])
        });
        if online {
            self.offline = None;
            self.backfilled += Self::CHURN_DOWN;
        } else {
            self.offline = Some(sub);
        }
        self.max_outstanding = self.max_outstanding.max(self.hub.unacked_count() as u64);
    }
}

// Window, tail and warm-up are whole churn periods, so the recoveries
// inside a run fall where nobody is offline; only a `--smoke` run's last
// one can find a subscriber down.
const _: () = assert!(
    FanoutDirect::WARM.is_multiple_of(FanoutDirect::CHURN_PERIOD)
        && FanoutDirect::WINDOW.is_multiple_of(FanoutDirect::CHURN_PERIOD)
        && FanoutDirect::TAIL.is_multiple_of(FanoutDirect::CHURN_PERIOD)
);

impl Workload for FanoutDirect {
    const NAME: &'static str = "fanout_direct";
    const WARM: u64 = 150;
    const WINDOW: u64 = 500;
    const TAIL: u64 = 500;
    const FIXED_WORK_WINDOWS: u64 = 15;
    const PATH: Path = NETWORKED;

    fn build(seed: u64) -> Self {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let mut src = format!(
            "server {{ retention {}s; }}\n{FEED_BLOCK}",
            Self::RETENTION_SECS
        );
        let sub_names: Vec<String> = (0..Self::SUBSCRIBERS).map(|i| format!("s{i:03}")).collect();
        for (i, name) in sub_names.iter().enumerate() {
            src.push_str(&format!(
                "subscriber {name} {{ endpoint \"c{i:03}\"; subscribe {FEED}; delivery push; }}\n"
            ));
        }
        let config = parse_config(&src).expect("generated config parses");
        let store = MemFs::shared(clock.clone());
        let hub = networked("hub", config, &clock, &net, store, seed)
            .expect("generated config validates");
        let mut gen = Gen::new(seed, Self::NAME);
        FanoutDirect {
            seed,
            members: Members::new(
                (0..Self::SUBSCRIBERS)
                    .map(|i| SubscriberClient::new(&format!("c{i:03}"), "hub"))
                    .collect(),
            ),
            payload: gen.raw_payload(PAYLOAD_BYTES),
            churn_order: gen.churn_order(Self::SUBSCRIBERS),
            gen,
            clock,
            net,
            hub,
            sub_names,
            offline: None,
            files: 0,
            backfilled: 0,
            max_outstanding: 0,
        }
    }

    fn run(&mut self, cx: &mut Ctx, units: u64, snap: bool) -> Window {
        const HOUSEKEEP_EVERY: u64 = 100;
        let t = Instant::now();
        let deliveries0 = self.hub.stats().deliveries;
        for i in 1..=units {
            let churn = churn_at(
                &self.churn_order,
                Self::CHURN_PERIOD,
                Self::CHURN_DOWN,
                self.files,
            );
            self.files += 1;
            let now = self.clock.advance(TimeSpan::from_secs(1));
            let tg = Instant::now();
            let name = self.gen.fanout_name(now);
            cx.gen_ns += tg.elapsed().as_nanos() as u64;

            let root = cx.tr.open("file", NONE, self.files);
            // the flip (and the backfill an `Online` sends) has spans of its
            // own and stays inside the window; a file's propagation starts
            // at its deposit, with the backfill's acks already in
            if let Some(churn) = churn {
                self.flip(cx, root, churn);
                self.settle(cx, root);
            }
            let (t0, sim0) = (Instant::now(), self.clock.now());
            let r = cx.tr.span("server.deposit", root, self.files, || {
                self.hub.deposit(&name, &self.payload)
            });
            self.max_outstanding = self.max_outstanding.max(self.hub.unacked_count() as u64);
            self.settle(cx, root);
            cx.prop_ns.push(t0.elapsed().as_nanos() as u64);
            cx.sim_prop_us
                .push(self.clock.now().since(sim0).as_micros());
            match r {
                Ok(()) => {
                    check_receipt(cx, &self.hub, self.files, &name, FEED, &self.payload, false)
                }
                Err(e) => cx.op(false, || format!("deposit {name}: {e}")),
            }
            if cx.probing(self.files) {
                let feeds = [FEED.to_string()];
                cx.tr.span("probe.index_match", root, self.files, || {
                    std::hint::black_box(self.hub.match_via_index(&feeds));
                });
                cx.probe_file(root, self.files, now, &name, &self.payload, FEED);
            }
            cx.tr.close(root);
            if i % HOUSEKEEP_EVERY == 0 {
                probe_expire_scan(&self.hub, cx, self.files, self.clock.now());
                housekeep(&mut self.hub, cx, SERVER_SPANS, self.files);
            }
        }
        if snap {
            snapshot(&self.hub, cx, SERVER_SPANS, self.files);
        }
        self.members.retire();
        Window {
            files: units,
            deliveries: self.hub.stats().deliveries - deliveries0,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        add_store_counters(&self.hub, &mut c);
        add_ingest_counters(&self.hub, &mut c);
        let (acks, resends, _) = self.hub.reliability_counters();
        for (k, v) in [
            ("payload_bytes", self.files * PAYLOAD_BYTES as u64),
            ("matched_payload_bytes", self.files * PAYLOAD_BYTES as u64),
            ("vfs.payload_writes", self.files * 2),
            ("wal.physical_appends", c["wal.appends"]),
            ("deliveries", self.hub.stats().deliveries),
            ("server.acks", acks),
            ("server.backfilled", self.backfilled),
            ("reliable.resends", resends),
            ("max.reliable.outstanding", self.max_outstanding),
            ("net.msgs", self.net.messages_sent()),
            ("net.bytes", self.net.bytes_sent()),
            ("client.acks_sent", self.members.acks_sent()),
        ] {
            c.insert(k, v);
        }
        c
    }

    fn recover(&mut self, cx: &mut Ctx) -> Recovery {
        self.all_online(cx);
        let sent_before = self.net.messages_sent();
        let mut rec = Recovery::default();
        reopen_networked(cx, &mut rec, &self.hub, &self.clock, &self.net, self.seed);
        let sent = self.net.messages_sent() - sent_before;
        cx.op(sent == 0, || {
            format!("recovery put {sent} messages on the wire")
        });
        rec
    }

    fn finish(&mut self, cx: &mut Ctx) {
        self.all_online(cx);
        let unacked = self.hub.unacked_count() + self.hub.group_outstanding();
        cx.op(unacked == 0, || {
            format!("{unacked} sends outstanding at the end")
        });
        self.members.check(cx, self.files);
        check_counter(cx, &self.hub, "ingest.files", self.files);
        check_counter(cx, &self.hub, "ingest.unknown", 0);
        check_counter(
            cx,
            &self.hub,
            "delivery.receipts",
            self.files * Self::SUBSCRIBERS as u64,
        );
    }

    fn server(&self) -> &Server {
        &self.hub
    }
}

pub struct FanoutTree {
    seed: u64,
    clock: Arc<SimClock>,
    net: Arc<SimNetwork>,
    hub: Server,
    edges: Vec<Server>,
    relays: Vec<Relay>,
    members: Members,
    gen: Gen,
    payload: Vec<u8>,
    files: u64,
    max_outstanding: u64,
}

impl FanoutTree {
    const GROUPS: usize = 32;
    const MEMBERS: usize = 64;
    /// Each file costs two simulated seconds (one is the hub's retry
    /// timeout), so this keeps ~60 files live at every tier.
    const RETENTION_SECS: u64 = 120;

    fn member(g: usize, k: usize) -> String {
        format!("m{g:02}_{k:02}")
    }

    fn edge_name(g: usize) -> String {
        format!("edge{g:02}")
    }

    /// Subscribers and relay group of group `g`, as config source.
    fn group_source(g: usize) -> String {
        let members: Vec<String> = (0..Self::MEMBERS).map(|k| Self::member(g, k)).collect();
        let mut src = String::new();
        for m in &members {
            src.push_str(&format!(
                "subscriber {m} {{ endpoint \"{m}\"; subscribe {FEED}; delivery push; }}\n"
            ));
        }
        src.push_str(&format!(
            "group G{g:02} {{ members {}; relay \"{}\"; }}\n",
            members.join(", "),
            Self::edge_name(g)
        ));
        src
    }

    fn edges_unacked(&self) -> usize {
        self.edges.iter().map(Server::unacked_count).sum()
    }

    fn retry_ticks(&mut self, cx: &mut Ctx, root: SpanId) {
        let id = self.files;
        let r = cx.tr.span("edge.retry_tick", root, id, || {
            self.edges.iter_mut().try_for_each(Server::retry_tick)
        });
        cx.op(r.is_ok(), || format!("edge retry_tick: {r:?}"));
        let r = cx
            .tr
            .span("server.retry_tick", root, id, || self.hub.retry_tick());
        cx.op(r.is_ok(), || format!("hub retry_tick: {r:?}"));
    }

    /// One driver round at the current instant: relays pump, members
    /// poll, edges then hub drain their inboxes and sweep their trackers.
    fn round(&mut self, cx: &mut Ctx, root: SpanId) {
        let (id, now) = (self.files, self.clock.now());
        let r = cx.tr.span("relay.pump", root, id, || {
            self.relays
                .iter_mut()
                .zip(&mut self.edges)
                .try_for_each(|(relay, edge)| relay.pump(&self.net, &self.hub, edge, now).map(drop))
        });
        cx.op(r.is_ok(), || format!("relay pump: {r:?}"));
        cx.tr.span("client.poll", root, id, || {
            self.members.poll(&self.net, now)
        });
        let r = cx.tr.span("edge.poll_network", root, id, || {
            self.edges
                .iter_mut()
                .try_for_each(|e| e.poll_network().map(drop))
        });
        cx.op(r.is_ok(), || format!("edge poll_network: {r:?}"));
        let r = cx
            .tr
            .span("server.poll_network", root, id, || self.hub.poll_network());
        cx.op(r.is_ok(), || format!("hub poll_network: {r:?}"));
        self.retry_ticks(cx, root);
    }

    /// Drive both tiers until the hub's group tracker and every edge's
    /// retry tracker are empty.
    fn settle(&mut self, cx: &mut Ctx, root: SpanId) {
        for _ in 0..MAX_ROUNDS {
            if let Some(at) = self.net.next_arrival_any() {
                self.clock.set(at);
                self.round(cx, root);
            } else if self.hub.group_outstanding() + self.edges_unacked() > 0 {
                self.clock.advance(POLICY.base_timeout);
                self.retry_ticks(cx, root);
            } else {
                return;
            }
        }
        let left = self.hub.group_outstanding() + self.edges_unacked();
        cx.op(false, || {
            format!(
                "file {}: {left} deliveries outstanding after {MAX_ROUNDS} rounds",
                self.files
            )
        });
    }
}

impl Workload for FanoutTree {
    const NAME: &'static str = "fanout_tree";
    const WARM: u64 = 75;
    const WINDOW: u64 = 25;
    const TAIL: u64 = 50;
    const FIXED_WORK_WINDOWS: u64 = 15;
    const PATH: Path = NETWORKED;

    fn build(seed: u64) -> Self {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let head = format!(
            "server {{ retention {}s; }}\n{FEED_BLOCK}",
            Self::RETENTION_SECS
        );
        let groups: Vec<String> = (0..Self::GROUPS).map(Self::group_source).collect();
        let hub_config =
            parse_config(&format!("{head}{}", groups.concat())).expect("generated config parses");
        let hub = networked(
            "hub",
            hub_config,
            &clock,
            &net,
            MemFs::shared(clock.clone()),
            seed,
        )
        .expect("generated config validates");
        let mut edges = Vec::with_capacity(Self::GROUPS);
        let mut clients = Vec::with_capacity(Self::GROUPS * Self::MEMBERS);
        for (g, group) in groups.iter().enumerate() {
            // each edge runs its own group's config; its name is the
            // group's relay endpoint, so it fans out to the members itself
            let config = parse_config(&format!("{head}{group}")).expect("generated config parses");
            let store = MemFs::shared(clock.clone());
            edges.push(
                networked(&Self::edge_name(g), config, &clock, &net, store, seed)
                    .expect("generated config validates"),
            );
            for k in 0..Self::MEMBERS {
                clients.push(SubscriberClient::new(
                    &Self::member(g, k),
                    &Self::edge_name(g),
                ));
            }
        }
        let mut gen = Gen::new(seed, Self::NAME);
        FanoutTree {
            seed,
            hub,
            edges,
            relays: (0..Self::GROUPS).map(|_| Relay::new()).collect(),
            members: Members::new(clients),
            payload: gen.raw_payload(PAYLOAD_BYTES),
            gen,
            clock,
            net,
            files: 0,
            max_outstanding: 0,
        }
    }

    fn run(&mut self, cx: &mut Ctx, units: u64, snap: bool) -> Window {
        let t = Instant::now();
        let deliveries0: u64 = self.edges.iter().map(|e| e.stats().deliveries).sum();
        for _ in 0..units {
            self.files += 1;
            let now = self.clock.advance(TimeSpan::from_secs(1));
            let tg = Instant::now();
            let name = self.gen.fanout_name(now);
            cx.gen_ns += tg.elapsed().as_nanos() as u64;

            let root = cx.tr.open("file", NONE, self.files);
            let t0 = Instant::now();
            let r = cx.tr.span("server.deposit", root, self.files, || {
                self.hub.deposit(&name, &self.payload)
            });
            self.max_outstanding = self
                .max_outstanding
                .max(self.hub.group_outstanding() as u64);
            self.settle(cx, root);
            cx.prop_ns.push(t0.elapsed().as_nanos() as u64);
            cx.sim_prop_us.push(self.clock.now().since(now).as_micros());
            match r {
                Ok(()) => {
                    check_receipt(cx, &self.hub, self.files, &name, FEED, &self.payload, false)
                }
                Err(e) => cx.op(false, || format!("deposit {name}: {e}")),
            }
            // the edges number their receipts like the hub: one relayed
            // deposit per file, in order
            let edge = &self.edges[self.files as usize % Self::GROUPS];
            check_receipt(cx, edge, self.files, &name, FEED, &self.payload, false);
            if cx.probing(self.files) {
                let feeds = [FEED.to_string()];
                cx.tr.span("probe.index_match", root, self.files, || {
                    std::hint::black_box(self.hub.match_via_index(&feeds));
                });
                cx.probe_file(root, self.files, now, &name, &self.payload, FEED);
            }
            cx.tr.close(root);
        }
        probe_expire_scan(&self.hub, cx, self.files, self.clock.now());
        housekeep(&mut self.hub, cx, SERVER_SPANS, self.files);
        for edge in &mut self.edges {
            housekeep(edge, cx, EDGE_SPANS, self.files);
        }
        if snap {
            snapshot(&self.hub, cx, SERVER_SPANS, self.files);
            for edge in &self.edges {
                snapshot(edge, cx, EDGE_SPANS, self.files);
            }
        }
        self.members.retire();
        Window {
            files: units,
            deliveries: self.edges.iter().map(|e| e.stats().deliveries).sum::<u64>() - deliveries0,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        add_store_counters(&self.hub, &mut c);
        for edge in &self.edges {
            add_store_counters(edge, &mut c);
        }
        add_ingest_counters(&self.hub, &mut c);
        let (acks, resends, _) = self.hub.group_counters();
        let relay = |f: fn(&bistro_core::relay::RelayStats) -> usize| -> u64 {
            self.relays.iter().map(|r| f(r.stats()) as u64).sum()
        };
        for (k, v) in [
            ("payload_bytes", self.files * PAYLOAD_BYTES as u64),
            ("matched_payload_bytes", self.files * PAYLOAD_BYTES as u64),
            ("vfs.payload_writes", self.files * 2),
            ("wal.physical_appends", c["wal.appends"]),
            (
                "deliveries",
                self.edges.iter().map(|e| e.stats().deliveries).sum(),
            ),
            ("server.acks", acks),
            // `group.attempts` counts first sends and resends alike
            (
                "group.sends",
                counter(&self.hub, "group.attempts").saturating_sub(resends),
            ),
            ("group.resends", resends),
            ("group.acks", acks),
            ("max.group.outstanding", self.max_outstanding),
            (
                "reliable.resends",
                self.edges.iter().map(|e| e.reliability_counters().1).sum(),
            ),
            ("net.msgs", self.net.messages_sent()),
            ("net.bytes", self.net.bytes_sent()),
            ("client.acks_sent", self.members.acks_sent()),
            ("relay.relayed", relay(|s| s.relayed)),
            ("relay.duplicates", relay(|s| s.duplicates)),
            ("relay.group_acks", relay(|s| s.group_acks)),
        ] {
            c.insert(k, v);
        }
        c
    }

    /// The whole deployment comes back: the hub, then every edge (the
    /// edges hold most of the tree's receipts).
    fn recover(&mut self, cx: &mut Ctx) -> Recovery {
        let sent_before = self.net.messages_sent();
        let mut rec = Recovery::default();
        for server in std::iter::once(&self.hub).chain(&self.edges) {
            reopen_networked(cx, &mut rec, server, &self.clock, &self.net, self.seed);
        }
        let sent = self.net.messages_sent() - sent_before;
        cx.op(sent == 0, || {
            format!("recovery put {sent} messages on the wire")
        });
        rec
    }

    fn finish(&mut self, cx: &mut Ctx) {
        let left = self.hub.unacked_count() + self.hub.group_outstanding() + self.edges_unacked();
        cx.op(left == 0, || {
            format!("{left} deliveries outstanding at the end")
        });
        self.members.check(cx, self.files);
        check_counter(cx, &self.hub, "ingest.files", self.files);
        check_counter(cx, &self.hub, "ingest.unknown", 0);
        for (edge, relay) in self.edges.iter().zip(&self.relays) {
            check_counter(cx, edge, "ingest.files", self.files);
            check_counter(
                cx,
                edge,
                "delivery.receipts",
                self.files * Self::MEMBERS as u64,
            );
            let relayed = relay.stats().relayed as u64;
            cx.op(relayed == self.files, || {
                format!("{} relayed {relayed} of {} files", edge.name(), self.files)
            });
        }
    }

    fn server(&self) -> &Server {
        &self.hub
    }
}

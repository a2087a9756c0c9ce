//! Bistro-as-subscriber: distributed feed delivery networks (paper §3).
//!
//! "A Bistro server can act as subscriber to another Bistro server
//! allowing the creation of distributed feed delivery network. By
//! organizing Bistro servers into a network of cooperating feed managers
//! we can further increase the scalability of the system and minimize
//! the impact on low-bandwidth network pipes."
//!
//! [`Relay`] moves one delivery hop: it drains the upstream server's
//! outbound messages for the downstream server's endpoint (as delivered
//! by the shared [`SimNetwork`]), deposits the referenced payloads into
//! the downstream server's landing zone, and lets the downstream server
//! ingest them with its own classification/normalization/delivery — the
//! full pipeline repeats per hop. Three protocol obligations live here:
//!
//! * only delivery frames the *upstream* server sent are drained
//!   ([`SimNetwork::recv_where`]); anything else sharing the endpoint —
//!   cluster traffic, a pull subscriber's fetch request — stays queued
//!   for its owner.
//! * reliable [`ReliableMsg::Attempt`] envelopes are acknowledged on
//!   *every* attempt, and redelivered payloads are suppressed against the
//!   downstream receipt store (durable dedup: a relay restart cannot
//!   double-deposit).
//! * a group [`GroupMsg::Deliver`] is acked only once the downstream
//!   server's own delivery receipts show the file delivered to every
//!   member that wants it; until then the upstream tracker retries, and
//!   each retry asks again (cascaded backfill).

use crate::server::{Server, ServerError};
use bistro_base::TimePoint;
use bistro_transport::messages::{GroupMsg, Message, ReliableMsg, SubscriberMsg};
use bistro_transport::SimNetwork;

/// Counters accumulated across [`Relay::pump`] calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RelayStats {
    /// Payloads deposited downstream (first copies).
    pub relayed: usize,
    /// Redelivered payloads suppressed by the downstream receipt store.
    pub duplicates: usize,
    /// Reliable attempts acknowledged back upstream.
    pub acked: usize,
    /// Group completion acks sent back upstream.
    pub group_acks: usize,
}

/// One relay hop between two servers sharing a [`SimNetwork`]. The
/// struct itself is stateless between calls — deduplication rides the
/// downstream receipt store, so it survives relay restarts, and the
/// downstream server decides when a group is served — but it
/// accumulates [`RelayStats`] for observability.
#[derive(Debug, Default)]
pub struct Relay {
    stats: RelayStats,
}

impl Relay {
    pub fn new() -> Relay {
        Relay::default()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &RelayStats {
        &self.stats
    }

    /// Pump deliveries from `upstream` to `downstream` through `net` as
    /// of simulated time `now`. Returns the number of *new* files
    /// deposited downstream by this call (duplicates are acknowledged
    /// but not counted).
    ///
    /// The downstream server must be registered at `upstream` as a
    /// subscriber (or group relay) whose endpoint equals
    /// `downstream.name()`.
    pub fn pump(
        &mut self,
        net: &SimNetwork,
        upstream: &Server,
        downstream: &mut Server,
        now: TimePoint,
    ) -> Result<usize, ServerError> {
        let mut relayed = 0;
        // drain only the delivery frames upstream sent; anything else
        // addressed to this endpoint (cluster heartbeats, acks owned by
        // a co-located server, a pull subscriber's fetch request, which
        // is a FileAvailable too) stays queued for its owner
        let batch = net.recv_where(downstream.name(), now, |d| {
            matches!(
                &d.msg,
                Message::Subscriber(_)
                    | Message::Reliable(ReliableMsg::Attempt { .. })
                    | Message::Group(GroupMsg::Deliver { .. })
            ) && *d.from == *upstream.name()
        });
        for delivery in batch {
            match delivery.msg {
                Message::Subscriber(inner) => {
                    if self.relay_file(&inner, upstream, downstream)? == Deposit::New {
                        relayed += 1;
                    }
                }
                Message::Reliable(ReliableMsg::Attempt { attempt, inner }) => {
                    let outcome = self.relay_file(&inner, upstream, downstream)?;
                    if outcome == Deposit::New {
                        relayed += 1;
                    }
                    // ack every attempt we could serve — including
                    // redeliveries of a payload we already hold, whose
                    // first ack may have been lost in flight. Without
                    // this the upstream tracker retries until its
                    // attempt budget exhausts and falsely alarms.
                    if outcome != Deposit::Gone {
                        net.send(
                            now,
                            downstream.name(),
                            &delivery.from,
                            Message::Reliable(ReliableMsg::Ack {
                                file: inner.file(),
                                attempt,
                            }),
                        );
                        self.stats.acked += 1;
                    }
                }
                Message::Group(GroupMsg::Deliver { group, file, .. }) => {
                    let Some(rec) = upstream.receipts().file(file) else {
                        continue; // expired upstream; retries will alarm
                    };
                    if self.deposit_once(&rec.name, upstream, &rec.staged_path, downstream)?
                        == Deposit::New
                    {
                        relayed += 1;
                    }
                    // ack once our own receipts show every member that
                    // wants the file served; until then stay silent, and
                    // the upstream tracker's next resend asks again
                    if downstream.group_served(&group, &rec.name) {
                        net.send(
                            now,
                            downstream.name(),
                            &delivery.from,
                            Message::Group(GroupMsg::Ack {
                                group,
                                file, // the *upstream* id the tracker keys on
                            }),
                        );
                        self.stats.group_acks += 1;
                    }
                }
                _ => unreachable!("recv_where predicate admits only relay traffic"),
            }
        }
        Ok(relayed)
    }

    /// Relay one per-subscriber delivery notification: fetch the payload
    /// from the upstream staging area and deposit it downstream unless
    /// the receipt store already holds it.
    fn relay_file(
        &mut self,
        inner: &SubscriberMsg,
        upstream: &Server,
        downstream: &mut Server,
    ) -> Result<Deposit, ServerError> {
        let Some(rec) = upstream.receipts().file(inner.file()) else {
            return Ok(Deposit::Gone); // expired upstream before relay
        };
        // the original *filename* is what downstream classifies; the
        // message's dest/staged path is upstream's layout choice for us
        self.deposit_once(&rec.name, upstream, &rec.staged_path, downstream)
    }

    /// Deposit `name` downstream exactly once: the downstream receipt
    /// store is the durable dedup index, so redelivered attempts (lost
    /// acks, retries, relay restarts) never double-ingest.
    fn deposit_once(
        &mut self,
        name: &str,
        upstream: &Server,
        staged_path: &str,
        downstream: &mut Server,
    ) -> Result<Deposit, ServerError> {
        if downstream.receipts().file_id_by_name(name).is_some() {
            self.stats.duplicates += 1;
            return Ok(Deposit::Duplicate);
        }
        let staged = format!("{}/{staged_path}", upstream.config().server.staging);
        let payload = upstream.store().read(&staged)?;
        downstream.deposit(name, &payload)?;
        self.stats.relayed += 1;
        Ok(Deposit::New)
    }
}

/// What [`Relay::deposit_once`] did with a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deposit {
    /// First copy: deposited and ingested downstream.
    New,
    /// Already held downstream; suppressed.
    Duplicate,
    /// Upstream no longer has the payload (expired); nothing to do.
    Gone,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::{Clock, FileId, SimClock, TimePoint, TimeSpan};
    use bistro_config::parse_config;
    use bistro_transport::messages::ClusterMsg;
    use bistro_transport::{LinkSpec, RetryPolicy, SimNetwork, SubscriberClient};
    use bistro_vfs::MemFs;
    use std::sync::Arc;

    const START: TimePoint = TimePoint::from_secs(1_285_372_800);

    fn hub_edge(
        clock: &Arc<SimClock>,
        net: &Arc<SimNetwork>,
        reliable: Option<RetryPolicy>,
    ) -> (Server, Server) {
        let hub_cfg = parse_config(
            r#"
            feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
            feed SNMP/CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
            subscriber edge_server {
                endpoint "edge";
                subscribe SNMP/MEMORY;
                delivery push;
            }
            "#,
        )
        .unwrap();
        let hub_store = MemFs::shared(clock.clone());
        let mut hub = Server::new("hub", hub_cfg, clock.clone(), hub_store)
            .unwrap()
            .with_network(net.clone());
        if let Some(policy) = reliable {
            hub = hub.with_reliable_delivery(policy, 7);
        }

        let edge_cfg = parse_config(
            r#"
            feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
            subscriber warehouse {
                endpoint "warehouse";
                subscribe SNMP/MEMORY;
                delivery push;
            }
            "#,
        )
        .unwrap();
        let edge_store = MemFs::shared(clock.clone());
        let edge = Server::new("edge", edge_cfg, clock.clone(), edge_store)
            .unwrap()
            .with_network(net.clone());
        (hub, edge)
    }

    #[test]
    fn two_hop_relay_network() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let (mut hub, mut edge) = hub_edge(&clock, &net, None);

        // sources deposit at the hub
        hub.deposit("MEMORY_poller1_20100925.gz", b"memory-data")
            .unwrap();
        hub.deposit("CPU_POLL1_201009250000.txt", b"cpu-data")
            .unwrap();

        // advance past network latency and pump the relay hop
        clock.advance(TimeSpan::from_secs(1));
        let relayed = Relay::new()
            .pump(&net, &hub, &mut edge, clock.now())
            .unwrap();
        assert_eq!(relayed, 1, "only MEMORY is subscribed by the edge");

        // the edge re-classified and delivered to its own subscriber
        assert_eq!(edge.receipts().live_count(), 1);
        assert_eq!(edge.stats().deliveries, 1);
        clock.advance(TimeSpan::from_secs(1));
        let msgs = net.recv_ready("warehouse", clock.now());
        assert_eq!(msgs.len(), 1);
    }

    /// Regression: the pump used to drain the endpoint with
    /// `recv_ready` and discard whatever it did not understand, so any
    /// cluster traffic sharing the relay's inbox was silently eaten.
    /// With `recv_where`, unrelated messages stay queued.
    #[test]
    fn unrelated_traffic_stays_queued() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let (mut hub, mut edge) = hub_edge(&clock, &net, None);

        hub.deposit("MEMORY_poller1_20100925.gz", b"memory-data")
            .unwrap();
        // interleave cluster traffic addressed to the same endpoint
        net.send(
            clock.now(),
            "hub",
            "edge",
            Message::Cluster(ClusterMsg::Heartbeat {
                server: "hub".to_string(),
            }),
        );

        clock.advance(TimeSpan::from_secs(1));
        let relayed = Relay::new()
            .pump(&net, &hub, &mut edge, clock.now())
            .unwrap();
        assert_eq!(relayed, 1);

        // the heartbeat survived the pump for whoever owns the endpoint
        let rest = net.recv_ready("edge", clock.now());
        assert_eq!(rest.len(), 1, "cluster message was eaten by the pump");
        assert!(matches!(
            rest[0].msg,
            Message::Cluster(ClusterMsg::Heartbeat { .. })
        ));
    }

    /// Regression: a pull subscriber's fetch request is a
    /// `FileAvailable` addressed to its server's endpoint, carrying that
    /// server's file id. The pump drained it like an upstream delivery,
    /// looked the id up in the *upstream* store and deposited whatever
    /// file had that id there. Only frames sent by upstream are relayed.
    #[test]
    fn a_pull_subscribers_fetch_request_is_not_an_upstream_delivery() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let (mut hub, _) = hub_edge(&clock, &net, None);
        let edge_cfg = parse_config(
            r#"
            feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
            subscriber warehouse {
                endpoint "warehouse";
                subscribe SNMP/MEMORY;
                delivery notify;
            }
            "#,
        )
        .unwrap();
        let mut edge = Server::new(
            "edge",
            edge_cfg,
            clock.clone(),
            MemFs::shared(clock.clone()),
        )
        .unwrap()
        .with_network(net.clone());
        let mut relay = Relay::new();
        let mut warehouse = SubscriberClient::new("warehouse", "edge");

        // hub id 1 is a file the edge does not subscribe to; hub id 2
        // is relayed and becomes edge id 1
        hub.deposit("CPU_POLL1_201009250000.txt", b"cpu-data")
            .unwrap();
        hub.deposit("MEMORY_poller1_20100925.gz", b"memory-data")
            .unwrap();
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(relay.pump(&net, &hub, &mut edge, clock.now()).unwrap(), 1);

        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(warehouse.poll_notifications(&net, clock.now()), 1);
        assert_eq!(warehouse.pending()[0].file, FileId(1));
        // the fetch request for edge id 1 lands at the edge's endpoint
        warehouse.fetch_all(&net, clock.now());
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(relay.pump(&net, &hub, &mut edge, clock.now()).unwrap(), 0);

        assert_eq!(relay.stats().relayed, 1);
        assert_eq!(edge.receipts().live_count(), 1);
        assert!(!edge.store().exists("unknown/CPU_POLL1_201009250000.txt"));
    }

    /// Regression: under reliable delivery the pump never acknowledged
    /// attempts (the upstream retried until its budget exhausted and
    /// falsely alarmed) and redelivered attempts deposited twice. Every
    /// attempt is now acked and duplicates are suppressed against the
    /// downstream receipt store.
    #[test]
    fn reliable_attempts_acked_and_deduped() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let policy = RetryPolicy {
            base_timeout: TimeSpan::from_secs(5),
            backoff: 2,
            max_timeout: TimeSpan::from_secs(60),
            max_attempts: 12,
            jitter: 0.0,
        };
        let (mut hub, mut edge) = hub_edge(&clock, &net, Some(policy));
        let mut relay = Relay::new();

        hub.deposit("MEMORY_poller1_20100925.gz", b"memory-data")
            .unwrap();
        assert_eq!(hub.unacked_count(), 1);

        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(relay.pump(&net, &hub, &mut edge, clock.now()).unwrap(), 1);

        // redeliver before the first ack is processed (lost-ack shape)
        hub.retry_fire().unwrap();
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(
            relay.pump(&net, &hub, &mut edge, clock.now()).unwrap(),
            0,
            "redelivered attempt must not deposit twice"
        );
        assert_eq!(edge.receipts().live_count(), 1);

        // both attempts were acknowledged; the hub clears its tracker
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(hub.poll_network().unwrap(), 2);
        assert_eq!(hub.unacked_count(), 0);

        let stats = relay.stats();
        assert_eq!(stats.relayed, 1);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.acked, 2);
    }

    /// A delivery tree: the hub fans a grouped file out *once* to the
    /// relay, which serves every member from its own pipeline and
    /// reports cumulative member coverage back.
    #[test]
    fn group_fanout_through_relay() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        // one config deployed at both tiers: the hub routes EDGE through
        // the relay endpoint; the edge server (whose name *is* the relay
        // endpoint) skips the plan and delivers to members directly
        let cfg_text = r#"
            feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
            subscriber wh1 { endpoint "wh1"; subscribe SNMP/MEMORY; }
            subscriber wh2 { endpoint "wh2"; subscribe SNMP/MEMORY; }
            group EDGE { members wh1, wh2; relay "edge"; }
        "#;
        let mut hub = Server::new(
            "hub",
            parse_config(cfg_text).unwrap(),
            clock.clone(),
            MemFs::shared(clock.clone()),
        )
        .unwrap()
        .with_network(net.clone());
        let mut edge = Server::new(
            "edge",
            parse_config(cfg_text).unwrap(),
            clock.clone(),
            MemFs::shared(clock.clone()),
        )
        .unwrap()
        .with_network(net.clone());
        let mut relay = Relay::new();

        hub.deposit("MEMORY_poller1_20100925.gz", b"memory-data")
            .unwrap();
        // grouped members are excluded from direct fanout: one Deliver
        // to the relay, nothing straight to wh1/wh2 from the hub
        assert_eq!(hub.group_outstanding(), 1);
        assert_eq!(hub.stats().deliveries, 0);

        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(relay.pump(&net, &hub, &mut edge, clock.now()).unwrap(), 1);
        // the edge fanned out to both members itself
        assert_eq!(edge.stats().deliveries, 2);

        // the coverage report completes the fanout at the hub
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(hub.poll_network().unwrap(), 1);
        assert_eq!(hub.group_outstanding(), 0);
        let file = hub
            .receipts()
            .file_by_name("MEMORY_poller1_20100925.gz")
            .unwrap();
        // the hub's one receipt of the file is the group's, over the
        // group's own id — registered ahead of the members, so it is 0
        let edge_id = hub.receipts().subscriber_id("EDGE").unwrap();
        assert_eq!(edge_id.raw(), 0);
        let delivered = hub.receipts().delivered_ids(file.id).unwrap();
        assert_eq!(delivered.ones().collect::<Vec<_>>(), [edge_id.raw()]);
        assert_eq!(hub.stats().deliveries, 0, "not a subscriber delivery");
        assert_eq!(hub.telemetry().counter_value("group.completed"), Some(1));
        assert_eq!(relay.stats().group_acks, 1);

        // both members actually received their copies from the edge
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(net.recv_ready("wh1", clock.now()).len(), 1);
        assert_eq!(net.recv_ready("wh2", clock.now()).len(), 1);
    }

    /// The relay-side completion rule against a by-name reference: a
    /// relay acks a group's send exactly when every member whose feeds
    /// meet the file's feeds has it, each member checked by name with one
    /// `is_delivered`. Covers members on different feeds, a member
    /// registered but never delivered (`ghost`), a file the relay does
    /// not hold (`D_4`), a group it does not define (`NOPE`), and a relay
    /// reopen that renumbers the members it had not put on record yet.
    #[test]
    fn a_relay_acks_exactly_when_every_member_that_wants_the_file_has_it() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let hub_cfg = r#"
            feed A { pattern "A_%i.csv"; }
            feed B { pattern "B_%i.csv"; }
            feed C { pattern "C_%i.csv"; }
            feed D { pattern "D_%i.csv"; }
        "#;
        let hub_store = MemFs::shared(clock.clone());
        let mut hub = Server::new(
            "hub",
            parse_config(hub_cfg).unwrap(),
            clock.clone(),
            hub_store,
        )
        .unwrap();
        let files = ["A_1.csv", "B_2.csv", "C_3.csv", "D_4.csv"];
        for name in files {
            hub.deposit(name, name.as_bytes()).unwrap();
        }
        let edge_store = MemFs::shared(clock.clone());
        let edge_server = |extra: &str| {
            let cfg = format!(
                r#"
                feed A {{ pattern "A_%i.csv"; }}
                feed B {{ pattern "B_%i.csv"; }}
                feed C {{ pattern "C_%i.csv"; }}
                subscriber ghost {{ endpoint "ghost"; subscribe C; }}
                subscriber wh1 {{ endpoint "wh1"; subscribe A; }}
                subscriber wh2 {{ endpoint "wh2"; subscribe B; }}
                subscriber wh3 {{ endpoint "wh3"; subscribe A, B; }}
                group EDGE {{ members wh1, wh2, wh3, ghost; relay "edge"; }}
                {extra}
                "#
            );
            let cfg = parse_config(&cfg).unwrap();
            Server::new("edge", cfg, clock.clone(), edge_store.clone())
                .unwrap()
                .with_network(net.clone())
                .with_reliable_delivery(RetryPolicy::default(), 5)
        };
        // the by-name reference
        let wanted_by_all = |edge: &Server, group: &str, name: &str| {
            let (Some(def), Some(rec)) = (
                edge.config().group(group),
                edge.receipts().file_by_name(name),
            ) else {
                return false;
            };
            def.members.iter().all(|m| {
                let feeds = edge.config().subscriber_feeds(m).unwrap();
                !feeds.iter().any(|f| rec.feeds.contains(f))
                    || edge.receipts().is_delivered(rec.id, m)
            })
        };
        // one Deliver per (group, file) from the hub, one pump, and the
        // acks that come back — checked against the reference
        let report = |relay: &mut Relay, edge: &mut Server| -> Vec<(String, String)> {
            for group in ["EDGE", "NOPE"] {
                for name in files {
                    let file = hub.receipts().file_by_name(name).unwrap().id;
                    let deliver = GroupMsg::Deliver {
                        group: group.to_string(),
                        file,
                        file_name: name.to_string(),
                        size: 1,
                        attempt: 1,
                    };
                    net.send(clock.now(), "hub", "edge", Message::Group(deliver));
                }
            }
            relay
                .pump(&net, &hub, edge, clock.advance(TimeSpan::from_secs(1)))
                .unwrap();
            let arrived = clock.advance(TimeSpan::from_secs(1));
            let acked: Vec<(String, String)> = (net.recv_ready("hub", arrived).into_iter())
                .filter_map(|d| match d.msg {
                    Message::Group(GroupMsg::Ack { group, file }) => {
                        Some((group, hub.receipts().file(file).unwrap().name))
                    }
                    _ => None,
                })
                .collect();
            let expect: Vec<(String, String)> = (["EDGE", "NOPE"].into_iter())
                .flat_map(|g| files.map(|f| (g.to_string(), f.to_string())))
                .filter(|(g, f)| wanted_by_all(edge, g, f))
                .collect();
            assert_eq!(acked, expect);
            acked
        };
        let member_ack = |edge: &mut Server, member: &str, name: &str| {
            let file = edge.receipts().file_by_name(name).unwrap().id;
            let ack = Message::Reliable(ReliableMsg::Ack { file, attempt: 1 });
            edge.handle_network_message(member, clock.now(), ack)
                .unwrap();
        };
        let pair = |f: &str| ("EDGE".to_string(), f.to_string());
        let mut relay = Relay::new();
        let mut edge = edge_server("");

        // the first report deposits A, B and C downstream; D matches no
        // feed there, so the relay never holds it
        assert!(report(&mut relay, &mut edge).is_empty());
        assert!(edge.receipts().file_by_name("D_4.csv").is_none());
        // wh1 has A_1, but wh3 wants it too
        member_ack(&mut edge, "wh1", "A_1.csv");
        assert!(report(&mut relay, &mut edge).is_empty());

        // ghost (0) and wh1 (1) are on record; the reopened relay gives
        // aaa the next id, so wh2 and wh3 are renumbered
        drop(edge);
        let mut edge = edge_server(r#"subscriber aaa { endpoint "aaa"; subscribe A, B; }"#);
        let id = |name: &str| edge.receipts().subscriber_id(name).unwrap().raw();
        assert_eq!(["aaa", "wh2", "wh3"].map(id), [2, 3, 4]);
        member_ack(&mut edge, "aaa", "B_2.csv");
        assert!(report(&mut relay, &mut edge).is_empty());
        member_ack(&mut edge, "wh3", "A_1.csv");
        assert_eq!(report(&mut relay, &mut edge), [pair("A_1.csv")]);
        member_ack(&mut edge, "wh3", "B_2.csv");
        member_ack(&mut edge, "wh2", "B_2.csv");
        // C_3 waits on ghost for good
        let acked = report(&mut relay, &mut edge);
        assert_eq!(acked, [pair("A_1.csv"), pair("B_2.csv")]);
    }

    /// Regression: a group send completed only when its coverage held
    /// every member, and the relay never delivers a file to a member
    /// that subscribes to none of its feeds — so a group whose members
    /// subscribe to different feeds never completed a file. The hub
    /// resent it until its budget ran out, alarmed, and re-fanned it
    /// after every restart. The relay now acks once the members that
    /// want the file have it.
    #[test]
    fn group_of_members_on_different_feeds_completes_in_one_round() {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let cfg_text = r#"
            feed A { pattern "A_%i.csv"; }
            feed B { pattern "B_%i.csv"; }
            subscriber wh1 { endpoint "wh1"; subscribe A; }
            subscriber wh2 { endpoint "wh2"; subscribe B; }
            group EDGE { members wh1, wh2; relay "edge"; }
        "#;
        let server = |name: &str| {
            let cfg = parse_config(cfg_text).unwrap();
            Server::new(name, cfg, clock.clone(), MemFs::shared(clock.clone()))
                .unwrap()
                .with_network(net.clone())
        };
        let (mut hub, mut edge) = (server("hub"), server("edge"));
        let mut relay = Relay::new();

        hub.deposit("A_1.csv", b"a").unwrap();
        assert_eq!(hub.group_outstanding(), 1);
        clock.advance(TimeSpan::from_secs(1));
        relay.pump(&net, &hub, &mut edge, clock.now()).unwrap();
        clock.advance(TimeSpan::from_secs(1));
        assert_eq!(hub.poll_network().unwrap(), 1);
        assert_eq!(
            hub.group_outstanding(),
            0,
            "one coverage round completes it"
        );

        for _ in 0..6 {
            clock.advance(TimeSpan::from_secs(30));
            relay.pump(&net, &hub, &mut edge, clock.now()).unwrap();
            hub.poll_network().unwrap();
            hub.retry_tick().unwrap();
            hub.tick();
        }
        assert_eq!(hub.backfill_unacked().unwrap(), 0, "nothing to re-fan");
        let reg = hub.telemetry();
        assert_eq!(reg.counter_value("group.exhausted"), Some(0));
        assert_eq!(reg.counter_value("group.resends"), Some(0));
        assert_eq!(hub.event_log().count(crate::log::LogLevel::Alarm), 0);
        // wh1, the one member that wants the file, got it; wh2 did not
        assert_eq!(net.recv_ready("wh1", clock.now()).len(), 1);
        assert!(net.recv_ready("wh2", clock.now()).is_empty());
    }
}

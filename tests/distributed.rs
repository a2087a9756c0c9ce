//! Workspace-level integration: a three-tier Bistro relay network
//! (paper §3: "organizing Bistro servers into a network of cooperating
//! feed managers").

use bistro::base::{Clock, FileId, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::relay::pump;
use bistro::server::Server;
use bistro::transport::{LinkSpec, SimNetwork};
use bistro::vfs::MemFs;
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800);

fn server(
    name: &str,
    cfg: &str,
    clock: Arc<bistro::base::clock::SimClock>,
    net: Arc<SimNetwork>,
) -> Server {
    Server::new(
        name,
        parse_config(cfg).unwrap(),
        clock.clone(),
        MemFs::shared(clock),
    )
    .unwrap()
    .with_network(net)
}

#[test]
fn three_tier_relay_chain() {
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 50_000_000,
        latency: TimeSpan::from_millis(10),
    }));

    // tier 1: collector near the sources, relays everything to tier 2
    let mut collector = server(
        "collector",
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d%H%M.csv"; }
        feed SNMP/CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; }
        subscriber regional { endpoint "regional"; subscribe SNMP; delivery push; }
        "#,
        clock.clone(),
        net.clone(),
    );

    // tier 2: regional hub, relays only MEMORY onward
    let mut regional = server(
        "regional",
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d%H%M.csv"; }
        feed SNMP/CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; }
        subscriber edge { endpoint "edge"; subscribe SNMP/MEMORY; delivery push; }
        "#,
        clock.clone(),
        net.clone(),
    );

    // tier 3: edge server delivering to the analyst
    let mut edge = server(
        "edge",
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d%H%M.csv"; }
        subscriber analyst { endpoint "analyst"; subscribe SNMP/MEMORY; delivery push; }
        "#,
        clock.clone(),
        net.clone(),
    );

    // a polling round lands at the collector
    for p in 1..=4 {
        collector
            .deposit(&format!("MEMORY_poller{p}_201009250000.csv"), b"mem")
            .unwrap();
        collector
            .deposit(&format!("CPU_poller{p}_201009250000.csv"), b"cpu")
            .unwrap();
    }

    // pump each hop in turn
    clock.advance(TimeSpan::from_secs(2));
    let hop1 = pump(&net, &collector, &mut regional, clock.now()).unwrap();
    assert_eq!(hop1, 8, "regional subscribes to everything");

    clock.advance(TimeSpan::from_secs(2));
    let hop2 = pump(&net, &regional, &mut edge, clock.now()).unwrap();
    assert_eq!(hop2, 4, "edge subscribes to MEMORY only");

    clock.advance(TimeSpan::from_secs(2));
    let final_msgs = net.recv_ready("analyst", clock.now());
    assert_eq!(final_msgs.len(), 4);

    // end-to-end latency across three tiers is seconds, not minutes
    let worst = final_msgs.iter().map(|d| d.at.since(START)).max().unwrap();
    assert!(worst < TimeSpan::from_secs(60), "3-hop latency {worst}");

    // receipts are consistent at every tier
    assert_eq!(collector.receipts().live_count(), 8);
    assert_eq!(regional.receipts().live_count(), 8);
    assert_eq!(edge.receipts().live_count(), 4);
    assert_eq!(edge.stats().deliveries, 4);
}

#[test]
fn relay_survives_downstream_outage() {
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));

    let mut hub = server(
        "hub",
        r#"
        feed F { pattern "f_%i.csv"; }
        subscriber edge { endpoint "edge"; subscribe F; delivery push; }
        "#,
        clock.clone(),
        net.clone(),
    );
    let mut edge = server(
        "edge",
        r#"
        feed F { pattern "f_%i.csv"; }
        subscriber app { endpoint "app"; subscribe F; delivery push; }
        "#,
        clock.clone(),
        net.clone(),
    );

    // edge goes down (from the hub's perspective)
    hub.set_subscriber_online("edge", false).unwrap();
    for i in 0..5 {
        hub.deposit(&format!("f_{i}.csv"), b"x").unwrap();
    }
    clock.advance(TimeSpan::from_secs(5));
    assert_eq!(pump(&net, &hub, &mut edge, clock.now()).unwrap(), 0);

    // recovery: hub backfills, relay pumps everything through
    hub.set_subscriber_online("edge", true).unwrap();
    clock.advance(TimeSpan::from_secs(5));
    assert_eq!(pump(&net, &hub, &mut edge, clock.now()).unwrap(), 5);
    clock.advance(TimeSpan::from_secs(5));
    assert_eq!(net.recv_ready("app", clock.now()).len(), 5);
}

// ---------------------------------------------------------------------------
// Multi-server partitioned feeds with failover (the cluster layer).
//
// A seeded end-to-end scenario: feed groups partitioned across three
// servers, per-feed failover policy replicating every deposit to a
// standby, the home killed mid-trace, heartbeat silence promoting the
// standby, the subscriber re-homed and backfilled from the failed
// home's durable receipt store. Exactly-once is proven at the wire
// level (per-server `delivery.receipts` counters) and the whole run is
// bit-for-bit replayable from the seed.
// ---------------------------------------------------------------------------

use bistro::server::cluster::Cluster;
use bistro::simnet::{generate, partitioned_config, partitioned_fleet};

const FAILOVER_SEED: u64 = 0xB157_0007;

struct FailoverOutcome {
    /// Rendered `Cluster::status_json` — the determinism surface.
    digest: String,
    /// Wire deliveries to `wh` by the original home before the kill.
    delivered_before: u64,
    /// Wire deliveries to `wh` by the promoted standby.
    delivered_after: u64,
    /// Distinct ALPHA files in the trace.
    alpha_total: usize,
    /// Unique (file, subscriber) receipts for `wh` at the new home.
    marks_at_new_home: usize,
    /// Receipts backfill-marked (delivered pre-kill, not re-sent).
    backfill_marked: u64,
    /// Wire deliveries of BETA files to `cap` at its (undisturbed) home.
    beta_delivered: usize,
    failovers: u64,
    rehomed: u64,
}

fn unique_deliveries(server: &bistro::server::Server, sub: &str) -> usize {
    server
        .receipts()
        .deliveries_after(FileId(0))
        .iter()
        .filter(|m| m.subscriber == sub)
        .count()
}

fn run_failover(seed: u64) -> FailoverOutcome {
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 10_000_000,
        latency: TimeSpan::from_millis(5),
    }));

    // ALPHA and BETA groups, both under failover policy
    let cfg_src = partitioned_config(&[("ALPHA", "failover"), ("BETA", "failover")], 2);
    let fleet = partitioned_fleet(&["ALPHA", "BETA"], 2, 2, TimeSpan::from_mins(40), seed);
    let trace = generate(&fleet);
    assert!(!trace.is_empty());

    let mut cluster = Cluster::new(
        parse_config(&cfg_src).unwrap(),
        net.clone(),
        TimeSpan::from_secs(1),
        TimeSpan::from_secs(5),
    );
    for name in ["s1", "s2", "s3"] {
        cluster
            .add_server(server(name, &cfg_src, clock.clone(), net.clone()))
            .unwrap();
    }
    cluster.assign("ALPHA", "s1", &["s2"]).unwrap();
    cluster.assign("BETA", "s3", &["s2"]).unwrap();

    let wh = bistro::config::SubscriberDef {
        name: "wh".into(),
        endpoint: "wh:7070".into(),
        subscriptions: vec!["ALPHA".into()],
        delivery: bistro::config::DeliveryMode::Push,
        deadline: TimeSpan::from_secs(60),
        batch: bistro::config::BatchSpec::default(),
        trigger: None,
        dest: None,
    };
    let mut cap = wh.clone();
    cap.name = "cap".into();
    cap.endpoint = "cap:7070".into();
    cap.subscriptions = vec!["BETA".into()];
    cluster.register_subscriber(&wh).unwrap();
    cluster.register_subscriber(&cap).unwrap();

    // kill the ALPHA home when half the trace has landed
    let kill_at = trace[trace.len() / 2].deposit_time;
    let end = trace.last().unwrap().deposit_time + TimeSpan::from_secs(60);

    let mut i = 0;
    let mut killed = false;
    let mut delivered_before = 0;
    while clock.now() < end {
        clock.advance(TimeSpan::from_secs(1));
        let now = clock.now();
        if !killed && now >= kill_at {
            delivered_before = cluster
                .server("s1")
                .unwrap()
                .telemetry()
                .counter_value("delivery.receipts")
                .unwrap_or(0);
            cluster.kill("s1").unwrap();
            killed = true;
        }
        while i < trace.len() && trace[i].deposit_time <= now {
            cluster
                .route_deposit(&trace[i].name, trace[i].name.as_bytes(), now)
                .unwrap();
            i += 1;
        }
        cluster.tick(now).unwrap();
        cluster.pump(now).unwrap();
    }
    assert_eq!(i, trace.len(), "whole trace deposited");

    let alpha_total = trace
        .iter()
        .filter(|f| f.name.starts_with("ALPHA_"))
        .count();
    let beta_total = trace.iter().filter(|f| f.name.starts_with("BETA_")).count();
    let reg = cluster.telemetry().clone();
    let s2 = cluster.server("s2").unwrap();
    let outcome = FailoverOutcome {
        digest: cluster.status_json().render(),
        delivered_before,
        delivered_after: s2
            .telemetry()
            .counter_value("delivery.receipts")
            .unwrap_or(0),
        alpha_total,
        marks_at_new_home: unique_deliveries(s2, "wh"),
        backfill_marked: reg.counter_value("cluster.backfill_marked").unwrap_or(0),
        beta_delivered: unique_deliveries(cluster.server("s3").unwrap(), "cap"),
        failovers: reg.counter_value("cluster.failovers").unwrap_or(0),
        rehomed: reg
            .counter_value("cluster.rehomed_subscribers")
            .unwrap_or(0),
    };
    assert_eq!(outcome.beta_delivered, beta_total, "BETA home undisturbed");
    outcome
}

#[test]
fn seeded_failover_rehome_backfill_is_exactly_once() {
    // uncaptured CI runs echo this so a failure is replayable
    eprintln!("[distributed] failover scenario seed={FAILOVER_SEED:#x}");
    let o = run_failover(FAILOVER_SEED);

    assert_eq!(o.failovers, 1, "exactly one group failed over");
    assert_eq!(o.rehomed, 1, "wh re-homed once");
    assert!(o.delivered_before > 0, "home delivered before the kill");

    // exactly-once at the wire: what s1 delivered before the kill plus
    // what s2 delivered after re-homing covers every ALPHA file with no
    // overlap — the backfill marked (not re-sent) s1's deliveries
    assert_eq!(o.backfill_marked, o.delivered_before);
    assert_eq!(
        o.delivered_before + o.delivered_after,
        o.alpha_total as u64,
        "every ALPHA file delivered exactly once across the failover"
    );
    // and the receipt database at the new home closes the books
    assert_eq!(o.marks_at_new_home, o.alpha_total);
}

#[test]
fn failover_replays_bit_for_bit_from_the_seed() {
    let a = run_failover(FAILOVER_SEED);
    let b = run_failover(FAILOVER_SEED);
    assert_eq!(a.digest, b.digest, "same seed, same status --json");
    assert_eq!(a.delivered_before, b.delivered_before);
    assert_eq!(a.delivered_after, b.delivered_after);
}

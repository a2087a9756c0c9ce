//! Workspace-level integration: reliable delivery under seeded fault
//! injection (paper §4.2, DESIGN.md "Failure model").
//!
//! The scenarios combine message drops, duplicates, a hard outage
//! window, and a server crash-restart, and assert the exactly-once
//! invariant: every classified file reaches every subscriber exactly
//! once, the receipt store agrees with the subscribers' own delivered
//! sets, and the whole run replays bit-for-bit from its seed.
//!
//! On failure the replay seed is part of the panic message (and the
//! property test prints `BISTRO_PROP_SEED=...`).

use bistro::base::prop::Runner;
use bistro::base::prop_assert;
use bistro::base::{Clock, FileId, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::log::LogLevel;
use bistro::server::relay::Relay;
use bistro::server::Server;
use bistro::transport::{
    FaultPlan, FaultSpec, LinkFlap, LinkSpec, RetryPolicy, SimNetwork, SubscriberClient,
};
use bistro::vfs::MemFs;
use std::collections::BTreeSet;
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800);

const CONFIG: &str = r#"
    feed F { pattern "f_%i.csv"; }
    subscriber alpha { endpoint "alpha"; subscribe F; delivery push; }
    subscriber beta  { endpoint "beta";  subscribe F; delivery push; }
"#;

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout: TimeSpan::from_secs(5),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(60),
        max_attempts: 12,
        jitter: 0.2,
    }
}

/// Everything observable about one faulty run, rendered to a string so
/// two runs can be compared bit-for-bit.
fn run_scenario(seed: u64, files: usize, with_crash: bool) -> String {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 1_000_000,
        latency: TimeSpan::from_millis(10),
    }));
    // drops + duplicates on every link, plus a scheduled flap of the
    // server→alpha link early in the run
    net.install_fault_plan(FaultPlan {
        seed,
        default_faults: FaultSpec::lossy(0.25, 0.15),
        link_faults: Vec::new(),
        flaps: vec![LinkFlap {
            from: "b".to_string(),
            to: "alpha".to_string(),
            first_down: START + TimeSpan::from_secs(3),
            period: TimeSpan::from_secs(40),
            down_for: TimeSpan::from_secs(8),
            count: 2,
            jitter: TimeSpan::from_secs(2),
        }],
    });
    // and one hard outage window on the beta link
    net.add_outage(
        "b",
        "beta",
        START + TimeSpan::from_secs(10),
        START + TimeSpan::from_secs(20),
    );

    let config = parse_config(CONFIG).unwrap();
    let mut server = Some(
        Server::new("b", config.clone(), clock.clone(), store.clone())
            .unwrap()
            .with_network(net.clone())
            .with_reliable_delivery(retry_policy(), seed),
    );
    let mut alpha = SubscriberClient::new("alpha", "b");
    let mut beta = SubscriberClient::new("beta", "b");

    let total = (files * 2) as u64; // every file to both subscribers
    let mut crashed = false;
    for round in 0..600 {
        clock.advance(TimeSpan::from_secs(1));
        let now = clock.now();

        if round < files {
            server
                .as_mut()
                .unwrap()
                .deposit(&format!("f_{round}.csv"), b"payload-bytes")
                .unwrap();
        }

        // crash mid-flight: drop the server with unacked sends in the
        // tracker, reopen over the same store (receipts WAL replays),
        // and backfill everything the receipts still show as pending
        if with_crash && !crashed && round == 7 {
            crashed = true;
            drop(server.take());
            let mut fresh = Server::new("b", config.clone(), clock.clone(), store.clone())
                .unwrap()
                .with_network(net.clone())
                .with_reliable_delivery(retry_policy(), seed.wrapping_add(1));
            fresh.backfill_unacked().unwrap();
            server = Some(fresh);
        }

        alpha.poll_notifications(&net, now);
        beta.poll_notifications(&net, now);
        let srv = server.as_mut().unwrap();
        srv.poll_network().unwrap();
        srv.retry_tick().unwrap();

        if round > files && srv.receipts().delivery_count() == total {
            break;
        }
    }

    let srv = server.as_ref().unwrap();
    let delivered = |c: &SubscriberClient| -> Vec<u64> {
        let mut ids: Vec<u64> = c.delivered().iter().map(|(f, _, _)| f.raw()).collect();
        ids.sort_unstable();
        ids
    };
    format!(
        "delivered_alpha={:?} delivered_beta={:?} dups_alpha={} dups_beta={} \
         acks_alpha={} acks_beta={} receipts={} unacked={} counters={:?} \
         net_sent={} net_dropped={} net_duplicated={} warns={} alarms={} end={}",
        delivered(&alpha),
        delivered(&beta),
        alpha.duplicates_ignored(),
        beta.duplicates_ignored(),
        alpha.acks_sent(),
        beta.acks_sent(),
        srv.receipts().delivery_count(),
        srv.unacked_count(),
        srv.reliability_counters(),
        net.messages_sent(),
        net.messages_dropped(),
        net.messages_duplicated(),
        srv.event_log().count(LogLevel::Warn),
        srv.event_log().count(LogLevel::Alarm),
        clock.now(),
    )
}

/// Drive one simpler run and return what the invariant needs.
struct MiniOutcome {
    delivered_alpha: Vec<u64>,
    delivered_beta: Vec<u64>,
    receipts: u64,
    pending: usize,
}

fn run_mini(seed: u64, files: usize, drop_prob: f64, dup_prob: f64) -> MiniOutcome {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    net.install_fault_plan(FaultPlan::uniform(
        seed,
        FaultSpec::lossy(drop_prob, dup_prob),
    ));

    let mut server = Server::new("b", parse_config(CONFIG).unwrap(), clock.clone(), store)
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), seed);
    let mut alpha = SubscriberClient::new("alpha", "b");
    let mut beta = SubscriberClient::new("beta", "b");

    let total = (files * 2) as u64;
    for round in 0..900 {
        clock.advance(TimeSpan::from_secs(1));
        let now = clock.now();
        if round < files {
            server.deposit(&format!("f_{round}.csv"), b"data").unwrap();
        }
        alpha.poll_notifications(&net, now);
        beta.poll_notifications(&net, now);
        server.poll_network().unwrap();
        server.retry_tick().unwrap();
        if round > files && server.receipts().delivery_count() == total {
            break;
        }
    }

    let ids = |c: &SubscriberClient| -> Vec<u64> {
        let mut v: Vec<u64> = c.delivered().iter().map(|(f, _, _)| f.raw()).collect();
        v.sort_unstable();
        v
    };
    let feeds = vec!["F".to_string()];
    MiniOutcome {
        delivered_alpha: ids(&alpha),
        delivered_beta: ids(&beta),
        receipts: server.receipts().delivery_count(),
        pending: server.receipts().pending_for("alpha", &feeds).len()
            + server.receipts().pending_for("beta", &feeds).len(),
    }
}

/// A relay group of three members on one feed.
const ONE_FEED_TREE: &str = r#"
    feed F { pattern "f_%i.csv"; }
    subscriber m1 { endpoint "m1"; subscribe F; delivery push; }
    subscriber m2 { endpoint "m2"; subscribe F; delivery push; }
    subscriber m3 { endpoint "m3"; subscribe F; delivery push; }
    group EDGE { members m1, m2, m3; relay "edge"; }
"#;

/// A relay group whose members sit on two feeds: `m1` wants only the
/// `f_` files, `m2` only the `g_` files, `m3` both.
const TWO_FEED_TREE: &str = r#"
    feed F { pattern "f_%i.csv"; }
    feed G { pattern "g_%i.csv"; }
    subscriber m1 { endpoint "m1"; subscribe F; delivery push; }
    subscriber m2 { endpoint "m2"; subscribe G; delivery push; }
    subscriber m3 { endpoint "m3"; subscribe F, G; delivery push; }
    group EDGE { members m1, m2, m3; relay "edge"; }
"#;

/// A two-tier delivery tree under a lossy upstream→relay link: the hub
/// fans each of `files` out *once* per group to the relay server, both
/// tiers running `config`; the relay serves the members from its own
/// pipeline (reliable, clean links) and acks each send over the same
/// lossy link once every member that wants the file has it. Rendered to
/// a digest string — each member's files by name — for bit-for-bit
/// replay comparison.
fn run_relay_hop(seed: u64, config: &str, files: &[String]) -> String {
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 1_000_000,
        latency: TimeSpan::from_millis(10),
    }));
    // drops + duplicates on the hub↔relay hop only: group fanouts and
    // the relay's acks both have to survive the bad link
    net.install_fault_plan(FaultPlan {
        seed,
        default_faults: FaultSpec::default(),
        link_faults: vec![
            (
                "hub".to_string(),
                "edge".to_string(),
                FaultSpec::lossy(0.3, 0.2),
            ),
            (
                "edge".to_string(),
                "hub".to_string(),
                FaultSpec::lossy(0.3, 0.2),
            ),
        ],
        flaps: Vec::new(),
    });

    let mut hub = Server::new(
        "hub",
        parse_config(config).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone())
    .with_reliable_delivery(retry_policy(), seed);
    // the edge's name matches the group's relay endpoint, so it skips
    // the plan and serves the members directly (reliable hop)
    let mut edge = Server::new(
        "edge",
        parse_config(config).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone())
    .with_reliable_delivery(retry_policy(), seed.wrapping_add(7));
    let mut members: Vec<SubscriberClient> = ["m1", "m2", "m3"]
        .iter()
        .map(|m| SubscriberClient::new(m, "edge"))
        .collect();
    let mut relay = Relay::new();

    for round in 0..600 {
        clock.advance(TimeSpan::from_secs(1));
        let now = clock.now();
        if let Some(name) = files.get(round) {
            hub.deposit(name, b"tree-bytes").unwrap();
        }
        relay.pump(&net, &hub, &mut edge, now).unwrap();
        for m in &mut members {
            m.poll_notifications(&net, now);
        }
        edge.poll_network().unwrap();
        edge.retry_tick().unwrap();
        hub.poll_network().unwrap();
        hub.retry_tick().unwrap();

        if round > files.len() && hub.group_outstanding() == 0 && edge.unacked_count() == 0 {
            break;
        }
    }

    let delivered = |c: &SubscriberClient| -> Vec<String> {
        let name = |f: &FileId| {
            edge.receipts()
                .file(*f)
                .map_or_else(|| format!("#{f}"), |r| r.name)
        };
        let mut names: Vec<String> = c.delivered().iter().map(|(f, _, _)| name(f)).collect();
        names.sort_unstable();
        names
    };
    format!(
        "m1={:?} m2={:?} m3={:?} dups={:?} outstanding={} group_counters={:?} \
         exhausted={} edge_receipts={} edge_deliveries={} net_sent={} net_dropped={} \
         net_duplicated={} hub_warns={} hub_alarms={} end={}",
        delivered(&members[0]),
        delivered(&members[1]),
        delivered(&members[2]),
        members
            .iter()
            .map(|m| m.duplicates_ignored())
            .collect::<Vec<_>>(),
        hub.group_outstanding(),
        hub.group_counters(),
        hub.group_counters().2,
        edge.receipts().live_count(),
        edge.receipts().delivery_count(),
        net.messages_sent(),
        net.messages_dropped(),
        net.messages_duplicated(),
        hub.event_log().count(LogLevel::Warn),
        hub.event_log().count(LogLevel::Alarm),
        clock.now(),
    )
}

/// Run the lossy relay hop for `seed` twice and check what every tree
/// must show: each member got exactly the `files` named in `wants`
/// (by member), every send completed with none exhausted, the relay
/// ingested each file once, the plan dropped something, and the run
/// replayed bit-for-bit.
fn check_relay_hop(seed: u64, config: &str, files: &[String], wants: [&[String]; 3]) {
    let digest = run_relay_hop(seed, config, files);
    for (m, want) in ["m1", "m2", "m3"].into_iter().zip(wants) {
        assert!(
            digest.contains(&format!("{m}={want:?}")),
            "seed {seed:#x}: {m} missed, duplicated or got unwanted files: {digest}"
        );
    }
    for done in ["outstanding=0 ", "exhausted=0 "] {
        assert!(
            digest.contains(done),
            "seed {seed:#x}: group fanouts left open: {digest}"
        );
    }
    assert!(
        digest.contains(&format!("edge_receipts={} ", files.len())),
        "seed {seed:#x}: relay double-ingested: {digest}"
    );
    // the plan actually injected faults on the relay hop
    let dropped: u64 = digest
        .split("net_dropped=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(dropped > 0, "seed {seed:#x} injected no drops: {digest}");

    // bit-for-bit replay from the seed
    let again = run_relay_hop(seed, config, files);
    assert_eq!(digest, again, "seed {seed:#x} did not replay bit-for-bit");
}

#[test]
fn relay_hop_group_delivery_is_exactly_once_and_reproducible() {
    let files: Vec<String> = (0..8).map(|i| format!("f_{i}.csv")).collect();
    check_relay_hop(0xB157_000A, ONE_FEED_TREE, &files, [&files, &files, &files]);
}

#[test]
fn relay_hop_with_members_on_two_feeds_serves_each_what_it_wants() {
    // The relay decides which members want a file: it acks an `f_` file
    // without m2 and a `g_` file without m1, and neither gets the other's.
    let files: Vec<String> = (0..8)
        .map(|i| format!("{}_{i}.csv", if i % 2 == 0 { "f" } else { "g" }))
        .collect();
    let of = |prefix: &str| -> Vec<String> {
        let mut names: Vec<String> = files
            .iter()
            .filter(|f| f.starts_with(prefix))
            .cloned()
            .collect();
        names.sort_unstable();
        names
    };
    let (f, g, all) = (of("f_"), of("g_"), of(""));
    check_relay_hop(0xB157_000A, TWO_FEED_TREE, &files, [&f, &g, &all]);
}

#[test]
fn seeded_faulty_run_is_exactly_once_and_reproducible() {
    let seed = 0xB157_0001u64;
    let files = 12;
    let digest = run_scenario(seed, files, true);

    // exactly once to each subscriber: ids 1..=files, no gaps, no dups
    let want: Vec<u64> = (1..=files as u64).collect();
    assert!(
        digest.contains(&format!("delivered_alpha={want:?}")),
        "seed {seed:#x}: alpha missed or duplicated files: {digest}"
    );
    assert!(
        digest.contains(&format!("delivered_beta={want:?}")),
        "seed {seed:#x}: beta missed or duplicated files: {digest}"
    );
    assert!(
        digest.contains(&format!("receipts={} unacked=0", files * 2)),
        "seed {seed:#x}: receipts disagree or sends left unacked: {digest}"
    );
    // the plan actually injected faults
    let dropped: u64 = digest
        .split("net_dropped=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(dropped > 0, "seed {seed:#x} injected no drops: {digest}");

    // bit-for-bit replay from the seed, crash-restart and all
    let again = run_scenario(seed, files, true);
    assert_eq!(digest, again, "seed {seed:#x} did not replay bit-for-bit");
}

#[test]
fn crash_restart_backfills_unacked_sends() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    // every message vanishes: nothing can be acked before the crash
    net.install_fault_plan(FaultPlan::uniform(9, FaultSpec::lossy(1.0, 0.0)));

    let config = parse_config(CONFIG).unwrap();
    let mut server = Server::new("b", config.clone(), clock.clone(), store.clone())
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), 9);
    for i in 0..3 {
        server.deposit(&format!("f_{i}.csv"), b"x").unwrap();
    }
    assert_eq!(
        server.unacked_count(),
        6,
        "3 files x 2 subscribers in flight"
    );
    assert_eq!(
        server.receipts().delivery_count(),
        0,
        "receipts must not be written before the ack"
    );

    // crash with everything unacked; the network heals
    drop(server);
    net.install_fault_plan(FaultPlan::uniform(9, FaultSpec::default()));

    let mut server = Server::new("b", config, clock.clone(), store)
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), 10);
    assert_eq!(server.backfill_unacked().unwrap(), 6);

    let mut alpha = SubscriberClient::new("alpha", "b");
    let mut beta = SubscriberClient::new("beta", "b");
    clock.advance(TimeSpan::from_secs(2));
    alpha.poll_notifications(&net, clock.now());
    beta.poll_notifications(&net, clock.now());
    clock.advance(TimeSpan::from_secs(2));
    server.poll_network().unwrap();

    assert_eq!(server.receipts().delivery_count(), 6);
    assert_eq!(server.unacked_count(), 0);
    assert_eq!(alpha.delivered().len(), 3);
    assert_eq!(beta.delivered().len(), 3);
}

#[test]
fn exhausted_retries_raise_alarm_and_flag_subscriber_offline() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    net.install_fault_plan(FaultPlan {
        seed: 3,
        default_faults: FaultSpec::default(),
        link_faults: vec![(
            "b".to_string(),
            "alpha".to_string(),
            FaultSpec::lossy(1.0, 0.0),
        )],
        flaps: Vec::new(),
    });

    let policy = RetryPolicy {
        base_timeout: TimeSpan::from_secs(2),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(8),
        max_attempts: 3,
        jitter: 0.0,
    };
    let mut server = Server::new("b", parse_config(CONFIG).unwrap(), clock.clone(), store)
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(policy, 3);
    let mut beta = SubscriberClient::new("beta", "b");

    server.deposit("f_0.csv", b"x").unwrap();
    for _ in 0..30 {
        clock.advance(TimeSpan::from_secs(1));
        beta.poll_notifications(&net, clock.now());
        server.poll_network().unwrap();
        server.retry_tick().unwrap();
    }

    // beta's copy went through; alpha's was abandoned with an alarm
    assert_eq!(beta.delivered().len(), 1);
    let (_acks, retries, gave_up) = server.reliability_counters();
    assert!(retries >= 2, "expected retransmissions, got {retries}");
    assert_eq!(gave_up, 1);
    assert_eq!(server.unacked_count(), 0);
    assert!(
        server.event_log().count(LogLevel::Warn) >= 2,
        "each retry logs a warning"
    );
    let alarms = server.event_log().alarms();
    assert!(
        alarms.iter().any(|e| e.message.contains("abandoned")),
        "no abandonment alarm in {alarms:?}"
    );
    // the failed subscriber is flagged offline: no further sends to it
    assert_eq!(server.deliver_pending_for("alpha").unwrap(), 0);
}

#[test]
fn telemetry_alarm_rule_fires_under_dead_link() {
    // Same dead-link shape as above, but driving Server::tick so the
    // telemetry alarm sweep runs: exhausting the retry budget must raise
    // the edge-triggered `retry-exhaustion` rule into the event log
    // exactly once, on top of the delivery path's own abandonment alarm.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    net.install_fault_plan(FaultPlan {
        seed: 5,
        default_faults: FaultSpec::default(),
        link_faults: vec![(
            "b".to_string(),
            "alpha".to_string(),
            FaultSpec::lossy(1.0, 0.0),
        )],
        flaps: Vec::new(),
    });

    let policy = RetryPolicy {
        base_timeout: TimeSpan::from_secs(2),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(8),
        max_attempts: 3,
        jitter: 0.0,
    };
    let mut server = Server::new("b", parse_config(CONFIG).unwrap(), clock.clone(), store)
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(policy, 5);
    let mut beta = SubscriberClient::new("beta", "b");

    server.deposit("f_0.csv", b"x").unwrap();
    for _ in 0..30 {
        clock.advance(TimeSpan::from_secs(1));
        beta.poll_notifications(&net, clock.now());
        server.poll_network().unwrap();
        server.retry_tick().unwrap();
        server.tick();
    }

    assert!(
        server
            .telemetry()
            .counter_value("reliable.exhausted")
            .unwrap()
            >= 1
    );
    let telemetry_alarms: Vec<_> = server
        .event_log()
        .alarms()
        .into_iter()
        .filter(|e| e.component == "telemetry")
        .collect();
    assert_eq!(
        telemetry_alarms.len(),
        1,
        "edge-triggered rule must fire exactly once: {telemetry_alarms:?}"
    );
    assert!(
        telemetry_alarms[0].message.contains("retry-exhaustion"),
        "{telemetry_alarms:?}"
    );
    assert!(
        telemetry_alarms[0].message.contains("reliable.exhausted"),
        "detail should name the tripped metric: {telemetry_alarms:?}"
    );
}

#[test]
fn prop_random_fault_plans_preserve_exactly_once() {
    Runner::new("fault_plans_exactly_once").cases(10).run(
        |rng| {
            (
                rng.gen_range(0u64..1 << 48),
                rng.gen_range(1usize..=6), // files
                rng.gen_range(0u64..=40),  // drop % of 100
                rng.gen_range(0u64..=30),  // dup % of 100
            )
        },
        |&(seed, files, drop_pct, dup_pct)| {
            let o = run_mini(seed, files, drop_pct as f64 / 100.0, dup_pct as f64 / 100.0);
            let want: Vec<u64> = (1..=files as u64).collect();
            prop_assert!(
                o.delivered_alpha == want,
                "alpha got {:?}, want {:?}",
                o.delivered_alpha,
                want
            );
            prop_assert!(
                o.delivered_beta == want,
                "beta got {:?}, want {:?}",
                o.delivered_beta,
                want
            );
            prop_assert!(
                o.receipts == (files * 2) as u64,
                "receipts {} != {}",
                o.receipts,
                files * 2
            );
            prop_assert!(o.pending == 0, "{} files still pending", o.pending);
            Ok(())
        },
    );
}

#[test]
fn receipts_agree_with_subscriber_sets() {
    let seed = 0xFEED_5EEDu64;
    let o = run_mini(seed, 8, 0.3, 0.2);
    let alpha: BTreeSet<u64> = o.delivered_alpha.iter().copied().collect();
    let beta: BTreeSet<u64> = o.delivered_beta.iter().copied().collect();
    assert_eq!(alpha, beta, "both subscribers see the same file set");
    assert_eq!(o.receipts as usize, alpha.len() + beta.len());
    assert_eq!(o.pending, 0);
}

//! End-to-end Server tests: the full pipeline of Figure 2 on simulated
//! time.

use bistro_base::{Clock, SimClock, TimePoint, TimeSpan};
use bistro_config::parse_config;
use bistro_core::{LogLevel, Server};
use bistro_simnet::{generate, payload::payload_for, FleetConfig, SubfeedSpec};
use bistro_transport::messages::{GroupMsg, Message, SubscriberMsg};
use bistro_transport::{LinkSpec, SimNetwork};
use bistro_vfs::{FileStore, MemFs};
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800); // 2010-09-25

fn snmp_config() -> &'static str {
    r#"
    server {
        retention 7d;
        archive on;
    }
    feed SNMP/MEMORY {
        pattern "MEMORY_poller%i_%Y%m%d.gz";
        normalize "%Y/%m/%d/%f";
    }
    feed SNMP/CPU {
        pattern "CPU_poller%i_%Y%m%d%H%M.csv";
    }
    subscriber warehouse {
        endpoint "warehouse";
        subscribe SNMP;
        delivery push;
        deadline 60s;
        batch count 2 window 5m;
        trigger remote "load %N batch=%b n=%c";
    }
    subscriber viz {
        endpoint "viz";
        subscribe SNMP/CPU;
        delivery notify;
        deadline 5s;
    }
    "#
}

fn new_server(clock: Arc<SimClock>, store: Arc<MemFs>) -> Server {
    let cfg = parse_config(snmp_config()).unwrap();
    Server::new("bistro1", cfg, clock, store).unwrap()
}

#[test]
fn ingest_classify_stage_deliver() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store.clone());

    server
        .deposit("MEMORY_poller1_20100925.gz", b"mem-data")
        .unwrap();
    server
        .deposit("CPU_poller1_201009250000.csv", b"cpu-data")
        .unwrap();
    server.deposit("garbage.bin", b"???").unwrap();

    // staging layout honors the normalize template
    assert!(store.exists("staging/SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz"));
    assert!(store.exists("staging/SNMP/CPU/CPU_poller1_201009250000.csv"));
    // a notified deposit never touches landing/; unknown parked
    assert!(!store.exists("landing/MEMORY_poller1_20100925.gz"));
    assert!(store.exists("unknown/garbage.bin"));

    assert_eq!(server.stats().files_ingested, 2);
    assert_eq!(server.stats().files_unknown, 1);
    // warehouse got both files, viz only CPU
    assert_eq!(server.stats().deliveries, 3);
    assert_eq!(server.receipts().live_count(), 2);
}

#[test]
fn commit_window_batches_local_receipts_and_flushes_before_network_sends() {
    let appends = |server: &Server| {
        server
            .pool_telemetry()
            .counter_value("wal.physical_appends")
            .unwrap()
    };
    let cpu = |i: usize| (format!("CPU_poller{i}_201009250000.csv"), b"cpu".to_vec());

    // local deliveries: a single deposit commits its arrival and the set
    // of both delivery receipts (warehouse + viz) in one physical append,
    // and a batch keeps filling the window up to the group size
    let clock = SimClock::starting_at(START);
    let mut local = new_server(clock.clone(), MemFs::shared(clock.clone()));
    local
        .deposit("CPU_poller0_201009250000.csv", b"cpu")
        .unwrap();
    assert_eq!(appends(&local), 1);
    local.deposit_batch((1..4).map(cpu).collect()).unwrap();
    assert_eq!(appends(&local), 2, "six records, one append");
    local.set_commit_group(1);
    local
        .deposit("CPU_poller4_201009250000.csv", b"cpu")
        .unwrap();
    assert_eq!(appends(&local), 4, "group 1 is per-record: arrival, set");

    // over a network every arrival is durable before the first send
    // that names it: one flush per file, whatever the group size
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut remote = new_server(clock.clone(), MemFs::shared(clock.clone())).with_network(net);
    remote.deposit_batch((0..3).map(cpu).collect()).unwrap();
    // arrival | set + arrival | set + arrival | set
    assert_eq!(appends(&remote), 4);
    assert_eq!(remote.stats().deliveries, 6);
}

#[test]
fn batch_trigger_fires_on_count() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    server.deposit("MEMORY_poller1_20100925.gz", b"a").unwrap();
    assert!(server.trigger_log().is_empty(), "batch of 2 not reached");
    server.deposit("MEMORY_poller2_20100925.gz", b"b").unwrap();
    let entries = server.trigger_log().entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].subscriber, "warehouse");
    assert!(entries[0].command.starts_with("load SNMP/MEMORY batch="));
    assert!(entries[0].command.ends_with("n=2"));
    assert_eq!(entries[0].files.len(), 2);
}

#[test]
fn batch_window_fires_on_tick() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    server.deposit("MEMORY_poller1_20100925.gz", b"a").unwrap();
    clock.advance(TimeSpan::from_mins(6)); // past the 5m window
    server.tick();
    let entries = server.trigger_log().entries();
    assert_eq!(entries.len(), 1);
    assert!(entries[0].command.ends_with("n=1"));
}

#[test]
fn offline_subscriber_backfilled_on_recovery() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    server.set_subscriber_online("warehouse", false).unwrap();
    for d in 25..=27 {
        server
            .deposit(&format!("MEMORY_poller1_201009{d}.gz"), b"x")
            .unwrap();
    }
    // nothing delivered to warehouse while down
    let pending = server
        .receipts()
        .pending_for("warehouse", &["SNMP/MEMORY".to_string()]);
    assert_eq!(pending.len(), 3);
    assert_eq!(server.event_log().count(LogLevel::Alarm), 1);

    server.set_subscriber_online("warehouse", true).unwrap();
    let pending = server
        .receipts()
        .pending_for("warehouse", &["SNMP/MEMORY".to_string()]);
    assert!(pending.is_empty(), "backfill drained the queue");
}

#[test]
fn new_subscriber_receives_full_history() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    for d in 25..=27 {
        server
            .deposit(&format!("MEMORY_poller1_201009{d}.gz"), b"x")
            .unwrap();
    }
    let newsub = bistro_config::SubscriberDef {
        name: "latecomer".to_string(),
        endpoint: "latecomer".to_string(),
        subscriptions: vec!["SNMP/MEMORY".to_string()],
        delivery: bistro_config::DeliveryMode::Push,
        deadline: TimeSpan::from_mins(5),
        batch: bistro_config::BatchSpec::per_file(),
        trigger: None,
        dest: None,
    };
    let backfilled = server.add_subscriber(newsub).unwrap();
    assert_eq!(backfilled, 3);
}

#[test]
fn server_recovers_after_crash() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    {
        let mut server = new_server(clock.clone(), store.clone());
        server.set_subscriber_online("warehouse", false).unwrap();
        server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
        server.deposit("MEMORY_poller2_20100925.gz", b"y").unwrap();
    } // crash: drop without snapshot

    let mut server = new_server(clock.clone(), store.clone());
    assert_eq!(server.receipts().live_count(), 2, "receipts recovered");
    // warehouse still owed both files (delivery state also recovered)
    let n = server.deliver_pending_for("warehouse").unwrap();
    assert_eq!(n, 2);
}

#[test]
fn expiration_archives_and_removes() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store.clone());

    server
        .deposit("MEMORY_poller1_20100925.gz", b"old-data")
        .unwrap();
    let staged = "staging/SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz";
    assert!(store.exists(staged));

    clock.advance(TimeSpan::from_days(10)); // beyond 7d retention
    let n = server.expire().unwrap();
    assert_eq!(n, 1);
    assert!(!store.exists(staged), "staged payload expunged");
    assert_eq!(server.receipts().live_count(), 0);
    // archived copy exists
    let arch = server.archiver().unwrap();
    assert_eq!(
        arch.fetch("SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz")
            .unwrap(),
        b"old-data"
    );
    assert_eq!(arch.archived_files().unwrap().len(), 1);
}

#[test]
fn feed_redefinition_recovers_drifted_files() {
    // §5.2 closing the loop: files drift (Poller vs poller), the analyzer
    // flags them, the subscriber approves a revised definition, and the
    // server reclassifies the parked unknowns and delivers them.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store.clone());

    server.deposit("MEMORY_poller1_20100925.gz", b"ok").unwrap();
    server
        .deposit("MEMORY_Poller1_20100926.gz", b"drifted")
        .unwrap();
    assert_eq!(server.stats().files_unknown, 1);

    // analyzer flags the drift
    let warnings = server.fn_warnings();
    assert_eq!(warnings.len(), 1);
    assert_eq!(warnings[0].feed, "SNMP/MEMORY");

    // subscriber approves: add the suggested pattern to the feed
    let mut feed = server.config().feed("SNMP/MEMORY").unwrap().clone();
    feed.patterns.push(warnings[0].suggested_pattern.clone());
    server.redefine_feed(feed).unwrap();

    assert_eq!(server.receipts().live_count(), 2);
    assert!(!store.exists("unknown/MEMORY_Poller1_20100926.gz"));
    let pending = server
        .receipts()
        .pending_for("warehouse", &["SNMP/MEMORY".to_string()]);
    assert!(
        pending.is_empty(),
        "drifted file delivered after redefinition"
    );
}

#[test]
fn sub_minute_propagation_with_network() {
    // E3's core claim at unit scale: deposit → subscriber notification in
    // well under a minute through the simulated WAN.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 10_000_000, // 10 MB/s WAN
        latency: TimeSpan::from_millis(40),
    }));
    let mut server = new_server(clock.clone(), store).with_network(net.clone());

    server
        .deposit("CPU_poller1_201009250000.csv", &vec![0u8; 1_000_000])
        .unwrap();
    clock.advance(TimeSpan::from_secs(30));
    let msgs = net.recv_ready("viz", clock.now());
    assert_eq!(msgs.len(), 1);
    let latency = msgs[0].at.since(START);
    assert!(
        latency < TimeSpan::from_secs(60),
        "propagation took {latency}"
    );
    match &msgs[0].msg {
        Message::Subscriber(SubscriberMsg::FileAvailable { feed, .. }) => {
            assert_eq!(feed, "SNMP/CPU");
        }
        other => panic!("viz uses notify mode, got {other:?}"),
    }
}

#[test]
fn progress_monitoring_raises_alarms() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);
    server.monitor_feed("SNMP/CPU", TimeSpan::from_mins(5), 2);

    // interval 1: both pollers; interval 2: poller 2 missing
    server
        .deposit("CPU_poller1_201009250000.csv", b"a")
        .unwrap();
    server
        .deposit("CPU_poller2_201009250000.csv", b"b")
        .unwrap();
    server
        .deposit("CPU_poller1_201009250005.csv", b"c")
        .unwrap();
    clock.advance(TimeSpan::from_mins(12));
    server.tick();

    let alarms = server.event_log().alarms();
    assert!(
        alarms.iter().any(|a| a.message.contains("1/2 files")),
        "{alarms:#?}"
    );
}

#[test]
fn fleet_scale_ingest() {
    // a realistic hour of a small poller fleet end-to-end
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d%H%M.csv"; }
        feed SNMP/CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; }
        subscriber wh { endpoint "wh"; subscribe SNMP; delivery push; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), store).unwrap();

    let mut fleet = FleetConfig::standard(
        4,
        vec![
            SubfeedSpec::standard("MEMORY"),
            SubfeedSpec::standard("CPU"),
        ],
        TimeSpan::from_hours(1),
    );
    fleet.skip_prob = 0.1;
    let files = generate(&fleet);
    let total = files.len();
    for f in &files {
        clock.set(f.deposit_time);
        server.deposit(&f.name, &payload_for(f)).unwrap();
    }
    assert_eq!(server.stats().files_ingested as usize, total);
    assert_eq!(server.stats().files_unknown, 0);
    assert_eq!(server.stats().deliveries as usize, total);
    // deposit→delivery latency is zero in store-local mode
    let (_, _, max) = server.latency_summary("wh").unwrap();
    assert_eq!(max, TimeSpan::ZERO);
}

#[test]
fn latency_stats_use_bounded_histograms() {
    // Regression: DeliveryStats used to push one TimeSpan per delivery
    // into an unbounded per-subscriber Vec, so a long-lived server's
    // memory grew with delivery count. Latencies now feed fixed-size
    // histograms: the summary API still works, but no raw samples are
    // retained no matter how many deliveries happen.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    for d in 10..=30 {
        server
            .deposit(&format!("MEMORY_poller1_201009{d}.gz"), b"x")
            .unwrap();
    }
    assert_eq!(server.stats().deliveries, 21);
    let (mean, p95, max) = server.latency_summary("warehouse").unwrap();
    assert_eq!(mean, TimeSpan::ZERO); // store-local delivery is instant
    assert_eq!(p95, TimeSpan::ZERO);
    assert_eq!(max, TimeSpan::ZERO);
    assert!(server.latency_summary("nobody").is_none());
}

#[test]
fn group_fanout_survives_crash_restart() {
    // A delivery tree whose relay never answers: the fanout stays
    // outstanding, and after a crash-restart backfill re-fans the file
    // to the relay instead of forgetting the group ever existed.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let cfg_text = r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
        subscriber wh1 { endpoint "wh1"; subscribe SNMP/MEMORY; }
        subscriber wh2 { endpoint "wh2"; subscribe SNMP/MEMORY; }
        group EDGE { members wh1, wh2; relay "edge"; }
    "#;
    {
        let mut server = Server::new(
            "hub",
            parse_config(cfg_text).unwrap(),
            clock.clone(),
            store.clone(),
        )
        .unwrap()
        .with_network(net.clone());
        server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
        assert_eq!(server.group_outstanding(), 1);
        // grouped members never get direct sends
        clock.advance(TimeSpan::from_secs(1));
        assert!(net.recv_ready("wh1", clock.now()).is_empty());
        assert_eq!(net.recv_ready("edge", clock.now()).len(), 1);
    } // crash: drop without snapshot

    let mut server = Server::new(
        "hub",
        parse_config(cfg_text).unwrap(),
        clock.clone(),
        store.clone(),
    )
    .unwrap()
    .with_network(net.clone());
    assert_eq!(server.group_outstanding(), 0, "tracker state is volatile");
    let n = server.backfill_unacked().unwrap();
    assert_eq!(n, 1, "group fanout re-sent from durable receipts");
    assert_eq!(server.group_outstanding(), 1);
    clock.advance(TimeSpan::from_secs(1));
    assert_eq!(net.recv_ready("edge", clock.now()).len(), 1);
}

#[test]
fn group_delivery_without_network_is_loud() {
    // A hub with a relay group but no attached network: the members are
    // excluded from direct fan-out and the one group send has nowhere to
    // go. That used to drop the file for the whole group with no log
    // line and no counter — on deposit and again on backfill.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
        subscriber wh1 { endpoint "wh1"; subscribe SNMP/MEMORY; }
        subscriber wh2 { endpoint "wh2"; subscribe SNMP/MEMORY; }
        group EDGE { members wh1, wh2; relay "edge"; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("hub", cfg, clock.clone(), store).unwrap();
    let undeliverable = |s: &Server| s.telemetry().counter_value("group.undeliverable");
    assert_eq!(undeliverable(&server), Some(0));

    server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
    assert_eq!(server.stats().deliveries, 0, "nobody received the file");
    assert_eq!(server.group_outstanding(), 0);
    assert_eq!(undeliverable(&server), Some(1));
    assert_eq!(server.event_log().count(LogLevel::Warn), 1);
    let warned = server
        .event_log()
        .recent()
        .iter()
        .any(|e| e.message.contains("group EDGE") && e.message.contains("no network"));
    assert!(warned, "the drop must name the group and the cause");

    assert_eq!(server.backfill_unacked().unwrap(), 0);
    assert_eq!(undeliverable(&server), Some(2), "backfill drops it again");
}

#[test]
fn retry_fire_resends_outstanding_group_delivery() {
    // The forced retry sweep (the model checker's timer action) must
    // cover the group table too: one outstanding group delivery is
    // re-sent to the relay as attempt 2 without waiting out a deadline.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let cfg = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
        subscriber wh1 { endpoint "wh1"; subscribe SNMP/MEMORY; }
        subscriber wh2 { endpoint "wh2"; subscribe SNMP/MEMORY; }
        group EDGE { members wh1, wh2; relay "edge"; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("hub", cfg, clock.clone(), store)
        .unwrap()
        .with_network(net.clone());
    server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
    assert_eq!(server.group_outstanding(), 1);

    let group_attempts = |net: &SimNetwork, now| -> Vec<u32> {
        net.recv_ready("edge", now)
            .into_iter()
            .filter_map(|d| match d.msg {
                Message::Group(GroupMsg::Deliver { attempt, .. }) => Some(attempt),
                _ => None,
            })
            .collect()
    };
    clock.advance(TimeSpan::from_secs(1));
    assert_eq!(group_attempts(&net, clock.now()), vec![1]);

    server.retry_fire().unwrap();
    clock.advance(TimeSpan::from_secs(1));
    assert_eq!(group_attempts(&net, clock.now()), vec![2]);
    assert_eq!(server.group_counters(), (0, 1, 0), "one resend, no acks");
    assert_eq!(server.group_outstanding(), 1, "still awaiting coverage");

    // full coverage from the relay completes the delivery
    let file = server
        .receipts()
        .file_by_name("MEMORY_poller1_20100925.gz")
        .unwrap()
        .id;
    let ack = Message::Group(GroupMsg::Ack {
        group: "EDGE".to_string(),
        file,
        bits: vec![0b11],
        watermark: 2,
    });
    assert!(server
        .handle_network_message("edge", clock.now(), ack)
        .unwrap());
    assert_eq!(server.group_outstanding(), 0);
    assert_eq!(server.telemetry().counter_value("group.completed"), Some(1));
}

#[test]
fn composition_report_flags_leakage() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed CATCHALL { pattern "*_%Y%m%d.csv"; }
        subscriber s { endpoint "s"; subscribe CATCHALL; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), store).unwrap();
    for d in 1..=28 {
        server
            .deposit(&format!("BPS_{:04}{:02}{d:02}.csv", 2010, 9), b"x")
            .unwrap();
    }
    server.deposit("PPS_20100901.csv", b"x").unwrap();
    let report = server.feed_composition("CATCHALL");
    assert_eq!(report.total_files, 29);
    assert_eq!(report.outliers.len(), 1);
    assert!(report.outliers[0].pattern.text().starts_with("PPS"));
}

#[test]
fn discovery_report_from_unknowns() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);
    for d in 1..=9 {
        server
            .deposit(&format!("NEWFEED_host{}_2010090{d}.log", d % 3), b"x")
            .unwrap();
    }
    let report = server.discovery_report(5);
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].pattern.text(), "NEWFEED_host%i_%Y%m%d.log");
    assert_eq!(report[0].support, 9);
}

#[test]
fn persisted_config_survives_restart_with_runtime_changes() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    {
        let mut server = new_server(clock.clone(), store.clone());
        // runtime change 1: a new subscriber
        server
            .add_subscriber(bistro_config::SubscriberDef {
                name: "late".to_string(),
                endpoint: "late".to_string(),
                subscriptions: vec!["SNMP/MEMORY".to_string()],
                delivery: bistro_config::DeliveryMode::Push,
                deadline: TimeSpan::from_mins(2),
                batch: bistro_config::BatchSpec::per_file(),
                trigger: None,
                dest: None,
            })
            .unwrap();
        // runtime change 2: an approved feed redefinition
        let mut feed = server.config().feed("SNMP/MEMORY").unwrap().clone();
        feed.patterns
            .push(bistro_pattern::Pattern::parse("MEMORY_Poller%i_%Y%m%d.gz").unwrap());
        server.redefine_feed(feed).unwrap();
        server.persist_config().unwrap();
        server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
    }
    // restart purely from the store: config + receipts both recovered
    let mut server = Server::open_existing("bistro", clock.clone(), store.clone()).unwrap();
    assert!(server.config().subscriber("late").is_some());
    assert_eq!(
        server.config().feed("SNMP/MEMORY").unwrap().patterns.len(),
        2
    );
    // the redefined pattern is live: a drifted file classifies directly
    server.deposit("MEMORY_Poller2_20100926.gz", b"y").unwrap();
    assert_eq!(server.stats().files_unknown, 0);
    assert_eq!(server.receipts().live_count(), 2);
}

#[test]
fn group_suggestions_and_schemas_from_unknowns() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);
    // two structurally similar unknown subfeeds with CSV bodies
    for kind in ["BPS", "PPS"] {
        for d in 10..16 {
            server
                .deposit(
                    &format!("{kind}_px1_201009{d}.csv"),
                    b"1285372800,router_001,123\n1285372805,router_002,456\n",
                )
                .unwrap();
        }
    }
    let groups = server.group_suggestions(3);
    assert_eq!(groups.len(), 1, "{groups:#?}");
    assert_eq!(groups[0].members.len(), 2);
    let schema = server
        .unknown_file_schema("BPS_px1_20100910.csv")
        .unwrap()
        .expect("csv schema");
    assert_eq!(schema.to_string(), "csv(ts,text,int)");
}

#[test]
fn dest_template_fallback_is_loud() {
    // A feed whose pattern captures no timestamp, subscribed with a
    // dest template that demands one: every delivery renders the
    // template against captures that cannot satisfy it, so the file
    // falls back to the staged incoming/ layout. That fallback used to
    // be silent — the config drift was invisible until the subscriber's
    // downstream tooling missed its files. It must warn and count.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed EVENTS { pattern "EVENT_%i.log"; }
        subscriber sink {
            endpoint "sink";
            subscribe EVENTS;
            delivery push;
            deadline 60s;
            dest "%Y/%m/%f";
        }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), store).unwrap();
    server.deposit("EVENT_7.log", b"x").unwrap();

    assert_eq!(server.stats().deliveries, 1, "delivery itself still lands");
    assert_eq!(
        server.telemetry().counter_value("delivery.dest_fallback"),
        Some(1),
        "fallback must be counted"
    );
    assert_eq!(server.event_log().count(LogLevel::Warn), 1);
    let warned = server
        .event_log()
        .recent()
        .iter()
        .any(|e| e.message.contains("dest template") && e.message.contains("sink"));
    assert!(warned, "fallback must name the subscriber and the template");
}

#[test]
fn dest_template_success_does_not_count_fallback() {
    // control: a renderable dest template never touches the fallback
    // counter or the warn log
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
        subscriber wh {
            endpoint "wh";
            subscribe SNMP/MEMORY;
            delivery push;
            deadline 60s;
            dest "incoming/%Y/%m/%d/%f";
        }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), store).unwrap();
    server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
    assert_eq!(server.stats().deliveries, 1);
    assert_eq!(
        server.telemetry().counter_value("delivery.dest_fallback"),
        Some(0)
    );
    assert_eq!(server.event_log().count(LogLevel::Warn), 0);
}

#[test]
fn endpoint_ack_lookup_tracks_churn() {
    // the endpoint→subscriber map behind ack resolution must follow
    // registration, shared-endpoint ties (lexicographically-first, as
    // the scan it replaced resolved them), removal, and rename
    // (remove + re-add under a new name, keeping the endpoint)
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    assert_eq!(
        server.resolve_endpoint("warehouse").as_deref(),
        Some("warehouse")
    );
    assert_eq!(server.resolve_endpoint("nobody"), None);

    // a second subscriber sharing the endpoint wins the tie by name
    let aard = bistro_config::SubscriberDef {
        name: "aardvark".to_string(),
        endpoint: "warehouse".to_string(),
        subscriptions: vec!["SNMP/CPU".to_string()],
        delivery: bistro_config::DeliveryMode::Push,
        deadline: TimeSpan::from_mins(5),
        batch: bistro_config::BatchSpec::per_file(),
        trigger: None,
        dest: None,
    };
    server.add_subscriber(aard).unwrap();
    assert_eq!(
        server.resolve_endpoint("warehouse").as_deref(),
        Some("aardvark")
    );

    // removal restores the survivor; removing it empties the slot
    server.remove_subscriber("aardvark").unwrap();
    assert_eq!(
        server.resolve_endpoint("warehouse").as_deref(),
        Some("warehouse")
    );
    server.remove_subscriber("warehouse").unwrap();
    assert_eq!(server.resolve_endpoint("warehouse"), None);

    // rename: the old name re-registered under a new one, same endpoint
    let renamed = bistro_config::SubscriberDef {
        name: "warehouse-v2".to_string(),
        endpoint: "warehouse".to_string(),
        subscriptions: vec!["SNMP".to_string()],
        delivery: bistro_config::DeliveryMode::Push,
        deadline: TimeSpan::from_mins(5),
        batch: bistro_config::BatchSpec::per_file(),
        trigger: None,
        dest: None,
    };
    server.add_subscriber(renamed).unwrap();
    assert_eq!(
        server.resolve_endpoint("warehouse").as_deref(),
        Some("warehouse-v2")
    );

    // after all that churn the delivery match must still agree with the
    // brute-force scan, and deliveries must flow to the new name
    let feeds = vec!["SNMP/MEMORY".to_string()];
    assert_eq!(
        server.match_via_index(&feeds),
        server.match_via_scan(&feeds)
    );
    server.deposit("MEMORY_poller1_20100928.gz", b"x").unwrap();
    assert!(server
        .receipts()
        .pending_for("warehouse-v2", &feeds)
        .is_empty());
}

#[test]
fn add_subscriber_rejection_rolls_back_config() {
    // a rejected runtime registration (duplicate name) must not leave
    // the dangling def in the config — it used to, poisoning every
    // later validate() call on this server
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock.clone(), store);

    let dup = bistro_config::SubscriberDef {
        name: "warehouse".to_string(), // already configured
        endpoint: "elsewhere".to_string(),
        subscriptions: vec!["SNMP".to_string()],
        delivery: bistro_config::DeliveryMode::Push,
        deadline: TimeSpan::from_mins(5),
        batch: bistro_config::BatchSpec::per_file(),
        trigger: None,
        dest: None,
    };
    assert!(server.add_subscriber(dup).is_err());
    assert_eq!(server.config().subscribers.len(), 2, "rolled back");

    // the server still accepts a valid registration afterwards
    let ok = bistro_config::SubscriberDef {
        name: "fresh".to_string(),
        endpoint: "fresh".to_string(),
        subscriptions: vec!["SNMP".to_string()],
        delivery: bistro_config::DeliveryMode::Push,
        deadline: TimeSpan::from_mins(5),
        batch: bistro_config::BatchSpec::per_file(),
        trigger: None,
        dest: None,
    };
    server.add_subscriber(ok).unwrap();
    assert_eq!(server.resolve_endpoint("fresh").as_deref(), Some("fresh"));
}

#[test]
fn grouped_member_cannot_be_removed() {
    // a relay-group member's delivery rides the shared plan; removing
    // it individually would silently shrink the tree's coverage bitmap
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
        subscriber wh1 { endpoint "wh1"; subscribe SNMP/MEMORY; }
        subscriber wh2 { endpoint "wh2"; subscribe SNMP/MEMORY; }
        group EDGE { members wh1, wh2; relay "edge"; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("hub", cfg, clock.clone(), store).unwrap();
    let err = server.remove_subscriber("wh1").unwrap_err();
    assert!(matches!(
        err,
        bistro_core::ServerError::GroupedSubscriber(_)
    ));
    // still resolvable and still matched through the group plan
    assert_eq!(server.resolve_endpoint("wh1").as_deref(), Some("wh1"));
    let feeds = vec!["SNMP/MEMORY".to_string()];
    assert_eq!(
        server.match_via_index(&feeds),
        server.match_via_scan(&feeds)
    );
}

fn push_sub(name: &str, endpoint: &str, target: &str) -> bistro_config::SubscriberDef {
    bistro_config::SubscriberDef {
        name: name.to_string(),
        endpoint: endpoint.to_string(),
        subscriptions: vec![target.to_string()],
        delivery: bistro_config::DeliveryMode::Push,
        deadline: TimeSpan::from_mins(5),
        batch: bistro_config::BatchSpec::per_file(),
        trigger: None,
        dest: None,
    }
}

fn ack(server: &mut Server, endpoint: &str, file: u64, at: TimePoint) {
    let msg = Message::Reliable(bistro_transport::messages::ReliableMsg::Ack {
        file: bistro_base::FileId(file),
        attempt: 1,
    });
    assert!(server.handle_network_message(endpoint, at, msg).unwrap());
}

#[test]
fn state_digest_of_a_mixed_unacked_table_is_pinned() {
    // The digest walks the unacked table in (target, file) order and
    // names files by receipt lookups; the literal below was read off the
    // commit before subscriber names became shared handles and the table
    // was re-keyed target-then-file, on exactly this script: names that
    // share prefixes, acks out of order, a late duplicate ack, one
    // subscriber forgotten (offline) and one removed mid-flight.
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut server = new_server(clock.clone(), MemFs::shared(clock.clone()))
        .with_network(net)
        .with_reliable_delivery(bistro_transport::RetryPolicy::default(), 0xB157);
    for (name, endpoint) in [("b", "eb"), ("a", "ea"), ("ab", "eab"), ("a0", "ea0")] {
        server
            .add_subscriber(push_sub(name, endpoint, "SNMP/MEMORY"))
            .unwrap();
    }
    for day in 25..=28 {
        clock.advance(TimeSpan::from_secs(1));
        server
            .deposit(&format!("MEMORY_poller1_201009{day}.gz"), b"x")
            .unwrap();
    }
    assert_eq!(server.unacked_count(), 4 * 5, "4 files x (4 + warehouse)");
    let now = clock.now();
    ack(&mut server, "ea", 3, now);
    ack(&mut server, "eab", 1, now);
    ack(&mut server, "ea", 1, now);
    ack(&mut server, "ea", 1, now); // late duplicate: a no-op
    ack(&mut server, "warehouse", 2, now);
    server.set_subscriber_online("ab", false).unwrap();
    server.remove_subscriber("a0").unwrap();
    server.retry_fire().unwrap();
    assert_eq!(server.unacked_count(), 2 + 4 + 3);
    assert_eq!(server.receipts().delivery_count(), 4);
    assert_eq!(server.state_digest(), 15_476_652_756_863_274_317);
}

#[test]
fn subscriber_churn_leaves_no_per_subscriber_state() {
    // Regression: `remove_subscriber` cleared the index, the tracker and
    // the batchers but left the subscriber's latency histogram behind,
    // so `latency_summary` kept answering for a removed subscriber and
    // the table grew by one entry per name ever registered. Everything
    // per-subscriber now lives in the subscriber's own state: 1 000
    // register → deliver → deregister cycles must leave every table at
    // its starting size.
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut server = new_server(clock.clone(), MemFs::shared(clock.clone()))
        .with_network(net)
        .with_reliable_delivery(bistro_transport::RetryPolicy::default(), 7);
    server
        .deposit("MEMORY_poller1_20100925.gz", b"history")
        .unwrap();
    ack(&mut server, "warehouse", 1, clock.now());
    let subscribers = |s: &Server| match s.status_json() {
        bistro_telemetry::Json::Obj(fields) => fields
            .into_iter()
            .find_map(|(k, v)| match (k.as_str(), v) {
                ("subscribers", bistro_telemetry::Json::Arr(subs)) => Some(subs.len()),
                _ => None,
            })
            .unwrap(),
        other => panic!("status_json is an object, got {other:?}"),
    };
    let start = (
        subscribers(&server),
        server.index_entry_counts(),
        server.unacked_count(),
        server.config().subscribers.len(),
    );

    for cycle in 0..1_000u64 {
        let (name, endpoint) = (format!("churn{cycle}"), format!("e{cycle}"));
        // registration backfills the history: one unacked send
        assert_eq!(
            server
                .add_subscriber(push_sub(&name, &endpoint, "SNMP/MEMORY"))
                .unwrap(),
            1
        );
        if cycle % 2 == 0 {
            // half of them are acked (histogram + batcher come to life),
            // half are removed with the send still in flight
            ack(&mut server, &endpoint, 1, clock.now());
            assert!(server.latency_summary(&name).is_some());
        }
        server.remove_subscriber(&name).unwrap();
        assert!(
            server.latency_summary(&name).is_none(),
            "{name} was removed; nothing may answer for it"
        );
    }
    let end = (
        subscribers(&server),
        server.index_entry_counts(),
        server.unacked_count(),
        server.config().subscribers.len(),
    );
    assert_eq!(end, start);
    // a late ack from a removed subscriber's endpoint resolves to nobody
    let late = Message::Reliable(bistro_transport::messages::ReliableMsg::Ack {
        file: bistro_base::FileId(1),
        attempt: 1,
    });
    assert!(!server
        .handle_network_message("e1", clock.now(), late)
        .unwrap());
}

#[test]
fn redefine_feed_rejection_rolls_back_config() {
    // a rejected redefinition used to stay installed in the config, so
    // every later validate() — add_subscriber, redefine_feed,
    // persist_config's reload — failed or persisted the invalid def
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
        feed SNMP/CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; }
        group POLLERS { members SNMP/MEMORY, SNMP/CPU; }
        subscriber warehouse { endpoint "warehouse"; subscribe POLLERS; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("bistro1", cfg, clock.clone(), store).unwrap();
    let before = format!("{:?}", server.config());

    // an existing feed redefined to nothing: the old def comes back
    let mut hollow = server.config().feed("SNMP/MEMORY").unwrap().clone();
    hollow.patterns.clear();
    assert!(matches!(
        server.redefine_feed(hollow),
        Err(bistro_core::ServerError::Config(
            bistro_config::ConfigError::NoPatterns(_)
        ))
    ));
    assert_eq!(format!("{:?}", server.config()), before);

    // a new feed named like an existing group: the push is popped
    let mut clash = server.config().feed("SNMP/CPU").unwrap().clone();
    clash.name = "POLLERS".to_string();
    assert!(matches!(
        server.redefine_feed(clash),
        Err(bistro_core::ServerError::Config(
            bistro_config::ConfigError::DuplicateName(_)
        ))
    ));
    assert_eq!(format!("{:?}", server.config()), before);

    // the classifier still answers as before, and the server still
    // accepts valid runtime changes
    server.deposit("MEMORY_poller1_20100925.gz", b"m").unwrap();
    assert_eq!(server.stats().files_unknown, 0);
    assert_eq!(
        server.receipts().all_live()[0].feeds,
        vec!["SNMP/MEMORY".to_string()]
    );
    assert_eq!(
        server
            .add_subscriber(push_sub("fresh", "fresh", "SNMP/MEMORY"))
            .unwrap(),
        1
    );
}

/// `pool.worker{i}.files` summed over every worker but the caller's own
/// (`worker0`): files that were prepared on a spawned thread.
fn files_off_thread(server: &Server) -> u64 {
    server
        .pool_telemetry()
        .counters_sorted()
        .iter()
        .filter(|(name, _)| {
            name.starts_with("pool.worker")
                && name.ends_with(".files")
                && name != "pool.worker0.files"
        })
        .map(|(_, files)| files)
        .sum()
}

#[test]
fn prepare_fans_out_only_when_a_feed_compresses() {
    // the inline-vs-pool rule: `with_workers` is a ceiling the server
    // reaches for only when some feed expands or compresses its files
    let batch = |round: u64| -> Vec<(String, Vec<u8>)> {
        (0..64u64)
            .map(|k| {
                (
                    format!("CPU_poller{}_20100925{:02}{:02}.csv", k % 7, round, k % 60),
                    format!("cpu,{k},").repeat(30).into_bytes(),
                )
            })
            .collect()
    };
    let server_for = |config: &str| {
        let clock = SimClock::starting_at(START);
        let store = MemFs::shared(clock.clone());
        Server::new("b", parse_config(config).unwrap(), clock, store)
            .unwrap()
            .with_workers(8)
    };
    let worker0 = |s: &Server| {
        s.pool_telemetry()
            .counter_value("pool.worker0.files")
            .unwrap()
    };

    // keep-only: a 64-file batch at eight workers never leaves the
    // caller's thread
    let mut keep = server_for(
        r#"
        feed CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; }
        feed MEM { pattern "MEM_poller%i_%Y%m%d%H%M.csv"; }
        subscriber wh { endpoint "wh"; subscribe CPU; }
        "#,
    );
    keep.deposit_batch(batch(0)).unwrap();
    assert_eq!((worker0(&keep), files_off_thread(&keep)), (64, 0));

    // the decision follows the config: MEM starts compressing — the same
    // names, still all CPU files, now spread eight per worker
    let mut mem = keep.config().feed("MEM").unwrap().clone();
    mem.compress = bistro_config::CompressOpt::To(bistro_compress::Codec::Lzss);
    keep.redefine_feed(mem.clone()).unwrap();
    keep.deposit_batch(batch(1)).unwrap();
    assert_eq!((worker0(&keep), files_off_thread(&keep)), (64 + 8, 56));
    // a batch of one has nothing to spread
    keep.deposit("CPU_poller1_201009250200.csv", b"one")
        .unwrap();
    assert_eq!((worker0(&keep), files_off_thread(&keep)), (64 + 8 + 1, 56));
    // … and back to keep: inline again
    mem.compress = bistro_config::CompressOpt::Keep;
    keep.redefine_feed(mem).unwrap();
    keep.deposit_batch(batch(3)).unwrap();
    assert_eq!(
        (worker0(&keep), files_off_thread(&keep)),
        (64 + 8 + 1 + 64, 56)
    );

    // a config that compresses from the start pools from the start
    let mut lzss = server_for(
        r#"
        feed CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; compress lzss; }
        subscriber wh { endpoint "wh"; subscribe CPU; }
        "#,
    );
    lzss.deposit_batch(batch(0)).unwrap();
    assert_eq!((worker0(&lzss), files_off_thread(&lzss)), (8, 56));
}

#[test]
fn punctuation_closes_only_the_named_feeds_batches() {
    // §4.1: a cooperative source marks end-of-batch for one feed
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let cfg = parse_config(
        r#"
        feed A { pattern "A_%i.csv"; }
        feed B { pattern "B_%i.csv"; }
        subscriber west {
            endpoint "west"; subscribe A, B; delivery push;
            batch count 2 window 10m;
            trigger remote "go %N f=[%f] b=%b n=%c";
        }
        subscriber east {
            endpoint "east"; subscribe A, B; delivery push;
            batch count 2 window 10m;
            trigger remote "go %N f=[%f] b=%b n=%c";
        }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), store).unwrap();
    let fired = |s: &Server| -> Vec<(String, String)> {
        s.trigger_log()
            .entries()
            .into_iter()
            .map(|e| (e.subscriber, e.command))
            .collect()
    };
    let own = |sub: &str, cmd: &str| (sub.to_string(), cmd.to_string());

    // two B files close B's batches by count (ids 1 and 2, naming the
    // file that filled them); then one open file each in A and B
    server.deposit("B_1.csv", b"b1").unwrap();
    server.deposit("B_2.csv", b"b2").unwrap();
    server.deposit("A_1.csv", b"a1").unwrap();
    server.deposit("B_3.csv", b"b3").unwrap();
    let by_count = vec![
        own("east", "go B f=[incoming/B/B_2.csv] b=1 n=2"),
        own("west", "go B f=[incoming/B/B_2.csv] b=2 n=2"),
    ];
    assert_eq!(fired(&server), by_count);

    // punctuating A closes A's open batch per subscriber, in (feed,
    // subscriber) order, once each, naming no file, on the next ids
    clock.advance(TimeSpan::from_secs(30));
    server.punctuate_feed("A");
    let mut expected = by_count;
    expected.push(own("east", "go A f=[] b=3 n=1"));
    expected.push(own("west", "go A f=[] b=4 n=1"));
    assert_eq!(fired(&server), expected);
    let punctuated = &server.trigger_log().entries()[2..];
    assert!(punctuated.iter().all(|e| e.at == clock.now()));
    assert!(punctuated
        .iter()
        .all(|e| e.files == vec![bistro_base::FileId(3)]));

    // nothing left open in A; an unknown feed is a no-op
    server.punctuate_feed("A");
    server.punctuate_feed("NOPE");
    assert_eq!(fired(&server), expected);

    // B's batches stayed open: the window closes them later
    clock.advance(TimeSpan::from_mins(11));
    server.tick();
    expected.push(own("east", "go B f=[] b=5 n=1"));
    expected.push(own("west", "go B f=[] b=6 n=1"));
    assert_eq!(fired(&server), expected);
}

#[test]
fn a_drain_of_acks_equals_the_same_messages_one_at_a_time() {
    // `poll_network` writes the receipts of a whole drain as one append
    // and runs the deliveries' tails afterwards; nothing but the WAL may
    // tell that from handling the messages singly. The drain here mixes
    // subscriber acks (one of them a repeat) with group coverage reports,
    // which write records and log lines of their own in between.
    let cfg = r#"
        feed F { pattern "f_%i.csv"; }
        subscriber a { endpoint "ea"; subscribe F; trigger remote "load %N"; }
        subscriber b { endpoint "eb"; subscribe F; trigger remote "load %N"; }
        subscriber c { endpoint "ec"; subscribe F; batch count 2; trigger remote "load %N n=%c"; }
        subscriber m1 { endpoint "m1"; subscribe F; }
        subscriber m2 { endpoint "m2"; subscribe F; }
        group EDGE { members m1, m2; relay "edge"; }
    "#;
    let run = |one_at_a_time: bool| {
        let clock = SimClock::starting_at(START);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let mut server = Server::new(
            "hub",
            parse_config(cfg).unwrap(),
            clock.clone(),
            MemFs::shared(clock.clone()),
        )
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(bistro_transport::RetryPolicy::default(), 7);
        server.deposit("f_1.csv", b"one").unwrap();
        server.deposit("f_2.csv", b"two").unwrap();
        let sub_ack = |file| {
            Message::Reliable(bistro_transport::messages::ReliableMsg::Ack {
                file: bistro_base::FileId(file),
                attempt: 1,
            })
        };
        let group_ack = |file, bits, watermark| {
            Message::Group(GroupMsg::Ack {
                group: "EDGE".to_string(),
                file: bistro_base::FileId(file),
                bits,
                watermark,
            })
        };
        for (from, msg) in [
            ("ea", sub_ack(1)),
            ("eb", sub_ack(1)),
            ("edge", group_ack(1, vec![0b11], 2)),
            ("ec", sub_ack(1)),
            ("ea", sub_ack(2)),
            ("ea", sub_ack(1)), // a repeat inside the drain
            ("edge", group_ack(2, vec![0b01], 1)),
            ("ec", sub_ack(2)),
            ("eb", sub_ack(2)),
        ] {
            // a millisecond apart: the inbox holds them in this order
            net.send(clock.advance(TimeSpan::from_millis(1)), from, "hub", msg);
        }
        clock.advance(TimeSpan::from_secs(1));
        if one_at_a_time {
            let inbox = net.recv_ready("hub", clock.now());
            assert_eq!(inbox.len(), 9);
            for d in inbox {
                assert!(server.handle_network_message(&d.from, d.at, d.msg).unwrap());
            }
        } else {
            assert_eq!(server.poll_network().unwrap(), 9);
        }
        assert_eq!(server.unacked_count(), 0);
        let events: Vec<String> = (server.event_log().recent().iter())
            .map(|e| format!("{:?} {:?} {} {}", e.at, e.level, e.component, e.message))
            .collect();
        let counters: Vec<(String, u64)> = (server.telemetry().counters_sorted().into_iter())
            .filter(|(name, _)| !name.starts_with("wal.") && !name.starts_with("vfs."))
            .collect();
        let appends = server.telemetry().counter_value("wal.appends").unwrap();
        (
            (server.trigger_log().entries(), events, counters),
            (server.state_digest(), server.receipts().deliveries_since(0)),
            appends,
        )
    };
    let (drained, drained_state, drain_appends) = run(false);
    let (single, single_state, single_appends) = run(true);
    assert_eq!(drained, single);
    // the receipts are the same receipts; only their records differ
    assert_eq!(drained_state.0, single_state.0);
    let pairs = |marks: &[bistro_receipts::DeliveryMark]| -> Vec<(String, String)> {
        let mut pairs: Vec<_> = (marks.iter())
            .map(|m| (m.file_name.clone(), m.subscriber.clone()))
            .collect();
        pairs.sort();
        pairs
    };
    assert_eq!(pairs(&drained_state.1), pairs(&single_state.1));
    assert_eq!(pairs(&drained_state.1).len(), 6);
    // triggers fired in ack order: a, b, then c's batch of two when its
    // second file is acked, then b
    let fired: Vec<&str> = drained.0.iter().map(|t| t.subscriber.as_str()).collect();
    assert_eq!(fired, ["a", "b", "a", "c", "b"]);
    assert!(drained
        .1
        .iter()
        .any(|e| e.contains("group EDGE delivery of file 1 complete")));
    // two arrivals, two group marks, three names; then a set per file per
    // stretch of acks between coverage reports (4) against one per ack (6)
    assert_eq!((drain_appends, single_appends), (11, 13));
}

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
    // and a batch is one window however many records it logs: no record
    // count cuts it, so 40 files are 80 records and one append
    let clock = SimClock::starting_at(START);
    let mut local = new_server(clock.clone(), MemFs::shared(clock.clone()));
    local
        .deposit("CPU_poller0_201009250000.csv", b"cpu")
        .unwrap();
    assert_eq!(appends(&local), 1);
    local.deposit_batch((1..41).map(cpu).collect()).unwrap();
    assert_eq!(appends(&local), 2, "eighty records, one append");
    let sizes = local.pool_telemetry().histogram("wal.group_size");
    assert_eq!((sizes.count(), sizes.max()), (2, Some(80)));

    // over a network every arrival is durable before the first send
    // that names it: one flush per file
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
    let warnings = server.fn_warnings().unwrap();
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

/// A server over `snmp_config` holding six drifted `MEMORY_Poller…`
/// files and one drifted `CPU_Poller…` file in `unknown/`, after
/// SNMP/MEMORY was redefined with the analyzer's suggested pattern: the
/// six go back through ingest, the CPU file stays parked.
fn redefined_after_drift() -> (Server, Arc<MemFs>) {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = new_server(clock, store.clone());
    for d in 1..=6 {
        let name = format!("MEMORY_Poller{d}_2010092{d}.gz");
        server.deposit(&name, b"drifted").unwrap();
    }
    server
        .deposit("CPU_Poller1_201009250505.csv", b"drifted")
        .unwrap();
    let report = server.discovery_report(5).unwrap();
    assert!(report
        .iter()
        .any(|f| f.pattern.text() == "MEMORY_Poller%i_%Y%m%d.gz"));
    let warnings = server.fn_warnings().unwrap();
    let memory = warnings.iter().find(|w| w.feed == "SNMP/MEMORY").unwrap();
    let mut feed = server.config().feed("SNMP/MEMORY").unwrap().clone();
    feed.patterns.push(memory.suggested_pattern.clone());
    server.redefine_feed(feed).unwrap();
    assert_eq!(server.receipts().live_count(), 6);
    assert!(store.exists("unknown/CPU_Poller1_201009250505.csv"));
    (server, store)
}

#[test]
fn redefine_feed_keeps_fn_warnings_for_files_still_parked() {
    let (server, _store) = redefined_after_drift();
    let warnings = server.fn_warnings().unwrap();
    let feeds: Vec<&str> = warnings.iter().map(|w| w.feed.as_str()).collect();
    assert_eq!(feeds, ["SNMP/CPU"], "{warnings:#?}");
    assert_eq!(warnings[0].examples, ["CPU_Poller1_201009250505.csv"]);
}

#[test]
fn redefine_feed_drops_discoveries_of_files_that_left_unknown() {
    let (server, _store) = redefined_after_drift();
    let report = server.discovery_report(5).unwrap();
    assert!(report.is_empty(), "{report:#?}");
}

/// The analyzer's answers are a function of what `unknown/` holds: a
/// live server that parked names out of path order answers exactly as
/// one reopened over the same store, examples in path order.
#[test]
fn live_and_reopened_servers_agree_on_discovery_warnings_and_group_suggestions() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut names: Vec<String> = (1..=9)
        .map(|d| format!("NEWFEED_host{}_2010090{d}.log", d % 3))
        .chain((1..=6).map(|d| format!("MEMORY_Poller{d}_2010092{d}.gz")))
        .collect();
    names.sort();
    let answers = |server: &Server| {
        format!(
            "{:?}\n{:?}\n{:?}",
            server.discovery_report(1).unwrap(),
            server.fn_warnings().unwrap(),
            server.group_suggestions(1).unwrap()
        )
    };
    let live = {
        let mut server = new_server(clock.clone(), store.clone());
        for name in names.iter().rev() {
            server.deposit(name, b"x").unwrap();
        }
        assert_eq!(server.stats().files_unknown, 15);
        answers(&server)
    };
    let reopened = new_server(clock, store);
    assert_eq!(live, answers(&reopened));
    // the names arrived in reverse path order
    for feed in reopened.discovery_report(1).unwrap() {
        assert!(feed.examples.len() > 1, "{feed:?}");
        assert!(feed.examples.windows(2).all(|w| w[0] < w[1]), "{feed:?}");
    }
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

    // the group is still owed the file, and backfill drops it again
    assert_eq!(server.backfill_unacked().unwrap(), 1);
    assert_eq!(undeliverable(&server), Some(2));
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
    assert_eq!(
        server.group_outstanding(),
        1,
        "still awaiting the relay's ack"
    );

    // the relay's completion ack completes the delivery
    let file = server
        .receipts()
        .file_by_name("MEMORY_poller1_20100925.gz")
        .unwrap()
        .id;
    let ack = Message::Group(GroupMsg::Ack {
        group: "EDGE".to_string(),
        file,
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
    let report = server.discovery_report(5).unwrap();
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
    let groups = server.group_suggestions(3).unwrap();
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
    // (re-read once since, off the same commit with only the constant
    // `consecutive_failures` column of the `sub` lines removed)
    assert_eq!(server.state_digest(), 1_285_703_194_497_739_797);
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
    // subscriber acks (one of them a repeat) with relay completion acks:
    // the first of a file is the group's receipt, a repeat writes nothing.
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
        let group_ack = |file| {
            Message::Group(GroupMsg::Ack {
                group: "EDGE".to_string(),
                file: bistro_base::FileId(file),
            })
        };
        for (from, msg) in [
            ("ea", sub_ack(1)),
            ("eb", sub_ack(1)),
            ("edge", group_ack(1)),
            ("ec", sub_ack(1)),
            ("ea", sub_ack(2)),
            ("ea", sub_ack(1)),     // a repeat inside the drain
            ("edge", group_ack(1)), // a repeat: the send is complete
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
            let taken = (inbox.into_iter())
                .filter(|d| (server.handle_network_message(&d.from, d.at, d.msg.clone())).unwrap())
                .count();
            assert_eq!(taken, 8);
        } else {
            assert_eq!(server.poll_network().unwrap(), 8);
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
            (
                server.state_digest(),
                server.receipts().deliveries_after(bistro_base::FileId(0)),
            ),
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
    // a, b, c and EDGE have file 1; a, b and c file 2
    assert_eq!(pairs(&drained_state.1).len(), 7);
    // triggers fired in ack order: a, b, then c's batch of two when its
    // second file is acked, then b
    let fired: Vec<&str> = drained.0.iter().map(|t| t.subscriber.as_str()).collect();
    assert_eq!(fired, ["a", "b", "a", "c", "b"]);
    assert!(drained
        .1
        .iter()
        .any(|e| e.contains("group EDGE delivery of file 1 complete")));
    // two arrivals and four names (EDGE, a, b, c) either way; then a set
    // per file of the drain (2) against one per receipt (7)
    assert_eq!((drain_appends, single_appends), (8, 13));
}

// -- direct sends: one unacked entry per file send --------------------------

/// A reliable server over `subscribers` (`name endpoint` pairs, all on
/// feed F) with a jitter-free policy: three attempts, 10 s apart.
fn direct_server(clock: &Arc<SimClock>, subscribers: &[(&str, &str)]) -> Server {
    let mut cfg = String::from("feed F { pattern \"f_%i.csv\"; }\n");
    for (name, endpoint) in subscribers {
        cfg.push_str(&format!(
            "subscriber {name} {{ endpoint \"{endpoint}\"; subscribe F; trigger remote \"load %N\"; }}\n"
        ));
    }
    let policy = bistro_transport::RetryPolicy {
        base_timeout: TimeSpan::from_secs(10),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(60),
        max_attempts: 3,
        jitter: 0.0,
    };
    Server::new(
        "hub",
        parse_config(&cfg).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(Arc::new(SimNetwork::new(LinkSpec::default())))
    .with_reliable_delivery(policy, 5)
}

/// The event log's messages at `level` from `since` on, oldest first.
fn logged(server: &Server, level: LogLevel, since: usize) -> Vec<String> {
    (server.event_log().recent().into_iter().skip(since))
        .filter(|e| e.level == level)
        .map(|e| e.message)
        .collect()
}

#[test]
fn a_backfill_send_is_a_cohort_of_its_own() {
    // c is offline when f_1 fans out, so the fan-out's cohort owes a and
    // b; by the time c recovers that cohort is on attempt 2. c's backfill
    // must start at attempt 1 — folded into the fan-out's entry it would
    // inherit attempt 2, and be abandoned a round early.
    let clock = SimClock::starting_at(START);
    let mut server = direct_server(&clock, &[("a", "ea"), ("b", "eb"), ("c", "ec")]);
    server.set_subscriber_online("c", false).unwrap();
    server.deposit("f_1.csv", b"one").unwrap();
    assert_eq!(server.unacked_count(), 2);
    server.retry_fire().unwrap(); // a and b: attempt 2
    server.set_subscriber_online("c", true).unwrap(); // c: attempt 1
    assert_eq!(server.unacked_count(), 3);

    let mark = server.event_log().recent().len();
    server.retry_fire().unwrap();
    assert_eq!(
        logged(&server, LogLevel::Warn, mark),
        [
            "retrying file 1 to a (attempt 3)",
            "retrying file 1 to b (attempt 3)",
            "retrying file 1 to c (attempt 2)",
        ]
    );
    // the fan-out's budget is spent, the backfill's is not
    let mark = server.event_log().recent().len();
    server.retry_fire().unwrap();
    assert_eq!(
        logged(&server, LogLevel::Warn, mark),
        ["retrying file 1 to c (attempt 3)"]
    );
    assert_eq!(server.unacked_count(), 1);
    // resends: a+b twice, c twice; abandoned: a and b
    assert_eq!(server.reliability_counters(), (0, 6, 2));
}

#[test]
fn exhaustion_flags_exactly_the_subscribers_still_owed_in_id_order() {
    // config names get ids in name order (m, x); `b` registers later and
    // gets the next id, so id order (m, x, b) is not name order
    let clock = SimClock::starting_at(START);
    let mut server = direct_server(&clock, &[("x", "ex"), ("m", "em")]);
    server.add_subscriber(push_sub("b", "eb", "F")).unwrap();
    server.deposit("f_1.csv", b"one").unwrap();
    ack(&mut server, "ex", 1, clock.now());
    assert_eq!(server.unacked_count(), 2);
    server.retry_fire().unwrap(); // attempt 2
    server.retry_fire().unwrap(); // attempt 3 == max

    let mark = server.event_log().recent().len();
    server.retry_fire().unwrap();
    assert_eq!(
        logged(&server, LogLevel::Alarm, mark),
        [
            "delivery of file 1 to m abandoned after 3 attempts",
            "m flagged offline",
            "delivery of file 1 to b abandoned after 3 attempts",
            "b flagged offline",
        ]
    );
    assert_eq!(server.unacked_count(), 0);
    let online = |name: &str| {
        server
            .match_via_scan(&["F".to_string()])
            .contains(&name.to_string())
    };
    assert!(online("x") && !online("m") && !online("b"));
    assert_eq!(server.reliability_counters(), (1, 4, 2));
}

#[test]
fn an_offline_flip_drops_exactly_that_subscribers_owed_pairs() {
    let clock = SimClock::starting_at(START);
    let mut server = direct_server(&clock, &[("a", "ea"), ("b", "eb"), ("c", "ec")]);
    for i in 1..=3 {
        server.deposit(&format!("f_{i}.csv"), b"x").unwrap();
    }
    assert_eq!(server.unacked_count(), 9, "three cohorts of three");
    ack(&mut server, "eb", 1, clock.now());
    ack(&mut server, "ea", 2, clock.now());
    assert_eq!(server.unacked_count(), 7);
    server.set_subscriber_online("b", false).unwrap(); // owed f_2, f_3
    assert_eq!(server.unacked_count(), 5);
    server.set_subscriber_online("c", false).unwrap(); // owed all three
    assert_eq!(server.unacked_count(), 2);
    server.set_subscriber_online("c", false).unwrap(); // already offline
    assert_eq!(server.unacked_count(), 2);
    // recovery backfills what the store still owes: f_2 and f_3 to b
    server.set_subscriber_online("b", true).unwrap();
    assert_eq!(server.unacked_count(), 4);
    server.remove_subscriber("a").unwrap(); // owed f_1, f_3
    assert_eq!(server.unacked_count(), 2);
}

#[test]
fn a_duplicate_ack_after_its_send_completed_writes_nothing() {
    let clock = SimClock::starting_at(START);
    let mut server = direct_server(&clock, &[("a", "ea"), ("b", "eb")]);
    server.deposit("f_1.csv", b"one").unwrap();
    ack(&mut server, "ea", 1, clock.now());
    ack(&mut server, "eb", 1, clock.now());
    assert_eq!(
        server.unacked_count(),
        0,
        "the cohort went with its last ack"
    );
    let written = |server: &Server| {
        (
            server.telemetry().counter_value("wal.appends"),
            server.receipts().delivery_count(),
            server.trigger_log().len(),
            server.stats().deliveries,
        )
    };
    let before = written(&server);
    assert_eq!(before.1, 2);
    // late, from either subscriber: processed, but no second receipt
    ack(&mut server, "ea", 1, clock.now());
    ack(&mut server, "eb", 1, clock.now());
    assert_eq!(written(&server), before);
    assert_eq!(server.reliability_counters().0, 4, "every ack is counted");
}

#[test]
fn two_reliable_subscribers_sharing_an_endpoint_both_complete() {
    // An ack names a file, not a subscriber: the sender's endpoint does.
    // Two subscribers on one endpoint each get their own send of the
    // file and the client acks both; each ack must clear a pair the hub
    // still owes, not the first name's twice — or the second is never
    // receipted, then abandoned and flagged offline.
    let cfg = r#"
        feed F { pattern "f_%i.csv"; }
        subscriber a { endpoint "shared"; subscribe F; delivery push; }
        subscriber b { endpoint "shared"; subscribe F; delivery push; }
    "#;
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
    .with_reliable_delivery(bistro_transport::RetryPolicy::default(), 3);
    let mut client = bistro_transport::SubscriberClient::new("shared", "hub");
    server.deposit("f_1.csv", b"one").unwrap();
    for _ in 0..40 {
        clock.advance(TimeSpan::from_secs(30));
        client.poll_notifications(&net, clock.now());
        clock.advance(TimeSpan::from_secs(1));
        server.poll_network().unwrap();
        server.retry_tick().unwrap();
    }
    assert_eq!(client.acks_sent(), 2, "one send each, no resend");
    assert_eq!(server.stats().deliveries, 2);
    assert_eq!(server.unacked_count(), 0);
    let feeds = ["F".to_string()];
    assert!(server.receipts().pending_for("a", &feeds).is_empty());
    assert!(server.receipts().pending_for("b", &feeds).is_empty());
    assert!(logged(&server, LogLevel::Alarm, 0).is_empty());
}

// -- relay groups: one receipt per (file, group) ----------------------------

/// Two relay groups whose members are on different feeds; each group's
/// member union takes both feeds, so the hub sends both every file.
/// Which members want a file is each relay's business.
const TWO_GROUPS: &str = r#"
    server { retention 1h; }
    feed A { pattern "A_%i.csv"; }
    feed B { pattern "B_%i.csv"; }
    subscriber a1 { endpoint "a1"; subscribe A; }
    subscriber a2 { endpoint "a2"; subscribe A, B; }
    subscriber a3 { endpoint "a3"; subscribe B; }
    subscriber b1 { endpoint "b1"; subscribe B; }
    subscriber b2 { endpoint "b2"; subscribe A; }
    group EAST { members a1, a2, a3; relay "east"; }
    group WEST { members b1, b2; relay "west"; }
"#;

/// `(name, relay endpoint)` per group of [`TWO_GROUPS`].
const GROUPS: [(&str, &str); 2] = [("EAST", "east"), ("WEST", "west")];

fn two_group_hub(clock: &Arc<SimClock>, store: &Arc<MemFs>, net: &Arc<SimNetwork>) -> Server {
    let cfg = parse_config(TWO_GROUPS).unwrap();
    Server::new("hub", cfg, clock.clone(), store.clone())
        .unwrap()
        .with_network(net.clone())
}

/// A step of [`prop_group_receipt_is_the_first_completion_ack`].
#[derive(Clone, Debug)]
enum GroupStep {
    /// A completion ack from group `.0`'s relay for file `.1` (an index
    /// into the deposits, wrapped).
    Ack(u8, u8),
    /// The hub drains its inbox.
    Drain,
    /// The hub restarts on its store and backfills; acks in flight
    /// arrive at the new incarnation.
    Reopen,
}

impl bistro_base::prop::Shrink for GroupStep {}

fn group_step(rng: &mut bistro_base::Rng) -> GroupStep {
    match rng.gen_range(0u32..10) {
        0..=5 => GroupStep::Ack(rng.gen_range(0u32..2) as u8, rng.gen_range(0u32..4) as u8),
        6..=8 => GroupStep::Drain,
        _ => GroupStep::Reopen,
    }
}

#[test]
fn prop_group_receipt_is_the_first_completion_ack() {
    // Acks arrive in any order, duplicated, after their send completed,
    // and across a restart. The hub holds a (file, group) receipt
    // exactly when a completion ack for it has been drained — a reopen
    // backfills every send still owed, so an ack in flight completes at
    // the new incarnation — and `group.completed` counts those receipts.
    use bistro_base::prop::{self, Runner};
    use bistro_base::{prop_assert, prop_assert_eq};

    Runner::new("group_receipt_is_the_first_completion_ack")
        .cases(96)
        .run(
            |rng| {
                let files = prop::vec_of(rng, 1..=4, |r| r.gen_bool(0.5));
                let mut steps = prop::vec_of(rng, 0..=24, group_step);
                // an ack sent twice in a row
                for i in 1..steps.len() {
                    if matches!(steps[i - 1], GroupStep::Ack(..)) && rng.gen_bool(0.2) {
                        steps[i] = steps[i - 1].clone();
                    }
                }
                (files, steps)
            },
            |(files, steps)| {
                if files.is_empty() {
                    return Ok(()); // shrunk past the generator's floor
                }
                let clock = SimClock::starting_at(START);
                let store = MemFs::shared(clock.clone());
                let net = Arc::new(SimNetwork::new(LinkSpec::default()));
                let mut hub = two_group_hub(&clock, &store, &net);
                let mut names = Vec::new();
                for (i, &a) in files.iter().enumerate() {
                    let name = format!("{}_{i}.csv", if a { "A" } else { "B" });
                    hub.deposit(&name, b"x").unwrap();
                    names.push(name);
                }
                let ids: Vec<_> = (names.iter())
                    .map(|n| hub.receipts().file_by_name(n).unwrap().id)
                    .collect();
                // the reference: per (group, file), whether an ack for it
                // has been drained
                let mut done = vec![vec![false; files.len()]; 2];
                let mut in_flight: Vec<(usize, usize)> = Vec::new();
                let mut completed_before = 0;

                let check = |hub: &Server, done: &[Vec<bool>], completed_before: u64| {
                    let mut held = 0;
                    for (g, per_file) in done.iter().enumerate() {
                        for (f, &done) in per_file.iter().enumerate() {
                            let receipted = hub.receipts().is_delivered(ids[f], GROUPS[g].0);
                            prop_assert_eq!(receipted, done, "group {} file {}", g, f);
                            held += u64::from(receipted);
                        }
                    }
                    let counted = hub.telemetry().counter_value("group.completed").unwrap();
                    prop_assert_eq!(completed_before + counted, held);
                    prop_assert_eq!(hub.stats().deliveries, 0);
                    Ok(())
                };
                for step in steps.iter().chain([&GroupStep::Drain]) {
                    match *step {
                        GroupStep::Ack(g, f) => {
                            let (g, f) = (g as usize, f as usize % files.len());
                            let (group, relay) = GROUPS[g];
                            let ack = GroupMsg::Ack {
                                group: group.to_string(),
                                file: ids[f],
                            };
                            let at = clock.advance(TimeSpan::from_millis(1));
                            net.send(at, relay, "hub", Message::Group(ack));
                            in_flight.push((g, f));
                        }
                        GroupStep::Drain => {
                            clock.advance(TimeSpan::from_secs(1));
                            hub.poll_network().unwrap();
                            for (g, f) in in_flight.drain(..) {
                                done[g][f] = true;
                            }
                            check(&hub, &done, completed_before)?;
                        }
                        GroupStep::Reopen => {
                            completed_before +=
                                hub.telemetry().counter_value("group.completed").unwrap();
                            drop(hub);
                            hub = two_group_hub(&clock, &store, &net);
                            let owed = done.iter().flatten().filter(|&&d| !d).count();
                            prop_assert_eq!(hub.backfill_unacked().unwrap(), owed);
                            check(&hub, &done, completed_before)?;
                        }
                    }
                }
                prop_assert!(in_flight.is_empty());
                Ok(())
            },
        );
}

#[test]
fn a_group_completion_for_an_expired_file_writes_nothing() {
    // As with a late direct ack: expiry dropped the group sends of the
    // file, so the report that would have completed one is stale — it
    // writes no record and runs no tail.
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut hub = two_group_hub(&clock, &store, &net);
    hub.deposit("A_1.csv", b"x").unwrap();
    let file = hub.receipts().file_by_name("A_1.csv").unwrap().id;
    clock.advance(TimeSpan::from_secs(7_200));
    assert_eq!(hub.expire().unwrap(), 1);
    let appends = |hub: &Server| hub.telemetry().counter_value("wal.appends");
    let before = appends(&hub);
    let report = GroupMsg::Ack {
        group: "WEST".to_string(),
        file,
    };
    assert_eq!(hub.group_outstanding(), 0, "expiry dropped both sends");
    assert!(!hub
        .handle_network_message("west", clock.now(), Message::Group(report))
        .unwrap());
    assert_eq!(appends(&hub), before);
    assert_eq!(hub.telemetry().counter_value("group.completed"), Some(0));
}

/// A direct subscriber `d1` and relay group `G { g1 }`, both on feed B;
/// nobody takes feed A.
const DIRECT_AND_GROUP: &str = r#"
    server { retention 1h; }
    feed A { pattern "A_%i.csv"; }
    feed B { pattern "B_%i.csv"; }
    subscriber d1 { endpoint "d1"; subscribe B; }
    subscriber g1 { endpoint "g1"; subscribe B; }
    group G { members g1; relay "relay"; }
"#;

/// The group sends the relay endpoint has received by `now`, as
/// `(file name, attempt)`.
fn group_sends(net: &SimNetwork, now: TimePoint) -> Vec<(String, u32)> {
    (net.recv_ready("relay", now).into_iter())
        .filter_map(|d| match d.msg {
            Message::Group(GroupMsg::Deliver {
                file_name, attempt, ..
            }) => Some((file_name, attempt)),
            _ => None,
        })
        .collect()
}

#[test]
fn an_expired_file_is_neither_resent_nor_abandoned() {
    // d1 never acks and the relay never reports. Once the file expires
    // nobody is owed it, so its open sends go with it: no retry round
    // resends or abandons them, and d1 is not flagged offline over a
    // file that no longer exists.
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let policy = bistro_transport::RetryPolicy {
        base_timeout: TimeSpan::from_secs(600),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(3_600),
        max_attempts: 3,
        jitter: 0.0,
    };
    let mut server = Server::new(
        "hub",
        parse_config(DIRECT_AND_GROUP).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone())
    .with_reliable_delivery(policy, 9);
    server.deposit("B_1.csv", b"x").unwrap();
    assert_eq!((server.unacked_count(), server.group_outstanding()), (1, 1));

    clock.advance(TimeSpan::from_secs(7_200));
    assert_eq!(server.expire().unwrap(), 1);
    assert_eq!((server.unacked_count(), server.group_outstanding()), (0, 0));
    for _ in 0..20 {
        clock.advance(TimeSpan::from_secs(600));
        server.retry_tick().unwrap();
    }
    assert_eq!(server.reliability_counters(), (0, 0, 0));
    assert_eq!(server.group_counters(), (0, 0, 0));
    assert!(logged(&server, LogLevel::Alarm, 0).is_empty());
    assert!(server
        .match_via_scan(&["B".to_string()])
        .contains(&"d1".to_string()));
}

#[test]
fn redefine_feed_sends_a_reclassified_file_to_its_relay_groups() {
    // A_1.csv matches nobody until B widens to take A files; then it is
    // owed to d1 and to G alike, and both get it at once.
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut server = Server::new(
        "hub",
        parse_config(DIRECT_AND_GROUP).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone());
    server.deposit("A_1.csv", b"x").unwrap();
    let file = server.receipts().file_by_name("A_1.csv").unwrap().id;
    assert!(!server.receipts().is_delivered(file, "d1"));

    let mut b = server.config().feed("B").unwrap().clone();
    b.patterns
        .push(server.config().feed("A").unwrap().patterns[0].clone());
    server.redefine_feed(b).unwrap();
    assert!(server.receipts().is_delivered(file, "d1"));
    assert_eq!(server.group_outstanding(), 1);
    clock.advance(TimeSpan::from_secs(1));
    assert_eq!(group_sends(&net, clock.now()), [("A_1.csv".to_string(), 1)]);
    assert_eq!(server.backfill_unacked().unwrap(), 1, "still in flight");
    assert_eq!(server.group_outstanding(), 1, "and not sent twice");
}

#[test]
fn redefine_feed_under_a_subscribed_prefix_reaches_subscribers_and_groups_at_once() {
    // `s` and relay-group member `m` subscribe to the SNMP prefix. A
    // feed that `redefine_feed` adds under it is theirs from then on:
    // a file parked in unknown/ before the redefinition and one
    // deposited after it reach `s` and the group at once, not only
    // after a restart resolves the prefix again.
    let cfg = r#"
        feed SNMP/CPU { pattern "CPU_%i.csv"; }
        subscriber s { endpoint "s"; subscribe SNMP; }
        subscriber m { endpoint "m"; subscribe SNMP; }
        group G { members m; relay "relay"; }
    "#;
    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut server = Server::new(
        "hub",
        parse_config(cfg).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone());
    server.deposit("MEM_0.csv", b"early").unwrap();
    assert_eq!(server.stats().files_unknown, 1);

    let mut mem = server.config().feed("SNMP/CPU").unwrap().clone();
    mem.name = "SNMP/MEM".to_string();
    mem.patterns = vec![bistro_pattern::Pattern::parse("MEM_%i.csv").unwrap()];
    server.redefine_feed(mem).unwrap();
    server.deposit("MEM_1.csv", b"late").unwrap();

    let feeds = ["SNMP/MEM".to_string()];
    assert_eq!(server.match_via_index(&feeds), ["G", "s"]);
    assert_eq!(server.match_via_scan(&feeds), ["G", "s"]);
    for name in ["MEM_0.csv", "MEM_1.csv"] {
        let rec = server.receipts().file_by_name(name).unwrap();
        assert_eq!(rec.feeds, feeds);
        assert!(server.receipts().is_delivered(rec.id, "s"), "{name}");
    }
    assert_eq!(server.group_outstanding(), 2, "both sent to the relay");
    clock.advance(TimeSpan::from_secs(1));
    let sent = group_sends(&net, clock.now());
    assert_eq!(sent.len(), 2, "{sent:?}");
    assert_eq!(
        server.backfill_unacked().unwrap(),
        2,
        "only the group sends, in flight"
    );
}

#[test]
fn per_file_and_batched_triggers_replay_their_golden_log() {
    // Four subscribers on two feeds: per-file with and without a
    // trigger, a count batch and a window batch. Deposits straddle a
    // window lapse, a tick and a punctuation per feed. Every delivery
    // takes a batch id, a trigger-less per-file one included, so the ids
    // below skip the deliveries that fire nothing. The log is the one
    // the server wrote when every subscriber kept a batcher per feed.
    let clock = SimClock::starting_at(START);
    let cfg = parse_config(
        r#"
        feed A { pattern "A_%i_%Y%m%d%H%M.csv"; }
        feed B { pattern "B_%i.csv"; }
        subscriber pf_trig {
            endpoint "pf_trig"; subscribe A, B; delivery push;
            trigger remote "pf %N f=[%f] b=%b n=%c";
        }
        subscriber pf_plain { endpoint "pf_plain"; subscribe A, B; delivery push; }
        subscriber counted {
            endpoint "counted"; subscribe A, B; delivery push;
            batch count 2;
            trigger remote "cnt %N f=[%f] b=%b n=%c";
        }
        subscriber windowed {
            endpoint "windowed"; subscribe A, B; delivery push;
            batch window 5m;
            trigger local "win %N f=[%f] b=%b n=%c";
        }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), MemFs::shared(clock.clone())).unwrap();
    let step = |secs: u64| clock.advance(TimeSpan::from_secs(secs));

    server.deposit("A_1_201009250000.csv", b"a1").unwrap();
    step(10);
    server.deposit("B_1.csv", b"b1").unwrap();
    step(10);
    server.deposit("A_2_201009250000.csv", b"a2").unwrap();
    // both window batches lapse; A's closes as A_3 arrives, B's on tick
    step(360);
    server.deposit("A_3_201009250005.csv", b"a3").unwrap();
    server.tick();
    step(10);
    server.deposit("B_2.csv", b"b2").unwrap();
    step(10);
    server.deposit("B_3.csv", b"b3").unwrap();
    server.punctuate_feed("B");
    step(360);
    server.tick();
    server.punctuate_feed("A");

    let log: Vec<String> = (server.trigger_log().entries().into_iter())
        .map(|e| {
            let files: Vec<u64> = e.files.iter().map(|f| f.raw()).collect();
            let at = e.at.since(START).as_secs();
            format!("{at} {} {} {files:?}", e.subscriber, e.command)
        })
        .collect();
    let golden = [
        "0 pf_trig pf A f=[incoming/A/A_1_201009250000.csv] b=2 n=1 [1]",
        "10 pf_trig pf B f=[incoming/B/B_1.csv] b=4 n=1 [2]",
        "20 counted cnt A f=[incoming/A/A_2_201009250000.csv] b=5 n=2 [1, 3]",
        "20 pf_trig pf A f=[incoming/A/A_2_201009250000.csv] b=7 n=1 [3]",
        "380 pf_trig pf A f=[incoming/A/A_3_201009250005.csv] b=9 n=1 [4]",
        "300 windowed win A f=[] b=10 n=2 [1, 3]",
        "380 windowed win B f=[] b=11 n=1 [2]",
        "390 counted cnt B f=[incoming/B/B_2.csv] b=12 n=2 [2, 5]",
        "390 pf_trig pf B f=[incoming/B/B_2.csv] b=14 n=1 [5]",
        "400 pf_trig pf B f=[incoming/B/B_3.csv] b=16 n=1 [6]",
        "400 counted cnt B f=[] b=17 n=1 [6]",
        "400 windowed win B f=[] b=18 n=2 [5, 6]",
        "760 windowed win A f=[] b=19 n=1 [4]",
        "760 counted cnt A f=[] b=20 n=1 [4]",
    ];
    assert_eq!(log, golden, "{log:#?}");
    // only the count and window specs keep a batcher to walk
    let walked = [
        ("A", "counted"),
        ("A", "windowed"),
        ("B", "counted"),
        ("B", "windowed"),
    ]
    .map(|(feed, sub)| (feed.to_string(), sub.to_string()));
    assert_eq!(server.batcher_keys(), walked);
}

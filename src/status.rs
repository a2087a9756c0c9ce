//! The scenario behind `bistro status`: a seeded, fully simulated run
//! whose health snapshot is byte-identical for the same seed.
//!
//! There is no long-running daemon to query, so `status` demonstrates
//! the observability surface the way the experiments do — by driving a
//! server deterministically (SimClock + seeded fault plan) and rendering
//! its [`Server::status_json`] / [`Server::status_text`] at the end. The
//! scenario is E5b-flavoured: one subscriber link is completely dead, so
//! the retry budget runs out and the `retry-exhaustion` telemetry alarm
//! demonstrably fires into the event log; an unclassifiable file
//! exercises the `ingest.unknown` path as well.

use crate::base::{Clock, SimClock, TimePoint, TimeSpan};
use crate::config::parse_config;
use crate::server::Server;
use crate::telemetry::Json;
use crate::transport::{FaultPlan, FaultSpec, LinkSpec, RetryPolicy, SimNetwork, SubscriberClient};
use crate::vfs::MemFs;
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800);

const CONFIG: &str = r#"
    feed F { pattern "f_%i.csv"; }
    subscriber alpha { endpoint "alpha"; subscribe F; delivery push; }
    subscriber beta  { endpoint "beta";  subscribe F; delivery push; }
"#;

/// Drive the demo scenario to completion and hand back the server so
/// callers can render whichever status form they want. `workers` sizes
/// the parallel ingest pool and `group` sets the WAL group-commit flush
/// knob; by the `deposit_batch` determinism contract the returned
/// server's status snapshot is byte-identical for any worker count *and*
/// any group size.
pub fn demo_server(seed: u64, workers: usize, group: usize) -> Server {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 1_000_000,
        latency: TimeSpan::from_millis(10),
    }));
    // mild loss everywhere, and a dead link to alpha: its deliveries
    // exhaust the retry policy and trip the retry-exhaustion alarm
    net.install_fault_plan(FaultPlan {
        seed,
        default_faults: FaultSpec::lossy(0.2, 0.1),
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
        jitter: 0.1,
    };
    let mut server = Server::new("b", parse_config(CONFIG).unwrap(), clock.clone(), store)
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(policy, seed)
        .with_workers(workers)
        .with_commit_group(group);
    let mut alpha = SubscriberClient::new("alpha", "b");
    let mut beta = SubscriberClient::new("beta", "b");

    for round in 0..40u64 {
        clock.advance(TimeSpan::from_secs(1));
        let now = clock.now();
        if round < 6 {
            // a burst of four poller files per round, ingested through
            // the batch entry point so the worker pool actually fans out
            let mut batch: Vec<(String, Vec<u8>)> = (0..4)
                .map(|k| {
                    (
                        format!("f_{}.csv", round * 10 + k),
                        b"payload-bytes".to_vec(),
                    )
                })
                .collect();
            if round == 3 {
                // a name no feed matches: parked for the analyzer
                batch.push(("mystery_3.dat".to_string(), b"???".to_vec()));
            }
            server.deposit_batch(batch).unwrap();
        }
        alpha.poll_notifications(&net, now);
        beta.poll_notifications(&net, now);
        server.poll_network().unwrap();
        server.retry_tick().unwrap();
        server.tick();
    }
    server
}

/// The `bistro status --json` document for `seed`.
pub fn status_json(seed: u64, workers: usize, group: usize) -> Json {
    demo_server(seed, workers, group).status_json()
}

/// The human-readable `bistro status` report for `seed`.
pub fn status_text(seed: u64, workers: usize, group: usize) -> String {
    demo_server(seed, workers, group).status_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::log::LogLevel;
    use crate::server::DEFAULT_COMMIT_GROUP;

    #[test]
    fn demo_fires_retry_exhaustion_alarm_into_event_log() {
        let server = demo_server(7, 1, DEFAULT_COMMIT_GROUP);
        let alarms = server.event_log().alarms();
        assert!(
            alarms
                .iter()
                .any(|e| e.component == "telemetry" && e.message.contains("retry-exhaustion")),
            "no telemetry alarm in {alarms:?}"
        );
        // the underlying metric agrees
        assert!(
            server
                .telemetry()
                .counter_value("reliable.exhausted")
                .unwrap()
                >= 1
        );
        assert!(server.event_log().count(LogLevel::Alarm) > 0);
    }

    #[test]
    fn same_seed_renders_byte_identical_json() {
        let a = status_json(42, 1, DEFAULT_COMMIT_GROUP).render();
        let b = status_json(42, 1, DEFAULT_COMMIT_GROUP).render();
        assert_eq!(a, b);
        assert!(a.contains("\"delivery.receipts\""), "{a}");
    }

    #[test]
    fn worker_count_does_not_change_the_snapshot() {
        let reference = status_json(42, 1, DEFAULT_COMMIT_GROUP).render();
        for workers in [2, 4, 8] {
            assert_eq!(
                status_json(42, workers, DEFAULT_COMMIT_GROUP).render(),
                reference,
                "workers={workers}"
            );
        }
        // the separate pool registry shows where prepare ran: the demo's
        // feed keeps files as delivered, so four workers are a ceiling
        // the server never reaches for — every file on the caller's thread
        let server = demo_server(42, 4, DEFAULT_COMMIT_GROUP);
        let pool = |name: &str| server.pool_telemetry().counter_value(name).unwrap();
        assert!(pool("pool.batches") >= 6);
        assert_eq!(pool("pool.worker0.files"), 25, "6 rounds x 4 + 1 unknown");
        assert_eq!(pool("pool.worker3.files"), 0);
    }

    #[test]
    fn commit_group_does_not_change_the_snapshot() {
        let reference = status_json(42, 1, 1).render();
        for group in [2, 7, DEFAULT_COMMIT_GROUP, 1024] {
            assert_eq!(
                status_json(42, 1, group).render(),
                reference,
                "group={group}"
            );
        }
        // the demo delivers over a network, where every arrival is flushed
        // ahead of the first send that names it: the window cannot batch
        // across files here, whatever the knob says (the pool registry
        // shows it — one physical append per classified file)
        let appends = |group: usize| {
            demo_server(42, 1, group)
                .pool_telemetry()
                .counter_value("wal.physical_appends")
                .unwrap()
        };
        assert_eq!(appends(1), 24, "6 rounds x 4 classified files");
        assert_eq!(appends(DEFAULT_COMMIT_GROUP), appends(1));
    }
}

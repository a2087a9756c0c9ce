//! Storage crash-point sweep (DESIGN.md "Storage failure model").
//!
//! A [`FaultStore`] wraps the server's store and simulates power loss at
//! one mutating-operation index: the in-flight write is torn at a seeded
//! byte offset and every later operation fails. The sweep runs the full
//! pipeline — deposit → classify/normalize → deliver/ack → expire/archive
//! → snapshot → persist_config → group-committed batch deposit —
//! crashing at *every* storage-op index in turn, then reopens on the
//! surviving bytes and asserts:
//!
//! * the store always opens (no crash point can brick recovery),
//! * no live receipt references a missing staged payload,
//! * no acked delivery is forgotten, and exactly-once delivery holds
//!   after `backfill_unacked`,
//! * no `FileId` is ever reused across incarnations.
//!
//! Every panic message embeds `seed=… crash_op=…`; rerunning the sweep
//! with those two numbers replays the failure bit-for-bit.

use bistro::base::{crc32, Clock, SimClock, SubscriberId, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::relay::Relay;
use bistro::server::{Server, ServerError};
use bistro::transport::messages::{GroupMsg, Message, ReliableMsg};
use bistro::transport::{LinkSpec, RetryPolicy, SimNetwork, SubscriberClient};
use bistro::vfs::{walk_files, FaultStore, FileStore, MemFs};
use std::collections::BTreeSet;
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800);
const SEED: u64 = 0xB157_0C7A;

const CONFIG: &str = r#"
    server { retention 1h; archive on; }
    feed F { pattern "f_%i.csv"; }
    subscriber alpha { endpoint "alpha"; subscribe F; delivery push; }
    subscriber beta  { endpoint "beta";  subscribe F; delivery push; }
"#;

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout: TimeSpan::from_secs(2),
        backoff: 2,
        max_timeout: TimeSpan::from_secs(16),
        max_attempts: 10,
        jitter: 0.1,
    }
}

fn payload(i: usize) -> Vec<u8> {
    format!("payload-{i}-0123456789abcdefghij").into_bytes()
}

/// Advance time and drain the network: subscribers poll + ack, the
/// server processes acks and retries. Errors (the crash) propagate.
fn pump(
    server: &mut Server,
    clients: &mut [&mut SubscriberClient],
    net: &SimNetwork,
    clock: &Arc<SimClock>,
    rounds: usize,
) -> Result<(), ServerError> {
    for _ in 0..rounds {
        clock.advance(TimeSpan::from_secs(1));
        let now = clock.now();
        for c in clients.iter_mut() {
            c.poll_notifications(net, now);
        }
        server.poll_network()?;
        server.retry_tick()?;
    }
    Ok(())
}

fn note_live_ids(server: &Server, seen: &mut BTreeSet<u64>) {
    for rec in server.receipts().all_live() {
        seen.insert(rec.id.raw());
    }
}

/// Every id a client has *received* is spoken for, whether or not the
/// step that sent it lived to return: a restarted server reissuing one
/// would have its delivery deduped away by the client — a silent loss.
fn note_received_ids(clients: &[&SubscriberClient], seen: &mut BTreeSet<u64>) {
    for c in clients {
        seen.extend(c.delivered().iter().map(|(fid, _, _)| fid.raw()));
    }
}

/// Phase A: the faulted incarnation. Runs the full pipeline over the
/// wrapped store until it completes or the crash point fires.
#[allow(clippy::too_many_arguments)]
fn phase_a(
    clock: &Arc<SimClock>,
    store: Arc<dyn FileStore>,
    net: &Arc<SimNetwork>,
    config: &bistro::config::Config,
    seed: u64,
    alpha: &mut SubscriberClient,
    beta: &mut SubscriberClient,
    seen: &mut BTreeSet<u64>,
) -> Result<(), ServerError> {
    let mut server = Server::new("b", config.clone(), clock.clone(), store)?
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), seed);
    server.persist_config()?;

    // two files that will age out of the retention window
    for i in 0..2 {
        server.deposit(&format!("f_{i}.csv"), &payload(i))?;
        pump(&mut server, &mut [alpha, beta], net, clock, 6)?;
        note_live_ids(&server, seen);
    }

    // age them past retention, land a fresh file, then expire + archive
    clock.advance(TimeSpan::from_secs(7_200));
    server.deposit("f_2.csv", &payload(2))?;
    pump(&mut server, &mut [alpha, beta], net, clock, 6)?;
    note_live_ids(&server, seen);
    server.expire()?;

    // snapshot (prunes the WAL) and persist the running config
    server.snapshot()?;
    server.persist_config()?;

    // post-snapshot arrival: must survive on WAL replay alone
    server.deposit("f_3.csv", &payload(3))?;
    pump(&mut server, &mut [alpha, beta], net, clock, 6)?;
    note_live_ids(&server, seen);

    // a batched deposit through the commit window: every arrival is
    // flushed ahead of the network send that names it, so the sweep
    // crashes between a send and the next file's staging write — an id
    // a subscriber holds must be durable, and a torn append must
    // recover to a whole-record prefix, never a receipt whose staged
    // payload is missing
    server.deposit_batch(
        (10..13usize)
            .map(|i| (format!("f_{i}.csv"), payload(i)))
            .collect(),
    )?;
    pump(&mut server, &mut [alpha, beta], net, clock, 6)?;
    note_live_ids(&server, seen);
    Ok(())
}

/// Count the mutating storage ops of an uncrashed end-to-end run.
fn count_ops(seed: u64) -> u64 {
    let clock = SimClock::starting_at(START);
    let inner = MemFs::shared(clock.clone());
    let faulted = Arc::new(FaultStore::counting(inner));
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let config = parse_config(CONFIG).unwrap();
    let mut alpha = SubscriberClient::new("alpha", "b");
    let mut beta = SubscriberClient::new("beta", "b");
    let mut seen = BTreeSet::new();
    phase_a(
        &clock,
        faulted.clone(),
        &net,
        &config,
        seed,
        &mut alpha,
        &mut beta,
        &mut seen,
    )
    .expect("uncrashed scenario must complete");
    faulted.mutation_ops()
}

/// Run the scenario crashing at `crash_op`, recover twice, verify every
/// invariant (panicking with the replay coordinates on violation), and
/// return a digest of all observable state for replay comparison.
fn run_crash_scenario(seed: u64, crash_op: u64) -> String {
    let ctx = format!("seed={seed:#x} crash_op={crash_op}");
    let clock = SimClock::starting_at(START);
    let inner = MemFs::shared(clock.clone());
    let faulted = Arc::new(FaultStore::armed(inner.clone(), seed, crash_op));
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let config = parse_config(CONFIG).unwrap();
    let mut alpha = SubscriberClient::new("alpha", "b");
    let mut beta = SubscriberClient::new("beta", "b");
    let mut seen: BTreeSet<u64> = BTreeSet::new();

    // ---- phase A: run until the crash point fires -------------------
    let _ = phase_a(
        &clock,
        faulted.clone(),
        &net,
        &config,
        seed,
        &mut alpha,
        &mut beta,
        &mut seen,
    );

    // ---- phase B: reopen on the surviving bytes ---------------------
    // The crashed process is gone; recovery sees only what the inner
    // store durably holds. persist_config is atomic, so bistro.conf is
    // either whole or absent (crashed before it first landed).
    let store: Arc<dyn FileStore> = inner.clone();
    let reopened = if inner.exists("bistro.conf") {
        Server::open_existing("b", clock.clone(), store)
    } else {
        Server::new("b", config.clone(), clock.clone(), store)
    };
    let mut server = match reopened {
        Ok(s) => s
            .with_network(net.clone())
            .with_reliable_delivery(retry_policy(), seed.wrapping_add(1)),
        Err(e) => panic!("{ctx}: store failed to reopen after crash: {e}"),
    };

    // invariant: no live receipt references a missing staged payload
    for rec in server.receipts().all_live() {
        let staged = format!("staging/{}", rec.staged_path);
        assert!(
            inner.exists(&staged),
            "{ctx}: live receipt {} references missing payload {staged}",
            rec.id
        );
    }
    // everything live now is durably on record
    note_live_ids(&server, &mut seen);

    // re-provision the config (heals the crashed-before-first-persist
    // case), backfill sends the receipts still show as undelivered, and
    // let the network settle
    server
        .persist_config()
        .unwrap_or_else(|e| panic!("{ctx}: persist_config: {e}"));
    server
        .backfill_unacked()
        .unwrap_or_else(|e| panic!("{ctx}: backfill_unacked: {e}"));
    pump(&mut server, &mut [&mut alpha, &mut beta], &net, &clock, 40)
        .unwrap_or_else(|e| panic!("{ctx}: settle pump: {e}"));

    // whatever the dead incarnation managed to send has now been polled:
    // those ids are taken, durable or not
    note_received_ids(&[&alpha, &beta], &mut seen);

    // invariant: exactly-once delivery after backfill
    assert_eq!(
        server.unacked_count(),
        0,
        "{ctx}: unacked sends after settle"
    );
    for rec in server.receipts().all_live() {
        for sub in ["alpha", "beta"] {
            assert!(
                server.receipts().is_delivered(rec.id, sub),
                "{ctx}: live file {} not delivered to {sub} after backfill",
                rec.id
            );
        }
    }
    // invariant: no acked delivery is forgotten, and no file reaches a
    // subscriber twice (the client dedupes redeliveries by id)
    let live: BTreeSet<u64> = server
        .receipts()
        .all_live()
        .iter()
        .map(|r| r.id.raw())
        .collect();
    for (name, client) in [("alpha", &alpha), ("beta", &beta)] {
        let mut uniq = BTreeSet::new();
        for (fid, _, _) in client.delivered() {
            assert!(uniq.insert(fid.raw()), "{ctx}: {name} received {fid} twice");
            if live.contains(&fid.raw()) {
                assert!(
                    server.receipts().is_delivered(*fid, name),
                    "{ctx}: {name}'s acked delivery of {fid} forgotten"
                );
            }
        }
    }

    // continue the pipeline: a new arrival must get a fresh id
    server
        .deposit("f_4.csv", &payload(4))
        .unwrap_or_else(|e| panic!("{ctx}: deposit f_4: {e}"));
    pump(&mut server, &mut [&mut alpha, &mut beta], &net, &clock, 8)
        .unwrap_or_else(|e| panic!("{ctx}: pump f_4: {e}"));
    let f4 = server
        .receipts()
        .all_live()
        .iter()
        .find(|r| r.name == "f_4.csv")
        .map(|r| r.id.raw())
        .unwrap_or_else(|| panic!("{ctx}: f_4.csv not live after deposit"));
    assert!(!seen.contains(&f4), "{ctx}: id {f4} reused for f_4.csv");
    seen.insert(f4);

    // expire everything and close cleanly (no snapshot: phase C must
    // recover the tail from the WAL alone)
    clock.advance(TimeSpan::from_secs(7_200));
    server
        .expire()
        .unwrap_or_else(|e| panic!("{ctx}: expire: {e}"));
    let deliveries = server.receipts().delivery_count();
    let expired = server.receipts().expired_count();
    drop(server);

    // ---- phase C: clean reopen, ids must never come back ------------
    let mut server = Server::open_existing("b", clock.clone(), inner.clone() as Arc<dyn FileStore>)
        .unwrap_or_else(|e| panic!("{ctx}: clean reopen failed: {e}"));
    assert_eq!(
        server.receipts().live_count(),
        0,
        "{ctx}: files survived expiry"
    );
    for (i, name) in ["f_5.csv", "f_6.csv"].iter().enumerate() {
        server
            .deposit(name, &payload(5 + i))
            .unwrap_or_else(|e| panic!("{ctx}: deposit {name}: {e}"));
        let id = server
            .receipts()
            .all_live()
            .iter()
            .find(|r| r.name == *name)
            .map(|r| r.id.raw())
            .unwrap_or_else(|| panic!("{ctx}: {name} not live after deposit"));
        assert!(seen.insert(id), "{ctx}: id {id} reused for {name}");
    }

    // ---- digest of everything observable ----------------------------
    let mut digest = String::new();
    digest.push_str(&format!("crashed={} seen={seen:?}\n", faulted.crashed()));
    for path in walk_files(inner.as_ref(), "").unwrap() {
        let data = inner.read(&path).unwrap();
        digest.push_str(&format!("{path}:{}:{:08x}\n", data.len(), crc32(&data)));
    }
    digest.push_str(&format!(
        "live={} expired={expired} deliveries={deliveries} alpha={}/{} beta={}/{}\n",
        server.receipts().live_count(),
        alpha.delivered().len(),
        alpha.duplicates_ignored(),
        beta.delivered().len(),
        beta.duplicates_ignored(),
    ));
    digest
}

#[test]
fn sweep_crash_at_every_storage_op() {
    let total = count_ops(SEED);
    assert!(
        total > 40,
        "scenario too small to be interesting: {total} ops"
    );
    println!("crash-point sweep: {total} storage ops, seed {SEED:#x}");
    for crash_op in 0..total {
        run_crash_scenario(SEED, crash_op);
    }
}

#[test]
fn sweep_is_bit_for_bit_replayable() {
    let total = count_ops(SEED);
    for crash_op in [1, total / 4, total / 2, 3 * total / 4, total - 1] {
        let a = run_crash_scenario(SEED, crash_op);
        let b = run_crash_scenario(SEED, crash_op);
        assert_eq!(a, b, "seed={SEED:#x} crash_op={crash_op} did not replay");
    }
    // a different seed tears at different offsets but replays all the same
    let a = run_crash_scenario(SEED ^ 0xFF, total / 3);
    let b = run_crash_scenario(SEED ^ 0xFF, total / 3);
    assert_eq!(a, b);
}

const CHECKPOINT_CONFIG: &str = r#"
    server { retention 6s; }
    feed F { pattern "f_%i.csv"; }
    subscriber alpha { endpoint "alpha"; subscribe F; delivery push; }
    subscriber beta  { endpoint "beta";  subscribe F; delivery push; }
"#;

/// The WAL segment the checkpoint sweep's faulted incarnation runs at:
/// the checkpoint rule's floor, small enough that the run crosses the
/// threshold several times.
const CHECKPOINT_SEGMENT: u64 = 128;

/// Rounds of the checkpoint sweep: a three-file batch, four pumped
/// seconds and an expiry sweep each.
const CHECKPOINT_ROUNDS: usize = 16;

/// What the checkpoint sweep's faulted incarnation did.
#[derive(Debug, Default)]
struct CheckpointRun {
    /// Checkpoints taken at the end of a `deposit_batch` window.
    in_batches: u64,
    /// Checkpoints taken after a `poll_network` drain's sets.
    in_drains: u64,
    /// The most WAL bytes one top-level call — a batch, one pumped
    /// second, an expiry sweep — appended: at least its largest commit.
    largest_call: u64,
}

/// The faulted incarnation of the checkpoint sweep: a reliable network
/// server whose receipt store runs at [`CHECKPOINT_SEGMENT`], so the
/// store snapshots itself — at the end of a batch's commit window, after
/// a drain's delivery sets, inside an expiry sweep — while files arrive,
/// are acked and expire.
fn checkpoint_phase_a(
    clock: &Arc<SimClock>,
    store: Arc<dyn FileStore>,
    net: &Arc<SimNetwork>,
    clients: &mut [SubscriberClient; 2],
    seen: &mut BTreeSet<u64>,
    run: &mut CheckpointRun,
) -> Result<(), ServerError> {
    let config = parse_config(CHECKPOINT_CONFIG).unwrap();
    let mut server = Server::new("b", config, clock.clone(), store)?
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), SEED);
    server.receipts().set_segment_bytes(CHECKPOINT_SEGMENT);
    server.persist_config()?;
    let tel = server.telemetry().clone();
    let read = || {
        let counter = |name| tel.counter_value(name).unwrap_or(0);
        (counter("receipts.checkpoints"), counter("wal.bytes"))
    };
    for round in 0..CHECKPOINT_ROUNDS {
        let before = read();
        server.deposit_batch(
            (3 * round..3 * round + 3)
                .map(|i| (format!("f_{i}.csv"), payload(i)))
                .collect(),
        )?;
        let after = read();
        run.in_batches += after.0 - before.0;
        run.largest_call = run.largest_call.max(after.1 - before.1);
        note_live_ids(&server, seen);
        for _ in 0..4 {
            let before = read();
            let [alpha, beta] = &mut *clients;
            pump(&mut server, &mut [alpha, beta], net, clock, 1)?;
            let after = read();
            run.in_drains += after.0 - before.0;
            run.largest_call = run.largest_call.max(after.1 - before.1);
        }
        let before = read();
        server.expire()?;
        run.largest_call = run.largest_call.max(read().1 - before.1);
    }
    Ok(())
}

/// Crash the checkpoint run at `crash_op`, reopen on the surviving bytes
/// and check every invariant; `largest_call` is the uncrashed run's.
fn run_checkpoint_crash(crash_op: u64, largest_call: u64) {
    let ctx = format!("seed={SEED:#x} crash_op={crash_op}");
    let clock = SimClock::starting_at(START);
    let inner = MemFs::shared(clock.clone());
    let faulted = Arc::new(FaultStore::armed(inner.clone(), SEED, crash_op));
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut clients = ["alpha", "beta"].map(|name| SubscriberClient::new(name, "b"));
    let mut seen = BTreeSet::new();
    let mut run = CheckpointRun::default();
    let crashed = checkpoint_phase_a(&clock, faulted, &net, &mut clients, &mut seen, &mut run);
    assert!(crashed.is_err(), "{ctx}: the crash point did not fire");

    // the checkpoint rule bounds what the reopen replays: the threshold
    // of the snapshot on disk, plus the commit the crash cut short
    let snapshot = inner
        .read("receipts/snapshot.bin")
        .map_or(0, |d| d.len() as u64);
    let threshold = CHECKPOINT_SEGMENT.max(4 * snapshot);
    let store: Arc<dyn FileStore> = inner.clone();
    let reopened = if inner.exists("bistro.conf") {
        Server::open_existing("b", clock.clone(), store)
    } else {
        Server::new(
            "b",
            parse_config(CHECKPOINT_CONFIG).unwrap(),
            clock.clone(),
            store,
        )
    };
    let mut server = reopened
        .unwrap_or_else(|e| panic!("{ctx}: store failed to reopen after crash: {e}"))
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), SEED + 1);
    let replayed = server.receipts().recovery_info().wal_bytes;
    assert!(
        replayed <= threshold + largest_call,
        "{ctx}: replayed {replayed} WAL bytes, past threshold {threshold} + {largest_call}"
    );

    // invariant: no live receipt references a missing staged payload
    for rec in server.receipts().all_live() {
        let staged = format!("staging/{}", rec.staged_path);
        assert!(inner.exists(&staged), "{ctx}: {staged} missing");
    }
    note_live_ids(&server, &mut seen);
    server
        .persist_config()
        .unwrap_or_else(|e| panic!("{ctx}: persist_config: {e}"));
    server
        .backfill_unacked()
        .unwrap_or_else(|e| panic!("{ctx}: backfill_unacked: {e}"));
    let [alpha, beta] = &mut clients;
    pump(&mut server, &mut [alpha, beta], &net, &clock, 40)
        .unwrap_or_else(|e| panic!("{ctx}: settle pump: {e}"));
    note_received_ids(&[alpha, beta], &mut seen);

    // invariant: exactly-once delivery after backfill
    assert_eq!(server.unacked_count(), 0, "{ctx}: unacked after settle");
    let receipts = server.receipts();
    for rec in receipts.all_live() {
        for client in &clients {
            assert!(
                receipts.is_delivered(rec.id, &client.endpoint),
                "{ctx}: live file {} not delivered to {}",
                rec.id,
                client.endpoint
            );
        }
    }
    for client in &clients {
        let mut uniq = BTreeSet::new();
        for (fid, _, _) in client.delivered() {
            let name = &client.endpoint;
            assert!(uniq.insert(fid.raw()), "{ctx}: {name} received {fid} twice");
            if receipts.file(*fid).is_some() {
                assert!(
                    receipts.is_delivered(*fid, name),
                    "{ctx}: {name}'s acked delivery of {fid} forgotten"
                );
            }
        }
    }

    // invariant: a new arrival gets an id nobody has held
    server
        .deposit("f_99.csv", &payload(99))
        .unwrap_or_else(|e| panic!("{ctx}: deposit f_99: {e}"));
    let id = server.receipts().file_by_name("f_99.csv").unwrap().id;
    assert!(
        !seen.contains(&id.raw()),
        "{ctx}: id {id} reused for f_99.csv"
    );
}

#[test]
fn sweep_crash_around_self_taken_checkpoints() {
    // The receipt store snapshots itself once its un-snapshotted WAL
    // outgrows max(one segment, 4 x its last snapshot). Crash at every
    // storage op of a run that crosses that threshold in batch windows
    // and in ack drains: the store reopens, replays at most the
    // threshold plus one commit, and delivery stays exactly-once.
    let (run, total) = {
        let clock = SimClock::starting_at(START);
        let counting = Arc::new(FaultStore::counting(MemFs::shared(clock.clone())));
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let mut clients = ["alpha", "beta"].map(|name| SubscriberClient::new(name, "b"));
        let mut run = CheckpointRun::default();
        checkpoint_phase_a(
            &clock,
            counting.clone(),
            &net,
            &mut clients,
            &mut BTreeSet::new(),
            &mut run,
        )
        .expect("uncrashed scenario must complete");
        (run, counting.mutation_ops())
    };
    assert!(
        run.in_batches >= 1 && run.in_drains >= 1 && run.in_batches + run.in_drains >= 2,
        "the run must checkpoint in a batch window and in a drain: {run:?}"
    );
    println!("checkpoint sweep: {total} storage ops, {run:?}, seed {SEED:#x}");
    for crash_op in 0..total {
        run_checkpoint_crash(crash_op, run.largest_call);
    }
}

/// The mutating-op range `lo..hi` of the call a narrow sweep crashes
/// inside: an uncrashed `scenario` (which returns the op count just
/// before that call) over a counting store.
fn swept_ops(
    scenario: impl FnOnce(&Arc<SimClock>, Arc<FaultStore>) -> Result<u64, ServerError>,
) -> (u64, u64) {
    let clock = SimClock::starting_at(START);
    let counting = Arc::new(FaultStore::counting(MemFs::shared(clock.clone())));
    let lo = scenario(&clock, counting.clone()).expect("uncrashed scenario must complete");
    (lo, counting.mutation_ops())
}

const WINDOW_CONFIG: &str = r#"
    feed F { pattern "f_%i.csv"; }
    feed G { pattern "g_%i.csv"; }
    subscriber sub { endpoint "sub"; subscribe F, G; delivery push; }
"#;

/// The faulted incarnation of the window-hazard sweep: a reliable
/// network server taking one two-file batch at the default commit
/// group. Returns the mutating-op count just before the batch.
fn window_phase_a(
    clock: &Arc<SimClock>,
    store: Arc<FaultStore>,
    net: &Arc<SimNetwork>,
) -> Result<u64, ServerError> {
    let config = parse_config(WINDOW_CONFIG).unwrap();
    let mut server = Server::new("b", config, clock.clone(), store.clone())?
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), SEED);
    server.persist_config()?;
    let before = store.mutation_ops();
    server.deposit_batch(
        (10..12usize)
            .map(|i| (format!("f_{i}.csv"), payload(i)))
            .collect(),
    )?;
    Ok(before)
}

#[test]
fn sweep_window_sends_never_outrun_their_arrival() {
    // Inside a commit window a network send must not name a file whose
    // arrival is still buffered: crash anywhere in the batch, let the
    // subscriber poll what the dead server already sent, restart, and
    // the next deposit must get an id nobody holds — a reissued id is
    // deduped away by the client and acked, i.e. silently lost.
    let (lo, hi) = swept_ops(|clock, store| {
        window_phase_a(
            clock,
            store,
            &Arc::new(SimNetwork::new(LinkSpec::default())),
        )
    });
    assert!(hi - lo >= 4, "batch too small to sweep: ops {lo}..{hi}");
    println!("window-hazard sweep: batch ops {lo}..{hi}, seed {SEED:#x}");
    for crash_op in lo..hi {
        let ctx = format!("seed={SEED:#x} crash_op={crash_op}");
        let clock = SimClock::starting_at(START);
        let inner = MemFs::shared(clock.clone());
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let faulted = Arc::new(FaultStore::armed(inner.clone(), SEED, crash_op));
        assert!(
            window_phase_a(&clock, faulted, &net).is_err(),
            "{ctx}: crash point inside the batch did not fire"
        );

        // the sends of the dead server are still in flight: receive them
        let mut sub = SubscriberClient::new("sub", "b");
        clock.advance(TimeSpan::from_secs(1));
        sub.poll_notifications(&net, clock.now());
        let mut held = BTreeSet::new();
        note_received_ids(&[&sub], &mut held);

        let mut server = Server::open_existing("b", clock.clone(), inner as Arc<dyn FileStore>)
            .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"))
            .with_network(net.clone())
            .with_reliable_delivery(retry_policy(), SEED + 1);
        server
            .deposit("g_4.csv", &payload(4))
            .unwrap_or_else(|e| panic!("{ctx}: deposit g_4: {e}"));
        pump(&mut server, &mut [&mut sub], &net, &clock, 8)
            .unwrap_or_else(|e| panic!("{ctx}: pump g_4: {e}"));

        let g4 = server.receipts().file_by_name("g_4.csv").unwrap().id;
        assert!(
            !held.contains(&g4.raw()),
            "{ctx}: id {g4} reissued to g_4.csv; the subscriber already holds it"
        );
        assert!(
            sub.delivered().iter().any(|(_, feed, _)| feed == "G"),
            "{ctx}: g_4.csv never reached the subscriber: {:?}",
            sub.delivered()
        );
    }
}

const DRAIN_CONFIG: &str = r#"
    feed F { pattern "f_%i.csv"; }
    subscriber alpha { endpoint "alpha"; subscribe F; delivery push; trigger remote "load %N"; }
    subscriber beta  { endpoint "beta";  subscribe F; delivery push; trigger remote "load %N"; }
    subscriber gamma { endpoint "gamma"; subscribe F; delivery push; trigger remote "load %N"; }
"#;

/// The faulted incarnation of the drain sweep. `f_0` is delivered to
/// alpha and beta and receipted; then `f_1` and `f_2` arrive, all three
/// clients poll — gamma for the first time, so it acks all three files
/// and its name is new to the store — and two repeats join the inbox:
/// alpha's ack of `f_0` again (late: receipted long ago) and beta's ack
/// of `f_1` again (inside the drain). The last call, one
/// `poll_network`, is the drain the sweep crashes inside: 9 acks over 3
/// files, logged as gamma's `Subscriber` record and one set per file.
/// Returns the server, the mutating-op count before the drain, and what
/// the drain returned.
fn drain_phase_a(
    clock: &Arc<SimClock>,
    store: Arc<FaultStore>,
    net: &Arc<SimNetwork>,
    clients: &mut [SubscriberClient; 3],
) -> (Server, u64, Result<usize, ServerError>) {
    let config = parse_config(DRAIN_CONFIG).unwrap();
    let mut server = Server::new("b", config, clock.clone(), store.clone())
        .unwrap()
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), SEED);
    server.persist_config().unwrap();
    server.deposit("f_0.csv", &payload(0)).unwrap();
    let now = clock.advance(TimeSpan::from_secs(1));
    for c in &mut clients[..2] {
        c.poll_notifications(net, now);
    }
    clock.advance(TimeSpan::from_secs(1));
    assert_eq!(server.poll_network().unwrap(), 2);

    server.deposit("f_1.csv", &payload(1)).unwrap();
    server.deposit("f_2.csv", &payload(2)).unwrap();
    let now = clock.advance(TimeSpan::from_secs(1));
    for c in clients.iter_mut() {
        c.poll_notifications(net, now);
    }
    let id = |name: &str| server.receipts().file_by_name(name).unwrap().id;
    for (from, file) in [("alpha", id("f_0.csv")), ("beta", id("f_1.csv"))] {
        let ack = Message::Reliable(ReliableMsg::Ack { file, attempt: 1 });
        net.send(now, from, "b", ack);
    }
    clock.advance(TimeSpan::from_secs(1));
    let before = store.mutation_ops();
    let drained = server.poll_network();
    (server, before, drained)
}

fn drain_clients() -> [SubscriberClient; 3] {
    ["alpha", "beta", "gamma"].map(|name| SubscriberClient::new(name, "b"))
}

/// Crash the drain at `crash_op`, recover, check every invariant, and
/// return a digest of all observable state for replay comparison.
fn run_drain_crash(seed: u64, crash_op: u64) -> String {
    let ctx = format!("seed={seed:#x} crash_op={crash_op}");
    let clock = SimClock::starting_at(START);
    let inner = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let faulted = Arc::new(FaultStore::armed(inner.clone(), seed, crash_op));
    let mut clients = drain_clients();
    let (dead, _, drained) = drain_phase_a(&clock, faulted, &net, &mut clients);
    assert!(
        drained.is_err(),
        "{ctx}: crash point inside the drain did not fire"
    );
    let fired = dead.trigger_log().entries();
    drop(dead);

    let mut server = Server::open_existing("b", clock.clone(), inner.clone() as Arc<dyn FileStore>)
        .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"))
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), seed.wrapping_add(1));
    let receipts = server.receipts();
    // invariant: no trigger fired for a receipt that is not durable
    for t in &fired {
        for file in &t.files {
            assert!(
                receipts.is_delivered(*file, &t.subscriber),
                "{ctx}: {} was triggered for {file}, whose receipt did not survive",
                t.subscriber
            );
        }
    }
    // invariant: what was acked and receipted before the drain stays
    let f0 = receipts.file_by_name("f_0.csv").unwrap().id;
    for sub in ["alpha", "beta"] {
        assert!(
            receipts.is_delivered(f0, sub),
            "{ctx}: {sub}'s receipt for f_0 forgotten"
        );
    }
    // invariant: the drain's records survive as a prefix of whole sets,
    // in the order the inbox first names each file — every client's
    // first ack lands before anyone's second, and gamma's first is f_0's
    // (a torn append may keep all of its last record)
    let held = receipts.delivery_count();
    assert!(
        [2, 5, 6, 9].contains(&held),
        "{ctx}: {held} receipts survived — not 2 + a prefix of (f_1 x3, f_0 x1, f_2 x3)"
    );
    // invariant: no live receipt references a missing staged payload
    for rec in receipts.all_live() {
        let staged = format!("staging/{}", rec.staged_path);
        assert!(inner.exists(&staged), "{ctx}: {staged} missing");
    }

    // the lost suffix is a resend, which the clients dedup
    server
        .backfill_unacked()
        .unwrap_or_else(|e| panic!("{ctx}: backfill_unacked: {e}"));
    let [alpha, beta, gamma] = &mut clients;
    pump(&mut server, &mut [alpha, beta, gamma], &net, &clock, 40)
        .unwrap_or_else(|e| panic!("{ctx}: settle pump: {e}"));
    assert_eq!(server.unacked_count(), 0, "{ctx}: unacked after settle");
    assert_eq!(server.receipts().delivery_count(), 9, "{ctx}");
    let mut triggered: Vec<(String, u64)> = (fired.iter())
        .chain(&server.trigger_log().entries())
        .flat_map(|t| t.files.iter().map(|f| (t.subscriber.clone(), f.raw())))
        .collect();
    let total = triggered.len();
    triggered.sort();
    triggered.dedup();
    assert_eq!(triggered.len(), total, "{ctx}: a trigger fired twice");
    for client in &clients {
        let got: BTreeSet<u64> = client.delivered().iter().map(|d| d.0.raw()).collect();
        assert_eq!(got.len(), 3, "{ctx}: {} missed a file", client.endpoint);
        assert_eq!(
            client.delivered().len(),
            3,
            "{ctx}: {} received a file twice",
            client.endpoint
        );
    }

    let mut digest = format!("held={held} triggered={triggered:?}\n");
    for path in walk_files(inner.as_ref(), "").unwrap() {
        let data = inner.read(&path).unwrap();
        digest.push_str(&format!("{path}:{}:{:08x}\n", data.len(), crc32(&data)));
    }
    for client in &clients {
        digest.push_str(&format!(
            "{}={}/{}\n",
            client.endpoint,
            client.delivered().len(),
            client.duplicates_ignored()
        ));
    }
    digest
}

#[test]
fn sweep_ack_drain_is_durable_before_it_is_observable() {
    // The receipts of one `poll_network` drain are one append, written
    // before any of them shows in a trigger: a crash anywhere inside it
    // leaves a prefix of whole set records, no trigger for anything past
    // the prefix, and — after restart and backfill — every file at every
    // client exactly once.
    let (lo, hi) = {
        let clock = SimClock::starting_at(START);
        let counting = Arc::new(FaultStore::counting(MemFs::shared(clock.clone())));
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let (server, lo, drained) =
            drain_phase_a(&clock, counting.clone(), &net, &mut drain_clients());
        assert_eq!(drained.unwrap(), 9, "7 first acks and 2 repeats");
        assert_eq!(server.receipts().delivery_count(), 9);
        assert_eq!(server.trigger_log().len(), 9, "the repeats fired nothing");
        (lo, counting.mutation_ops())
    };
    assert_eq!(hi - lo, 4, "gamma's name + a set per file, nothing else");
    println!("ack-drain sweep: drain ops {lo}..{hi}, seed {SEED:#x}");
    // several seeds per op: where the torn record is cut is seeded
    for (crash_op, seed) in (lo..hi).flat_map(|op| (SEED..SEED + 4).map(move |s| (op, s))) {
        let digest = run_drain_crash(seed, crash_op);
        assert_eq!(
            digest,
            run_drain_crash(seed, crash_op),
            "seed={seed:#x} crash_op={crash_op} did not replay"
        );
    }
}

const REGISTRATION_CONFIG: &str = r#"
    feed F { pattern "f_%i.csv"; }
    subscriber alpha { endpoint "alpha"; subscribe F; delivery push; }
    subscriber zeta  { endpoint "zeta";  subscribe F; delivery push; }
    subscriber delta { endpoint "delta"; subscribe F; delivery push; }
"#;

/// The subscribers the registration sweep adds at runtime, in the order
/// it adds them — not name order, so `zeta` gets the lower id.
const LATE: [&str; 2] = ["zeta", "delta"];

/// The config the registration sweep boots from (`alpha` alone), and
/// the defs of [`LATE`].
fn registration_config() -> (bistro::config::Config, [bistro::config::SubscriberDef; 2]) {
    let mut config = parse_config(REGISTRATION_CONFIG).unwrap();
    let late = LATE.map(|name| {
        let at = config
            .subscribers
            .iter()
            .position(|d| d.name == name)
            .unwrap();
        config.subscribers.remove(at)
    });
    (config, late)
}

fn registration_clients() -> [SubscriberClient; 3] {
    ["alpha", "zeta", "delta"].map(|name| SubscriberClient::new(name, "b"))
}

/// The faulted incarnation of the registration sweep. `alpha` holds a
/// receipted `f_0` (its `Subscriber` record is on the log); then `zeta`
/// and `delta` register at runtime — ids 1 and 2, written nowhere — and
/// are sent `f_0` as backfill, a snapshot leaves both names off the
/// record, `f_1` fans out to all three, and one drain takes the acks of
/// `delta` and `alpha` only: the first delivery sets naming a runtime
/// id, logged behind the `Subscriber` records of ids 1 and 2. Returns the
/// mutating-op count just before the first registration.
fn registration_phase_a(
    clock: &Arc<SimClock>,
    store: Arc<FaultStore>,
    net: &Arc<SimNetwork>,
    clients: &mut [SubscriberClient; 3],
) -> Result<u64, ServerError> {
    let (config, late) = registration_config();
    let mut server = Server::new("b", config, clock.clone(), store.clone())?
        .with_network(net.clone())
        .with_reliable_delivery(retry_policy(), SEED);
    server.persist_config()?;
    let [alpha, _, delta] = clients;
    server.deposit("f_0.csv", &payload(0))?;
    pump(&mut server, &mut [&mut *alpha], net, clock, 2)?;

    let before = store.mutation_ops();
    for def in late {
        server.add_subscriber(def)?;
    }
    server.snapshot()?;
    server.deposit("f_1.csv", &payload(1))?;
    // round one: the two clients ack; round two: the server drains
    pump(&mut server, &mut [delta, alpha], net, clock, 2)?;
    Ok(before)
}

#[test]
fn sweep_registration_until_its_record_is_durable() {
    // A runtime registration writes nothing: the name's id goes on record
    // only ahead of the first delivery set naming it. Crash anywhere from
    // the registration to that set, restart, register the names again —
    // in the other order — and the store must open, a name whose record
    // survived must get its id back, and backfill must bring every file
    // to every subscriber exactly once.
    let (lo, hi) = {
        let clock = SimClock::starting_at(START);
        let counting = Arc::new(FaultStore::counting(MemFs::shared(clock.clone())));
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let lo = registration_phase_a(&clock, counting.clone(), &net, &mut registration_clients())
            .expect("uncrashed scenario must complete");
        let hi = counting.mutation_ops();
        let reopened = Server::open_existing("b", clock, counting as Arc<dyn FileStore>).unwrap();
        assert_eq!(
            LATE.map(|name| reopened.receipts().subscriber_id(name)),
            [Some(SubscriberId(1)), Some(SubscriberId(2))],
            "the drain puts both runtime names on record, in registration order"
        );
        (lo, hi)
    };
    println!("registration sweep: ops {lo}..{hi}, seed {SEED:#x}");
    for (crash_op, seed) in (lo..hi).flat_map(|op| (SEED..SEED + 4).map(move |s| (op, s))) {
        let ctx = format!("seed={seed:#x} crash_op={crash_op}");
        let clock = SimClock::starting_at(START);
        let inner = MemFs::shared(clock.clone());
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let faulted = Arc::new(FaultStore::armed(inner.clone(), seed, crash_op));
        let mut clients = registration_clients();
        assert!(
            registration_phase_a(&clock, faulted, &net, &mut clients).is_err(),
            "{ctx}: crash point after the registration did not fire"
        );

        // a `Subscriber` record out of sequence would fail the reopen
        let reopen = || {
            Server::open_existing("b", clock.clone(), inner.clone() as Arc<dyn FileStore>)
                .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"))
        };
        let mut server = reopen()
            .with_network(net.clone())
            .with_reliable_delivery(retry_policy(), seed.wrapping_add(1));
        let durable = LATE.map(|name| server.receipts().subscriber_id(name));
        for (def, was) in registration_config().1.into_iter().zip(durable).rev() {
            let name = def.name.clone();
            server
                .add_subscriber(def)
                .unwrap_or_else(|e| panic!("{ctx}: add {name} again: {e}"));
            let id = server.receipts().subscriber_id(&name).unwrap();
            if let Some(was) = was {
                assert_eq!(id, was, "{ctx}: {name}'s durable id changed");
            }
        }
        let all = ["alpha", "zeta", "delta"].map(|name| server.receipts().subscriber_id(name));
        assert_eq!(all[0], Some(SubscriberId(0)), "{ctx}: alpha's id moved");
        assert!(
            all[1] != all[2] && all[1..].iter().all(|id| id.unwrap().raw() > 0),
            "{ctx}: ids collide: {all:?}"
        );

        // a crash before f_1's arrival was durable lost it unsent
        if server.receipts().file_by_name("f_1.csv").is_none() {
            server
                .deposit("f_1.csv", &payload(1))
                .unwrap_or_else(|e| panic!("{ctx}: deposit f_1 again: {e}"));
        }
        server
            .backfill_unacked()
            .unwrap_or_else(|e| panic!("{ctx}: backfill_unacked: {e}"));
        let [alpha, zeta, delta] = &mut clients;
        pump(&mut server, &mut [alpha, zeta, delta], &net, &clock, 40)
            .unwrap_or_else(|e| panic!("{ctx}: settle pump: {e}"));
        assert_eq!(server.unacked_count(), 0, "{ctx}: unacked after settle");
        assert_eq!(server.receipts().delivery_count(), 6, "{ctx}: 2 files x 3");
        for client in &clients {
            let got: BTreeSet<u64> = client.delivered().iter().map(|d| d.0.raw()).collect();
            assert_eq!(got.len(), 2, "{ctx}: {} missed a file", client.endpoint);
            assert_eq!(
                client.delivered().len(),
                2,
                "{ctx}: {} received a file twice",
                client.endpoint
            );
        }

        // everything is on record now, and replays to the same ids
        drop(server);
        let again = reopen();
        let replayed = ["alpha", "zeta", "delta"].map(|name| again.receipts().subscriber_id(name));
        assert_eq!(replayed, all, "{ctx}: ids moved on a clean reopen");
    }
}

#[test]
fn sweep_landing_scan_never_loses_a_file() {
    // A non-cooperating source writes straight into landing/ and gets no
    // error to retry on, so a crash anywhere in the scan must leave the
    // file either still in landing/ or durably arrived (the landing
    // copy may only go once the arrival is on disk): after a restart
    // and a rescan it always has a live receipt.
    let config = parse_config(CONFIG).unwrap();
    let scan = |clock: &Arc<SimClock>, store: Arc<FaultStore>| -> Result<u64, ServerError> {
        let mut server = Server::new("b", config.clone(), clock.clone(), store.clone())?;
        server.persist_config()?;
        store.write("landing/f_1.csv", &payload(1))?;
        let before = store.mutation_ops();
        server.scan_landing()?;
        Ok(before)
    };
    let (lo, hi) = swept_ops(scan);
    assert!(hi - lo >= 3, "scan too small to sweep: ops {lo}..{hi}");
    println!("landing-loss sweep: scan ops {lo}..{hi}, seed {SEED:#x}");
    // several seeds per op: the tear offset of a crashed append is
    // seeded, and only a torn arrival shows whether the landing copy
    // outlived it
    for (crash_op, seed) in (lo..hi).flat_map(|op| (SEED..SEED + 4).map(move |s| (op, s))) {
        let ctx = format!("seed={seed:#x} crash_op={crash_op}");
        let clock = SimClock::starting_at(START);
        let inner = MemFs::shared(clock.clone());
        let faulted = Arc::new(FaultStore::armed(inner.clone(), seed, crash_op));
        assert!(
            scan(&clock, faulted).is_err(),
            "{ctx}: crash point inside the scan did not fire"
        );

        let mut server =
            Server::open_existing("b", clock.clone(), inner.clone() as Arc<dyn FileStore>)
                .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
        server
            .scan_landing()
            .unwrap_or_else(|e| panic!("{ctx}: rescan: {e}"));
        let rec = server
            .receipts()
            .file_by_name("f_1.csv")
            .unwrap_or_else(|| panic!("{ctx}: f_1.csv lost: no receipt after restart + rescan"));
        assert!(
            inner.exists(&format!("staging/{}", rec.staged_path)),
            "{ctx}: receipt without a staged payload"
        );
        assert!(
            !inner.exists("landing/f_1.csv"),
            "{ctx}: rescan left the landing copy behind"
        );
    }
}

#[test]
fn expire_tolerates_already_missing_payload() {
    // the leftover of a crash between the expiration receipt and the
    // payload delete is a harmless orphan — and the mirror case, payload
    // gone but receipt lost, must let the next sweep finish the job
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let config = parse_config(CONFIG).unwrap();
    let mut server = Server::new("b", config, clock.clone(), store.clone()).unwrap();
    server.deposit("f_0.csv", &payload(0)).unwrap();
    server.deposit("f_1.csv", &payload(1)).unwrap();
    let victim = server.receipts().all_live()[0].clone();
    store
        .remove(&format!("staging/{}", victim.staged_path))
        .unwrap();

    clock.advance(TimeSpan::from_secs(7_200));
    let n = server.expire().unwrap();
    assert_eq!(n, 2, "missing payload must not block expiration");
    assert_eq!(server.receipts().live_count(), 0);
    // the file that still had its payload was archived; the orphaned
    // receipt expired without one
    let archived = server.archiver().unwrap().archived_files().unwrap();
    assert_eq!(archived.len(), 1);
    assert_ne!(archived[0].id, victim.id);
}

/// Drive deposit → expire with a one-shot transient read fault at
/// `fault_op`, retrying expiration until it converges. Returns the
/// `archiver.skipped` counter. Panics if any file expires without its
/// payload reaching the archive.
fn run_read_fault(fault_op: u64) -> u64 {
    let ctx = format!("read_fault_op={fault_op}");
    let clock = SimClock::starting_at(START);
    let inner = MemFs::shared(clock.clone());
    let faulted: Arc<FaultStore> = Arc::new(FaultStore::with_read_fault(inner.clone(), fault_op));
    let config = parse_config(CONFIG).unwrap();
    let mut server = match Server::new(
        "b",
        config,
        clock.clone(),
        faulted.clone() as Arc<dyn FileStore>,
    ) {
        Ok(s) => s,
        // a transient read failure during recovery surfaces as an open
        // error — that is an operator retry, not a consistency bug
        Err(_) => return 0,
    };
    let mut ingested = Vec::new();
    for i in 0..3 {
        // `deposit` reads nothing back from the store (the payload is
        // staged from the caller's buffer), so a read fault cannot fail
        // it; index what actually arrived below all the same
        let _ = server.deposit(&format!("f_{i}.csv"), &payload(i));
    }
    for rec in server.receipts().all_live() {
        ingested.push(rec.clone());
    }

    clock.advance(TimeSpan::from_secs(7_200));
    for _ in 0..3 {
        server
            .expire()
            .unwrap_or_else(|e| panic!("{ctx}: expire: {e}"));
        if server.receipts().live_count() == 0 {
            break;
        }
    }
    assert_eq!(
        server.receipts().live_count(),
        0,
        "{ctx}: expiration did not converge after retries"
    );

    // nothing may expire without its payload safely in the archive
    let arch = server.archiver().unwrap();
    for rec in &ingested {
        assert!(
            arch.fetch(&rec.staged_path).is_ok(),
            "{ctx}: file {} ({}) expired but its payload never reached the archive",
            rec.id,
            rec.name
        );
    }
    server
        .telemetry()
        .counter_value("archiver.skipped")
        .unwrap_or(0)
}

#[test]
fn read_fault_sweep_never_drops_payload_without_archiving() {
    // size the sweep: count the reads of an unfaulted run
    let reads = {
        let clock = SimClock::starting_at(START);
        let inner = MemFs::shared(clock.clone());
        let counting = Arc::new(FaultStore::counting(inner));
        let config = parse_config(CONFIG).unwrap();
        let mut server = Server::new(
            "b",
            config,
            clock.clone(),
            counting.clone() as Arc<dyn FileStore>,
        )
        .unwrap();
        for i in 0..3 {
            server.deposit(&format!("f_{i}.csv"), &payload(i)).unwrap();
        }
        clock.advance(TimeSpan::from_secs(7_200));
        server.expire().unwrap();
        counting.read_ops()
    };
    // one archive read per expired file — ingest itself reads nothing
    assert!(reads >= 3, "scenario reads too few files: {reads}");

    let mut skips = 0;
    for fault_op in 0..reads {
        skips += run_read_fault(fault_op);
    }
    // at least one fault index must have landed on the archive-read path
    // and been skipped-for-retry rather than silently dropped
    assert!(
        skips >= 1,
        "no read fault ever exercised the archive skip path"
    );
}

const GROUP_CONFIG: &str = r#"
    feed F { pattern "f_%i.csv"; }
    feed G { pattern "g_%i.csv"; }
    subscriber m1 { endpoint "m1"; subscribe F; delivery push; }
    subscriber m2 { endpoint "m2"; subscribe F, G; delivery push; }
    group EDGE { members m1, m2; relay "edge"; }
"#;

/// What the group sweep deposits at the hub, in order. `m1` wants only
/// the `f_` files, so the edge acks `g_2` once `m2` alone has it.
const GROUP_FILES: [&str; 5] = ["f_0.csv", "f_1.csv", "g_2.csv", "f_3.csv", "f_4.csv"];

/// The downstream tier of the group sweep, which outlives every hub
/// incarnation: the edge server on a store of its own, the relay hop into
/// it, and the two members the edge serves.
struct EdgeTier {
    edge: Server,
    relay: Relay,
    members: [SubscriberClient; 2],
    /// A hub drain failed: the crash fired inside a completion append.
    drain_failed: bool,
}

impl EdgeTier {
    fn new(clock: &Arc<SimClock>, net: &Arc<SimNetwork>) -> EdgeTier {
        let config = parse_config(GROUP_CONFIG).unwrap();
        let edge = Server::new("edge", config, clock.clone(), MemFs::shared(clock.clone()))
            .unwrap()
            .with_network(net.clone())
            .with_reliable_delivery(retry_policy(), SEED);
        EdgeTier {
            edge,
            relay: Relay::new(),
            members: ["m1", "m2"].map(|m| SubscriberClient::new(m, "edge")),
            drain_failed: false,
        }
    }

    /// One second of both tiers: the relay pumps the hub's sends into the
    /// edge, acking each send once every member that wants the file has
    /// it; the members poll and ack, the edge drains their acks, and the
    /// hub drains the relay's. A hub error (the crash) propagates.
    fn round(
        &mut self,
        hub: &mut Server,
        net: &SimNetwork,
        clock: &SimClock,
    ) -> Result<(), ServerError> {
        let now = clock.advance(TimeSpan::from_secs(1));
        self.relay.pump(net, hub, &mut self.edge, now)?;
        for m in &mut self.members {
            m.poll_notifications(net, now);
        }
        self.edge.poll_network()?;
        self.edge.retry_tick()?;
        let drained = hub.poll_network();
        self.drain_failed |= drained.is_err();
        drained.map(drop)
    }

    /// Carry the hub's outstanding group sends to completion: the relay
    /// does not ack a first send — the members have not acked yet — and
    /// a forced resend draws its completion ack.
    fn complete(
        &mut self,
        hub: &mut Server,
        net: &SimNetwork,
        clock: &SimClock,
    ) -> Result<(), ServerError> {
        for _ in 0..3 {
            self.round(hub, net, clock)?;
        }
        hub.retry_fire()?;
        for _ in 0..2 {
            self.round(hub, net, clock)?;
        }
        Ok(())
    }
}

/// The faulted hub incarnation of the group sweep: two files completed
/// in one drain, a third that one member does not want, a stale ack for
/// a completed file, a snapshot, then two more files. The hub lands in
/// `hub` once it is built, so the caller can read what it observed.
fn group_phase_a(
    clock: &Arc<SimClock>,
    store: Arc<dyn FileStore>,
    net: &Arc<SimNetwork>,
    tier: &mut EdgeTier,
    seen: &mut BTreeSet<u64>,
    hub: &mut Option<Server>,
) -> Result<(), ServerError> {
    let config = parse_config(GROUP_CONFIG).unwrap();
    let hub =
        hub.insert(Server::new("hub", config, clock.clone(), store)?.with_network(net.clone()));
    let mut deposit = |hub: &mut Server, names: &[&str]| -> Result<(), ServerError> {
        for name in names {
            hub.deposit(name, name.as_bytes())?;
        }
        note_live_ids(hub, seen);
        Ok(())
    };
    deposit(hub, &GROUP_FILES[..2])?;
    tier.complete(hub, net, clock)?;
    deposit(hub, &GROUP_FILES[2..3])?;
    tier.complete(hub, net, clock)?;
    let f0 = hub.receipts().file_by_name(GROUP_FILES[0]).unwrap().id;
    let stale = GroupMsg::Ack {
        group: "EDGE".to_string(),
        file: f0,
    };
    net.send(clock.now(), "edge", "hub", Message::Group(stale));
    tier.round(hub, net, clock)?;
    hub.snapshot()?;
    deposit(hub, &GROUP_FILES[3..])?;
    tier.complete(hub, net, clock)
}

/// Crash the hub of the group sweep at `crash_op`, reopen it on the
/// surviving bytes beside the running edge tier, and check every
/// invariant. Returns whether the crash fired inside a hub drain.
fn run_group_crash(seed: u64, crash_op: u64) -> bool {
    let ctx = format!("seed={seed:#x} crash_op={crash_op}");
    let clock = SimClock::starting_at(START);
    let inner = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let faulted = Arc::new(FaultStore::armed(inner.clone(), seed, crash_op));
    let mut tier = EdgeTier::new(&clock, &net);
    let mut seen = BTreeSet::new();
    let mut dead = None;
    assert!(
        group_phase_a(&clock, faulted, &net, &mut tier, &mut seen, &mut dead).is_err(),
        "{ctx}: crash point did not fire"
    );
    // the group receipts the dead hub held in memory, each of which it
    // counted as a completion once its append returned
    let observed: Vec<String> = (dead.iter())
        .flat_map(|h| {
            let receipts = h.receipts();
            let completed = h.telemetry().counter_value("group.completed");
            let held: Vec<String> = (receipts.all_live().into_iter())
                .filter(|r| receipts.is_delivered(r.id, "EDGE"))
                .map(|r| r.name)
                .collect();
            assert_eq!(
                completed,
                Some(held.len() as u64),
                "{ctx}: tails ran unreceipted"
            );
            held
        })
        .collect();
    drop(dead);

    let config = parse_config(GROUP_CONFIG).unwrap();
    let mut hub = Server::new(
        "hub",
        config,
        clock.clone(),
        inner.clone() as Arc<dyn FileStore>,
    )
    .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"))
    .with_network(net.clone());
    let receipts = hub.receipts();
    let group = receipts.subscriber_id("EDGE");
    assert_eq!(
        group,
        Some(SubscriberId(0)),
        "{ctx}: the group registers first"
    );
    // invariant: no receipt dangles — each live file's payload is staged,
    // and its delivered set names the group alone
    for rec in receipts.all_live() {
        let staged = format!("staging/{}", rec.staged_path);
        assert!(inner.exists(&staged), "{ctx}: {staged} missing");
        let delivered: Vec<u32> = receipts.delivered_ids(rec.id).unwrap().ones().collect();
        assert!(
            delivered.is_empty() || delivered == [0],
            "{ctx}: {} delivered to ids {delivered:?}",
            rec.name
        );
    }
    // invariant: a completion the dead hub counted is durable
    for name in &observed {
        let rec = receipts.file_by_name(name);
        assert!(
            rec.is_some_and(|r| receipts.is_delivered(r.id, "EDGE")),
            "{ctx}: the group receipt of {name} was counted and lost"
        );
    }
    note_live_ids(&hub, &mut seen);

    // invariant: backfill re-sends exactly the live files whose group
    // receipt is missing
    let owed = (receipts.all_live().iter())
        .filter(|r| !receipts.is_delivered(r.id, "EDGE"))
        .count();
    let resent = hub
        .backfill_unacked()
        .unwrap_or_else(|e| panic!("{ctx}: backfill_unacked: {e}"));
    assert_eq!(
        resent, owed,
        "{ctx}: backfill re-sent {resent} of {owed} owed"
    );
    assert_eq!(hub.group_outstanding(), owed, "{ctx}");

    // an arrival the crash lost was never sent: deposit it again, under
    // an id nobody has seen
    for name in GROUP_FILES {
        if hub.receipts().file_by_name(name).is_none() {
            hub.deposit(name, name.as_bytes())
                .unwrap_or_else(|e| panic!("{ctx}: deposit {name} again: {e}"));
            let id = hub.receipts().file_by_name(name).unwrap().id.raw();
            assert!(seen.insert(id), "{ctx}: id {id} reused for {name}");
        }
    }
    tier.complete(&mut hub, &net, &clock)
        .unwrap_or_else(|e| panic!("{ctx}: settle: {e}"));

    // invariant: every file completed once, at every member that wants it
    assert_eq!(
        hub.group_outstanding(),
        0,
        "{ctx}: outstanding after settle"
    );
    assert_eq!(
        tier.edge.unacked_count(),
        0,
        "{ctx}: edge unacked after settle"
    );
    let receipts = hub.receipts();
    assert_eq!(receipts.live_count(), GROUP_FILES.len(), "{ctx}");
    for rec in receipts.all_live() {
        assert!(
            receipts.is_delivered(rec.id, "EDGE"),
            "{ctx}: {} incomplete after settle",
            rec.name
        );
    }
    for (member, wants) in tier.members.iter().zip([4, 5]) {
        let got: BTreeSet<u64> = member.delivered().iter().map(|d| d.0.raw()).collect();
        assert_eq!(got.len(), wants, "{ctx}: {} missed a file", member.endpoint);
        assert_eq!(
            member.delivered().len(),
            wants,
            "{ctx}: {} received a file twice",
            member.endpoint
        );
    }

    // invariant: the next arrival takes a fresh id
    hub.deposit("f_5.csv", b"f_5.csv")
        .unwrap_or_else(|e| panic!("{ctx}: deposit f_5: {e}"));
    let f5 = hub.receipts().file_by_name("f_5.csv").unwrap().id.raw();
    assert!(!seen.contains(&f5), "{ctx}: id {f5} reused for f_5.csv");
    tier.drain_failed
}

#[test]
fn sweep_hub_crash_across_group_completion_drains() {
    // The hub receipts a relay group once, when the relay acks its send:
    // a `Delivered` set over the group's own id in the drain's one
    // append, its count and log line after. Crash the hub at every
    // storage op of a run with completing and stale acks and a snapshot,
    // reopen it beside the running edge, and the store opens, a counted
    // completion is durable, backfill re-sends exactly the files without
    // their receipt, and every member gets every file it wants once.
    let total = {
        let clock = SimClock::starting_at(START);
        let counting = Arc::new(FaultStore::counting(MemFs::shared(clock.clone())));
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let mut tier = EdgeTier::new(&clock, &net);
        let mut hub = None;
        let store = counting.clone() as Arc<dyn FileStore>;
        group_phase_a(
            &clock,
            store,
            &net,
            &mut tier,
            &mut BTreeSet::new(),
            &mut hub,
        )
        .expect("uncrashed scenario must complete");
        let hub = hub.unwrap();
        let completed = hub.telemetry().counter_value("group.completed");
        assert_eq!(
            completed,
            Some(GROUP_FILES.len() as u64),
            "the stale ack counts nothing"
        );
        assert_eq!(
            hub.stats().deliveries,
            0,
            "a group receipt is no subscriber delivery"
        );
        // one completion ack per file, after one forced resend per file
        assert_eq!(hub.group_counters(), (5, 5, 0));
        counting.mutation_ops()
    };
    let mut in_drain = 0;
    for (crash_op, seed) in (0..total).flat_map(|op| (SEED..SEED + 2).map(move |s| (op, s))) {
        in_drain += usize::from(run_group_crash(seed, crash_op));
    }
    println!(
        "group-receipt sweep: {total} hub storage ops, {in_drain} crashes inside a drain, \
         seed {SEED:#x}"
    );
    assert!(
        in_drain > 0,
        "the sweep never crashed inside a completion append"
    );
}

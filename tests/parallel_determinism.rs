//! Property test for the parallel ingest determinism contract: for
//! random seeded file batches, `deposit_batch` with N workers produces
//! the same classifications, receipt sequence numbers, raw WAL segment
//! bytes, telemetry totals and `status_json` bytes as one worker, for
//! N ∈ {2, 4, 8} — and for the one-ingest-path contract: `deposit`,
//! `deposit_batch` at any chunking (so any commit-window size),
//! `notify_deposit` and `scan_landing` are four doors into the same
//! commit, so the same files through any of them leave the same bytes
//! behind.

use bistro::base::prop::{self, Runner};
use bistro::base::{prop_assert_eq, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::vfs::{walk_files, FileStore, MemFs};

const START: TimePoint = TimePoint::from_secs(1_285_372_800);

const CONFIG: &str = r#"
    feed SNMP/MEM { pattern "MEM_poller%i_%Y%m%d%H%M.csv"; }
    feed SNMP/CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; compress rle; }
    feed WILD     { pattern "*_%Y%m%d%H%M.csv"; }

    subscriber warehouse {
        endpoint "wh";
        subscribe SNMP;
        delivery push;
        batch count 3 window 10m;
        trigger remote "refresh %N n=%c";
    }
"#;

/// Which entry point a [`run`] feeds its files through.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// `deposit`, one call per file.
    Single,
    /// `deposit_batch`, each round cut into chunks of at most this many.
    Batch(usize),
    /// Files pre-written into `landing/`, then `notify_deposit` each.
    Notify,
    /// Files pre-written into `landing/`, then one `scan_landing`.
    Scan,
}

/// Everything the determinism contracts cover.
#[derive(Clone, Debug, PartialEq)]
struct Observed {
    /// Receipt records: names, ids, feed classifications.
    receipts: String,
    /// Every trigger firing, in order.
    triggers: String,
    /// Every event-log line, in order.
    events: String,
    /// `path:hex` of everything under `staging/` and `unknown/`.
    payloads: String,
    /// Files left in `landing/`.
    landing: Vec<String>,
    /// The full `status_json` rendering (telemetry totals included).
    status: String,
    /// The raw WAL segment bytes.
    wal: String,
}

/// Run `rounds` of deposits through `entry` with the given worker
/// count; the clock moves (and the server ticks) only between rounds.
fn run(config: &str, rounds: &[Vec<(String, Vec<u8>)>], entry: Entry, workers: usize) -> Observed {
    run_counting(config, rounds, entry, workers).0
}

/// [`run`], plus how many files were prepared on a pool thread other
/// than the caller's — the one figure that *must* differ with the worker
/// count, or the sweeps below compare inline with inline. The server
/// fans out only under a config where some feed compresses; both
/// configs here have one.
fn run_counting(
    config: &str,
    rounds: &[Vec<(String, Vec<u8>)>],
    entry: Entry,
    workers: usize,
) -> (Observed, u64) {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = Server::new(
        "b",
        parse_config(config).unwrap(),
        clock.clone(),
        store.clone(),
    )
    .unwrap()
    .with_workers(workers);
    for round in rounds {
        if matches!(entry, Entry::Notify | Entry::Scan) {
            for (name, data) in round {
                store.write(&format!("landing/{name}"), data).unwrap();
            }
        }
        match entry {
            Entry::Single => {
                for (name, data) in round {
                    server.deposit(name, data).unwrap();
                }
            }
            Entry::Batch(chunk) => {
                for files in round.chunks(chunk) {
                    server.deposit_batch(files.to_vec()).unwrap();
                }
            }
            Entry::Notify => {
                for (name, _) in round {
                    server.notify_deposit(name).unwrap();
                }
            }
            Entry::Scan => assert_eq!(server.scan_landing().unwrap(), round.len()),
        }
        clock.advance(TimeSpan::from_secs(30));
        server.tick();
    }
    let receipts: Vec<String> = server
        .receipts()
        .all_live()
        .iter()
        .map(|r| format!("{}#{}→{:?}", r.name, r.id.raw(), r.feeds))
        .collect();
    let hex_dump = |dir: &str| -> String {
        walk_files(store.as_ref(), dir)
            .unwrap()
            .iter()
            .map(|path| {
                let hex: String = store
                    .read(path)
                    .unwrap()
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect();
                format!("{path}:{hex};")
            })
            .collect()
    };
    let off_thread: u64 = server
        .pool_telemetry()
        .counters_sorted()
        .iter()
        .filter(|(name, _)| {
            name.starts_with("pool.worker")
                && name.ends_with(".files")
                && name != "pool.worker0.files"
        })
        .map(|(_, files)| files)
        .sum();
    let observed = Observed {
        receipts: receipts.join(";"),
        triggers: format!("{:?}", server.trigger_log().entries()),
        events: format!("{:?}", server.event_log().recent()),
        payloads: hex_dump("staging") + &hex_dump("unknown"),
        landing: walk_files(store.as_ref(), "landing").unwrap(),
        status: server.status_json().render(),
        wal: hex_dump("receipts"),
    };
    (observed, off_thread)
}

#[test]
fn deposit_batch_is_deterministic_across_worker_counts() {
    // the sweep is only worth its name if `workers > 1` really fans out
    // under CONFIG: eight files over four workers put six off-thread
    let round: Vec<(String, Vec<u8>)> = (0..8)
        .map(|i| (format!("MEM_poller{i}_201009250400.csv"), vec![b'm'; 16]))
        .collect();
    let (_, off_thread) = run_counting(CONFIG, &[round], Entry::Batch(usize::MAX), 4);
    assert_eq!(off_thread, 6, "CONFIG no longer makes the server fan out");

    Runner::new("deposit_batch_is_deterministic_across_worker_counts")
        .cases(16)
        .run(
            |rng| {
                let rounds = rng.gen_range(1u64..4) as usize;
                (0..rounds)
                    .map(|_| {
                        let n = rng.gen_range(0u64..16) as usize;
                        (0..n)
                            .map(|_| {
                                let name = match rng.gen_range(0u32..4) {
                                    0 => format!(
                                        "MEM_poller{}_2010092504{:02}.csv",
                                        rng.gen_range(0u64..5),
                                        rng.gen_range(0u64..60)
                                    ),
                                    1 => format!(
                                        "CPU_poller{}_2010092504{:02}.csv",
                                        rng.gen_range(0u64..5),
                                        rng.gen_range(0u64..60)
                                    ),
                                    2 => format!(
                                        "{}_2010092504{:02}.csv",
                                        prop::string(rng, "a-z", 1..=6),
                                        rng.gen_range(0u64..60)
                                    ),
                                    // unknown names park in unknown/
                                    _ => format!("{}.dat", prop::string(rng, "a-z0-9", 1..=8)),
                                };
                                let payload = prop::string(rng, "a-z0-9,", 0..=64).into_bytes();
                                (name, payload)
                            })
                            .collect::<Vec<(String, Vec<u8>)>>()
                    })
                    .collect::<Vec<_>>()
            },
            |rounds| {
                // reference: one worker; any worker count must reproduce it
                let reference = run(CONFIG, rounds, Entry::Batch(usize::MAX), 1);
                for workers in [2, 4, 8] {
                    let got = run(CONFIG, rounds, Entry::Batch(usize::MAX), workers);
                    prop_assert_eq!(&got, &reference, "run diverges at workers={}", workers);
                }
                Ok(())
            },
        );
}

/// A config that makes prepare do real work: a multi-feed match, an
/// lzss-compressed feed and a `normalize` staging template.
const ENTRY_CONFIG: &str = r#"
    feed SNMP/MEM { pattern "MEM_poller%i_%Y%m%d%H%M.csv"; normalize "%Y/%m/%d/%f"; }
    feed SNMP/CPU { pattern "CPU_poller%i_%Y%m%d%H%M.csv"; compress lzss; }
    feed WILD     { pattern "*_%Y%m%d%H%M.csv"; }

    subscriber warehouse {
        endpoint "wh";
        subscribe SNMP;
        delivery push;
        batch count 3 window 10m;
        trigger remote "refresh %N n=%c";
    }
    subscriber wild { endpoint "wild"; subscribe WILD; delivery notify; }
"#;

#[test]
fn four_entry_points_are_one_path() {
    // sorted by name: a landing scan walks the directory in that order
    let mut files: Vec<(String, Vec<u8>)> = (0..4)
        .flat_map(|i| {
            [
                (
                    format!("MEM_poller{i}_20100925040{i}.csv"),
                    format!("mem,{i},").repeat(40).into_bytes(),
                ),
                (
                    format!("CPU_poller{i}_20100925040{i}.csv"),
                    format!("cpu,{i},").repeat(40).into_bytes(),
                ),
                (
                    format!("disk{i}_20100925040{i}.csv"),
                    format!("wild-only-{i}").into_bytes(),
                ),
            ]
        })
        .collect();
    files.push(("mystery.dat".to_string(), b"???".to_vec()));
    files.sort();
    let n = files.len();
    let rounds = [files];

    for workers in [1, 4] {
        let ctx = format!("workers={workers}");
        let single = run(ENTRY_CONFIG, &rounds, Entry::Single, workers);
        assert_eq!(single.receipts.split(';').count(), n - 1, "{ctx}");
        assert!(single.payloads.contains("unknown/mystery.dat:"), "{ctx}");
        assert_ne!(single.triggers, "[]", "{ctx}: no batch ever closed");
        assert!(single.landing.is_empty(), "{ctx}: {:?}", single.landing);

        // any chunking of deposit_batch is the same commit, status
        // (store-op tallies included) and all
        for chunk in [1, 3, n] {
            let (batch, off_thread) =
                run_counting(ENTRY_CONFIG, &rounds, Entry::Batch(chunk), workers);
            assert_eq!(batch, single, "{ctx}: deposit_batch chunk={chunk}");
            // … and at four workers the whole-round batch really did
            // leave the caller's thread to get there
            if workers > 1 && chunk == n {
                assert!(off_thread > 0, "{ctx}: prepared inline");
            }
        }
        // the landing callers read and remove the source copy on top
        // (so the vfs tallies in status differ); everything else is
        // byte-identical and nothing stays in landing/
        for entry in [Entry::Notify, Entry::Scan] {
            let landed = run(ENTRY_CONFIG, &rounds, entry, workers);
            let expected = Observed {
                status: landed.status.clone(),
                ..single.clone()
            };
            assert_eq!(landed, expected, "{ctx}: {entry:?}");
            assert_ne!(landed.status, single.status, "{ctx}: {entry:?}");
        }
    }
}

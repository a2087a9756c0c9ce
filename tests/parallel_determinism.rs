//! Property test for the parallel ingest determinism contract: for
//! random seeded file batches, `deposit_batch` with N workers and a
//! WAL group-commit size of G produces the same classifications,
//! receipt sequence numbers, raw WAL segment bytes, telemetry totals
//! and `status_json` bytes as one worker committing record-by-record,
//! for N ∈ {2, 4, 8} × G ∈ {1, 2, 7, 64}.

use bistro::base::prop::{self, Runner};
use bistro::base::{prop_assert_eq, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::vfs::{walk_files, MemFs};

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

/// Hex dump of every WAL segment under `receipts/` — the physical
/// byte-identity surface of the group-commit contract.
fn wal_dump(server: &Server) -> String {
    let store = server.store();
    let mut out = String::new();
    for path in walk_files(store.as_ref(), "receipts").unwrap() {
        let data = store.read(&path).unwrap();
        out.push_str(&path);
        out.push(':');
        for b in data {
            out.push_str(&format!("{b:02x}"));
        }
        out.push(';');
    }
    out
}

/// Run `rounds` of batch deposits with the given worker count and
/// group-commit size and return everything the determinism contract
/// covers: the receipt records (names, ids, feed classifications), the
/// trigger log length, the full status_json rendering (telemetry totals
/// included) and the raw WAL segment bytes.
fn run(
    rounds: &[Vec<(String, Vec<u8>)>],
    workers: usize,
    group: usize,
) -> (String, usize, String, String) {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let mut server = Server::new("b", parse_config(CONFIG).unwrap(), clock.clone(), store)
        .unwrap()
        .with_workers(workers)
        .with_commit_group(group);
    for batch in rounds {
        server.deposit_batch(batch.clone()).unwrap();
        clock.advance(TimeSpan::from_secs(30));
        server.tick();
    }
    let receipts: Vec<String> = server
        .receipts()
        .all_live()
        .iter()
        .map(|r| format!("{}#{}→{:?}", r.name, r.id.raw(), r.feeds))
        .collect();
    let wal = wal_dump(&server);
    (
        receipts.join(";"),
        server.trigger_log().len(),
        server.status_json().render(),
        wal,
    )
}

#[test]
fn deposit_batch_is_deterministic_across_worker_counts() {
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
                // reference: one worker, record-by-record WAL appends
                let reference = run(rounds, 1, 1);
                // sweep both axes plus combinations: any worker count ×
                // any group-commit size must reproduce the reference
                for (workers, group) in [
                    (2, 1),
                    (4, 1),
                    (8, 1),
                    (1, 2),
                    (1, 7),
                    (1, 64),
                    (4, 7),
                    (8, 64),
                ] {
                    let got = run(rounds, workers, group);
                    prop_assert_eq!(
                        &got.0,
                        &reference.0,
                        "receipts diverge at workers={} group={}",
                        workers,
                        group
                    );
                    prop_assert_eq!(
                        got.1,
                        reference.1,
                        "triggers diverge at workers={} group={}",
                        workers,
                        group
                    );
                    prop_assert_eq!(
                        &got.2,
                        &reference.2,
                        "status diverges at workers={} group={}",
                        workers,
                        group
                    );
                    prop_assert_eq!(
                        &got.3,
                        &reference.3,
                        "WAL bytes diverge at workers={} group={}",
                        workers,
                        group
                    );
                }
                Ok(())
            },
        );
}

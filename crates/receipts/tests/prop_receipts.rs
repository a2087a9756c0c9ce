//! Property-based tests: the receipt store's queue computation must match
//! a trivial model under arbitrary interleavings of operations, and
//! recovery must be lossless at every prefix.

use bistro_base::prop::{self, Runner, Shrink};
use bistro_base::rng::Rng;
use bistro_base::{prop_assert, prop_assert_eq, FileId, SimClock, TimePoint};
use bistro_receipts::{DeliveryOutcome, ReceiptStore, Record};
use bistro_vfs::{FileStore, MemFs};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Arrive { feed: u8 },
    Deliver { file_idx: usize, sub: u8 },
    Expire { file_idx: usize },
    Snapshot,
    Crash,
}

// ops don't shrink individually; the op *sequence* shrinks structurally
impl Shrink for Op {}

fn op_gen(rng: &mut Rng) -> Op {
    // weights 4:4:1:1:1, as the original proptest strategy had
    match rng.gen_range(0u32..11) {
        0..=3 => Op::Arrive {
            feed: rng.gen_range(0u8..3),
        },
        4..=7 => Op::Deliver {
            file_idx: rng.gen_range(0usize..64),
            sub: rng.gen_range(0u8..3),
        },
        8 => Op::Expire {
            file_idx: rng.gen_range(0usize..64),
        },
        9 => Op::Snapshot,
        _ => Op::Crash,
    }
}

/// Reference model: plain sets.
#[derive(Default)]
struct Model {
    files: BTreeMap<u64, String>,       // id -> feed
    delivered: BTreeSet<(u64, String)>, // (id, sub)
    expired: BTreeSet<u64>,
}

impl Model {
    fn pending(&self, sub: &str, feed: &str) -> Vec<u64> {
        self.files
            .iter()
            .filter(|(id, f)| {
                f.as_str() == feed
                    && !self.expired.contains(id)
                    && !self.delivered.contains(&(**id, sub.to_string()))
            })
            .map(|(id, _)| *id)
            .collect()
    }
}

#[test]
fn store_matches_model() {
    Runner::new("store_matches_model").cases(48).run(
        |rng| prop::vec_of(rng, 1..=59, op_gen),
        |ops| {
            let store = MemFs::shared(SimClock::new());
            let mut db = ReceiptStore::open(store.clone() as Arc<dyn FileStore>, "r").unwrap();
            let mut model = Model::default();
            let mut live_ids: Vec<u64> = Vec::new();
            let mut t = 0u64;

            for op in ops {
                t += 1;
                match op {
                    Op::Arrive { feed } => {
                        let feed = format!("feed{feed}");
                        let id = db
                            .record_arrival(
                                &format!("f{t}.csv"),
                                &format!("staging/f{t}.csv"),
                                10,
                                TimePoint::from_secs(t),
                                None,
                                vec![feed.clone()],
                            )
                            .unwrap();
                        model.files.insert(id.raw(), feed);
                        live_ids.push(id.raw());
                    }
                    Op::Deliver { file_idx, sub } => {
                        if live_ids.is_empty() {
                            continue;
                        }
                        let id = live_ids[file_idx % live_ids.len()];
                        if model.expired.contains(&id) {
                            continue;
                        }
                        let sub = format!("sub{sub}");
                        db.record_delivery(FileId(id), &sub, TimePoint::from_secs(t))
                            .unwrap();
                        model.delivered.insert((id, sub));
                    }
                    Op::Expire { file_idx } => {
                        if live_ids.is_empty() {
                            continue;
                        }
                        let id = live_ids[file_idx % live_ids.len()];
                        if model.expired.contains(&id) {
                            continue;
                        }
                        db.record_expiration(FileId(id), TimePoint::from_secs(t))
                            .unwrap();
                        model.expired.insert(id);
                    }
                    Op::Snapshot => {
                        db.snapshot().unwrap();
                    }
                    Op::Crash => {
                        drop(db);
                        db = ReceiptStore::open(store.clone() as Arc<dyn FileStore>, "r").unwrap();
                    }
                }

                // invariant: queues match the model for every (sub, feed)
                for sub_i in 0..3u8 {
                    for feed_i in 0..3u8 {
                        let sub = format!("sub{sub_i}");
                        let feed = format!("feed{feed_i}");
                        let got: Vec<u64> = db
                            .pending_for(&sub, std::slice::from_ref(&feed))
                            .into_iter()
                            .map(|f| f.id.raw())
                            .collect();
                        let want = model.pending(&sub, &feed);
                        prop_assert_eq!(&got, &want, "sub {} feed {}", sub, feed);
                    }
                }
            }
            Ok(())
        },
    );
}

/// One step of [`delivery_sets_match_per_pair_receipts`]: `Deliver`s
/// gather into a drain until one of them cuts it or another kind of op
/// comes.
#[derive(Debug, Clone)]
enum DrainOp {
    Arrive { feed: u8 },
    Deliver { file_idx: usize, sub: u8, cut: bool },
    Expire { file_idx: usize },
    Snapshot,
    Crash,
}

impl Shrink for DrainOp {}

fn drain_op_gen(rng: &mut Rng) -> DrainOp {
    match rng.gen_range(0u32..16) {
        0..=3 => DrainOp::Arrive {
            feed: rng.gen_range(0u8..2),
        },
        // 12 subscribers: ids reach the bitmap's second byte
        4..=12 => DrainOp::Deliver {
            file_idx: rng.gen_range(0usize..64),
            sub: rng.gen_range(0u8..12),
            cut: rng.gen_range(0u32..4) == 0,
        },
        13 => DrainOp::Expire {
            file_idx: rng.gen_range(0usize..64),
        },
        14 => DrainOp::Snapshot,
        _ => DrainOp::Crash,
    }
}

/// Everything a caller can ask two stores about deliveries must agree.
fn assert_same_deliveries(
    sets: &ReceiptStore,
    pairs: &ReceiptStore,
    files: &[u64],
) -> Result<(), String> {
    prop_assert_eq!(sets.state_digest(), pairs.state_digest());
    prop_assert_eq!(sets.delivery_count(), pairs.delivery_count());
    prop_assert_eq!(sets.live_count(), pairs.live_count());
    for sub in (0..12).map(|i| format!("sub{i}")) {
        for &id in files {
            let id = FileId(id);
            prop_assert_eq!(sets.is_delivered(id, &sub), pairs.is_delivered(id, &sub));
            let owes = |db: &ReceiptStore| db.file(id).is_some() && !db.is_delivered(id, &sub);
            prop_assert_eq!(owes(sets), owes(pairs));
        }
        let feeds = ["feed0".to_string(), "feed1".to_string()];
        prop_assert_eq!(
            sets.pending_for(&sub, &feeds),
            pairs.pending_for(&sub, &feeds)
        );
    }
    // the backfill query: the same receipts
    let marks = |db: &ReceiptStore| -> Result<BTreeSet<(String, String)>, String> {
        let marks = db.deliveries_after(FileId(0));
        prop_assert_eq!(marks.len() as u64, marks_of_live(db));
        Ok(marks
            .into_iter()
            .map(|m| (m.file_name, m.subscriber))
            .collect())
    };
    prop_assert_eq!(marks(sets)?, marks(pairs)?);
    Ok(())
}

/// Receipts held by live files, counted pair by pair.
fn marks_of_live(db: &ReceiptStore) -> u64 {
    let subs: Vec<String> = (0..12).map(|i| format!("sub{i}")).collect();
    (db.all_live().iter())
        .map(|f| subs.iter().filter(|s| db.is_delivered(f.id, s)).count() as u64)
        .sum()
}

/// The set entry point is an encoding, not a behaviour: the same
/// operations driven through `record_deliveries` — in drains of random
/// size — and through one `record_delivery` per pair leave two stores no
/// query can tell apart, before and after reopening, with snapshots and
/// expirations in between.
#[test]
fn delivery_sets_match_per_pair_receipts() {
    Runner::new("delivery_sets_match_per_pair_receipts")
        .cases(48)
        .run(
            |rng| prop::vec_of(rng, 1..=79, drain_op_gen),
            |ops| {
                let open = |fs: &Arc<MemFs>| {
                    ReceiptStore::open(fs.clone() as Arc<dyn FileStore>, "r").unwrap()
                };
                let (fs_sets, fs_pairs) = (
                    MemFs::shared(SimClock::new()),
                    MemFs::shared(SimClock::new()),
                );
                let (mut sets, mut pairs) = (open(&fs_sets), open(&fs_pairs));
                let mut files: Vec<u64> = Vec::new();
                // (pair, what the per-pair path said) awaiting `sets`
                let mut drain: Vec<((FileId, String), bool)> = Vec::new();
                let mut t = 0u64;

                let flush = |sets: &ReceiptStore,
                             drain: &mut Vec<((FileId, String), bool)>,
                             t: u64|
                 -> Result<(), String> {
                    let pairs: Vec<_> = (drain.iter())
                        .map(|((f, s), _)| (*f, sets.register_subscriber(s)))
                        .collect();
                    let outcomes = sets
                        .record_deliveries(pairs, TimePoint::from_secs(t))
                        .unwrap();
                    prop_assert_eq!(outcomes.len(), drain.len());
                    for (outcome, (pair, accepted)) in outcomes.iter().zip(drain.drain(..)) {
                        let refused = *outcome == DeliveryOutcome::UnknownFile;
                        prop_assert_eq!(refused, !accepted, "pair {:?}", pair);
                    }
                    Ok(())
                };

                for op in ops {
                    t += 1;
                    if !matches!(op, DrainOp::Deliver { .. }) {
                        flush(&sets, &mut drain, t)?;
                    }
                    match op {
                        DrainOp::Arrive { feed } => {
                            let arrive = |db: &ReceiptStore| {
                                db.record_arrival(
                                    &format!("f{t}.csv"),
                                    &format!("staging/f{t}.csv"),
                                    10,
                                    TimePoint::from_secs(t),
                                    None,
                                    vec![format!("feed{feed}")],
                                )
                                .unwrap()
                            };
                            let id = arrive(&sets);
                            prop_assert_eq!(id, arrive(&pairs));
                            files.push(id.raw());
                        }
                        DrainOp::Deliver { file_idx, sub, cut } => {
                            // expired files stay in `files`: a late ack
                            // names one, and both paths must refuse it
                            let id = match files.get(file_idx % files.len().max(1)) {
                                Some(&id) => FileId(id),
                                None => FileId(999),
                            };
                            let sub = format!("sub{sub}");
                            let accepted = pairs
                                .record_delivery(id, &sub, TimePoint::from_secs(t))
                                .is_ok();
                            drain.push(((id, sub), accepted));
                            if *cut {
                                flush(&sets, &mut drain, t)?;
                            }
                        }
                        DrainOp::Expire { file_idx } => {
                            if let Some(&id) = files.get(file_idx % files.len().max(1)) {
                                for db in [&sets, &pairs] {
                                    db.record_expiration(FileId(id), TimePoint::from_secs(t))
                                        .unwrap();
                                }
                            }
                        }
                        DrainOp::Snapshot => {
                            sets.snapshot().unwrap();
                            pairs.snapshot().unwrap();
                        }
                        DrainOp::Crash => {
                            drop((sets, pairs));
                            (sets, pairs) = (open(&fs_sets), open(&fs_pairs));
                        }
                    }
                    if drain.is_empty() {
                        assert_same_deliveries(&sets, &pairs, &files)?;
                    }
                }
                flush(&sets, &mut drain, t)?;
                assert_same_deliveries(&sets, &pairs, &files)?;
                drop((sets, pairs));
                let (sets, pairs) = (open(&fs_sets), open(&fs_pairs));
                prop_assert_eq!(sets.recovery_info().undecodable_records, 0);
                assert_same_deliveries(&sets, &pairs, &files)
            },
        );
}

/// One step of [`the_checkpoint_rule_bounds_what_a_reopen_replays`].
#[derive(Debug, Clone)]
enum RuleOp {
    Arrive {
        feed: u8,
    },
    /// One drain: a delivery set per file, to the subscribers in `subs`'
    /// low 12 bits.
    Deliver {
        file_idx: usize,
        subs: u16,
    },
    Expire {
        file_idx: usize,
    },
    /// A group-commit window of `arrivals` arrivals and a set for the
    /// first, flushed after the first; with `crash` the process dies
    /// before the window ends, losing whatever the flush did not write.
    Window {
        arrivals: u8,
        crash: bool,
    },
    Crash,
}

impl Shrink for RuleOp {}

fn rule_op_gen(rng: &mut Rng) -> RuleOp {
    match rng.gen_range(0u32..16) {
        0..=5 => RuleOp::Arrive {
            feed: rng.gen_range(0u8..2),
        },
        6..=9 => RuleOp::Deliver {
            file_idx: rng.gen_range(0usize..64),
            subs: rng.gen_range(1u16..1 << 12),
        },
        10..=11 => RuleOp::Expire {
            file_idx: rng.gen_range(0usize..64),
        },
        12..=14 => RuleOp::Window {
            arrivals: rng.gen_range(1u8..12),
            crash: rng.gen_range(0u32..4) == 0,
        },
        _ => RuleOp::Crash,
    }
}

/// Bytes of the receipt WAL segments in `fs` — the records a reopen
/// replays — and of its snapshot (0 without one).
fn on_disk(fs: &MemFs) -> (u64, u64) {
    let wal = (fs.list_dir("r/wal").unwrap().iter())
        .map(|e| fs.read(&format!("r/wal/{}", e.name)).unwrap().len() as u64)
        .sum();
    let snapshot = fs.read("r/snapshot.bin").map_or(0, |d| d.len() as u64);
    (wal, snapshot)
}

/// The checkpoint rule, checked from the outside. Two stores take the
/// same seeded arrivals, delivery sets, expirations and group windows,
/// with crashes between commits and inside windows: one with a small WAL
/// segment, so the rule fires, and one at the default 1 MiB, which never
/// reaches the floor.
///
/// * After every commit the small store's WAL on disk is within the
///   threshold `max(segment, 4 × snapshot.bin)`; a crash inside a window
///   replays at most the threshold plus the window's flushed bytes.
/// * After every reopen both stores hold the same state
///   ([`ReceiptStore::state_digest`]).
/// * The store under the floor writes nothing but its WAL records: no
///   snapshot, and the vfs ledger's bytes are the segment's bytes.
#[test]
fn the_checkpoint_rule_bounds_what_a_reopen_replays() {
    Runner::new("the_checkpoint_rule_bounds_what_a_reopen_replays")
        .cases(48)
        .run(
            |rng| {
                let segment = prop::select(rng, &[96u64, 256, 1024]);
                (segment, prop::vec_of(rng, 1..=120, rule_op_gen))
            },
            |(segment, ops)| {
                // the shrinker may take the size below any real segment
                let segment = (*segment).max(96);
                let (fs_small, fs_big) = (
                    MemFs::shared(SimClock::new()),
                    MemFs::shared(SimClock::new()),
                );
                let open = |fs: &Arc<MemFs>, small: bool| {
                    let db = ReceiptStore::open(fs.clone() as Arc<dyn FileStore>, "r").unwrap();
                    if small {
                        db.set_segment_bytes(segment);
                    }
                    db
                };
                let threshold = |fs: &MemFs| segment.max(4 * on_disk(fs).1);
                let (mut small, mut big) = (open(&fs_small, true), open(&fs_big, false));
                // each file's id in the small store and in the big one
                let mut files: Vec<(FileId, FileId)> = Vec::new();
                let mut t = 0u64;
                // what crashes inside windows left past the threshold,
                // until the next commit that writes
                let mut slack = 0u64;

                for op in ops {
                    t += 1;
                    let at = TimePoint::from_secs(t);
                    let arrive = |db: &ReceiptStore, n: u64, feed: u8| {
                        db.record_arrival(
                            &format!("f{t}_{n}.csv"),
                            &format!("staging/f{t}_{n}.csv"),
                            10,
                            at,
                            None,
                            vec![format!("feed{feed}")],
                        )
                        .unwrap()
                    };
                    // whether the drain logged a set
                    let deliver = |db: &ReceiptStore, file: FileId, subs: u16| {
                        let ids: Vec<_> = (0..12)
                            .filter(|i| subs & (1 << i) != 0)
                            .map(|i| (file, db.register_subscriber(&format!("sub{i}"))))
                            .collect();
                        let outcomes = db.record_deliveries(ids, at).unwrap();
                        outcomes.contains(&DeliveryOutcome::Recorded)
                    };
                    let pick = |idx: usize| files.get(idx % files.len().max(1)).copied();
                    let mut wrote = true;
                    match *op {
                        RuleOp::Arrive { feed } => {
                            files.push((arrive(&small, 0, feed), arrive(&big, 0, feed)));
                        }
                        RuleOp::Deliver { file_idx, subs } => {
                            wrote = false;
                            if let Some((a, b)) = pick(file_idx) {
                                wrote = deliver(&small, a, subs);
                                prop_assert_eq!(deliver(&big, b, subs), wrote);
                            }
                        }
                        RuleOp::Expire { file_idx } => {
                            wrote = false;
                            if let Some((a, b)) = pick(file_idx) {
                                small.record_expiration(a, at).unwrap();
                                big.record_expiration(b, at).unwrap();
                                wrote = true;
                            }
                        }
                        RuleOp::Window { arrivals, crash } => {
                            let before = (on_disk(&fs_small).0, threshold(&fs_small));
                            let window = |db: &ReceiptStore| {
                                db.begin_group();
                                let first = arrive(db, 0, 0);
                                db.flush_group().unwrap();
                                for n in 1..u64::from(arrivals) {
                                    arrive(db, n, 1);
                                }
                                deliver(db, first, 0b101);
                                if !crash {
                                    db.end_group().unwrap();
                                }
                                first
                            };
                            files.push((window(&small), window(&big)));
                            if crash {
                                // the flush is the only write that lands
                                let flushed = on_disk(&fs_small).0 - before.0;
                                wrote = false;
                                slack += flushed;
                                drop((small, big));
                                (small, big) = (open(&fs_small, true), open(&fs_big, false));
                                let replayed = small.recovery_info().wal_bytes;
                                prop_assert!(
                                    replayed <= before.1 + slack,
                                    "replayed {} > threshold {} + windows {}",
                                    replayed,
                                    before.1,
                                    slack
                                );
                                prop_assert_eq!(small.state_digest(), big.state_digest());
                            }
                        }
                        RuleOp::Crash => {
                            wrote = false;
                            drop((small, big));
                            (small, big) = (open(&fs_small, true), open(&fs_big, false));
                            prop_assert_eq!(small.state_digest(), big.state_digest());
                        }
                    }
                    if wrote {
                        slack = 0;
                    }
                    let (wal, _) = on_disk(&fs_small);
                    prop_assert!(
                        wal <= threshold(&fs_small) + slack,
                        "{} WAL bytes past the threshold {} (+ {}) after {:?}",
                        wal,
                        threshold(&fs_small),
                        slack,
                        op
                    );
                    prop_assert_eq!(small.state_digest(), big.state_digest());
                }
                drop((small, big));
                let (small, big) = (open(&fs_small, true), open(&fs_big, false));
                prop_assert_eq!(small.state_digest(), big.state_digest());
                prop_assert_eq!(small.live_count(), big.live_count());
                prop_assert!(small.recovery_info().wal_bytes <= threshold(&fs_small) + slack);
                // under the floor: the WAL's records and nothing else
                let (wal, snapshot) = on_disk(&fs_big);
                prop_assert_eq!(snapshot, 0);
                prop_assert_eq!(fs_big.stats().snapshot().bytes_written, wal);
                Ok(())
            },
        );
}

#[test]
fn record_encoding_roundtrips() {
    Runner::new("record_encoding_roundtrips").run(
        |rng| {
            (
                rng.next_u64(),
                prop::string(rng, "A-Za-z0-9_.", 1..=30),
                rng.next_u64(),
                rng.next_u64(),
                rng.gen_range(0usize..5),
            )
        },
        |(id, name, size, t, nfeeds)| {
            let (id, size, t) = (*id, *size, *t);
            let rec = Record::Arrival(bistro_receipts::FileRecord {
                id: FileId(id),
                name: name.clone(),
                staged_path: format!("s/{name}"),
                size,
                arrival: TimePoint::from_micros(t),
                feed_time: if t % 2 == 0 {
                    Some(TimePoint::from_micros(t))
                } else {
                    None
                },
                feeds: (0..*nfeeds).map(|i| format!("feed{i}")).collect(),
            });
            let bytes = rec.encode();
            prop_assert_eq!(Record::decode(&bytes).unwrap(), rec);
            Ok(())
        },
    );
}

/// One step of [`file_by_name_matches_the_linear_scan`]. Names come from
/// a pool of four, so duplicates among live files are common. `Lookup`
/// compares every name; a store builds its name index at the first one,
/// so arrivals and expiries land both before and after the build.
#[derive(Debug, Clone)]
enum NameOp {
    Arrive { name: u8 },
    Expire { file_idx: usize },
    Snapshot,
    Crash,
    Lookup,
}

impl Shrink for NameOp {}

fn name_op_gen(rng: &mut Rng) -> NameOp {
    match rng.gen_range(0u32..12) {
        0..=4 => NameOp::Arrive {
            name: rng.gen_range(0u8..4),
        },
        5..=7 => NameOp::Expire {
            file_idx: rng.gen_range(0usize..64),
        },
        8 => NameOp::Snapshot,
        9 => NameOp::Crash,
        _ => NameOp::Lookup,
    }
}

#[test]
fn file_by_name_matches_the_linear_scan() {
    // the name index against the walk it replaced, through arrivals,
    // expiries, snapshots and reopens
    Runner::new("file_by_name_matches_the_linear_scan")
        .cases(64)
        .run(
            |rng| prop::vec_of(rng, 1..=60, name_op_gen),
            |ops| {
                let store = MemFs::shared(SimClock::new());
                let open = || ReceiptStore::open(store.clone() as Arc<dyn FileStore>, "r").unwrap();
                let mut db = open();
                let mut live: Vec<u64> = Vec::new();
                let same = |db: &ReceiptStore| -> Result<(), String> {
                    for name in 0..5 {
                        let name = format!("n{name}.csv");
                        prop_assert_eq!(
                            db.file_by_name(&name),
                            db.file_by_name_scan(&name),
                            "{}",
                            name
                        );
                    }
                    Ok(())
                };
                for (t, op) in (1u64..).zip(ops) {
                    match op {
                        NameOp::Arrive { name } => {
                            let name = format!("n{name}.csv");
                            let id = db
                                .record_arrival(
                                    &name,
                                    &format!("staging/{t}"),
                                    1,
                                    TimePoint::from_secs(t),
                                    None,
                                    vec!["F".to_string()],
                                )
                                .unwrap();
                            live.push(id.raw());
                        }
                        NameOp::Expire { file_idx } => {
                            if live.is_empty() {
                                continue;
                            }
                            let id = live.remove(file_idx % live.len());
                            db.record_expiration(FileId(id), TimePoint::from_secs(t))
                                .unwrap();
                        }
                        NameOp::Snapshot => {
                            db.snapshot().unwrap();
                        }
                        NameOp::Crash => {
                            drop(db);
                            db = open();
                        }
                        NameOp::Lookup => same(&db)?,
                    }
                }
                same(&db)
            },
        );
}

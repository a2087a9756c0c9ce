//! Property-based tests: the receipt store's queue computation must match
//! a trivial model under arbitrary interleavings of operations, and
//! recovery must be lossless at every prefix.

use bistro_base::prop::{self, Runner, Shrink};
use bistro_base::rng::Rng;
use bistro_base::{prop_assert_eq, FileId, SimClock, TimePoint};
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
            prop_assert_eq!(sets.owes(id, &sub), pairs.owes(id, &sub));
        }
        let feeds = ["feed0".to_string(), "feed1".to_string()];
        prop_assert_eq!(
            sets.pending_for(&sub, &feeds),
            pairs.pending_for(&sub, &feeds)
        );
    }
    // the backfill cursor: the same receipts, each store's in WAL order
    // (the sequences differ — a set is one record where pairs are many)
    let marks = |db: &ReceiptStore| -> Result<BTreeSet<(String, String)>, String> {
        let marks = db.deliveries_since(0);
        prop_assert_eq!(marks.len() as u64, marks_of_live(db));
        for w in marks.windows(2) {
            bistro_base::prop_assert!(w[0].seq <= w[1].seq, "marks out of WAL order");
        }
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
                    let outcomes = sets
                        .record_deliveries(
                            drain.iter().map(|((f, s), _)| (*f, s.as_str())),
                            TimePoint::from_secs(t),
                        )
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

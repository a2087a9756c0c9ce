//! Seeded input generator. Everything a workload feeds the servers —
//! file names, payloads, the position of the unmatched name in each
//! batch, the subscriber churn order — is drawn from one
//! [`bistro_base::Rng`] seeded by `--seed`, so the same seed gives the
//! same inputs and the program under test receives nothing else.
//!
//! Names embed the simulated time they are generated at: retention
//! expiry keys on the *feed time* parsed back out of the name, so a
//! name that ran ahead of (or behind) the `SimClock` by more than the
//! retention window would never (or instantly) expire and the workload
//! would not be a steady state.

use bistro_base::time::Calendar;
use bistro_base::{Rng, TimePoint, TimeSpan};
use bistro_simnet::{payload::payload_for, GenFile};

/// Where every workload's `SimClock` starts (2010-09-25 00:00:00 UTC).
pub const START: TimePoint = TimePoint::from_secs(1_285_372_800);
/// Feeds in the ingest configuration, in [`GROUPS`] hierarchy groups.
pub const FEEDS: usize = 100;
pub const GROUPS: usize = 10;
/// Files per `deposit_batch` call; exactly one of them matches no feed.
pub const BATCH: usize = 64;

const STRAY_FAMILIES: [&str; 5] = ["STRAY", "ORPHAN", "MISC", "LEFTOVER", "ODDMENT"];

/// `YYYYmmddHHMMSS` of `t` (what `%Y%m%d%H%M%S` parses back).
pub fn stamp(t: TimePoint) -> String {
    let c = Calendar::from_timepoint(t);
    format!(
        "{:04}{:02}{:02}{:02}{:02}{:02}",
        c.year, c.month, c.day, c.hour, c.minute, c.second
    )
}

/// Name of ingest feed `f` (`NET3/KIND37`): ten feeds per hierarchy
/// group, so a subscriber of `NET3` receives `KIND30`..`KIND39`.
pub fn feed_name(f: usize) -> String {
    format!("NET{}/KIND{f}", f / (FEEDS / GROUPS))
}

/// One generated ingest file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestFile {
    pub name: String,
    /// The feed the name belongs to; `None` for the unmatched name.
    pub feed: Option<usize>,
    /// Index into the workload's payload pool.
    pub payload: usize,
    /// The time embedded in the name.
    pub feed_time: TimePoint,
}

pub struct Gen {
    rng: Rng,
    seq: u64,
}

impl Gen {
    /// A generator for `workload` under `seed`; workloads get disjoint
    /// streams from the same seed.
    pub fn new(seed: u64, workload: &str) -> Gen {
        Gen {
            rng: Rng::seed_from_u64(seed ^ bistro_base::fnv1a64(workload.as_bytes())),
            seq: 0,
        }
    }

    /// A file of a random ingest feed, stamped `at`.
    pub fn ingest_file(&mut self, at: TimePoint, pool: usize) -> IngestFile {
        let feed = self.rng.gen_range(0..FEEDS);
        let poller = self.rng.gen_range(0..8u32);
        IngestFile {
            name: format!("KIND{feed}_poller{poller}_{}.csv", stamp(at)),
            feed: Some(feed),
            payload: self.rng.gen_range(0..pool),
            feed_time: at,
        }
    }

    /// A file no feed pattern matches, stamped `at`.
    pub fn stray_file(&mut self, at: TimePoint, pool: usize) -> IngestFile {
        let family = *self.rng.choose(&STRAY_FAMILIES);
        let node = self.rng.gen_range(0..8u32);
        IngestFile {
            name: format!("{family}_node{node}_{}.dat", stamp(at)),
            feed: None,
            payload: self.rng.gen_range(0..pool),
            feed_time: at,
        }
    }

    /// One batch of [`BATCH`] files whose feed times are the
    /// consecutive seconds ending at `last`; one position, drawn from
    /// the seed, holds the unmatched name.
    pub fn batch(&mut self, last: TimePoint, pool: usize) -> Vec<IngestFile> {
        let stray_at = self.rng.gen_range(0..BATCH);
        (0..BATCH)
            .map(|k| {
                let at = last - TimeSpan::from_secs((BATCH - 1 - k) as u64);
                if k == stray_at {
                    self.stray_file(at, pool)
                } else {
                    self.ingest_file(at, pool)
                }
            })
            .collect()
    }

    /// The next fanout file name (`tick_<seq>_<stamp>.csv`).
    pub fn fanout_name(&mut self, at: TimePoint) -> String {
        self.seq += 1;
        format!("tick_{}_{}.csv", self.seq, stamp(at))
    }

    /// `size` incompressible bytes.
    pub fn raw_payload(&mut self, size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(size + 8);
        while out.len() < size {
            out.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        out.truncate(size);
        out
    }

    /// `size` bytes of compressible measurement CSV
    /// ([`bistro_simnet::payload::payload_for`]).
    pub fn csv_payload(&mut self, size: usize) -> Vec<u8> {
        let n = self.rng.next_u64();
        payload_for(&GenFile {
            name: format!("pool_{n:016x}.csv"),
            poller: (n % 8) as u32,
            subfeed: "MEMORY".to_string(),
            feed_time: START,
            deposit_time: START,
            size: size as u64,
        })
    }

    /// A payload pool of `count` payloads made by `make`.
    pub fn pool(
        &mut self,
        count: usize,
        mut make: impl FnMut(&mut Gen) -> Vec<u8>,
    ) -> Vec<Vec<u8>> {
        (0..count).map(|_| make(self)).collect()
    }

    /// The order in which subscribers are taken offline: a seeded
    /// shuffle of `0..subscribers`, walked round-robin.
    pub fn churn_order(&mut self, subscribers: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..subscribers).collect();
        self.rng.shuffle(&mut order);
        order
    }
}

/// What the churn schedule does before file number `file` (0-based) is
/// deposited: every `period` files the next subscriber of `order` goes
/// offline, and comes back `down_for` files later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Churn {
    Offline(usize),
    Online(usize),
}

pub fn churn_at(order: &[usize], period: u64, down_for: u64, file: u64) -> Option<Churn> {
    let slot = (file / period) as usize % order.len();
    match file % period {
        0 => Some(Churn::Offline(order[slot])),
        r if r == down_for => Some(Churn::Online(order[slot])),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(seed: u64) -> (Vec<IngestFile>, Vec<String>, Vec<Vec<u8>>, Vec<usize>) {
        let mut g = Gen::new(seed, "ingest_batch");
        let mut files = Vec::new();
        let mut now = START;
        for _ in 0..20 {
            now += TimeSpan::from_secs(BATCH as u64);
            files.extend(g.batch(now, 16));
        }
        for _ in 0..50 {
            now += TimeSpan::from_secs(1);
            files.push(g.ingest_file(now, 16));
        }
        let names = (0..10).map(|_| g.fanout_name(now)).collect();
        let pool = vec![g.raw_payload(1000), g.csv_payload(1000)];
        (files, names, pool, g.churn_order(50))
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(drive(1), drive(1));
        let (a, ..) = drive(1);
        let (b, ..) = drive(2);
        assert_ne!(a, b, "another seed gives other inputs");
        // workloads draw disjoint streams from one seed
        let x = Gen::new(1, "ingest_stream").ingest_file(START, 4);
        let y = Gen::new(1, "ingest_batch").ingest_file(START, 4);
        assert_ne!(x, y);
    }

    /// The deposit-time clock of a generated name is the time the
    /// driver passes in (`at` for a single file, `last` for a batch):
    /// the embedded feed time must parse back to within one retention
    /// window of it, or expiry would never (or instantly) fire.
    #[test]
    fn feed_time_tracks_the_clock_within_a_retention_window() {
        let retention = crate::ingest::RETENTION;
        let parse = |name: &str| -> TimePoint {
            let stem = name.rsplit_once('.').unwrap().0;
            let ts = stem.rsplit_once('_').unwrap().1;
            let n = |r: std::ops::Range<usize>| ts[r].parse::<u32>().unwrap();
            Calendar {
                year: n(0..4),
                month: n(4..6),
                day: n(6..8),
                hour: n(8..10),
                minute: n(10..12),
                second: n(12..14),
            }
            .to_timepoint()
            .unwrap()
        };
        let mut g = Gen::new(7, "ingest_batch");
        let mut clock = START;
        for round in 0..200u64 {
            // cross minute, hour and day boundaries
            clock += TimeSpan::from_secs(BATCH as u64 + round * 37);
            for f in g.batch(clock, 4) {
                let embedded = parse(&f.name);
                assert_eq!(embedded, f.feed_time, "{}", f.name);
                assert!(embedded <= clock, "{} runs ahead of the clock", f.name);
                assert!(clock.since(embedded) < retention, "{} lags", f.name);
            }
            let single = g.ingest_file(clock, 4);
            assert_eq!(parse(&single.name), clock);
            let tick = g.fanout_name(clock);
            assert_eq!(parse(&tick), clock);
        }
    }

    #[test]
    fn every_batch_has_exactly_one_unmatched_name() {
        let mut g = Gen::new(3, "ingest_batch");
        let mut positions = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let b = g.batch(START + TimeSpan::from_secs(100), 8);
            assert_eq!(b.len(), BATCH);
            let strays: Vec<usize> = (0..BATCH).filter(|&k| b[k].feed.is_none()).collect();
            assert_eq!(strays.len(), 1);
            positions.insert(strays[0]);
            assert!(b.iter().all(|f| f.payload < 8));
        }
        assert!(positions.len() > 20, "the position is drawn, not fixed");
    }

    #[test]
    fn churn_takes_each_subscriber_down_then_up() {
        let order = vec![2, 0, 1];
        assert_eq!(churn_at(&order, 50, 25, 0), Some(Churn::Offline(2)));
        assert_eq!(churn_at(&order, 50, 25, 25), Some(Churn::Online(2)));
        assert_eq!(churn_at(&order, 50, 25, 26), None);
        assert_eq!(churn_at(&order, 50, 25, 50), Some(Churn::Offline(0)));
        assert_eq!(churn_at(&order, 50, 25, 75), Some(Churn::Online(0)));
        assert_eq!(churn_at(&order, 50, 25, 150), Some(Churn::Offline(2)));
    }
}

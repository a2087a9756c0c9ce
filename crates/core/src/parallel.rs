//! The parallel ingest stage: the *pure* half of the pipeline.
//!
//! Ingesting a file splits cleanly in two:
//!
//! 1. **prepare** (this module) — classify the name, normalize the
//!    payload for every matching feed, and pre-serialize the arrival
//!    receipt bytes (everything but the commit-assigned id and arrival
//!    time). Pure computation over inputs the caller already holds: no
//!    store writes, no WAL appends, no shared counters. This is the
//!    CPU-heavy part, and because it is pure it can fan out across
//!    [`bistro_base::Pool`] workers freely.
//! 2. **commit** (`Server::ingest_prepared`) — stage the bytes, record
//!    the arrival receipt (group-committed to the WAL per batch), and
//!    deliver. All side effects, executed strictly in deposit order by
//!    the server's own thread.
//!
//! The determinism contract of `Server::deposit_batch` falls out of this
//! split: workers touch nothing observable (in particular they never
//! touch the receipts WAL — a WAL append allocates the next sequence
//! number, so letting workers race to it would make receipt numbering
//! schedule-dependent), and the commit loop replays the pure results in
//! input order, so every store operation, receipt sequence number and
//! telemetry counter is byte-identical for any worker count.

use crate::classifier::{Classification, Classifier};
use crate::normalizer::{normalize, normalize_owned, NormalizeError, Normalized};
use bistro_base::{SharedClock, TimePoint};
use bistro_config::{CompressOpt, Config};
use bistro_receipts::ArrivalTemplate;

/// Whether [`prepare`] under `config` does work worth a thread: some
/// feed expands or (re-)compresses its files. That is the only step of
/// prepare whose cost follows the payload — classifying a name and
/// rendering a staging path cost a few hundred nanoseconds per file, a
/// `keep` feed moves the deposited buffer into staging untouched, and a
/// scoped thread spawn costs more than preparing sixty-four such files.
/// `Server::deposit_batch` fans out only when this holds (and, inside
/// [`bistro_base::Pool`], only for two files or more); otherwise it
/// prepares on the caller's thread whatever worker count is configured.
pub fn compresses(config: &Config) -> bool {
    config.feeds.iter().any(|f| f.compress != CompressOpt::Keep)
}

/// The pure result of classifying + normalizing one deposited file.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// All matching feeds, most specific first. Empty ⇒ unknown feed.
    pub classifications: Vec<Classification>,
    /// One normalized staging payload per classification, same order
    /// (entry `i` belongs to `classifications[i].feed`).
    pub staged: Vec<Normalized>,
    /// The feed-time captured from the name (first classification wins).
    pub feed_time: Option<TimePoint>,
    /// The deposited payload, handed back when no feed matched so the
    /// commit stage can park it in `unknown/` without re-reading it.
    /// `None` when classified — the buffer moved into `staged`.
    pub raw: Option<Vec<u8>>,
    /// The arrival receipt pre-serialized by the prepare worker (all
    /// fields but the commit-assigned id and arrival time). `None` when
    /// no feed matched.
    pub receipt: Option<ArrivalTemplate>,
    /// Deposited payload length in bytes.
    pub payload_len: u64,
    /// Wall time spent classifying, µs (0 under a simulated clock).
    pub classify_us: u64,
    /// Wall time spent normalizing, µs (0 under a simulated clock).
    pub normalize_us: u64,
}

/// Classify `rel_path` and normalize `payload` for every matching feed.
/// Pure: reads only the classifier/config, touches no store, returns
/// everything by value. Safe to call from any [`bistro_base::Pool`]
/// worker.
///
/// Takes the payload by value so `compress keep` feeds (the common case)
/// stage the deposited buffer itself instead of a copy; the last
/// matching feed receives the original allocation.
pub fn prepare(
    classifier: &Classifier,
    config: &Config,
    clock: &SharedClock,
    rel_path: &str,
    payload: Vec<u8>,
) -> Result<Prepared, NormalizeError> {
    let t0 = clock.now();
    let classifications = classifier.classify(rel_path);
    let t1 = clock.now();
    let payload_len = payload.len() as u64;

    let mut staged = Vec::with_capacity(classifications.len());
    let mut feed_time = None;
    let mut raw = Some(payload);
    let last = classifications.len().saturating_sub(1);
    for (i, c) in classifications.iter().enumerate() {
        let feed = config
            .feed(&c.feed)
            .expect("classifier only yields configured feeds");
        let normalized = if i == last {
            // the final feed may take the deposited buffer outright
            normalize_owned(
                feed,
                rel_path,
                &c.captures,
                raw.take().expect("consumed once"),
            )?
        } else {
            normalize(
                feed,
                rel_path,
                &c.captures,
                raw.as_deref().expect("still held"),
            )?
        };
        staged.push(normalized);
        if feed_time.is_none() {
            feed_time = c.captures.timestamp();
        }
    }
    let receipt = staged.first().map(|primary| {
        ArrivalTemplate::new(
            rel_path.to_string(),
            primary.staged_path.clone(),
            payload_len,
            feed_time,
            classifications.iter().map(|c| c.feed.clone()).collect(),
        )
    });
    let t2 = clock.now();

    Ok(Prepared {
        classifications,
        staged,
        feed_time,
        raw,
        receipt,
        payload_len,
        classify_us: t1.since(t0).as_micros(),
        normalize_us: t2.since(t1).as_micros(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::{Pool, SimClock, TimePoint};
    use bistro_config::parse_config;

    fn fixture() -> (Classifier, Config) {
        let cfg = parse_config(
            r#"
            feed M { pattern "MEM_poller%i_%Y%m%d%H%M.csv"; }
            feed ALL { pattern "*_%Y%m%d%H%M.csv"; }
            "#,
        )
        .unwrap();
        (Classifier::compile(&cfg), cfg)
    }

    #[test]
    fn prepare_is_pure_and_complete() {
        let (classifier, cfg) = fixture();
        let clock: SharedClock = SimClock::starting_at(TimePoint::from_secs(5));
        let p = prepare(
            &classifier,
            &cfg,
            &clock,
            "MEM_poller3_201009250455.csv",
            b"x".to_vec(),
        )
        .unwrap();
        assert_eq!(p.classifications.len(), 2); // M + ALL
        assert_eq!(p.staged.len(), 2);
        assert_eq!(p.classifications[0].feed, "M");
        assert!(p.feed_time.is_some());
        assert_eq!(p.payload_len, 1);
        // classified: the buffer moved into staging, and the receipt is
        // pre-serialized for the commit stage
        assert!(p.raw.is_none());
        let t = p.receipt.as_ref().expect("classified files get a template");
        assert_eq!(t.name, "MEM_poller3_201009250455.csv");
        assert_eq!(t.staged_path, p.staged[0].staged_path);
        assert_eq!(t.feeds, vec!["M".to_string(), "ALL".to_string()]);
        // simulated clock: no time passes inside prepare
        assert_eq!((p.classify_us, p.normalize_us), (0, 0));

        let unknown = prepare(&classifier, &cfg, &clock, "nope.bin", b"x".to_vec()).unwrap();
        assert!(unknown.classifications.is_empty());
        assert!(unknown.staged.is_empty());
        assert_eq!(
            unknown.raw,
            Some(b"x".to_vec()),
            "unknown keeps the payload"
        );
        assert!(unknown.receipt.is_none());
    }

    #[test]
    fn prepare_fans_out_deterministically() {
        let (classifier, cfg) = fixture();
        let clock: SharedClock = SimClock::starting_at(TimePoint::from_secs(5));
        let names: Vec<String> = (0..23)
            .map(|i| format!("MEM_poller{i}_201009250455.csv"))
            .collect();
        let run = |workers: usize| -> Vec<String> {
            Pool::new(workers).map(names.clone(), |_, name| {
                let p =
                    prepare(&classifier, &cfg, &clock, &name, name.clone().into_bytes()).unwrap();
                format!(
                    "{name}→{:?}",
                    p.classifications
                        .iter()
                        .zip(p.staged.iter())
                        .map(|(c, n)| (&c.feed, &n.staged_path))
                        .collect::<Vec<_>>()
                )
            })
        };
        let reference = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), reference, "workers={workers}");
        }
    }
}

//! E11 — deployment-scale throughput (§1, §7).
//!
//! Claim: "Bistro servers currently manage over 100 data feeds,
//! delivering up to 300 gigabytes of data per day to a number of
//! customers in real-time." 300 GB/day ≈ 3.6 MB/s sustained; a
//! reproduction must show comfortable headroom on a laptop.
//!
//! We measure (a) classifier throughput (files/s) as the number of
//! registered feeds grows, and (b) end-to-end server ingest+delivery
//! throughput in MB/s, then report the headroom over the paper's rate.

use crate::harness::{BatchSize, BenchResult, Criterion, Throughput};
use crate::table::Table;
use bistro_base::{SimClock, TimePoint};
use bistro_config::{parse_config, Config};
use bistro_core::{Classifier, Server};
use bistro_vfs::MemFs;
use std::time::Instant;

/// Classifier scaling point.
#[derive(Clone, Debug)]
pub struct ClassifyPoint {
    /// Registered feeds.
    pub feeds: usize,
    /// Classifications per second (matching files).
    pub hits_per_sec: f64,
    /// Classifications per second (non-matching files — full miss cost).
    pub misses_per_sec: f64,
}

fn config_with_feeds(n: usize) -> Config {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!(
            "feed F{i} {{ pattern \"KIND{i}_poller%i_%Y%m%d%H%M.csv\"; }}\n"
        ));
    }
    src.push_str("subscriber wh { endpoint \"wh\"; subscribe F0; }\n");
    parse_config(&src).unwrap()
}

/// Measure classifier throughput at several feed counts.
pub fn run_classifier(feed_counts: &[usize]) -> Vec<ClassifyPoint> {
    let mut out = Vec::new();
    for &n in feed_counts {
        let cfg = config_with_feeds(n);
        let classifier = Classifier::compile(&cfg);
        let hits: Vec<String> = (0..2_000)
            .map(|i| {
                format!(
                    "KIND{}_poller{}_20100925{:02}{:02}.csv",
                    i % n,
                    i % 7,
                    i % 24,
                    i % 60
                )
            })
            .collect();
        let misses: Vec<String> = (0..2_000)
            .map(|i| format!("UNKNOWN{}_thing_{i}.dat", i % 50))
            .collect();

        let t0 = Instant::now();
        let mut matched = 0usize;
        for name in &hits {
            matched += classifier.classify(name).len();
        }
        let hit_rate = hits.len() as f64 / t0.elapsed().as_secs_f64();
        assert_eq!(matched, hits.len());

        let t0 = Instant::now();
        for name in &misses {
            assert!(classifier.classify(name).is_empty());
        }
        let miss_rate = misses.len() as f64 / t0.elapsed().as_secs_f64();
        out.push(ClassifyPoint {
            feeds: n,
            hits_per_sec: hit_rate,
            misses_per_sec: miss_rate,
        });
    }
    out
}

/// End-to-end ingest point.
#[derive(Clone, Debug)]
pub struct IngestPoint {
    /// Files ingested.
    pub files: usize,
    /// Average file size (bytes).
    pub file_size: usize,
    /// Ingest+delivery throughput in MB/s (wall clock).
    pub mb_per_sec: f64,
    /// Files per second.
    pub files_per_sec: f64,
    /// Headroom over the paper's 300 GB/day (≈3.6 MB/s).
    pub headroom: f64,
}

/// Measure end-to-end server throughput.
pub fn run_ingest(files: usize, file_size: usize) -> IngestPoint {
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let cfg = config_with_feeds(100);
    let mut server = Server::new("b", cfg, clock.clone(), store).unwrap();
    let payload = vec![b'x'; file_size];

    let names: Vec<String> = (0..files)
        .map(|i| {
            format!(
                "KIND{}_poller{}_20100925{:02}{:02}.csv",
                i % 100,
                i % 7,
                (i / 60) % 24,
                i % 60
            )
        })
        .collect();
    let t0 = Instant::now();
    for name in &names {
        server.deposit(name, &payload).unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let mb = (files * file_size) as f64 / 1e6;
    let paper_rate = 300_000.0 / 86_400.0; // MB/s for 300 GB/day
    IngestPoint {
        files,
        file_size,
        mb_per_sec: mb / secs,
        files_per_sec: files as f64 / secs,
        headroom: (mb / secs) / paper_rate,
    }
}

/// Untimed allocator warmup: deposit `files` files of `file_size`
/// bytes into a throwaway server, then drop it. A deposit *retains*
/// its bytes in the MemFs, so the measured server always allocates at
/// the fresh heap frontier — where a cold process pays a kernel page
/// fault per new page. Dropping the throwaway hands its whole
/// footprint to the allocator's free lists, so the timed phase
/// recycles already-faulted pages instead. A full run gets this for
/// free from its earlier phases (`run_ingest` retires a ~300 MB
/// server before the harness benches start); a `--quick` run must do
/// it explicitly or its first arm — `par1`, the one every other arm is
/// divided by — is measured cold.
fn warm_allocator(files: u64, file_size: usize) {
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let mut server = Server::new("warm", config_with_feeds(100), clock, store).unwrap();
    let payload = vec![b'x'; file_size];
    for n in 0..files {
        let name = format!(
            "KIND{}_poller{}_20100925{:02}{:02}.csv",
            n % 100,
            n % 7,
            (n / 60) % 24,
            n % 60
        );
        server.deposit(&name, &payload).unwrap();
    }
}

/// Harness-measured batch ingest on a 100-feed server configured with
/// `workers` prepare threads (`Server::with_workers`), for the
/// `server_ingest_100_feeds/par{N}` arms in `BENCH_throughput.json`.
/// The feeds are all `compress keep`, so the server is expected to
/// prepare inline at every `workers` and the arms to read alike —
/// [`par_ratios`] is the check that they do. Each iteration deposits a
/// 64-file batch; throughput is reported in files/sec.
///
/// Timed via `iter_batched`: constructing the 64×`file_size` input
/// batch (a multi-megabyte memcpy) happens in the untimed setup phase,
/// so the medians measure the ingest pipeline itself — classify +
/// normalize + stage + group-committed receipts + delivery — and
/// before/after comparisons aren't polluted by input-generation cost.
pub fn bench_ingest_parallel(file_size: usize, samples: usize, workers: usize) -> BenchResult {
    const BATCH: usize = 64;
    // see `warm_allocator`: the timed phase must recycle faulted pages
    warm_allocator(4_096, file_size);
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let cfg = config_with_feeds(100);
    let mut server = Server::new("b", cfg, clock.clone(), store)
        .unwrap()
        .with_workers(workers);
    let payload = vec![b'x'; file_size];
    let mut i = 0u64;
    // short in-place warmup for the measured server's own code paths
    for _ in 0..4 {
        let base = i;
        i += BATCH as u64;
        let files: Vec<(String, Vec<u8>)> = (0..BATCH as u64)
            .map(|k| {
                let n = base + k;
                (
                    format!(
                        "KIND{}_poller{}_20100925{:02}{:02}.csv",
                        n % 100,
                        n % 7,
                        (n / 60) % 24,
                        n % 60
                    ),
                    payload.clone(),
                )
            })
            .collect();
        server.deposit_batch(files).unwrap();
    }
    let mut c = Criterion::new();
    {
        let mut g = c.benchmark_group("server_ingest_100_feeds");
        g.sample_size(samples);
        g.throughput(Throughput::Elements(BATCH as u64));
        g.bench_function(format!("par{workers}"), |b| {
            b.iter_batched(
                || {
                    let base = i;
                    i += BATCH as u64;
                    (0..BATCH as u64)
                        .map(|k| {
                            let n = base + k;
                            (
                                format!(
                                    "KIND{}_poller{}_20100925{:02}{:02}.csv",
                                    n % 100,
                                    n % 7,
                                    (n / 60) % 24,
                                    n % 60
                                ),
                                payload.clone(),
                            )
                        })
                        .collect::<Vec<(String, Vec<u8>)>>()
                },
                |files| server.deposit_batch(files).unwrap(),
                BatchSize::LargeInput,
            )
        });
        g.finish();
    }
    c.results()[0].clone()
}

/// Rounds [`bench_par_arms`] measures every arm for.
const PAR_ROUNDS: usize = 5;

/// The `par{N}` arms for `workers`, each the quietest of [`PAR_ROUNDS`]
/// interleaved measurements (`par1, par2, …, par1, par2, …`; the round
/// with the lowest median is kept). One arm's 30 samples span some
/// 30 ms, and on a shared box a noisy spell that long is common: a
/// single round read two arms running *identical* code 1.38× apart once
/// in twelve runs. Noise only ever adds time, so the lowest of five
/// medians taken about a second apart is the estimate that a spell has
/// to hit five times to move.
pub fn bench_par_arms(file_size: usize, samples: usize, workers: &[usize]) -> Vec<BenchResult> {
    let mut arms: Vec<BenchResult> = Vec::new();
    for round in 0..PAR_ROUNDS {
        for (i, &w) in workers.iter().enumerate() {
            let r = bench_ingest_parallel(file_size, samples, w);
            if round == 0 {
                arms.push(r);
            } else if r.median_ns < arms[i].median_ns {
                arms[i] = r;
            }
        }
    }
    arms
}

/// How far above `par1`'s median a `par{N}` median of the same run may
/// sit before `exp_e11` fails. The arms share one box and one process,
/// so the ratio needs no committed baseline and does not care how fast
/// the runner is; see EXPERIMENTS.md E11 for the runs the figure was
/// chosen from.
pub const PAR_LIMIT: f64 = 1.25;

/// Each `par{N}` arm's median as a multiple of `par1`'s (`par1` itself
/// excluded). Panics when `arms` has no `par1`: a curve without its
/// origin cannot be checked.
pub fn par_ratios(arms: &[BenchResult]) -> Vec<(&str, f64)> {
    let par1 = arms
        .iter()
        .find(|r| r.name == "par1")
        .expect("the par{N} check needs a par1 arm")
        .median_ns;
    arms.iter()
        .filter(|r| r.name != "par1")
        .map(|r| (r.name.as_str(), r.median_ns / par1))
        .collect()
}

/// Render both tables.
pub fn tables(classify: &[ClassifyPoint], ingest: &IngestPoint) -> (Table, Table) {
    let mut t1 = Table::new(
        "E11a: classifier throughput vs registered feed count",
        &["feeds", "matching files/s", "unmatched files/s"],
    );
    for p in classify {
        t1.row(vec![
            p.feeds.to_string(),
            format!("{:.0}", p.hits_per_sec),
            format!("{:.0}", p.misses_per_sec),
        ]);
    }
    let mut t2 = Table::new(
        "E11b: end-to-end ingest + delivery throughput (100 feeds)",
        &[
            "files",
            "file size",
            "MB/s",
            "files/s",
            "headroom over 300 GB/day",
        ],
    );
    t2.row(vec![
        ingest.files.to_string(),
        ingest.file_size.to_string(),
        format!("{:.1}", ingest.mb_per_sec),
        format!("{:.0}", ingest.files_per_sec),
        format!("{:.0}x", ingest.headroom),
    ]);
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_scales_to_hundreds_of_feeds() {
        let points = run_classifier(&[10, 100]);
        for p in &points {
            assert!(p.hits_per_sec > 10_000.0, "classification too slow: {p:?}");
        }
    }

    #[test]
    fn ingest_beats_paper_rate() {
        let p = run_ingest(2_000, 50_000);
        assert!(p.headroom > 1.0, "must exceed 300 GB/day: {p:?}");
    }

    #[test]
    fn parallel_ingest_bench_runs_at_every_width() {
        for workers in [1, 2, 4] {
            let r = bench_ingest_parallel(10_000, 3, workers);
            assert_eq!(r.name, format!("par{workers}"));
            assert!(r.median_ns > 0.0, "{r:?}");
        }
    }

    #[test]
    fn par_ratios_are_relative_to_par1() {
        let arm = |name: &str, median_ns: f64| BenchResult {
            group: "server_ingest_100_feeds".to_string(),
            name: name.to_string(),
            iters_per_sample: 1,
            samples: 5,
            median_ns,
            p95_ns: median_ns,
            mean_ns: median_ns,
            min_ns: median_ns,
            max_ns: median_ns,
            throughput: Some(Throughput::Elements(64)),
        };
        // the parent's curve: par8 at 2.2x par1
        let arms = [arm("par2", 350e3), arm("par1", 250e3), arm("par8", 550e3)];
        let ratios = par_ratios(&arms);
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].0, "par2");
        assert!((ratios[0].1 - 1.4).abs() < 1e-9);
        assert!(ratios.iter().all(|(_, r)| *r > PAR_LIMIT));
    }
}

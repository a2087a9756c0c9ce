//! Microbenchmarks over the hot kernels of every experiment: pattern
//! matching and classification (E11), generalization and similarity
//! (E8/E9), WAL append and queue computation (E2/E5), compression
//! codecs, batch processing (E4), the scheduling engine (E6/E7), and the
//! telemetry record path (enabled vs no-op registry).
//!
//! Runs on the in-tree harness (`bistro_bench::harness`) — no external
//! benchmarking crate — and writes `BENCH_micro.json` at the repo root
//! alongside the other committed medians.

use std::sync::Arc;

use bistro_base::{FileId, SimClock, TimePoint, TimeSpan};
use bistro_bench::harness::{BatchSize, Criterion, Throughput};
use bistro_bench::{e4_batching, e6_scheduling};
use bistro_compress::{container, lzss, Codec};
use bistro_config::{parse_config, BatchSpec};
use bistro_core::Classifier;
use bistro_pattern::{generalize, pattern_similarity, Pattern};
use bistro_receipts::ReceiptStore;
use bistro_simnet::{payload::payload_for, GenFile};
use bistro_transport::Batcher;
use bistro_vfs::{FaultStore, FileStore, MemFs};

fn bench_pattern_match(c: &mut Criterion) {
    let pat = Pattern::parse("MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz").unwrap();
    let hit = "MEMORY_POLLER12_2010092504_51.csv.gz";
    let miss = "MEMORY_POLLER12_2010092504_51.csv.bz2";
    let mut g = c.benchmark_group("pattern_match");
    g.bench_function("hit", |b| {
        b.iter(|| pat.match_str(std::hint::black_box(hit)))
    });
    g.bench_function("miss", |b| {
        b.iter(|| pat.match_str(std::hint::black_box(miss)))
    });
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut src = String::new();
    for i in 0..250 {
        src.push_str(&format!(
            "feed F{i} {{ pattern \"KIND{i}_poller%i_%Y%m%d%H%M.csv\"; }}\n"
        ));
    }
    let cfg = parse_config(&src).unwrap();
    let classifier = Classifier::compile(&cfg);
    let mut g = c.benchmark_group("classifier_250_feeds");
    g.throughput(Throughput::Elements(1));
    g.bench_function("hit", |b| {
        b.iter(|| classifier.classify(std::hint::black_box("KIND137_poller3_201009250455.csv")))
    });
    g.bench_function("miss", |b| {
        b.iter(|| classifier.classify(std::hint::black_box("NOPE_poller3_201009250455.csv")))
    });
    g.finish();
}

fn bench_generalize_similarity(c: &mut Criterion) {
    let name = "TRAP_2010030817_UVIPTV-PER-BAN-DSPS-IPTV_MOM-rcsntxsqlcv122_9234SEC_klpi.txt";
    let feed = Pattern::parse("TRAP__%Y%m%d_DCTAGN_klpi.txt").unwrap();
    let file_pat = generalize(name).to_pattern();
    let mut g = c.benchmark_group("analyzer");
    g.bench_function("generalize", |b| {
        b.iter(|| generalize(std::hint::black_box(name)))
    });
    g.bench_function("pattern_similarity", |b| {
        b.iter(|| pattern_similarity(std::hint::black_box(&feed), std::hint::black_box(&file_pat)))
    });
    g.finish();
}

fn bench_wal_and_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("receipts");
    g.bench_function("arrival_append", |b| {
        let store = MemFs::shared(SimClock::new());
        let db = ReceiptStore::open(store as Arc<dyn FileStore>, "r").unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            db.record_arrival(
                "MEMORY_poller1_20100925.gz",
                "F/MEMORY_poller1_20100925.gz",
                100_000,
                TimePoint::from_secs(i),
                None,
                vec!["F".to_string()],
            )
            .unwrap()
        })
    });
    g.bench_function("pending_queue_10k_files", |b| {
        let store = MemFs::shared(SimClock::new());
        let db = ReceiptStore::open(store as Arc<dyn FileStore>, "r").unwrap();
        for i in 0..10_000u64 {
            let id = db
                .record_arrival(
                    &format!("f{i}.csv"),
                    &format!("F/f{i}.csv"),
                    100,
                    TimePoint::from_secs(i),
                    None,
                    vec!["F".to_string()],
                )
                .unwrap();
            if i % 2 == 0 {
                db.record_delivery(id, "sub", TimePoint::from_secs(i))
                    .unwrap();
            }
        }
        let feeds = vec!["F".to_string()];
        b.iter(|| db.pending_for("sub", std::hint::black_box(&feeds)))
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let payload: Vec<u8> = {
        let row = b"1285372800,router_042,memory,563412\n";
        row.iter().copied().cycle().take(100_000).collect()
    };
    let mut g = c.benchmark_group("compress_100kb_csv");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    for codec in [Codec::Rle, Codec::Lzss] {
        g.bench_function(format!("{codec}_compress"), |b| {
            b.iter(|| codec.compress(std::hint::black_box(&payload)))
        });
        let compressed = codec.compress(&payload);
        g.bench_function(format!("{codec}_decompress"), |b| {
            b.iter(|| codec.decompress(std::hint::black_box(&compressed)).unwrap())
        });
    }
    g.finish();

    // What feeds actually carry. The group above repeats one 36-byte row,
    // so every match is maximal at distance 36 and no chain is walked; the
    // benchmark's `ingest_batch` seals 8 kB of `payload_for` rows, where
    // the chain walk is the cost. Kept beside it for continuity.
    let at = TimePoint::from_secs(1_285_372_800);
    let payload = payload_for(&GenFile {
        name: "MEMORY_POLLER1_2010092504_51.csv".to_string(),
        poller: 1,
        subfeed: "MEMORY".to_string(),
        feed_time: at,
        deposit_time: at,
        size: 8_192,
    });
    let sealed = container::seal(Codec::Lzss, &payload);
    let stream = &sealed[container::HEADER_LEN..];
    let mut g = c.benchmark_group("compress_8kb_feed_csv");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("lzss_compress", |b| {
        b.iter(|| lzss::compress(std::hint::black_box(&payload)))
    });
    g.bench_function("lzss_decompress", |b| {
        b.iter(|| lzss::decompress(std::hint::black_box(stream)).unwrap())
    });
    g.bench_function("seal", |b| {
        b.iter(|| container::seal(Codec::Lzss, std::hint::black_box(&payload)))
    });
    g.bench_function("open", |b| {
        b.iter(|| container::open(std::hint::black_box(&sealed)).unwrap())
    });
    g.finish();
}

fn bench_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("batching");
    g.bench_function("hybrid_on_file", |b| {
        b.iter_batched(
            || {
                Batcher::new(BatchSpec {
                    count: Some(3),
                    window: Some(TimeSpan::from_mins(5)),
                })
            },
            |mut batcher| {
                for i in 0..30u64 {
                    std::hint::black_box(batcher.on_file(FileId(i), TimePoint::from_secs(i)));
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("e4_policy_replay", |b| {
        b.iter(|| e4_batching::run(std::hint::black_box(&[0.1])))
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(20);
    g.bench_function("e6_full_sweep", |b| b.iter(e6_scheduling::run));
    g.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    // record cost through an enabled registry vs the no-op baseline —
    // the number that justifies always-on instrumentation in the server
    let enabled = bistro_telemetry::Registry::new();
    let disabled = bistro_telemetry::Registry::disabled();
    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(1));
    for (label, reg) in [("enabled", &enabled), ("disabled", &disabled)] {
        let counter = reg.counter("bench.counter");
        g.bench_function(format!("counter_inc_{label}"), |b| {
            b.iter(|| std::hint::black_box(&counter).inc())
        });
        let hist = reg.histogram("bench.hist");
        let mut v = 0u64;
        g.bench_function(format!("histogram_record_{label}"), |b| {
            b.iter(|| {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                hist.record(std::hint::black_box(v >> 40));
            })
        });
    }
    g.finish();
}

fn bench_fault_store(c: &mut Criterion) {
    // pass-through cost of the crash-point injection wrapper: the sweep
    // in tests/crash_points.rs runs hundreds of pipeline incarnations
    // through it, so op accounting must stay cheap next to the real I/O
    let clock = SimClock::new();
    let raw = MemFs::shared(clock.clone());
    let wrapped = FaultStore::counting(MemFs::shared(clock.clone()));
    let data = vec![0xA5u8; 1024];
    let mut g = c.benchmark_group("fault_store");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("memfs_write_1k", |b| b.iter(|| raw.write("f", &data)));
    g.bench_function("wrapped_write_1k", |b| b.iter(|| wrapped.write("f", &data)));
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_pattern_match(&mut c);
    bench_classifier(&mut c);
    bench_generalize_similarity(&mut c);
    bench_wal_and_queue(&mut c);
    bench_compression(&mut c);
    bench_batching(&mut c);
    bench_scheduler(&mut c);
    bench_telemetry(&mut c);
    bench_fault_store(&mut c);
    c.print_summary();
    // cargo bench runs with the package as cwd; anchor the output at the
    // repo root where the other BENCH_*.json medians live
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    c.write_json(out).expect("write BENCH_micro.json");
    println!("\nwrote {out}");
}

//! `ingest_stream` and `ingest_batch`: the same 100-feed ingest layer
//! driven two ways, on `MemFs`, with no network.

use crate::gen::{self, Gen, IngestFile, BATCH, FEEDS, GROUPS, START};
use crate::harness::{Counters, Ctx, Recovery, Workload};
use crate::lifecycle::{
    add_ingest_counters, add_store_counters, check_receipt, housekeep, probe_expire_scan, reopen,
    snapshot, SERVER_SPANS,
};
use crate::probes::Path;
use crate::stats::Window;
use crate::trace::NONE;
use bistro_base::{SimClock, TimeSpan};
use bistro_config::parse_config;
use bistro_core::Server;
use bistro_vfs::MemFs;
use std::sync::Arc;
use std::time::Instant;

/// Sized for ~3 000 live files at one simulated second per file: expiry
/// keys on the feed time in the name, which the generator keeps on the
/// clock.
pub const RETENTION: TimeSpan = TimeSpan::from_secs(3_000);

/// The ingest configuration as source text (set-up parses it, as a real
/// start does): 100 feeds in 10 hierarchy groups, one local push
/// subscriber per group, every second one batching by count with a
/// trigger. `compressed` switches the feeds to `lzss` + `normalize`.
pub fn config_source(compressed: bool) -> String {
    let mut src = format!("server {{ retention {}s; }}\n", RETENTION.as_secs());
    for f in 0..FEEDS {
        let extra = if compressed {
            " compress lzss; normalize \"%Y/%m/%d/%H/%f\";"
        } else {
            ""
        };
        src.push_str(&format!(
            "feed {} {{ pattern \"KIND{f}_poller%i_%Y%m%d%H%M%S.csv\";{extra} }}\n",
            gen::feed_name(f)
        ));
    }
    for g in 0..GROUPS {
        let extra = if g % 2 == 1 {
            " batch count 10; trigger local \"load %f\";"
        } else {
            ""
        };
        src.push_str(&format!(
            "subscriber sub{g} {{ endpoint \"sub{g}\"; subscribe NET{g}; delivery push;{extra} }}\n"
        ));
    }
    src
}

/// Shared state of the two ingest workloads.
pub struct Ingest {
    clock: Arc<SimClock>,
    server: Server,
    gen: Gen,
    pool: Vec<Vec<u8>>,
    feed_names: Vec<String>,
    compressed: bool,
    /// Reference counts the telemetry must agree with at the end.
    matched: u64,
    unknown: u64,
    units: u64,
    payload_bytes: u64,
    matched_payload_bytes: u64,
}

impl Ingest {
    fn build(seed: u64, name: &str, compressed: bool, pool: (usize, usize)) -> Ingest {
        let clock = SimClock::starting_at(START);
        let config = parse_config(&config_source(compressed)).expect("generated config parses");
        let server = Server::new(
            "bistro",
            config,
            clock.clone(),
            MemFs::shared(clock.clone()),
        )
        .expect("generated config validates");
        let mut gen = Gen::new(seed, name);
        let (count, size) = pool;
        let pool = if compressed {
            gen.pool(count, |g| g.csv_payload(size))
        } else {
            gen.pool(count, |g| g.raw_payload(size))
        };
        Ingest {
            clock,
            server,
            gen,
            pool,
            feed_names: (0..FEEDS).map(gen::feed_name).collect(),
            compressed,
            matched: 0,
            unknown: 0,
            units: 0,
            payload_bytes: 0,
            matched_payload_bytes: 0,
        }
    }

    /// The `matched`-th classified file has receipt number `matched`.
    fn check_receipt(&self, cx: &mut Ctx, file: &IngestFile, feed: usize) {
        check_receipt(
            cx,
            &self.server,
            self.matched,
            &file.name,
            &self.feed_names[feed],
            &self.pool[file.payload],
            self.compressed,
        );
    }

    fn counters(&self, payload_writes_per_file: u64) -> Counters {
        let mut c = Counters::new();
        add_store_counters(&self.server, &mut c);
        add_ingest_counters(&self.server, &mut c);
        let pool = self.server.pool_telemetry();
        let grouped = pool.histogram("wal.group_size");
        let busy: u64 = pool
            .counters_sorted()
            .iter()
            .filter(|(k, _)| k.starts_with("pool.worker") && k.ends_with(".busy_us"))
            .map(|(_, v)| v)
            .sum();
        // records outside a commit group are one physical append each
        let physical = c["wal.appends"] - grouped.sum()
            + pool.counter_value("wal.physical_appends").unwrap_or(0);
        for (k, v) in [
            ("payload_bytes", self.payload_bytes),
            ("matched_payload_bytes", self.matched_payload_bytes),
            ("deliveries", self.server.stats().deliveries),
            (
                "vfs.payload_writes",
                (self.matched + self.unknown) * payload_writes_per_file,
            ),
            ("wal.physical_appends", physical),
            ("pool.busy_us", busy),
            ("max.wal.group_size_p50", grouped.quantile(0.5).unwrap_or(0)),
        ] {
            c.insert(k, v);
        }
        c
    }

    fn recover(&mut self, cx: &mut Ctx) -> Recovery {
        let (config, clock, store) = (
            self.server.config().clone(),
            self.clock.clone(),
            self.server.store().clone(),
        );
        let mut rec = Recovery::default();
        reopen(cx, &mut rec, &self.server, || {
            Server::new("bistro", config, clock, store)
        });
        rec
    }

    fn finish(&mut self, cx: &mut Ctx) {
        let tel = self.server.telemetry();
        for (metric, want) in [
            ("ingest.files", self.matched),
            ("ingest.unknown", self.unknown),
            // every matched file has exactly one interested subscriber
            ("delivery.receipts", self.matched),
        ] {
            let got = tel.counter_value(metric).unwrap_or(0);
            cx.op(got == want, || {
                format!("{metric} = {got}, reference {want}")
            });
        }
    }
}

pub struct IngestStream(Ingest);

impl Workload for IngestStream {
    const NAME: &'static str = "ingest_stream";
    const WARM: u64 = 5_000;
    const WINDOW: u64 = 20_000;
    const TAIL: u64 = 40_000;
    const FIXED_WORK_WINDOWS: u64 = 15;
    const PATH: Path = Path {
        seal: false,
        network: false,
        unknown: false,
    };

    fn build(seed: u64) -> Self {
        IngestStream(Ingest::build(seed, Self::NAME, false, (16, 60_000)))
    }

    fn run(&mut self, cx: &mut Ctx, units: u64, snap: bool) -> Window {
        const HOUSEKEEP_EVERY: u64 = 1_000;
        let s = &mut self.0;
        let t = Instant::now();
        let deliveries0 = s.server.stats().deliveries;
        for i in 1..=units {
            s.units += 1;
            let now = s.clock.advance(TimeSpan::from_secs(1));
            let tg = Instant::now();
            let file = s.gen.ingest_file(now, s.pool.len());
            cx.gen_ns += tg.elapsed().as_nanos() as u64;
            let feed = file.feed.expect("ingest_file always matches");
            let payload = &s.pool[file.payload];

            let root = cx.tr.open("file", NONE, s.units);
            let t0 = Instant::now();
            let r = cx.tr.span("server.deposit", root, s.units, || {
                s.server.deposit(&file.name, payload)
            });
            cx.prop_ns.push(t0.elapsed().as_nanos() as u64);
            s.matched += 1;
            s.payload_bytes += payload.len() as u64;
            s.matched_payload_bytes += payload.len() as u64;
            match r {
                Ok(()) => s.check_receipt(cx, &file, feed),
                Err(e) => cx.op(false, || format!("deposit {}: {e}", file.name)),
            }
            if cx.probing(s.units) {
                let feeds = [s.feed_names[feed].clone()];
                cx.tr.span("probe.index_match", root, s.units, || {
                    std::hint::black_box(s.server.match_via_index(&feeds));
                });
                cx.probe_file(root, s.units, now, &file.name, payload, &feeds[0]);
            }
            cx.tr.close(root);
            if i % HOUSEKEEP_EVERY == 0 {
                probe_expire_scan(&s.server, cx, s.units, now);
                housekeep(&mut s.server, cx, SERVER_SPANS, s.units);
            }
        }
        if snap {
            snapshot(&s.server, cx, SERVER_SPANS, s.units);
        }
        Window {
            files: units,
            deliveries: s.server.stats().deliveries - deliveries0,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn counters(&self) -> Counters {
        self.0.counters(2)
    }
    fn recover(&mut self, cx: &mut Ctx) -> Recovery {
        self.0.recover(cx)
    }
    fn finish(&mut self, cx: &mut Ctx) {
        self.0.finish(cx)
    }
    fn server(&self) -> &Server {
        &self.0.server
    }
}

pub struct IngestBatch(Ingest);

impl Workload for IngestBatch {
    const NAME: &'static str = "ingest_batch";
    const WARM: u64 = 80;
    const WINDOW: u64 = 50;
    const TAIL: u64 = 125;
    const FIXED_WORK_WINDOWS: u64 = 20;
    const POOLED: bool = true;
    const PATH: Path = Path {
        seal: true,
        network: false,
        unknown: true,
    };

    fn build(seed: u64) -> Self {
        let mut s = Ingest::build(seed, Self::NAME, true, (256, 8_000));
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        s.server.set_workers(workers);
        IngestBatch(s)
    }

    fn run(&mut self, cx: &mut Ctx, units: u64, snap: bool) -> Window {
        const HOUSEKEEP_EVERY: u64 = 10;
        let s = &mut self.0;
        let t = Instant::now();
        let deliveries0 = s.server.stats().deliveries;
        for i in 1..=units {
            s.units += 1;
            let now = s.clock.advance(TimeSpan::from_secs(BATCH as u64));
            let tg = Instant::now();
            let files = s.gen.batch(now, s.pool.len());
            let input: Vec<(String, Vec<u8>)> = files
                .iter()
                .map(|f| (f.name.clone(), s.pool[f.payload].clone()))
                .collect();
            cx.gen_ns += tg.elapsed().as_nanos() as u64;

            let root = cx.tr.open("batch", NONE, s.units);
            let t0 = Instant::now();
            let r = cx.tr.span("server.deposit_batch", root, s.units, || {
                s.server.deposit_batch(input)
            });
            cx.prop_ns.push(t0.elapsed().as_nanos() as u64);
            if let Err(e) = &r {
                cx.op(false, || format!("deposit_batch {}: {e}", s.units));
            }
            for f in &files {
                let size = s.pool[f.payload].len() as u64;
                s.payload_bytes += size;
                match f.feed {
                    Some(feed) => {
                        s.matched += 1;
                        s.matched_payload_bytes += size;
                        if r.is_ok() {
                            s.check_receipt(cx, f, feed);
                        }
                    }
                    None => {
                        s.unknown += 1;
                        let parked = s.server.store().exists(&format!("unknown/{}", f.name));
                        cx.op(parked, || format!("{} not parked in unknown/", f.name));
                    }
                }
            }
            if cx.probing(s.units) {
                // one matched file of the batch through every layer
                if let Some((f, feed)) = files.iter().find_map(|f| Some((f, f.feed?))) {
                    let feeds = [s.feed_names[feed].clone()];
                    cx.tr.span("probe.index_match", root, s.units, || {
                        std::hint::black_box(s.server.match_via_index(&feeds));
                    });
                    cx.probe_file(root, s.units, now, &f.name, &s.pool[f.payload], &feeds[0]);
                }
            }
            cx.tr.close(root);
            if i % HOUSEKEEP_EVERY == 0 {
                probe_expire_scan(&s.server, cx, s.units, now);
                housekeep(&mut s.server, cx, SERVER_SPANS, s.units);
            }
        }
        if snap {
            snapshot(&s.server, cx, SERVER_SPANS, s.units);
        }
        Window {
            files: units * BATCH as u64,
            deliveries: s.server.stats().deliveries - deliveries0,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn counters(&self) -> Counters {
        let mut c = self.0.counters(1);
        c.insert("batches", self.0.units);
        c
    }
    fn recover(&mut self, cx: &mut Ctx) -> Recovery {
        self.0.recover(cx)
    }
    fn finish(&mut self, cx: &mut Ctx) {
        self.0.finish(cx)
    }
    fn server(&self) -> &Server {
        &self.0.server
    }
    fn workers(&self) -> usize {
        self.0.server.worker_count()
    }
    fn set_workers(&mut self, workers: usize) {
        self.0.server.set_workers(workers);
    }
}

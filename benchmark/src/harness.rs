//! What the four workloads share: the phase runner (set-up × N, timed
//! windows, WAL tail, recovery), failure counting, and turning windows,
//! samples, counters and spans into the reported metrics.

use crate::probes::{self, Probes};
use crate::spec;
use crate::stats::{self, Window};
use crate::trace::{SpanId, Tracer};
use bistro_base::TimePoint;
use bistro_core::Server;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How often set-up runs in one untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// The untraced run reopens the stores after every this many timed
/// windows (behind an un-snapshotted tail each time) and once more at
/// the end, [`REOPENS_PER_TAIL`] times each; `recovery_ms` is the
/// median. Five reopens in a row at the end of a run take under a second
/// and all land in one stretch of the machine.
pub const RECOVER_EVERY: u64 = 8;
/// A tail costs about two windows and a reopen a fraction of one, so
/// each tail is reopened several times: 9 to 15 samples in a run, where
/// one per tail left a median of four or five that a single burst moves.
pub const REOPENS_PER_TAIL: usize = 3;
/// `propagation_p99_us` is the median of the p99s of this many equal
/// consecutive parts of the timed phase's samples.
pub const P99_PARTS: usize = 5;
/// Pre-sized span buffer of a traced run.
const SPAN_CAPACITY: usize = 8_000_000;

pub type Metrics = BTreeMap<&'static str, f64>;
pub type Counters = BTreeMap<&'static str, u64>;

/// How long a phase runs: wall seconds (whole windows until the time is
/// up) or an exact window count (every count then repeats per seed).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Windows(u64),
}

impl Budget {
    fn share(self, num: u64, den: u64) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s * num as f64 / den as f64),
            Budget::Windows(n) => Budget::Windows((n * num / den).max(1)),
        }
    }
}

pub struct Opts {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub trace_dir: Option<PathBuf>,
    /// Divisor applied to every count (warm-up, window, tail); 1 = full.
    pub scale: u64,
}

/// State a workload threads through its phases.
pub struct Ctx {
    pub tr: Tracer,
    pub probes: Option<Probes>,
    /// Wall ns from the start of a deposit to its last receipt, per file
    /// (per batch in `ingest_batch`).
    pub prop_ns: Vec<u64>,
    /// The same on the simulated clock, µs (fanout workloads).
    pub sim_prop_us: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub gen_ns: u64,
    notes: Vec<String>,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            tr: Tracer::new(0),
            probes: None,
            prop_ns: Vec::with_capacity(1 << 20),
            sim_prop_us: Vec::new(),
            attempted: 0,
            failed: 0,
            gen_ns: 0,
            notes: Vec::new(),
        }
    }

    /// Count one attempted operation; a false `ok` is a failed one.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }

    /// Is input number `n` in the probe sample of a traced phase?
    pub fn probing(&self, n: u64) -> bool {
        self.probes.is_some() && n.is_multiple_of(probes::EVERY)
    }

    /// Replay one input, deposited at `now`, through the layer probes.
    pub fn probe_file(
        &mut self,
        root: SpanId,
        id: u64,
        now: TimePoint,
        name: &str,
        payload: &[u8],
        feed: &str,
    ) {
        if let Some(p) = self.probes.as_mut() {
            p.file(&mut self.tr, root, id, now, name, payload, feed);
        }
    }
}

/// What reopening the final stores took and found.
#[derive(Default)]
pub struct Recovery {
    pub wall_ns: u64,
    pub backfill_ns: u64,
    pub snapshot_records: u64,
    pub wal_records: u64,
    pub live_files: u64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Phase lengths in units (files; batches in `ingest_batch`) at
    /// scale 1: warm-up inside set-up, one timed window (ends with a
    /// snapshot), and the un-snapshotted tail recovery replays.
    const WARM: u64;
    const WINDOW: u64;
    const TAIL: u64;
    /// `peak_rss_mb` and `write_amp` are read after this many timed
    /// windows (about a third of a run on the reference box); a run is
    /// never shorter.
    const FIXED_WORK_WINDOWS: u64;
    /// Deposits run through the prepare pool (`ingest_batch`).
    const POOLED: bool = false;
    /// Which layer probes the workload's path calls for.
    const PATH: probes::Path;

    /// Config build/parse, servers, index, clients — no deposits yet.
    fn build(seed: u64) -> Self;
    /// Deposit `units` units with deliveries and housekeeping on the
    /// workload's cadence; snapshot at the end if asked.
    fn run(&mut self, cx: &mut Ctx, units: u64, snapshot: bool) -> Window;
    /// Cumulative public counters (`max.*` keys are high-water marks).
    fn counters(&self) -> Counters;
    /// Reopen the final store on a fresh server and backfill; checks
    /// that nothing is lost and nothing is re-sent.
    fn recover(&mut self, cx: &mut Ctx) -> Recovery;
    /// End-of-run checks against the reference counts.
    fn finish(&mut self, cx: &mut Ctx);
    /// The server deposits enter at (the hub in the fanouts).
    fn server(&self) -> &Server;
    fn workers(&self) -> usize {
        1
    }
    fn set_workers(&mut self, _workers: usize) {}
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    /// Lines for a human reader (window counts, sample counts).
    pub info: Vec<String>,
}

fn scaled(units: u64, scale: u64) -> u64 {
    (units / scale.max(1)).max(1)
}

fn setup<W: Workload>(cx: &mut Ctx, opts: &Opts) -> (W, f64) {
    let t = Instant::now();
    let mut w = W::build(opts.seed);
    w.run(cx, scaled(W::WARM, opts.scale), true);
    (w, t.elapsed().as_secs_f64())
}

/// What a timed phase returns.
struct Phase {
    windows: Vec<Window>,
    wall_ns: u64,
    /// The process's peak RSS and the workload's counters after window
    /// `at_least` (or the last one of a shorter count budget).
    fixed_work: (f64, Counters),
    recoveries: Vec<Recovery>,
}

/// Reopen every store [`REOPENS_PER_TAIL`] times; nothing a reopen does
/// changes the store, so each replays the same tail.
fn sample_recovery<W: Workload>(w: &mut W, cx: &mut Ctx, out: &mut Vec<Recovery>) {
    for _ in 0..REOPENS_PER_TAIL {
        out.push(w.recover(cx));
    }
}

/// Whole windows until the budget is spent — and, on a wall-clock
/// budget, at least `at_least` of them; with `recover`, a tail and the
/// reopens after every [`RECOVER_EVERY`] windows. Memory and bytes written are read
/// at a fixed amount of work (window `at_least`), so that a faster build
/// is not charged for the extra files it gets through in the same
/// seconds, and `write_amp` repeats exactly for a seed.
fn phase<W: Workload>(
    w: &mut W,
    cx: &mut Ctx,
    budget: Budget,
    scale: u64,
    at_least: u64,
    recover: bool,
) -> Phase {
    let units = scaled(W::WINDOW, scale);
    let checkpoint = match budget {
        Budget::Seconds(_) => at_least,
        Budget::Windows(n) => at_least.min(n),
    };
    let t = Instant::now();
    let mut out = Phase {
        windows: Vec::new(),
        wall_ns: 0,
        fixed_work: (0.0, Counters::new()),
        recoveries: Vec::new(),
    };
    loop {
        out.windows.push(w.run(cx, units, true));
        let n = out.windows.len() as u64;
        if n == checkpoint {
            out.fixed_work = (peak_rss_mb(), w.counters());
        }
        let done = match budget {
            Budget::Seconds(s) => t.elapsed().as_secs_f64() >= s && n >= at_least,
            Budget::Windows(limit) => n >= limit,
        };
        if done {
            out.wall_ns = t.elapsed().as_nanos() as u64;
            return out;
        }
        if recover && n.is_multiple_of(RECOVER_EVERY) {
            // the next window's snapshot absorbs the tail
            w.run(cx, scaled(W::TAIL, scale), false);
            sample_recovery(w, cx, &mut out.recoveries);
        }
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| {
            let base = if k.starts_with("max.") {
                0
            } else {
                before.get(k).copied().unwrap_or(0)
            };
            (*k, v.saturating_sub(base))
        })
        .collect()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn run<W: Workload>(opts: &Opts) -> Outcome {
    if opts.trace {
        run_traced::<W>(opts)
    } else {
        run_untraced::<W>(opts)
    }
}

/// The run every end-to-end metric comes from: tracing off, no probes.
fn run_untraced<W: Workload>(opts: &Opts) -> Outcome {
    let mut cx = Ctx::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut held: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        drop(held.take());
        let (w, secs) = setup::<W>(&mut cx, opts);
        setups.push(secs);
        held = Some(w);
    }
    let mut w = held.expect("SETUP_REPEATS >= 1");
    cx.prop_ns.clear();
    cx.sim_prop_us.clear();

    let before = w.counters();
    let Phase {
        windows,
        wall_ns,
        fixed_work: (rss_mb, at_fixed_work),
        recoveries: mut reopened,
    } = phase(
        &mut w,
        &mut cx,
        opts.budget,
        opts.scale,
        W::FIXED_WORK_WINDOWS,
        true,
    );
    let d = delta(&at_fixed_work, &before);

    w.run(&mut cx, scaled(W::TAIL, opts.scale), false);
    w.finish(&mut cx);
    sample_recovery(&mut w, &mut cx, &mut reopened);
    let mut prop = std::mem::take(&mut cx.prop_ns);
    let recoveries: Vec<f64> = reopened.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let replayed = reopened.last().map_or(0, |r| r.wal_records);

    let files: u64 = windows.iter().map(|x| x.files).sum();
    let get = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    // the parts are cut in sample order, so before the median sorts
    let p99_ns = stats::p99_median_of_parts(&mut prop, P99_PARTS).unwrap_or(0.0);
    let p50_ns = stats::percentile(&mut prop, 0.5).unwrap_or(0) as f64;
    let metrics = vec![
        ("setup_s", stats::median(&setups).unwrap_or(0.0)),
        (
            "files_per_s",
            stats::window_rate_median(&windows, |x| x.files).unwrap_or(0.0),
        ),
        (
            "deliveries_per_s",
            stats::window_rate_median(&windows, |x| x.deliveries).unwrap_or(0.0),
        ),
        ("propagation_p50_us", p50_ns / 1e3),
        ("propagation_p99_us", p99_ns / 1e3),
        ("recovery_ms", stats::median(&recoveries).unwrap_or(0.0)),
        ("peak_rss_mb", rss_mb),
        (
            "write_amp",
            get("vfs.bytes_written") / get("payload_bytes").max(1.0),
        ),
    ];
    let info = vec![
        format!(
            "timed phase: {} windows, {files} files, {:.2} s wall, windows cv {:.4}; peak RSS and write_amp read after window {}",
            windows.len(),
            wall_ns as f64 / 1e9,
            stats::window_cv(&windows),
            W::FIXED_WORK_WINDOWS.min(windows.len() as u64)
        ),
        format!(
            "window files/s: {}",
            windows
                .iter()
                .map(|x| format!("{:.0}", x.files as f64 * 1e9 / x.wall_ns.max(1) as f64))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("propagation samples: {}", prop.len()),
        format!(
            "recovery: each reopen replays {replayed} WAL records; ms: {}",
            recoveries
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "driver gen share: {:.4}",
            cx.gen_ns as f64 / wall_ns.max(1) as f64
        ),
    ];
    Outcome {
        attempted: cx.attempted,
        failed: cx.failed,
        metrics,
        notes: cx.notes,
        info,
    }
}

/// Same inputs, same seed, spans and probes on: an untraced quarter
/// for the overhead baseline, the traced part, and (pooled workloads) a
/// quarter with one worker.
fn run_traced<W: Workload>(opts: &Opts) -> Outcome {
    let mut cx = Ctx::new();
    cx.tr = Tracer::new(SPAN_CAPACITY);
    let (mut w, _) = setup::<W>(&mut cx, opts);
    cx.prop_ns.clear();
    cx.sim_prop_us.clear();

    let gen0 = cx.gen_ns;
    let plain = phase(
        &mut w,
        &mut cx,
        opts.budget.share(1, 4),
        opts.scale,
        0,
        false,
    );
    let (plain, plain_ns) = (plain.windows, plain.wall_ns);
    let gen_share = (cx.gen_ns - gen0) as f64 / plain_ns.max(1) as f64;
    let plain_files: u64 = plain.iter().map(|x| x.files).sum();
    cx.prop_ns.clear();
    cx.sim_prop_us.clear();

    cx.tr.set_on(true);
    cx.probes = Some(Probes::new(w.server().config(), W::PATH));
    let before = w.counters();
    let traced_share = if W::POOLED { (1, 2) } else { (3, 4) };
    let traced = phase(
        &mut w,
        &mut cx,
        opts.budget.share(traced_share.0, traced_share.1),
        opts.scale,
        0,
        false,
    );
    let (traced, traced_ns) = (traced.windows, traced.wall_ns);
    let d = delta(&w.counters(), &before);
    cx.probes = None;
    cx.tr.set_on(false);
    let traced_files: u64 = traced.iter().map(|x| x.files).sum();
    // the counters below cover every traced file; span sums must too
    let dropped = cx.tr.dropped;
    cx.op(dropped == 0, || {
        format!("span buffer full: {dropped} spans dropped")
    });

    let mut m: Metrics = spec::PER_LAYER.iter().map(|p| (p.0, 0.0)).collect();
    m.insert("pool.workers", w.workers() as f64);
    layer_metrics(&mut m, &cx, &d, traced_ns, traced_files);
    // a root's self time is what the driver spends on a file outside
    // every call it makes: result checks and its own bookkeeping
    let root_self_ns = cx.tr.self_time_of("file") + cx.tr.self_time_of("batch");

    let ns_per_file = |ns: u64, files: u64| ns as f64 / files.max(1) as f64;
    let plain_cost = ns_per_file(plain_ns, plain_files);
    m.insert("driver.gen_share", gen_share);
    m.insert(
        "driver.trace_overhead_share",
        (ns_per_file(traced_ns, traced_files) - plain_cost) / plain_cost.max(1.0),
    );
    m.insert("driver.windows_cv", stats::window_cv(&plain));

    if W::POOLED {
        let workers = w.workers();
        w.set_workers(1);
        let single = phase(
            &mut w,
            &mut cx,
            opts.budget.share(1, 4),
            opts.scale,
            0,
            false,
        )
        .windows;
        w.set_workers(workers);
        let w1 = stats::window_rate_median(&single, |x| x.files).unwrap_or(0.0);
        let wn = stats::window_rate_median(&plain, |x| x.files).unwrap_or(0.0);
        m.insert("pool.files_per_s_w1", w1);
        m.insert("pool.speedup", if w1 > 0.0 { wn / w1 } else { 0.0 });
    }

    w.run(&mut cx, scaled(W::TAIL, opts.scale), false);
    w.finish(&mut cx);
    cx.tr.set_on(true);
    let r = w.recover(&mut cx);
    cx.tr.set_on(false);
    m.insert("receipts.replayed_records", r.wal_records as f64);
    m.insert(
        "receipts.replay_us_per_record",
        r.wall_ns as f64 / 1e3 / (r.wal_records + r.snapshot_records).max(1) as f64,
    );
    if m["server.backfill_us_per_file"] == 0.0 {
        m.insert(
            "server.backfill_us_per_file",
            r.backfill_ns as f64 / 1e3 / r.live_files.max(1) as f64,
        );
    }
    let t = Instant::now();
    std::hint::black_box(w.server().status_json().render());
    m.insert("server.status_json_ms", t.elapsed().as_secs_f64() * 1e3);

    let mut info = vec![
        format!(
            "traced phase: {} windows, {traced_files} files, {} spans ({} dropped)",
            traced.len(),
            cx.tr.spans().len(),
            cx.tr.dropped
        ),
        format!(
            "root span self time (driver checks and bookkeeping): {:.4} of the traced wall",
            root_self_ns as f64 / traced_ns.max(1) as f64
        ),
    ];
    if let Some(dir) = &opts.trace_dir {
        let path = dir.join(format!("{}.jsonl", W::NAME));
        match cx.tr.write_jsonl(&path) {
            Ok(()) => info.push(format!("spans written to {}", path.display())),
            Err(e) => cx.op(false, || format!("writing {}: {e}", path.display())),
        }
    }
    Outcome {
        attempted: cx.attempted,
        failed: cx.failed,
        metrics: spec::PER_LAYER
            .iter()
            .map(|p| (p.0, m.get(p.0).copied().unwrap_or(0.0)))
            .collect(),
        notes: cx.notes,
        info,
    }
}

/// Per-layer metrics from the traced windows: span medians and sums,
/// counter deltas (per deposited file unless the name says otherwise).
fn layer_metrics(m: &mut Metrics, cx: &Ctx, d: &Counters, wall_ns: u64, files: u64) {
    let mut durs = cx.tr.durations();
    let totals: BTreeMap<&str, f64> = durs
        .iter()
        .map(|(name, v)| (*name, v.iter().sum::<u64>() as f64))
        .collect();
    let sum = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let sum_prefix = |prefix: &str| -> f64 {
        totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, total)| total)
            .sum::<f64>()
            + 0.0 // an empty float sum is -0.0
    };
    let get = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let per_file = |k: &str| get(k) / files.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wall = wall_ns.max(1) as f64;

    // (metric, span, quantile, ns per unit of the metric)
    for (metric, span, q, unit_ns) in [
        ("classifier.classify_ns_p50", "probe.classify", 0.5, 1.0),
        ("parallel.prepare_us_p50", "probe.prepare", 0.5, 1e3),
        ("compress.seal_us_p50", "probe.seal", 0.5, 1e3),
        ("vfs.write_us_p50", "probe.vfs_write", 0.5, 1e3),
        (
            "receipts.record_arrival_us_p50",
            "probe.record_arrival",
            0.5,
            1e3,
        ),
        (
            "receipts.record_delivery_us_p50",
            "probe.record_delivery",
            0.5,
            1e3,
        ),
        (
            "receipts.expire_candidates_us_p50",
            "probe.expire_candidates",
            0.5,
            1e3,
        ),
        ("receipts.snapshot_ms_p50", "server.snapshot", 0.5, 1e6),
        ("index.match_ns_p50", "probe.index_match", 0.5, 1.0),
        ("index.flip_us_p50", "server.set_offline", 0.5, 1e3),
        ("net.send_recv_ns_p50", "probe.net_send_recv", 0.5, 1.0),
        ("reliable.track_ack_ns_p50", "probe.track_ack", 0.5, 1.0),
        ("analyzer.unknown_us_p50", "probe.unknown", 0.5, 1e3),
        ("server.deposit_us_p50", "server.deposit", 0.5, 1e3),
        ("server.deposit_us_p99", "server.deposit", 0.99, 1e3),
        (
            "server.deposit_batch_us_p50",
            "server.deposit_batch",
            0.5,
            1e3,
        ),
        ("server.retry_tick_us_p50", "server.retry_tick", 0.5, 1e3),
        ("server.tick_us_p50", "server.tick", 0.5, 1e3),
    ] {
        let ns = durs
            .get_mut(span)
            .and_then(|v| stats::percentile(v, q))
            .unwrap_or(0);
        m.insert(metric, ns as f64 / unit_ns);
    }
    for (metric, counter) in [
        ("vfs.writes", "vfs.writes"),
        ("vfs.bytes_written", "vfs.bytes_written"),
        ("vfs.removes", "vfs.removes"),
        ("vfs.renames", "vfs.renames"),
        ("vfs.stats_calls", "vfs.stat_calls"),
        ("wal.appends", "wal.appends"),
        ("wal.physical_appends", "wal.physical_appends"),
        ("wal.bytes_per_file", "wal.bytes"),
        ("relay.relayed", "relay.relayed"),
        ("relay.duplicates", "relay.duplicates"),
        ("relay.group_acks", "relay.group_acks"),
        ("reliable.resends", "reliable.resends"),
        ("group.sends_per_deposit", "group.sends"),
        ("group.resends_per_deposit", "group.resends"),
        ("group.acks_merged", "group.acks"),
        ("analyzer.unknown_files", "ingest.unknown"),
    ] {
        m.insert(metric, per_file(counter));
    }
    for (metric, high_water) in [
        ("wal.group_size_p50", "max.wal.group_size_p50"),
        ("index.entries", "max.index.entries"),
        ("reliable.outstanding_max", "max.reliable.outstanding"),
        ("group.outstanding_max", "max.group.outstanding"),
    ] {
        m.insert(metric, get(high_water));
    }
    for (metric, num, den) in [
        (
            "classifier.hit_share",
            get("ingest.files"),
            get("ingest.total"),
        ),
        (
            "compress.ratio",
            get("ingest.bytes_staged"),
            get("matched_payload_bytes"),
        ),
        (
            "index.matched_per_lookup",
            get("index.matched"),
            get("index.lookups"),
        ),
        ("net.msgs_per_delivery", get("net.msgs"), get("deliveries")),
        (
            "net.bytes_per_delivery",
            get("net.bytes"),
            get("deliveries"),
        ),
        (
            "server.poll_network_us_per_ack",
            sum("server.poll_network") / 1e3,
            get("server.acks"),
        ),
        (
            "server.expire_us_per_file",
            sum("server.expire") / 1e3,
            get("server.expired"),
        ),
        // the churn backfill; workloads without churn get the recovery's
        (
            "server.backfill_us_per_file",
            sum("server.set_online") / 1e3,
            get("server.backfilled"),
        ),
        (
            "client.poll_us_per_msg",
            sum("client.poll") / 1e3,
            get("client.acks_sent"),
        ),
        (
            "relay.pump_us_per_msg",
            sum("relay.pump") / 1e3,
            get("relay.relayed") + get("relay.duplicates"),
        ),
        ("pool.busy_share", get("pool.busy_us") * 1e3, wall),
        ("server.busy_share", sum_prefix("server."), wall),
        ("edge.busy_share", sum_prefix("edge."), wall),
        ("relay.busy_share", sum("relay.pump"), wall),
        ("client.busy_share", sum("client.poll"), wall),
    ] {
        m.insert(metric, ratio(num, den));
    }
    let mut sim = cx.sim_prop_us.clone();
    m.insert(
        "net.sim_propagation_ms_p50",
        stats::percentile(&mut sim, 0.5).unwrap_or(0) as f64 / 1e3,
    );

    // What the probes account for of one file's deposit: the landing
    // and staging writes, prepare, the arrival record, the index match,
    // and a delivery record for every synchronous (network-less) receipt.
    let deposit_us = if get("batches") > 0.0 {
        m["server.deposit_batch_us_p50"] * get("batches") / files.max(1) as f64
    } else {
        m["server.deposit_us_p50"]
    };
    let sync_receipts = if get("net.msgs") > 0.0 {
        0.0
    } else {
        per_file("deliveries")
    };
    let attributed = m["vfs.write_us_p50"] * per_file("vfs.payload_writes")
        // the pool prepares `workers` files at a time
        + m["parallel.prepare_us_p50"] / m["pool.workers"].max(1.0)
        + m["receipts.record_arrival_us_p50"]
        + m["index.match_ns_p50"] / 1e3
        + m["receipts.record_delivery_us_p50"] * sync_receipts;
    m.insert(
        "server.unattributed_share",
        ratio(deposit_us - attributed, deposit_us),
    );
}

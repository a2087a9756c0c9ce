//! What every workload does to a server between deposits: housekeeping
//! on a cadence, snapshots, reading its public counters, and reopening
//! its store at the end.

use crate::harness::{Counters, Ctx, Recovery};
use crate::trace::NONE;
use bistro_base::{FileId, TimePoint};
use bistro_compress::container;
use bistro_core::Server;
use std::time::Instant;

/// One staged file in this many is read back and compared byte for byte.
const READBACK_EVERY: u64 = 100;

/// `server`'s receipt number `id` must name the generator's file and
/// exactly its feed; one in [`READBACK_EVERY`] staged copies must read
/// back equal to the deposited payload (through `container::open` where
/// the feed seals what it stages).
pub fn check_receipt(
    cx: &mut Ctx,
    server: &Server,
    id: u64,
    name: &str,
    feed: &str,
    payload: &[u8],
    sealed: bool,
) {
    let rec = server.receipts().file(FileId(id));
    let ok = rec
        .as_ref()
        .is_some_and(|r| r.name == name && r.feeds == [feed]);
    cx.op(ok, || {
        format!(
            "{}: receipt {id} for {name} (feed {feed}): {rec:?}",
            server.name()
        )
    });
    let Some(rec) = rec.filter(|_| id.is_multiple_of(READBACK_EVERY)) else {
        return;
    };
    let staged = format!("{}/{}", server.config().server.staging, rec.staged_path);
    let same = match server.store().read(&staged) {
        Ok(bytes) if sealed => container::open(&bytes).is_ok_and(|plain| plain == payload),
        Ok(bytes) => bytes == payload,
        Err(_) => false,
    };
    cx.op(same, || format!("staged {staged} does not read back equal"));
}

/// Counters every workload reads off one server's public surface,
/// added into `out` (so several servers sum).
pub fn add_store_counters(server: &Server, out: &mut Counters) {
    let vfs = server.store().stats().snapshot();
    let tel = server.telemetry();
    for (k, v) in [
        ("vfs.writes", vfs.writes),
        ("vfs.bytes_written", vfs.bytes_written),
        ("vfs.removes", vfs.removes),
        ("vfs.renames", vfs.renames),
        ("vfs.stat_calls", vfs.stat_calls),
        ("wal.appends", tel.counter_value("wal.appends").unwrap_or(0)),
        ("wal.bytes", tel.counter_value("wal.bytes").unwrap_or(0)),
    ] {
        *out.entry(k).or_default() += v;
    }
}

/// Ingest- and index-side counters of the server deposits enter at.
pub fn add_ingest_counters(server: &Server, out: &mut Counters) {
    let tel = server.telemetry();
    let pool = server.pool_telemetry();
    let c = |k: &str| tel.counter_value(k).unwrap_or(0);
    let p = |k: &str| pool.counter_value(k).unwrap_or(0);
    for (k, v) in [
        ("ingest.total", c("ingest.total")),
        ("ingest.files", c("ingest.files")),
        ("ingest.unknown", c("ingest.unknown")),
        ("ingest.bytes_staged", c("ingest.bytes_staged")),
        ("index.lookups", p("index.lookups")),
        (
            "index.matched",
            p("index.matched_subscribers") + p("index.matched_groups"),
        ),
        ("server.expired", server.receipts().expired_count()),
    ] {
        *out.entry(k).or_default() += v;
    }
    let (feed_entries, endpoint_entries) = server.index_entry_counts();
    out.insert(
        "max.index.entries",
        (feed_entries + endpoint_entries) as u64,
    );
}

/// Housekeeping on the workload's cadence, each call in its own span:
/// what a deployment's timers call, whether or not there is anything to
/// retry or expire.
pub fn housekeep(server: &mut Server, cx: &mut Ctx, prefix: Spans, id: u64) {
    cx.tr.span(prefix.tick, NONE, id, || server.tick());
    let retried = cx
        .tr
        .span(prefix.retry_tick, NONE, id, || server.retry_tick());
    cx.op(retried.is_ok(), || format!("retry_tick: {retried:?}"));
    let expired = cx.tr.span(prefix.expire, NONE, id, || server.expire());
    cx.op(expired.is_ok(), || format!("expire: {expired:?}"));
}

/// Span names of one tier's housekeeping calls.
#[derive(Clone, Copy)]
pub struct Spans {
    pub tick: &'static str,
    pub retry_tick: &'static str,
    pub expire: &'static str,
    pub snapshot: &'static str,
}

pub const SERVER_SPANS: Spans = Spans {
    tick: "server.tick",
    retry_tick: "server.retry_tick",
    expire: "server.expire",
    snapshot: "server.snapshot",
};

pub fn snapshot(server: &Server, cx: &mut Ctx, prefix: Spans, id: u64) {
    let r = cx.tr.span(prefix.snapshot, NONE, id, || server.snapshot());
    cx.op(r.is_ok(), || format!("snapshot: {r:?}"));
}

/// Reopen `old`'s store on a fresh server built by `open`, backfill,
/// and check nothing was lost and nothing is re-sent. Adds what it took
/// and found to `rec`, so a deployment of several servers sums.
pub fn reopen(
    cx: &mut Ctx,
    rec: &mut Recovery,
    old: &Server,
    open: impl FnOnce() -> Result<Server, bistro_core::ServerError>,
) {
    let live_before = old.receipts().live_count();
    let root = cx.tr.open("recovery", NONE, 0);
    let t = Instant::now();
    let opened = cx.tr.span("server.new", root, 0, open);
    match opened {
        Ok(mut server) => {
            let tb = Instant::now();
            let sent = cx.tr.span("server.backfill_unacked", root, 0, || {
                server.backfill_unacked()
            });
            rec.backfill_ns += tb.elapsed().as_nanos() as u64;
            rec.wall_ns += t.elapsed().as_nanos() as u64;
            let info = server.receipts().recovery_info();
            rec.snapshot_records += info.snapshot_records;
            rec.wal_records += info.wal_records;
            rec.live_files += live_before as u64;
            let live = server.receipts().live_count();
            cx.op(live == live_before, || {
                format!(
                    "recovery of {}: {live} live files, {live_before} before the reopen",
                    old.name()
                )
            });
            cx.op(matches!(sent, Ok(0)), || {
                format!("recovery backfill of {} re-sent {sent:?}", old.name())
            });
        }
        Err(e) => cx.op(false, || {
            format!("recovery of {}: Server::new failed: {e}", old.name())
        }),
    }
    cx.tr.close(root);
}

/// The scan `Server::expire` starts with, timed alone in a traced
/// phase (`receipts.expire_candidates_us_p50`).
pub fn probe_expire_scan(server: &Server, cx: &mut Ctx, id: u64, now: TimePoint) {
    if cx.tr.is_on() {
        let cutoff = now.saturating_sub(server.config().server.retention);
        cx.tr.span("probe.expire_candidates", NONE, id, || {
            std::hint::black_box(server.receipts().expire_candidates(cutoff));
        });
    }
}

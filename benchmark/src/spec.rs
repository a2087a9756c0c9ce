//! The benchmark's contract: workload names with their reasons, the
//! end-to-end metrics with their worse-by bounds, and the per-layer
//! metric names. `BENCHMARK.json` at the repo root is `manifest`'s
//! output; `check.sh` fails when the two disagree. What each per-layer
//! metric should move is in `README.md`.

use bistro_telemetry::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "ingest_stream",
        why: "single 60 kB uncompressed deposits, 100 feeds, 10 local subscribers: classifier, vfs and one WAL append per file do the work; compress, transport and the pool do none",
    },
    WorkloadSpec {
        name: "ingest_batch",
        why: "64-file deposit_batch of 8 kB CSV with lzss + normalize and one unmatched name: compress, normalizer and the prepare pool dominate; vfs and receipts are minor",
    },
    WorkloadSpec {
        name: "fanout_direct",
        why: "1 kB files to 200 ungrouped reliable subscribers with offline/online churn: index match, RetryTracker, SimNetwork and one WAL append per ack; payload cost is nil",
    },
    WorkloadSpec {
        name: "fanout_tree",
        why: "1 kB files through 32 relay groups x 64 members, reliable at both tiers: GroupTracker, coverage bitmaps, GroupMark records and relay dedup instead of per-subscriber tracking",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "files_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "deliveries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "propagation_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "propagation_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recovery_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.01,
    },
];

/// `(name, unit, better)`, grouped by layer (= module name).
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    // core::classifier
    ("classifier.classify_ns_p50", "ns", "lower"),
    ("classifier.hit_share", "share", "higher"),
    // core::parallel + core::normalizer + compress
    ("parallel.prepare_us_p50", "us", "lower"),
    ("compress.seal_us_p50", "us", "lower"),
    ("compress.ratio", "ratio", "lower"),
    ("pool.workers", "count", "higher"),
    ("pool.busy_share", "share", "higher"),
    ("pool.files_per_s_w1", "1/s", "higher"),
    ("pool.speedup", "ratio", "higher"),
    // vfs (counts are per deposited file)
    ("vfs.write_us_p50", "us", "lower"),
    ("vfs.writes", "count", "lower"),
    ("vfs.bytes_written", "B", "lower"),
    ("vfs.removes", "count", "lower"),
    ("vfs.renames", "count", "lower"),
    ("vfs.stats_calls", "count", "lower"),
    // receipts
    ("receipts.record_arrival_us_p50", "us", "lower"),
    ("receipts.record_delivery_us_p50", "us", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.physical_appends", "count", "lower"),
    ("wal.bytes_per_file", "B/file", "lower"),
    ("wal.group_size_p50", "count", "higher"),
    ("receipts.snapshot_ms_p50", "ms", "lower"),
    ("receipts.expire_candidates_us_p50", "us", "lower"),
    ("receipts.replayed_records", "count", "lower"),
    ("receipts.replay_us_per_record", "us/record", "lower"),
    // core::index
    ("index.match_ns_p50", "ns", "lower"),
    ("index.matched_per_lookup", "count", "lower"),
    ("index.flip_us_p50", "us", "lower"),
    ("index.entries", "count", "lower"),
    // core::server
    ("server.deposit_us_p50", "us", "lower"),
    ("server.deposit_us_p99", "us", "lower"),
    ("server.deposit_batch_us_p50", "us", "lower"),
    ("server.poll_network_us_per_ack", "us/ack", "lower"),
    ("server.retry_tick_us_p50", "us", "lower"),
    ("server.tick_us_p50", "us", "lower"),
    ("server.expire_us_per_file", "us/file", "lower"),
    ("server.backfill_us_per_file", "us/file", "lower"),
    ("server.status_json_ms", "ms", "lower"),
    ("server.busy_share", "share", "lower"),
    ("server.unattributed_share", "share", "lower"),
    // transport::net
    ("net.send_recv_ns_p50", "ns", "lower"),
    ("net.msgs_per_delivery", "count", "lower"),
    ("net.bytes_per_delivery", "B/delivery", "lower"),
    ("net.sim_propagation_ms_p50", "sim_ms", "lower"),
    // transport::reliable
    ("reliable.track_ack_ns_p50", "ns", "lower"),
    ("reliable.resends", "count", "lower"),
    ("reliable.outstanding_max", "count", "lower"),
    ("group.sends_per_deposit", "count", "lower"),
    ("group.resends_per_deposit", "count", "lower"),
    ("group.acks_merged", "count", "lower"),
    ("group.outstanding_max", "count", "lower"),
    // transport::client (harness side)
    ("client.poll_us_per_msg", "us/msg", "lower"),
    ("client.busy_share", "share", "lower"),
    // core::relay
    ("relay.pump_us_per_msg", "us/msg", "lower"),
    ("relay.relayed", "count", "lower"),
    ("relay.duplicates", "count", "lower"),
    ("relay.group_acks", "count", "lower"),
    ("relay.busy_share", "share", "lower"),
    ("edge.busy_share", "share", "lower"),
    // analyzer
    ("analyzer.unknown_us_p50", "us", "lower"),
    ("analyzer.unknown_files", "count", "lower"),
    // the driver itself
    ("driver.gen_share", "share", "lower"),
    ("driver.trace_overhead_share", "share", "lower"),
    ("driver.windows_cv", "share", "lower"),
];

pub fn unit_of(metric: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == metric).map(|m| m.1))
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The program and arguments the driver appends
/// `--workload W --seed N --seconds S --trace 0|1` to.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    obj(vec![
        ("command", Json::Arr(COMMAND.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        obj(vec![
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render with one array element / object member per line, two-space
/// indent; leaf objects (all-scalar members) stay on one line.
pub fn pretty(j: &Json) -> String {
    fn scalar(j: &Json) -> bool {
        !matches!(j, Json::Arr(_) | Json::Obj(_))
    }
    fn go(j: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match j {
            Json::Obj(members) if !members.iter().all(|(_, v)| scalar(v)) => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::Str(k.clone()).render());
                    out.push_str(": ");
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            Json::Arr(items) if !items.iter().all(scalar) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            other => out.push_str(&other.render().replace("\":", "\": ").replace(",\"", ", \"")),
        }
    }
    let mut out = String::new();
    go(j, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for n in names {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn manifest_round_trips_through_the_pretty_printer() {
        let m = manifest();
        assert_eq!(Json::parse(&pretty(&m)).unwrap(), m);
        assert!(pretty(&m).len() < 64 * 1024);
    }
}

//! End-to-end smoke test for `bistro status`: the binary must produce
//! well-formed, deterministic JSON containing the known metric keys the
//! CI gate greps for.

use bistro::base::fnv1a64;
use bistro::telemetry::Json;
use std::process::Command;

fn run_status(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bistro"))
        .args(args)
        .output()
        .expect("bistro binary runs");
    assert!(
        out.status.success(),
        "bistro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn status_json_is_wellformed_deterministic_and_has_known_keys() {
    let a = run_status(&["status", "--json", "--seed", "11"]);
    let b = run_status(&["status", "--json", "--seed", "11"]);
    assert_eq!(a, b, "same seed must render byte-identical snapshots");
    // the snapshot's bytes, pinned: a change that moves any of them
    // updates this constant and says which counters moved and why
    assert_eq!(
        fnv1a64(a.as_bytes()),
        STATUS_JSON_SEED_11,
        "`bistro status --json --seed 11` changed:\n{a}"
    );

    let doc = Json::parse(a.trim()).expect("output parses as JSON");
    assert_eq!(doc.get("server").and_then(Json::as_str), Some("b"));
    let counters = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters object");
    for key in [
        "delivery.receipts",
        "ingest.files",
        "reliable.attempts",
        "wal.appends",
        "vfs.writes",
    ] {
        assert!(
            counters.get(key).and_then(Json::as_num).is_some(),
            "missing counter {key} in {a}"
        );
    }
    assert!(
        doc.get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("wal.fsync_us"))
            .is_some(),
        "missing wal.fsync_us histogram in {a}"
    );
    // a different seed is a different faulty run
    let c = run_status(&["status", "--json", "--seed", "12"]);
    assert_ne!(a, c, "different seeds should diverge");
}

/// `fnv1a64` of `bistro status --json --seed 11`'s stdout, trailing
/// newline included.
const STATUS_JSON_SEED_11: u64 = 0xa6d6_5650_aab8_ac5a;

#[test]
fn status_text_mentions_counters_and_alarms() {
    let text = run_status(&["status", "--seed", "11"]);
    assert!(text.contains("server b @"), "{text}");
    assert!(text.contains("delivery.receipts"), "{text}");
    assert!(text.contains("alarm"), "{text}");
}

//! The same server pipeline over a REAL directory tree (`DiskFs`) and the
//! wall clock — what a production deployment would run. Uses a temp
//! directory; exercises atomic landing→staging moves, WAL recovery and
//! the CLI-facing discovery path against actual files.

use bistro::base::WallClock;
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::vfs::{DiskFs, FileStore};
use std::sync::Arc;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bistro_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const CONFIG: &str = r#"
    feed SNMP/MEMORY {
        pattern "MEMORY_poller%i_%Y%m%d.gz";
        normalize "%Y/%m/%d/%f";
    }
    subscriber wh { endpoint "wh"; subscribe SNMP/MEMORY; delivery push; }
"#;

#[test]
fn full_pipeline_on_real_filesystem() {
    let root = temp_root("pipeline");
    let store: Arc<dyn FileStore> = Arc::new(DiskFs::open(&root).unwrap());
    let clock = WallClock::shared();

    {
        let mut server = Server::new(
            "bistro",
            parse_config(CONFIG).unwrap(),
            clock.clone(),
            store.clone(),
        )
        .unwrap();
        server
            .deposit("MEMORY_poller1_20100925.gz", b"real bytes")
            .unwrap();
        server
            .deposit("MEMORY_poller2_20100925.gz", b"more bytes")
            .unwrap();
        server.deposit("stray.tmp", b"???").unwrap();

        assert_eq!(server.stats().files_ingested, 2);
        assert_eq!(server.stats().files_unknown, 1);
        server.persist_config().unwrap();
    } // process "exits"

    // the staged layout is on real disk
    let staged = root.join("staging/SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz");
    assert_eq!(std::fs::read(&staged).unwrap(), b"real bytes");
    assert!(root.join("unknown/stray.tmp").exists());
    assert!(root.join("receipts/wal").exists());

    // a new process recovers config + receipts from disk alone
    let store2: Arc<dyn FileStore> = Arc::new(DiskFs::open(&root).unwrap());
    let server = Server::open_existing("bistro", clock, store2).unwrap();
    assert_eq!(server.receipts().live_count(), 2);
    assert!(server
        .receipts()
        .pending_for("wh", &["SNMP/MEMORY".to_string()])
        .is_empty());

    // analyzer saw the stray file
    assert_eq!(server.discovery_report(1).unwrap().len(), 1);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wal_survives_partial_disk_writes() {
    // torn-tail recovery on the real filesystem
    let root = temp_root("torn");
    let store: Arc<dyn FileStore> = Arc::new(DiskFs::open(&root).unwrap());
    let clock = WallClock::shared();
    {
        let mut server = Server::new(
            "bistro",
            parse_config(CONFIG).unwrap(),
            clock.clone(),
            store.clone(),
        )
        .unwrap();
        server.deposit("MEMORY_poller1_20100925.gz", b"x").unwrap();
    }
    // simulate a torn write at the end of the active WAL segment
    let seg_dir = root.join("receipts/wal");
    let seg = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().map(|e| e == "seg").unwrap_or(false))
        .expect("a wal segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD]); // partial frame
    std::fs::write(&seg, &bytes).unwrap();

    let store2: Arc<dyn FileStore> = Arc::new(DiskFs::open(&root).unwrap());
    let server = Server::new("bistro", parse_config(CONFIG).unwrap(), clock, store2).unwrap();
    assert_eq!(
        server.receipts().live_count(),
        1,
        "torn tail discarded, data intact"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_real_store_checkpoints_itself_past_the_threshold() {
    // Past max(one WAL segment, 4 x its last snapshot) of un-snapshotted
    // WAL the receipt store snapshots itself: on disk that leaves the
    // snapshot and the segments it does not cover, and nothing else.
    let root = temp_root("checkpoint");
    let store: Arc<dyn FileStore> = Arc::new(DiskFs::open(&root).unwrap());
    let clock = WallClock::shared();
    let mut server = Server::new(
        "bistro",
        parse_config(CONFIG).unwrap(),
        clock.clone(),
        store,
    )
    .unwrap();
    server.receipts().set_segment_bytes(512);
    for i in 0..200 {
        server
            .deposit(&format!("MEMORY_poller{i}_20100925.gz"), b"bytes")
            .unwrap();
    }
    let checkpoints = server
        .telemetry()
        .counter_value("receipts.checkpoints")
        .unwrap();
    assert!(checkpoints >= 2, "{checkpoints} checkpoints");
    let live = server.receipts().live_count();
    drop(server);

    let receipts = root.join("receipts");
    let listing = |dir: &std::path::Path| -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().into_string().unwrap(),
                    e.metadata().unwrap().len(),
                )
            })
            .collect();
        out.sort();
        out
    };
    let names: Vec<String> = listing(&receipts).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["snapshot.bin", "wal"], "no snapshot.tmp, no debris");
    // the v4 header names the first WAL segment the snapshot does not
    // cover (bytes 25..33)
    let snapshot = std::fs::read(receipts.join("snapshot.bin")).unwrap();
    let first = u64::from_le_bytes(snapshot[25..33].try_into().unwrap());
    let segments = listing(&receipts.join("wal"));
    let mut uncovered = 0;
    for (name, len) in &segments {
        let n: u64 = name.strip_suffix(".seg").unwrap().parse().unwrap();
        assert!(n >= first, "segment {name} is covered by the snapshot");
        uncovered += len;
    }
    assert!(uncovered <= 512.max(4 * snapshot.len() as u64));

    let store2: Arc<dyn FileStore> = Arc::new(DiskFs::open(&root).unwrap());
    let server = Server::new("bistro", parse_config(CONFIG).unwrap(), clock, store2).unwrap();
    let info = server.receipts().recovery_info();
    assert!(info.snapshot_loaded);
    assert_eq!(
        info.wal_bytes, uncovered,
        "replays only the uncovered segments"
    );
    assert_eq!(server.receipts().live_count(), live);
    println!(
        "real store: {checkpoints} checkpoints over 200 deposits; snapshot {} B, \
         {} uncovered segment(s) of {uncovered} B replayed ({} records)",
        snapshot.len(),
        segments.len(),
        info.wal_records
    );

    let _ = std::fs::remove_dir_all(&root);
}

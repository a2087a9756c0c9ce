//! The feed analyzer in action (paper §5): discover an undocumented
//! aggregate feed, survive a naming-convention change, and close the
//! loop with a subscriber-approved redefinition.
//!
//! ```sh
//! cargo run --example feed_discovery
//! ```

use bistro::base::{Clock, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::simnet::{generate, Evolution, FleetConfig, NameStyle, SubfeedSpec};
use bistro::vfs::MemFs;

fn main() {
    // The server only knows about MEMORY. Everything else an aggregate
    // source sends will land in the unknown-feed stream.
    let config = parse_config(
        r#"
        feed SNMP/MEMORY { pattern "MEMORY_poller%i_%Y%m%d%H%M.csv"; }
        subscriber wh { endpoint "wh"; subscribe SNMP/MEMORY; }
        "#,
    )
    .unwrap();
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let mut server = Server::new("bistro", config, clock.clone(), store).unwrap();

    // An aggregate source: MEMORY (known) plus four undocumented
    // subfeeds in different naming styles, from 3 pollers.
    let fleet = FleetConfig::standard(
        3,
        vec![
            SubfeedSpec::standard("MEMORY"),
            SubfeedSpec::standard("BPS"),
            SubfeedSpec {
                name: "CPU".to_string(),
                style: NameStyle::CompactHourMin,
                ext: "csv.gz".to_string(),
                period: TimeSpan::from_mins(5),
                size_range: (1_000, 2_000),
            },
            SubfeedSpec {
                name: "LINKLOSS".to_string(),
                style: NameStyle::Daily,
                ext: "gz".to_string(),
                period: TimeSpan::from_hours(1),
                size_range: (1_000, 2_000),
            },
            SubfeedSpec {
                name: "router_a".to_string(),
                style: NameStyle::SeparatedHour,
                ext: "csv".to_string(),
                period: TimeSpan::from_hours(1),
                size_range: (1_000, 2_000),
            },
        ],
        TimeSpan::from_hours(3),
    );
    for f in generate(&fleet) {
        clock.set(f.deposit_time);
        server.deposit(&f.name, b"data").unwrap();
    }

    let unknown_pct = 100.0 * server.stats().files_unknown as f64
        / (server.stats().files_ingested + server.stats().files_unknown) as f64;
    println!(
        "{} files ingested, {} ({unknown_pct:.0}%) matched no feed",
        server.stats().files_ingested,
        server.stats().files_unknown
    );

    // §5.1 — new feed discovery over the unknown stream
    println!("\n--- suggested new feed definitions ---");
    for feed in server.discovery_report(3).unwrap() {
        println!(
            "  {}   support={} period={} sources={}",
            feed.pattern,
            feed.support,
            feed.period
                .map(|p| p.to_string())
                .unwrap_or_else(|| "?".to_string()),
            feed.sources
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".to_string()),
        );
        println!("      {}", feed.description);
    }

    // §2.1.3.1 / §5.2 — the source renames poller → Poller mid-stream
    println!("\n--- feed evolution: poller word changes to 'Poller' ---");
    let mut drifting = FleetConfig::standard(
        3,
        vec![SubfeedSpec::standard("MEMORY")],
        TimeSpan::from_hours(2),
    );
    drifting.start = clock.now();
    drifting.evolution = vec![Evolution::RenamePollerWord {
        at: drifting.start + TimeSpan::from_hours(1),
        to: "Poller".to_string(),
    }];
    for f in generate(&drifting) {
        clock.set(f.deposit_time);
        server.deposit(&f.name, b"data").unwrap();
    }

    println!("false-negative warnings (one per drifted pattern, not per file):");
    let warnings = server.fn_warnings().unwrap();
    for w in &warnings {
        println!(
            "  feed {}: {} files match suggested pattern {} (similarity {:.2})",
            w.feed, w.file_count, w.suggested_pattern, w.similarity
        );
    }

    // the subscriber approves the top suggestion
    if let Some(w) = warnings.iter().find(|w| w.feed == "SNMP/MEMORY") {
        let mut feed = server.config().feed("SNMP/MEMORY").unwrap().clone();
        feed.patterns.push(w.suggested_pattern.clone());
        server.redefine_feed(feed).unwrap();
        println!(
            "\nafter approving the revised definition: {} live files, {} still unknown on disk",
            server.receipts().live_count(),
            bistro::vfs::walk_files(server.store().as_ref(), "unknown")
                .unwrap()
                .len()
        );
    }
}

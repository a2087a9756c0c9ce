//! Quickstart: define a feed, start a server, push files, watch them
//! reach a subscriber.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bistro::base::{Clock, SimClock, TimePoint};
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::vfs::MemFs;

fn main() {
    // 1. Write a Bistro configuration: one feed, one subscriber.
    let config = parse_config(
        r#"
        server { retention 7d; }

        feed SNMP/MEMORY {
            pattern "MEMORY_poller%i_%Y%m%d.gz";
            normalize "%Y/%m/%d/%f";         # daily staging directories
            description "router memory utilization";
        }

        subscriber warehouse {
            endpoint "warehouse-host";
            subscribe SNMP/MEMORY;
            delivery push;
            deadline 60s;
            trigger remote "load_partition %N %f";
        }
        "#,
    )
    .expect("valid configuration");

    // 2. Start a server on an in-memory store with a simulated clock.
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let mut server =
        Server::new("bistro", config, clock.clone(), store.clone()).expect("server starts");

    // 3. Sources deposit files into the landing zone (with notification).
    for poller in 1..=3 {
        let name = format!("MEMORY_poller{poller}_20100925.gz");
        server
            .deposit(&name, format!("data from poller {poller}").as_bytes())
            .unwrap();
        println!("deposited {name}");
    }
    // one file that matches no feed
    server.deposit("mystery_file.tmp", b"???").unwrap();

    // 4. Inspect the results.
    println!("\n--- server state at {} ---", clock.now());
    println!("files ingested : {}", server.stats().files_ingested);
    println!("unknown files  : {}", server.stats().files_unknown);
    println!("deliveries     : {}", server.stats().deliveries);
    println!(
        "staging example: staging/SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz exists = {}",
        bistro::vfs::FileStore::exists(
            store.as_ref(),
            "staging/SNMP/MEMORY/2010/09/25/MEMORY_poller1_20100925.gz"
        )
    );

    println!("\n--- trigger invocations ---");
    for inv in server.trigger_log().entries() {
        println!("[{}] {} ← {}", inv.at, inv.subscriber, inv.command);
    }

    println!("\n--- analyzer: what was that mystery file? ---");
    for feed in server.discovery_report(1).unwrap() {
        println!(
            "suggested feed: {} (support {}, {})",
            feed.pattern, feed.support, feed.description
        );
    }

    // 5. Reliability: everything is in the receipt database.
    println!(
        "\nreceipts: {} live files, {} deliveries recorded",
        server.receipts().live_count(),
        server.receipts().delivery_count()
    );
}

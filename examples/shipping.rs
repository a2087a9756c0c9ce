//! The paper's opening example (§1): a shipping company's data feeds.
//!
//! Four source feeds — package drop-offs from shipping centers, barcode
//! scans from trucks/warehouses, GPS readings from delivery trucks, and
//! electronic delivery signatures — flow into Bistro. Three analyst
//! groups subscribe to different subsets; the signatures feed drives
//! real-time delivery alerts via a per-file trigger.
//!
//! ```sh
//! cargo run --example shipping
//! ```

use bistro::base::{Clock, Rng, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::vfs::MemFs;

fn main() {
    let config = parse_config(
        r#"
        server { retention 30d; }

        feed PKG/DROPOFF   { pattern "dropoff_center%i_%Y%m%d%H.csv"; }
        feed PKG/BARCODE   { pattern "scan_%a_%i_%Y%m%d%H%M.log"; }
        feed PKG/GPS       { pattern "gps_truck%i_%Y%m%d%H%M.csv"; }
        feed PKG/SIGNATURE { pattern "sig_%Y%m%d%H%M%S_%i.xml"; }

        # Atlanta marketing: drop-off data only
        subscriber marketing_atlanta {
            endpoint "atlanta";
            subscribe PKG/DROPOFF;
            delivery push;
            deadline 10m;
        }
        # Dallas operations: barcode scans + truck GPS
        subscriber operations_dallas {
            endpoint "dallas";
            subscribe PKG/BARCODE, PKG/GPS;
            delivery push;
            deadline 2m;
        }
        # corporate warehouse: everything, batched hourly
        subscriber corporate_warehouse {
            endpoint "corp";
            subscribe PKG;
            delivery push;
            deadline 30m;
            batch window 1h;
            trigger remote "refresh_partitions %N n=%c";
        }
        # real-time delivery alerts: per-file trigger on signatures
        subscriber delivery_alerts {
            endpoint "alerts";
            subscribe PKG/SIGNATURE;
            delivery notify;
            deadline 5s;
            trigger local "send_customer_alert %f";
        }
        "#,
    )
    .unwrap();

    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let mut server = Server::new("bistro", config, clock.clone(), store).unwrap();

    // a simulated business day
    let mut rng = Rng::seed_from_u64(7);
    let day = clock.now().to_calendar();
    let mut deposited = 0u32;
    for hour in 8..18 {
        // drop-off files per center, hourly
        for center in 1..=5 {
            server
                .deposit(
                    &format!(
                        "dropoff_center{center}_{:04}{:02}{:02}{hour:02}.csv",
                        day.year, day.month, day.day
                    ),
                    b"pkg,weight,dest\n",
                )
                .unwrap();
            deposited += 1;
        }
        for minute in [0, 15, 30, 45] {
            clock.set(
                TimePoint::from_secs(1_285_372_800)
                    + TimeSpan::from_hours(hour as u64)
                    + TimeSpan::from_mins(minute),
            );
            // barcode scans from trucks and warehouses
            for site in ["truck", "warehouse"] {
                server
                    .deposit(
                        &format!(
                            "scan_{site}_{}_{:04}{:02}{:02}{hour:02}{minute:02}.log",
                            rng.gen_range(1..20),
                            day.year,
                            day.month,
                            day.day
                        ),
                        b"barcode scan data",
                    )
                    .unwrap();
                deposited += 1;
            }
            // GPS pings
            for truck in 1..=3 {
                server
                    .deposit(
                        &format!(
                            "gps_truck{truck}_{:04}{:02}{:02}{hour:02}{minute:02}.csv",
                            day.year, day.month, day.day
                        ),
                        b"lat,lon",
                    )
                    .unwrap();
                deposited += 1;
            }
            // occasional delivery signature → real-time alert
            if rng.gen_bool(0.5) {
                server
                    .deposit(
                        &format!(
                            "sig_{:04}{:02}{:02}{hour:02}{minute:02}00_{}.xml",
                            day.year,
                            day.month,
                            day.day,
                            rng.gen_range(10_000..99_999)
                        ),
                        b"<signature/>",
                    )
                    .unwrap();
                deposited += 1;
            }
        }
        server.tick();
    }
    clock.set(TimePoint::from_secs(1_285_372_800) + TimeSpan::from_hours(20));
    server.tick();

    println!(
        "business day complete: {deposited} files deposited, {} unknown",
        server.stats().files_unknown
    );
    println!("\nper-subscriber deliveries:");
    for sub in [
        "marketing_atlanta",
        "operations_dallas",
        "corporate_warehouse",
        "delivery_alerts",
    ] {
        let n = server
            .trigger_log()
            .entries()
            .iter()
            .filter(|e| e.subscriber == sub)
            .count();
        let lat = server
            .latency_summary(sub)
            .map(|(mean, _, max)| format!("mean {mean}, max {max}"))
            .unwrap_or_else(|| "n/a".to_string());
        println!("  {sub:22} triggers={n:4}  latency: {lat}");
    }

    let alerts = server
        .trigger_log()
        .entries()
        .iter()
        .filter(|e| e.subscriber == "delivery_alerts")
        .count();
    println!("\n{alerts} real-time customer delivery alerts fired");
    println!(
        "corporate warehouse hourly batches: {}",
        server
            .trigger_log()
            .entries()
            .iter()
            .filter(|e| e.subscriber == "corporate_warehouse")
            .count()
    );
}

//! A distributed feed delivery network (paper §3, Figure 1): a hub
//! Bistro server near the data sources relays feeds over slow WAN links
//! to two regional edge servers, each of which serves local analysts.
//!
//! ```sh
//! cargo run --example relay_network
//! ```

use bistro::base::{Clock, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::relay::Relay;
use bistro::server::Server;
use bistro::transport::{LinkSpec, SimNetwork};
use bistro::vfs::MemFs;
use std::sync::Arc;

fn edge_config(local_subscriber: &str) -> String {
    format!(
        r#"
        feed SNMP/BPS {{ pattern "BPS_poller%i_%Y%m%d%H%M.csv"; }}
        feed SNMP/GPS {{ pattern "GPS_truck%i_%Y%m%d%H%M.csv"; }}
        subscriber {local_subscriber} {{
            endpoint "{local_subscriber}";
            subscribe SNMP;
            delivery push;
            deadline 2m;
        }}
        "#
    )
}

fn main() {
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let net = Arc::new(SimNetwork::new(LinkSpec {
        bandwidth: 100_000_000,
        latency: TimeSpan::from_millis(2),
    }));
    // slow WAN pipes hub → edges (the "low-bandwidth network pipes" §3)
    net.set_link(
        "hub",
        "edge_atlanta",
        LinkSpec {
            bandwidth: 2_000_000,
            latency: TimeSpan::from_millis(40),
        },
    );
    net.set_link(
        "hub",
        "edge_dallas",
        LinkSpec {
            bandwidth: 1_000_000,
            latency: TimeSpan::from_millis(60),
        },
    );

    let hub_cfg = parse_config(
        r#"
        feed SNMP/BPS { pattern "BPS_poller%i_%Y%m%d%H%M.csv"; }
        feed SNMP/GPS { pattern "GPS_truck%i_%Y%m%d%H%M.csv"; }
        subscriber edge_atlanta { endpoint "edge_atlanta"; subscribe SNMP/BPS; delivery push; }
        subscriber edge_dallas  { endpoint "edge_dallas";  subscribe SNMP;     delivery push; }
        "#,
    )
    .unwrap();
    let mut hub = Server::new("hub", hub_cfg, clock.clone(), MemFs::shared(clock.clone()))
        .unwrap()
        .with_network(net.clone());

    let mut atlanta = Server::new(
        "edge_atlanta",
        parse_config(&edge_config("marketing")).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone());

    let mut dallas = Server::new(
        "edge_dallas",
        parse_config(&edge_config("operations")).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone());

    // sources deposit a polling round at the hub
    let t0 = clock.now();
    for p in 1..=4 {
        hub.deposit(
            &format!("BPS_poller{p}_201009250000.csv"),
            &vec![b'x'; 200_000],
        )
        .unwrap();
        hub.deposit(
            &format!("GPS_truck{p}_201009250000.csv"),
            &vec![b'y'; 50_000],
        )
        .unwrap();
    }
    println!("hub ingested {} files", hub.stats().files_ingested);

    // let the WAN drain, then pump each relay hop
    clock.advance(TimeSpan::from_secs(5));
    let now = clock.now();
    let (mut to_atl, mut to_dal) = (Relay::new(), Relay::new());
    let n_atl = to_atl.pump(&net, &hub, &mut atlanta, now).unwrap();
    let n_dal = to_dal.pump(&net, &hub, &mut dallas, now).unwrap();
    println!("relayed: {n_atl} files → Atlanta (BPS only), {n_dal} files → Dallas (all)");

    clock.advance(TimeSpan::from_secs(5));
    let mkt = net.recv_ready("marketing", clock.now());
    let ops = net.recv_ready("operations", clock.now());
    println!("Atlanta marketing received {} deliveries", mkt.len());
    println!("Dallas operations received {} deliveries", ops.len());

    let worst = mkt
        .iter()
        .chain(ops.iter())
        .map(|d| d.at.since(t0))
        .max()
        .unwrap_or(TimeSpan::ZERO);
    println!(
        "\nworst source→analyst propagation across two hops: {worst} (sub-minute: {})",
        worst < TimeSpan::from_secs(60)
    );
    println!("total WAN bytes: {}", net.bytes_sent());
}

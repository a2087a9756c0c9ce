//! Heap-allocation budget for the delivery round trip (DESIGN.md
//! "Delivery hot path — who owns a name").
//!
//! A counting `#[global_allocator]` wraps the system allocator for this
//! test binary only and tallies allocator calls per thread, so the two
//! cases below can run side by side. Each case warms the tables up, then
//! counts every `alloc` / `alloc_zeroed` / `realloc` made while files
//! travel deposit → send → client → ack → `poll_network` → receipt, and
//! divides by the deliveries completed in that window.
//!
//! The budgets are the contract: a subscriber's name, endpoint, feed and
//! default destination are interned once and travel as handles, so a
//! delivery allocates only what its wire message and its durable receipt
//! must own. The String-keyed design this replaced read ≈ 61 per
//! delivery on the fan-out case.

use bistro::base::{Clock, SimClock, TimePoint, TimeSpan};
use bistro::config::parse_config;
use bistro::server::Server;
use bistro::transport::{LinkSpec, RetryPolicy, SimNetwork, SubscriberClient};
use bistro::vfs::MemFs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocator calls made by this thread. `const`-initialized and
    /// destructor-free, so touching it from inside the allocator neither
    /// allocates nor runs late.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

const START: TimePoint = TimePoint::from_secs(1_285_372_800);
const FEED_BLOCK: &str = "feed F { pattern \"tick_%i_%Y%m%d%H%M%S.csv\"; }\n";
const WARM_FILES: u64 = 20;
const FILES: u64 = 50;

/// `tick_<seq>_<YYYYmmddHHMMSS>.csv` for a clock that started at
/// [`START`] (2010-09-25 00:00:00 UTC) and ticks one second per file.
fn tick_name(seq: u64) -> String {
    let (h, m, s) = (seq / 3600, seq / 60 % 60, seq % 60);
    format!("tick_{seq}_20100925{h:02}{m:02}{s:02}.csv")
}

#[test]
fn fanout_round_trip_stays_within_its_allocation_budget() {
    const SUBSCRIBERS: usize = 200;
    const BUDGET: f64 = 15.0;

    let clock = SimClock::starting_at(START);
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let mut src = format!("server {{ retention 3600s; }}\n{FEED_BLOCK}");
    for i in 0..SUBSCRIBERS {
        src.push_str(&format!(
            "subscriber s{i:03} {{ endpoint \"c{i:03}\"; subscribe F; delivery push; }}\n"
        ));
    }
    let policy = RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    };
    let mut hub = Server::new(
        "hub",
        parse_config(&src).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap()
    .with_network(net.clone())
    .with_reliable_delivery(policy, 1);
    let mut clients: Vec<SubscriberClient> = (0..SUBSCRIBERS)
        .map(|i| SubscriberClient::new(&format!("c{i:03}"), "hub"))
        .collect();
    let payload = vec![7u8; 1_000];
    let names: Vec<String> = (1..=WARM_FILES + FILES).map(tick_name).collect();

    let mut measured_from = (0, 0);
    for (i, name) in names.iter().enumerate() {
        if i as u64 == WARM_FILES {
            measured_from = (calls(), hub.stats().deliveries);
        }
        clock.advance(TimeSpan::from_secs(1));
        hub.deposit(name, &payload).unwrap();
        while let Some(at) = net.next_arrival_any() {
            clock.set(at);
            let now = clock.now();
            for c in &mut clients {
                c.poll_notifications(&net, now);
            }
            hub.poll_network().unwrap();
        }
        assert_eq!(hub.unacked_count(), 0, "file {name} settled");
    }
    let allocs = calls() - measured_from.0;
    let deliveries = hub.stats().deliveries - measured_from.1;
    assert_eq!(deliveries, FILES * SUBSCRIBERS as u64);
    for c in &clients {
        assert_eq!(c.delivered().len() as u64, WARM_FILES + FILES);
    }
    let per_delivery = allocs as f64 / deliveries as f64;
    println!(
        "[alloc_budget] fanout: {allocs} allocator calls / {deliveries} deliveries \
         = {per_delivery:.2} per delivery (budget {BUDGET}), {} per file",
        allocs / FILES
    );
    assert!(
        per_delivery <= BUDGET,
        "{per_delivery:.2} allocations per delivery exceeds the budget of {BUDGET}"
    );
}

#[test]
fn local_deposit_stays_within_its_allocation_budget() {
    // one local (no network) subscriber: deposit = classify + stage +
    // arrival receipt + one delivery receipt, the `ingest_stream` shape.
    // Classify and prepare are most of it; the String-keyed delivery
    // tail read 75.5 here.
    const BUDGET: f64 = 72.0;

    let clock = SimClock::starting_at(START);
    let src =
        format!("{FEED_BLOCK}subscriber wh {{ endpoint \"wh\"; subscribe F; delivery push; }}\n");
    let mut server = Server::new(
        "local",
        parse_config(&src).unwrap(),
        clock.clone(),
        MemFs::shared(clock.clone()),
    )
    .unwrap();
    let payload = vec![7u8; 1_000];
    let names: Vec<String> = (1..=WARM_FILES + FILES).map(tick_name).collect();

    let mut measured_from = 0;
    for (i, name) in names.iter().enumerate() {
        if i as u64 == WARM_FILES {
            measured_from = calls();
        }
        clock.advance(TimeSpan::from_secs(1));
        server.deposit(name, &payload).unwrap();
    }
    let allocs = calls() - measured_from;
    assert_eq!(server.stats().deliveries, WARM_FILES + FILES);
    let per_deposit = allocs as f64 / FILES as f64;
    println!(
        "[alloc_budget] local deposit: {allocs} allocator calls / {FILES} deposits \
         = {per_deposit:.2} per deposit (budget {BUDGET})"
    );
    assert!(
        per_deposit <= BUDGET,
        "{per_deposit:.2} allocations per local deposit exceeds the budget of {BUDGET}"
    );
}

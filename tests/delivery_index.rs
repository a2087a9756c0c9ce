//! Equivalence suite for the inverted delivery index (DESIGN.md §12.5).
//!
//! The index is a pure rewrite of the per-deposit subscriber/plan scan:
//! for any subscriber population, group layout, and churn history, the
//! indexed match must return exactly what the brute-force scan returns,
//! so every observable output — receipts, trigger log, `status --json`
//! bytes, raw WAL segment bytes — is what the scan would have produced.
//!
//! Two angles:
//! * a seeded property test churns a random server (register,
//!   deregister, online/offline flips, random group layouts, deposits)
//!   and checks index == scan plus endpoint-resolution == scan after
//!   every mutation;
//! * a deterministic deposit/churn script checks index == scan every
//!   round and that each deposit reached exactly the recipients the
//!   scan named.

use bistro::base::prop::{Runner, Shrink};
use bistro::base::{prop_assert_eq, SimClock, TimePoint, TimeSpan};
use bistro::config::{parse_config, BatchSpec, DeliveryMode, SubscriberDef};
use bistro::server::{Server, ServerError};
use bistro::transport::{LinkSpec, SimNetwork};
use bistro::vfs::MemFs;
use std::collections::HashMap;
use std::sync::Arc;

const START: TimePoint = TimePoint::from_secs(1_285_372_800);

/// Feed letters, subscription targets and the files that hit each feed.
const FEEDS: [&str; 5] = ["F/A", "F/B", "F/C", "G/D", "G/E"];
const TARGETS: [&str; 7] = ["F", "G", "F/A", "F/B", "F/C", "G/D", "G/E"];
const ENDPOINTS: [&str; 4] = ["e0", "e1", "e2", "e3"];

fn base_config(n_subs: usize, sub_target: &[usize], sub_endpoint: &[usize], group: bool) -> String {
    let mut cfg = String::from(
        r#"
        feed F/A { pattern "A_%i_%Y%m%d.log"; }
        feed F/B { pattern "B_%i_%Y%m%d.log"; }
        feed F/C { pattern "C_%i_%Y%m%d.log"; }
        feed G/D { pattern "D_%i_%Y%m%d.log"; }
        feed G/E { pattern "E_%i_%Y%m%d.log"; }
        "#,
    );
    for i in 0..n_subs {
        cfg.push_str(&format!(
            "subscriber s{i} {{ endpoint \"{}\"; subscribe {}; }}\n",
            ENDPOINTS[sub_endpoint[i] % ENDPOINTS.len()],
            TARGETS[sub_target[i] % TARGETS.len()],
        ));
    }
    if group && n_subs >= 2 {
        cfg.push_str("group RG { members s0, s1; relay \"relayep\"; }\n");
    }
    cfg
}

fn subdef(name: &str, target: usize, endpoint: usize) -> SubscriberDef {
    SubscriberDef {
        name: name.to_string(),
        endpoint: ENDPOINTS[endpoint % ENDPOINTS.len()].to_string(),
        subscriptions: vec![TARGETS[target % TARGETS.len()].to_string()],
        delivery: DeliveryMode::Push,
        deadline: TimeSpan::from_secs(60),
        batch: BatchSpec::per_file(),
        trigger: None,
        dest: None,
    }
}

/// Endpoint-resolution oracle: the lexicographically-first configured
/// subscriber name on the endpoint, straight from the config — exactly
/// the scan `subscriber_by_endpoint` used to run per ack.
fn endpoint_oracle(server: &Server, endpoint: &str) -> Option<String> {
    let mut names: Vec<&String> = server
        .config()
        .subscribers
        .iter()
        .filter(|d| d.endpoint == endpoint)
        .map(|d| &d.name)
        .collect();
    names.sort();
    names.first().map(|s| s.to_string())
}

/// The queries every checkpoint compares: each single feed plus
/// multi-feed unions (a file can classify into several feeds).
fn queries() -> Vec<Vec<String>> {
    let mut qs: Vec<Vec<String>> = FEEDS.iter().map(|f| vec![f.to_string()]).collect();
    qs.push(vec!["F/A".to_string(), "G/D".to_string()]);
    qs.push(vec![
        "F/B".to_string(),
        "F/C".to_string(),
        "G/E".to_string(),
    ]);
    qs.push(vec!["NO/SUCH".to_string()]);
    qs
}

/// One churn operation, pre-resolved to numbers so the generator stays
/// a pure data producer.
#[derive(Debug, Clone)]
enum Op {
    Add { target: usize, endpoint: usize },
    Remove { pick: usize },
    Flip { pick: usize, online: bool },
    Deposit { feed: usize, serial: usize },
}

// ops shrink by Vec element removal; an individual op is atomic
impl Shrink for Op {}

#[test]
fn index_equals_scan_under_churn() {
    Runner::new("index_equals_scan_under_churn").cases(24).run(
        |rng| {
            let n_subs = rng.gen_range(2u64..6) as usize;
            let sub_target: Vec<usize> = (0..n_subs)
                .map(|_| rng.gen_range(0u64..99) as usize)
                .collect();
            let sub_endpoint: Vec<usize> = (0..n_subs)
                .map(|_| rng.gen_range(0u64..99) as usize)
                .collect();
            let group = rng.gen_range(0u64..2) == 1;
            let n_ops = rng.gen_range(10u64..40) as usize;
            let ops: Vec<Op> = (0..n_ops)
                .map(|k| match rng.gen_range(0u32..5) {
                    0 => Op::Add {
                        target: rng.gen_range(0u64..99) as usize,
                        endpoint: rng.gen_range(0u64..99) as usize,
                    },
                    1 => Op::Remove {
                        pick: rng.gen_range(0u64..99) as usize,
                    },
                    2 | 3 => Op::Flip {
                        pick: rng.gen_range(0u64..99) as usize,
                        online: rng.gen_range(0u64..2) == 1,
                    },
                    _ => Op::Deposit {
                        feed: rng.gen_range(0u64..FEEDS.len() as u64) as usize,
                        serial: k,
                    },
                })
                .collect();
            (n_subs, sub_target, sub_endpoint, group, ops)
        },
        |(n_subs, sub_target, sub_endpoint, group, ops)| {
            let clock = SimClock::starting_at(START);
            let store = MemFs::shared(clock.clone());
            let net = Arc::new(SimNetwork::new(LinkSpec::default()));
            let cfg = parse_config(&base_config(*n_subs, sub_target, sub_endpoint, *group))
                .expect("generated config parses");
            let mut server = Server::new("b", cfg, clock.clone(), store)
                .unwrap()
                .with_network(net);

            // driver-side mirror of who exists and who is online, so the
            // posting-count invariant can be recomputed independently
            let mut online: HashMap<String, bool> =
                (0..*n_subs).map(|i| (format!("s{i}"), true)).collect();
            let mut next_add = 0usize;

            let check = |server: &Server| {
                for q in queries() {
                    prop_assert_eq!(
                        server.match_via_index(&q),
                        server.match_via_scan(&q),
                        "index != scan for query {:?}",
                        q
                    );
                }
                for ep in ENDPOINTS.iter().chain(["relayep", "ghost"].iter()) {
                    prop_assert_eq!(
                        server.resolve_endpoint(ep),
                        endpoint_oracle(server, ep),
                        "endpoint resolution != scan for {}",
                        ep
                    );
                }
                Ok(())
            };
            check(&server)?;

            for op in ops {
                match op {
                    Op::Add { target, endpoint } => {
                        let name = format!("n{next_add}");
                        next_add += 1;
                        server
                            .add_subscriber(subdef(&name, *target, *endpoint))
                            .unwrap();
                        online.insert(name, true);
                    }
                    Op::Remove { pick } => {
                        let mut names: Vec<&String> = online.keys().collect();
                        if names.is_empty() {
                            continue;
                        }
                        names.sort();
                        let name = names[pick % names.len()].clone();
                        match server.remove_subscriber(&name) {
                            Ok(()) => {
                                online.remove(&name);
                            }
                            // grouped members are refused and must stay
                            Err(ServerError::GroupedSubscriber(_)) => {}
                            Err(e) => panic!("unexpected remove error: {e}"),
                        }
                    }
                    Op::Flip { pick, online: to } => {
                        let mut names: Vec<&String> = online.keys().collect();
                        if names.is_empty() {
                            continue;
                        }
                        names.sort();
                        let name = names[pick % names.len()].clone();
                        server.set_subscriber_online(&name, *to).unwrap();
                        online.insert(name, *to);
                    }
                    Op::Deposit { feed, serial } => {
                        let letter = FEEDS[*feed].rsplit('/').next().unwrap();
                        server
                            .deposit(&format!("{letter}_{serial}_20100925.log"), b"x")
                            .unwrap();
                    }
                }
                check(&server)?;
            }

            // nothing leaked: recompute both posting counts from the
            // config and the driver's own online mirror
            let expected_endpoint: usize = server.config().subscribers.len();
            let expected_feed: usize = server
                .config()
                .subscribers
                .iter()
                .filter(|d| online[&d.name])
                .filter(|d| {
                    !(*group
                        && server
                            .config()
                            .groups
                            .iter()
                            .any(|g| g.relay.is_some() && g.members.contains(&d.name)))
                })
                .map(|d| server.config().subscriber_feeds(&d.name).unwrap().len())
                .sum();
            prop_assert_eq!(
                server.index_entry_counts(),
                (expected_feed, expected_endpoint),
                "index postings diverge from recomputation"
            );
            Ok(())
        },
    );
}

/// A fixed deposit/churn script through the production (indexed) path,
/// with the brute-force scan as the oracle at every step: before each
/// deposit the scan says who must receive the file, and afterwards the
/// receipt store and the group tracker must show exactly that set.
#[test]
fn index_and_scan_paths_are_byte_identical() {
    let clock = SimClock::starting_at(START);
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let cfg = parse_config(
        r#"
        feed F/A { pattern "A_%i_%Y%m%d.log"; }
        feed F/B { pattern "B_%i_%Y%m%d.log"; }
        feed G/D { pattern "D_%i_%Y%m%d.log"; }
        subscriber s0 {
            endpoint "e0";
            subscribe F;
            batch count 3 window 10m;
            trigger remote "refresh %N n=%c";
        }
        subscriber s1 { endpoint "e1"; subscribe F/A; }
        subscriber s2 { endpoint "e1"; subscribe G; }
        subscriber m0 { endpoint "m0"; subscribe F; }
        subscriber m1 { endpoint "m1"; subscribe G/D; }
        group RG { members m0, m1; relay "relayep"; }
        "#,
    )
    .unwrap();
    let mut server = Server::new("b", cfg, clock.clone(), store)
        .unwrap()
        .with_network(net);

    let mut deliveries = 0;
    for round in 0..6usize {
        for (feed, letter) in [("F/A", 'A'), ("G/D", 'D')] {
            let name = format!("{letter}_{round}_20100925.log");
            let expect = server.match_via_scan(&[feed.to_string()]);
            let groups_before = server.group_outstanding();
            server.deposit(&name, b"xx").unwrap();

            let file = server.receipts().file_by_name(&name).unwrap().id;
            let mut delivered: Vec<String> = server
                .config()
                .subscribers
                .iter()
                .filter(|d| server.receipts().is_delivered(file, &d.name))
                .map(|d| d.name.clone())
                .collect();
            delivered.sort();
            assert_eq!(delivered, expect.0, "round {round}: {name} recipients");
            assert_eq!(
                server.group_outstanding() - groups_before,
                expect.1.len(),
                "round {round}: {name} group sends"
            );
            deliveries += delivered.len();
        }
        match round {
            1 => {
                server.add_subscriber(subdef("late", 0, 2)).unwrap();
            }
            2 => {
                server.set_subscriber_online("s1", false).unwrap();
            }
            3 => {
                server.remove_subscriber("s2").unwrap();
            }
            4 => {
                server.set_subscriber_online("s1", true).unwrap();
            }
            _ => {}
        }
        for q in queries() {
            assert_eq!(
                server.match_via_index(&q),
                server.match_via_scan(&q),
                "round {round}: index != scan for query {q:?}"
            );
        }
        clock.advance(TimeSpan::from_secs(30));
        server.tick();
    }
    assert!(deliveries >= 12, "the script must exercise direct fan-out");
    assert!(
        !server.trigger_log().is_empty(),
        "s0's count-3 batches fire"
    );
}

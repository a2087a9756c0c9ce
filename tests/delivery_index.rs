//! Equivalence suite for the inverted delivery index (DESIGN.md §12.5).
//!
//! The index is a pure rewrite of the per-deposit subscriber/plan scan:
//! for any subscriber population, group layout, and churn history, the
//! indexed match must return exactly what the brute-force scan returns,
//! so every observable output — receipts, trigger log, `status --json`
//! bytes, raw WAL segment bytes — is what the scan would have produced.
//!
//! Two angles:
//! * a seeded property test churns a random server (register — runtime
//!   names out of name order, and names removed and registered again —
//!   deregister, online/offline flips, random group layouts, deposits)
//!   and checks after every mutation that index == scan (both in
//!   ascending subscriber-id order), endpoint resolution == scan, the
//!   posting counts equal a fresh recount, and a name registered again
//!   gets its old id back; then, after a feed redefinition and a
//!   reopen, that the one-pass backfill sends exactly what the old
//!   per-subscriber reference owes;
//! * a deterministic deposit/churn script checks index == scan every
//!   round and that each deposit reached exactly the recipients the
//!   scan named.

use bistro::base::prop::{Runner, Shrink};
use bistro::base::{prop_assert_eq, Clock, SimClock, SubscriberId, TimePoint, TimeSpan};
use bistro::config::{parse_config, BatchSpec, DeliveryMode, SubscriberDef};
use bistro::server::{Server, ServerError};
use bistro::transport::messages::{GroupMsg, Message, SubscriberMsg};
use bistro::transport::{LinkSpec, SimNetwork};
use bistro::vfs::MemFs;
use std::collections::{BTreeSet, HashMap};
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

/// Names registered at runtime: none sorts where its registration
/// order would put it, and `s1`/`s3` collide with config names, so a
/// config subscriber removed at runtime can come back.
const RUNTIME_NAMES: [&str; 8] = ["zed", "amy", "s1", "kim", "bo", "s3", "n10", "n9"];

/// Posting counts recomputed from the config and the test's own
/// online mirror: `(feed postings, endpoint postings)`. A relay group is
/// posted under the union of its members' feeds.
fn recount(server: &Server, online: &HashMap<String, bool>) -> (usize, usize) {
    let config = server.config();
    let relayed = || config.groups.iter().filter(|g| g.relay.is_some());
    let grouped = |name: &String| relayed().any(|g| g.members.contains(name));
    let feeds = |name: &String| config.subscriber_feeds(name).unwrap();
    let direct: usize = (config.subscribers.iter())
        .filter(|d| online[&d.name] && !grouped(&d.name))
        .map(|d| feeds(&d.name).len())
        .sum();
    let groups: usize = relayed()
        .map(|g| {
            g.members
                .iter()
                .flat_map(feeds)
                .collect::<BTreeSet<_>>()
                .len()
        })
        .sum();
    (direct + groups, config.subscribers.len())
}

/// One churn operation, pre-resolved to numbers so the generator stays
/// a pure data producer.
#[derive(Debug, Clone)]
enum Op {
    Add {
        name: usize,
        target: usize,
        endpoint: usize,
    },
    Remove {
        pick: usize,
    },
    Flip {
        pick: usize,
        online: bool,
    },
    Deposit {
        feed: usize,
        serial: usize,
    },
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
                .map(|k| match rng.gen_range(0u32..6) {
                    0 | 5 => Op::Add {
                        name: rng.gen_range(0u64..RUNTIME_NAMES.len() as u64) as usize,
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
            let mut server = Server::new("b", cfg, clock.clone(), store.clone())
                .unwrap()
                .with_network(net);

            // driver-side mirror of who exists and who is online, so the
            // posting-count invariant can be recomputed independently, and
            // the first id each name got
            let mut online: HashMap<String, bool> =
                (0..*n_subs).map(|i| (format!("s{i}"), true)).collect();
            let mut ids: HashMap<String, SubscriberId> = HashMap::new();

            let check = |server: &Server, online: &HashMap<String, bool>| {
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
                // nothing leaked, nothing missing: a stale id in a posting
                // counts here (and shows as `#id` in the indexed match)
                prop_assert_eq!(
                    server.index_entry_counts(),
                    recount(server, online),
                    "index postings diverge from recomputation"
                );
                Ok(())
            };
            check(&server, &online)?;

            for op in ops {
                match op {
                    Op::Add {
                        name,
                        target,
                        endpoint,
                    } => {
                        let name = RUNTIME_NAMES[*name];
                        if online.contains_key(name) {
                            continue;
                        }
                        server
                            .add_subscriber(subdef(name, *target, *endpoint))
                            .unwrap();
                        online.insert(name.to_string(), true);
                        let id = server.receipts().subscriber_id(name).unwrap();
                        let first = *ids.entry(name.to_string()).or_insert(id);
                        prop_assert_eq!(id, first, "{} came back under another id", name);
                    }
                    Op::Remove { pick } => {
                        let mut names: Vec<&String> = online.keys().collect();
                        if names.is_empty() {
                            continue;
                        }
                        names.sort();
                        let name = names[pick % names.len()].clone();
                        let id = server.receipts().subscriber_id(&name).unwrap();
                        match server.remove_subscriber(&name) {
                            Ok(()) => {
                                online.remove(&name);
                                ids.entry(name.clone()).or_insert(id);
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
                check(&server, &online)?;
            }

            // widen F/A to take the B files too: every live B file is now
            // owed to F/A's subscribers, and redefinition sends it
            let mut fa = server.config().feed("F/A").unwrap().clone();
            fa.patterns
                .push(server.config().feed("F/B").unwrap().patterns[0].clone());
            server.redefine_feed(fa).unwrap();
            check(&server, &online)?;

            // reopen on the same store, everyone online again, and
            // backfill into a fresh network, so only its sends are there
            let config = server.config().clone();
            drop(server);
            let net = Arc::new(SimNetwork::new(LinkSpec::default()));
            let mut server = Server::new("b", config, clock.clone(), store)
                .unwrap()
                .with_network(net.clone());
            let oracle = backfill_oracle(&server);
            let sent = server.backfill_unacked().unwrap();
            prop_assert_eq!(sent, oracle.len(), "backfill count != oracle");
            prop_assert_eq!(on_the_wire(&net, clock.now()), oracle);
            Ok(())
        },
    );
}

/// What a backfill owes, computed the way it was before it became one
/// pass: each online, ungrouped subscriber's delivery queue
/// (`pending_for`), plus, per relay group, the live files of its
/// members' feeds without the group's receipt. As sorted `(endpoint,
/// file id)` pairs: names sharing an endpoint are one inbox.
fn backfill_oracle(server: &Server) -> Vec<(String, u64)> {
    let (config, receipts) = (server.config(), server.receipts());
    // the scan over every feed names exactly the online, ungrouped
    // subscribers (and the groups)
    let direct = server.match_via_scan(&FEEDS.map(String::from));
    let mut owed = Vec::new();
    for d in &config.subscribers {
        if direct.contains(&d.name) {
            let feeds = config.subscriber_feeds(&d.name).unwrap();
            for rec in receipts.pending_for(&d.name, &feeds) {
                owed.push((d.endpoint.clone(), rec.id.raw()));
            }
        }
    }
    for g in config.groups.iter().filter(|g| g.relay.is_some()) {
        let mut files = BTreeSet::new();
        for member in &g.members {
            for feed in config.subscriber_feeds(member).unwrap() {
                files.extend(receipts.files_in_feed(&feed).iter().map(|rec| rec.id));
            }
        }
        for file in files {
            if !receipts.is_delivered(file, &g.name) {
                owed.push((g.relay.clone().unwrap(), file.raw()));
            }
        }
    }
    owed.sort();
    owed
}

/// Every delivery and group send the fabric carries by `now` plus a
/// minute, as sorted `(endpoint, file id)` pairs.
fn on_the_wire(net: &SimNetwork, now: TimePoint) -> Vec<(String, u64)> {
    let later = now + TimeSpan::from_secs(60);
    let mut sent = Vec::new();
    for ep in ENDPOINTS.iter().chain(["relayep"].iter()) {
        for d in net.recv_ready(ep, later) {
            let file = match d.msg {
                Message::Subscriber(SubscriberMsg::FileDelivered { file, .. }) => file,
                Message::Group(GroupMsg::Deliver { file, .. }) => file,
                other => panic!("backfill sent {other:?}"),
            };
            sent.push((ep.to_string(), file.raw()));
        }
    }
    sent.sort();
    sent
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
            let (groups, mut expected): (Vec<String>, Vec<String>) =
                expect.into_iter().partition(|n| n == "RG");
            expected.sort();
            assert_eq!(delivered, expected, "round {round}: {name} recipients");
            assert_eq!(
                server.group_outstanding() - groups_before,
                groups.len(),
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

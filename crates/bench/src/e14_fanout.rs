//! E14 — shared delivery trees at million-subscriber fanout (§3).
//!
//! Claim under test: a relay group turns per-subscriber fanout into
//! per-group fanout. With `G` groups of `M` members each, one deposit
//! costs `G` delivery sends and `G` tracker entries — independent of
//! `M` — and the upstream server holds no per-member ack state at all:
//! each relay acks its group's send once its own receipts cover the
//! members. The experiment drives a server with up to one million grouped
//! subscribers and verifies both the shape (ops and tracker growth
//! follow `G`, not `G×M`) and that the wall-clock cost of a deposit
//! stays flat in subscriber count at a fixed `G`. (Deposit latency
//! across the `(G, M)` grid is the repo benchmark's `fanout_tree`
//! workload, not this experiment's.)

use crate::harness::{time_fn, BenchResult, Throughput};
use crate::table::Table;
use bistro_base::{SimClock, TimePoint, TimeSpan};
use bistro_config::{
    validate::validate, BatchSpec, Config, DeliveryMode, FeedDef, GroupDef, SubscriberDef,
};
use bistro_core::Server;
use bistro_pattern::Pattern;
use bistro_transport::{LinkSpec, SimNetwork};
use bistro_vfs::MemFs;
use std::sync::Arc;

/// A configuration with one feed, `groups × members` subscribers all
/// subscribed to it, and every subscriber placed in a relay group of
/// `members` — the delivery-tree layout of §3 at parametric scale.
/// Built programmatically (a million-subscriber source file would
/// measure the parser, not the delivery plan) and passed through the
/// same [`validate`] as parsed configurations.
pub fn fanout_config(groups: usize, members: usize) -> Config {
    let mut cfg = Config {
        feeds: vec![FeedDef {
            name: "F".to_string(),
            patterns: vec![Pattern::parse("tick_%i.csv").unwrap()],
            normalize: None,
            compress: Default::default(),
            policy: Default::default(),
            description: None,
        }],
        ..Config::default()
    };
    cfg.subscribers.reserve(groups * members);
    for g in 0..groups {
        let mut names = Vec::with_capacity(members);
        for m in 0..members {
            let name = format!("s{g}_{m}");
            cfg.subscribers.push(SubscriberDef {
                name: name.clone(),
                endpoint: format!("h{g}:{m}"),
                subscriptions: vec!["F".to_string()],
                delivery: DeliveryMode::Push,
                deadline: TimeSpan::from_mins(1),
                batch: BatchSpec::per_file(),
                trigger: None,
                dest: None,
            });
            names.push(name);
        }
        cfg.groups.push(GroupDef {
            name: format!("G{g}"),
            members: names,
            relay: Some(format!("edge{g}")),
        });
    }
    validate(&cfg).expect("generated fanout config must validate");
    cfg
}

fn fanout_server(groups: usize, members: usize) -> (Server, Arc<SimNetwork>) {
    let clock = SimClock::starting_at(TimePoint::from_secs(1_285_372_800));
    let store = MemFs::shared(clock.clone());
    let net = Arc::new(SimNetwork::new(LinkSpec::default()));
    let server = Server::new("hub", fanout_config(groups, members), clock, store)
        .unwrap()
        .with_network(net.clone());
    (server, net)
}

/// Measured shape of group fanout at one `(groups, members)` point.
#[derive(Clone, Debug)]
pub struct FanoutPoint {
    /// Relay groups configured.
    pub groups: usize,
    /// Members per group.
    pub members_per_group: usize,
    /// Total subscribers (`groups × members`).
    pub subscribers: usize,
    /// Network sends per deposit (measured) — must equal `groups`.
    pub ops_per_deposit: usize,
    /// Group-tracker entries per deposit (measured) — must equal
    /// `groups`; a per-member tracker would hold `subscribers`.
    pub tracker_entries_per_deposit: usize,
}

/// Deposit `deposits` files at one scale point and measure the fanout
/// shape. Panics if a deposit's delivery cost depends on the member
/// count — that is the regression this experiment exists to catch.
pub fn run_fanout(groups: usize, members: usize, deposits: usize) -> FanoutPoint {
    let (mut server, net) = fanout_server(groups, members);
    let payload = vec![b'x'; 1_000];
    let before = net.messages_sent();
    for i in 0..deposits {
        server.deposit(&format!("tick_{i}.csv"), &payload).unwrap();
    }
    let sent = (net.messages_sent() - before) as usize;
    assert_eq!(
        sent,
        groups * deposits,
        "group delivery must send once per group per deposit"
    );
    assert_eq!(
        server.group_outstanding(),
        groups * deposits,
        "tracker must hold one entry per group per deposit"
    );
    assert_eq!(
        server.stats().deliveries,
        0,
        "grouped members must not receive direct fanout"
    );
    FanoutPoint {
        groups,
        members_per_group: members,
        subscribers: groups * members,
        ops_per_deposit: sent / deposits,
        tracker_entries_per_deposit: server.group_outstanding() / deposits,
    }
}

/// Group count held fixed while [`bench_deposit_cost`] sweeps the
/// subscriber count: every point matches the same `G` plans per
/// deposit, so any median growth along the sweep is subscriber-count
/// cost leaking back into the deposit path.
pub const DEPOSIT_COST_GROUPS: usize = 100;

/// Per-deposit latency as a function of *total subscriber count* at a
/// fixed group count, for the `fanout_deposit_cost` group in
/// `BENCH_fanout.json`. This is the tentpole claim of the inverted
/// delivery index: the pre-index implementation scanned every
/// subscriber per deposit (`O(subscribers)`, dominating E14 at a
/// million subscribers); the index touches only the `G` matched plans,
/// so medians across this sweep must stay flat from 10k to 1M
/// subscribers. `subscribers` must be a multiple of
/// [`DEPOSIT_COST_GROUPS`].
pub fn bench_deposit_cost(subscribers: usize, samples: usize) -> BenchResult {
    assert_eq!(
        subscribers % DEPOSIT_COST_GROUPS,
        0,
        "subscriber count must divide into {DEPOSIT_COST_GROUPS} groups"
    );
    let members = subscribers / DEPOSIT_COST_GROUPS;
    let (mut server, _net) = fanout_server(DEPOSIT_COST_GROUPS, members);
    let payload = vec![b'x'; 1_000];
    let mut i = 0u64;
    for _ in 0..2 {
        server.deposit(&format!("tick_{i}.csv"), &payload).unwrap();
        i += 1;
    }
    time_fn(
        "fanout_deposit_cost",
        &format!("deposit_s{subscribers}"),
        samples,
        Some(Throughput::Elements(1)),
        || {
            server.deposit(&format!("tick_{i}.csv"), &payload).unwrap();
            i += 1;
        },
    )
}

/// Render the shape table.
pub fn table(points: &[FanoutPoint]) -> Table {
    let mut t = Table::new(
        "E14: delivery ops and tracker state vs group/member count",
        &[
            "groups",
            "members/group",
            "subscribers",
            "sends/deposit",
            "tracker entries/deposit",
        ],
    );
    for p in points {
        t.row(vec![
            p.groups.to_string(),
            p.members_per_group.to_string(),
            p.subscribers.to_string(),
            p.ops_per_deposit.to_string(),
            p.tracker_entries_per_deposit.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_scale_with_groups_not_members() {
        let narrow = run_fanout(4, 3, 2);
        let wide = run_fanout(4, 12, 2);
        assert_eq!(narrow.ops_per_deposit, 4);
        assert_eq!(
            narrow.ops_per_deposit, wide.ops_per_deposit,
            "quadrupling members must not change delivery ops"
        );
        assert_eq!(
            narrow.tracker_entries_per_deposit,
            wide.tracker_entries_per_deposit
        );
        let more_groups = run_fanout(8, 3, 2);
        assert_eq!(more_groups.ops_per_deposit, 8);
    }

    #[test]
    fn tracker_state_is_one_entry_per_group() {
        let p = run_fanout(2, 20, 1);
        // a per-member tracker would hold 40 entries
        assert_eq!(p.tracker_entries_per_deposit, 2);
        assert_eq!(p.subscribers, 40);
    }

    #[test]
    fn deposit_cost_point_runs_and_names_the_subscriber_count() {
        let r = bench_deposit_cost(200, 3);
        assert_eq!(r.group, "fanout_deposit_cost");
        assert_eq!(r.name, "deposit_s200");
        assert!(r.median_ns > 0.0, "{r:?}");
    }
}

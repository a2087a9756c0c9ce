//! Inverted delivery index: feed → interested receipt ids (subscribers
//! and relay groups), endpoint → subscribers.
//!
//! The paper's server "matches each deposited file against the
//! subscriber population" (§4.2); done naively that match is a scan of
//! every registered subscriber on every deposit, which the E14 fanout
//! experiment shows dominating deposit cost at a million subscribers.
//! [`DeliveryIndex`] inverts the subscription relation so
//! `ingest_prepared` touches only `O(matched)` state per deposit:
//!
//! * `by_feed` — feed name → the bitmap of the receipt ids posted under
//!   it: each *online, ungrouped* subscriber whose resolved feed set
//!   contains the feed, and each planned relay group whose member feed
//!   union does (a relay is a subscriber of this server, §3). A match is
//!   an OR over the file's feed postings, and yields ids ascending. It
//!   is the one "who is owed this file" rule: a deposit sends a fresh
//!   file its match, and backfill and feed redefinition send each live
//!   file its match minus its delivered set, in one pass.
//! * `relays` — the relay groups' ids, which split a match into the
//!   direct cohort and the group sends.
//! * `by_endpoint` — configured endpoint → the names sharing it, each
//!   with its id. Acks carry no name on the wire: an ack resolves to the
//!   first name on its endpoint, in name order, that still owes the
//!   acked file, and to the first name when none does (a late
//!   duplicate).
//!
//! Both maps are keyed by config feed and endpoint names, which this
//! process picks, so they hash with FNV-1a ([`FnvHashMap`]).
//!
//! Postings hold the receipt store's durable subscriber ids
//! ([`SubscriberId`]), the ids the server's subscriber table, the retry
//! tracker's owed bitmaps and the receipt sets are indexed by. Ids are
//! never reused, so a posting can never name a different subscriber
//! than the one it was made for.
//!
//! The index is *incrementally maintained* at every mutation point —
//! subscriber registration and removal, online/offline flips, group
//! plan compilation, feed redefinition, and (through those) cluster
//! re-homing after failover — and must at all times equal the
//! brute-force scan over the subscriber table and the group plans.
//! `tests/delivery_index.rs` checks exactly that equivalence under
//! random churn, plus byte-identity of receipts, WAL and `status --json`
//! against the scan path.
//!
//! Index tallies (`index.*`) live in the server's *pool* telemetry
//! registry, not the main one: the main registry renders into
//! `status_json`, whose bytes are contract-equal between the indexed
//! and scan delivery paths, and only the indexed path performs lookups.

use bistro_base::{Bitmap, FnvHashMap, SubscriberId};
use bistro_telemetry::{Counter, Gauge, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Handles into the owning server's pool-telemetry registry, resolved
/// once so maintenance never re-looks-up metric names.
struct IndexMetrics {
    /// Delivery-match lookups served (one per classified deposit).
    lookups: Arc<Counter>,
    /// Ids returned across all lookups, relay groups included.
    matched_subscribers: Arc<Counter>,
    /// Subscribers inserted (registration, construction, re-homing).
    inserts: Arc<Counter>,
    /// Subscribers removed.
    removes: Arc<Counter>,
    /// Online/offline transitions applied.
    online_flips: Arc<Counter>,
    /// Live (feed, id) postings in `by_feed`.
    feed_entries: Arc<Gauge>,
    /// Live (endpoint, subscriber) postings in `by_endpoint`.
    endpoint_entries: Arc<Gauge>,
}

/// The inverted feed→id / endpoint→subscriber index. See the module
/// docs for the invariants.
pub(crate) struct DeliveryIndex {
    by_feed: FnvHashMap<String, Bitmap>,
    relays: Bitmap,
    by_endpoint: FnvHashMap<String, BTreeMap<String, SubscriberId>>,
    metrics: IndexMetrics,
}

impl DeliveryIndex {
    /// An empty index recording its `index.*` tallies into `reg`.
    pub fn new(reg: &Registry) -> DeliveryIndex {
        DeliveryIndex {
            by_feed: FnvHashMap::default(),
            relays: Bitmap::default(),
            by_endpoint: FnvHashMap::default(),
            metrics: IndexMetrics {
                lookups: reg.counter("index.lookups"),
                matched_subscribers: reg.counter("index.matched_subscribers"),
                inserts: reg.counter("index.inserts"),
                removes: reg.counter("index.removes"),
                online_flips: reg.counter("index.online_flips"),
                feed_entries: reg.gauge("index.feed_entries"),
                endpoint_entries: reg.gauge("index.endpoint_entries"),
            },
        }
    }

    /// Register subscriber `id` (named `name`) under its endpoint and —
    /// when `online` and not routed through a relay group — under each
    /// of its feeds.
    pub fn insert_subscriber(
        &mut self,
        id: SubscriberId,
        name: &str,
        feeds: &[String],
        endpoint: &str,
        online: bool,
        grouped: bool,
    ) {
        self.metrics.inserts.inc();
        let names = match self.by_endpoint.get_mut(endpoint) {
            Some(names) => names,
            None => self.by_endpoint.entry(endpoint.to_string()).or_default(),
        };
        if names.insert(name.to_string(), id).is_none() {
            self.metrics.endpoint_entries.add(1);
        }
        if online && !grouped {
            self.post_feeds(id, feeds);
        }
    }

    /// Drop every posting for subscriber `id`. `name`/`feeds`/`endpoint`
    /// are what it was registered with.
    pub fn remove_subscriber(
        &mut self,
        id: SubscriberId,
        name: &str,
        feeds: &[String],
        endpoint: &str,
    ) {
        self.metrics.removes.inc();
        if let Some(names) = self.by_endpoint.get_mut(endpoint) {
            if names.remove(name).is_some() {
                self.metrics.endpoint_entries.add(-1);
            }
            if names.is_empty() {
                self.by_endpoint.remove(endpoint);
            }
        }
        self.unpost_feeds(id, feeds);
    }

    /// Apply an online/offline transition: offline subscribers keep
    /// their endpoint posting (acks still identify them) but leave the
    /// per-feed interested sets.
    pub fn set_online(&mut self, id: SubscriberId, feeds: &[String], online: bool, grouped: bool) {
        self.metrics.online_flips.inc();
        if grouped {
            return; // grouped members never sit in by_feed
        }
        if online {
            self.post_feeds(id, feeds);
        } else {
            self.unpost_feeds(id, feeds);
        }
    }

    /// Post relay group `id` under each of its members' feeds. Groups
    /// are planned once, at construction, and never leave.
    pub fn insert_relay(&mut self, id: SubscriberId, feeds: &[String]) {
        self.relays.set(id.raw());
        self.post_feeds(id, feeds);
    }

    /// Move `id`'s feed postings from `old` to `new`: a subscriber or
    /// relay group whose feeds a feed redefinition resolved anew.
    pub fn repost(&mut self, id: SubscriberId, old: &[String], new: &[String]) {
        self.unpost_feeds(id, old);
        self.post_feeds(id, new);
    }

    /// OR into `ids` the ids posted under any of `feeds`. Equals the
    /// brute-force subscriber/plan scan by the module invariant.
    pub fn or_postings(&self, feeds: &[String], ids: &mut Bitmap) {
        for feed in feeds {
            if let Some(posting) = self.by_feed.get(feed) {
                ids.or(posting.bytes());
            }
        }
    }

    /// A deposit's delivery match: the ids posted under any of `feeds`,
    /// ascending, counted in the `index.*` tallies.
    pub fn matches(&self, feeds: &[String]) -> Bitmap {
        self.metrics.lookups.inc();
        let mut ids = Bitmap::default();
        self.or_postings(feeds, &mut ids);
        self.metrics.matched_subscribers.add(u64::from(ids.count()));
        ids
    }

    /// Split `ids` into `(direct subscribers, relay groups)`. A server
    /// without relay groups hands the set back whole.
    pub fn split_relays(&self, mut ids: Bitmap) -> (Bitmap, Bitmap) {
        if self.relays.is_empty() {
            return (ids, Bitmap::default());
        }
        let mut direct = Bitmap::default();
        for id in ids.ones().filter(|&id| !self.relays.get(id)) {
            direct.set(id);
        }
        ids.and_not(direct.bytes());
        (direct, ids)
    }

    /// The subscriber an ack from `endpoint` resolves to: the first name
    /// on it, in name order, that `owes` its ack, else the first name (a
    /// late duplicate's resolution). An endpoint with one name never asks
    /// `owes`.
    pub fn ack_sender(
        &self,
        endpoint: &str,
        mut owes: impl FnMut(SubscriberId) -> bool,
    ) -> Option<SubscriberId> {
        let mut ids = self.by_endpoint.get(endpoint)?.values().copied();
        let first = ids.next()?;
        if ids.len() == 0 || owes(first) {
            return Some(first);
        }
        Some(ids.find(|&id| owes(id)).unwrap_or(first))
    }

    /// `(feed postings, endpoint postings)` currently live — the gauge
    /// values, exposed for invariant checks in tests.
    pub fn entry_counts(&self) -> (usize, usize) {
        (
            self.by_feed.values().map(|b| b.count() as usize).sum(),
            self.by_endpoint.values().map(BTreeMap::len).sum(),
        )
    }

    fn post_feeds(&mut self, id: SubscriberId, feeds: &[String]) {
        for feed in feeds {
            let posting = match self.by_feed.get_mut(feed) {
                Some(posting) => posting,
                None => self.by_feed.entry(feed.clone()).or_default(),
            };
            if posting.set(id.raw()) {
                self.metrics.feed_entries.add(1);
            }
        }
    }

    /// Clear `id` from its feeds' postings; a posting left empty goes,
    /// so the table never outgrows the feeds someone is online for.
    fn unpost_feeds(&mut self, id: SubscriberId, feeds: &[String]) {
        for feed in feeds {
            if let Some(posting) = self.by_feed.get_mut(feed) {
                if posting.clear(id.raw()) {
                    self.metrics.feed_entries.add(-1);
                }
                if posting.is_empty() {
                    self.by_feed.remove(feed);
                } else {
                    posting.trim();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::SubscriberId as S;

    fn feeds(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn matched(idx: &DeliveryIndex, of: &[&str]) -> Vec<u32> {
        idx.matches(&feeds(of)).ones().collect()
    }

    #[test]
    fn matches_unions_across_feeds_in_id_order() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(S(9), "zeta", &feeds(&["A", "B"]), "z:1", true, false);
        idx.insert_subscriber(S(2), "alpha", &feeds(&["B"]), "a:1", true, false);
        idx.insert_subscriber(S(4), "mid", &feeds(&["C"]), "m:1", true, false);
        assert_eq!(
            matched(&idx, &["A", "B"]),
            [2, 9],
            "ascending union, deduped"
        );
        assert_eq!(matched(&idx, &["C"]), [4]);
        assert!(matched(&idx, &["NONE"]).is_empty());
    }

    #[test]
    fn offline_and_grouped_subscribers_leave_feed_postings() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(S(0), "s1", &feeds(&["A"]), "h:1", true, false);
        idx.insert_subscriber(S(1), "s2", &feeds(&["A"]), "h:2", true, true); // grouped
        assert_eq!(
            matched(&idx, &["A"]),
            [0],
            "grouped member must not fan out directly"
        );

        idx.set_online(S(0), &feeds(&["A"]), false, false);
        assert!(matched(&idx, &["A"]).is_empty());
        // the endpoint posting survives offline: acks still resolve
        assert_eq!(idx.ack_sender("h:1", |_| false), Some(S(0)));

        idx.set_online(S(0), &feeds(&["A"]), true, false);
        assert_eq!(matched(&idx, &["A"]), [0]);
    }

    #[test]
    fn endpoint_resolution_is_lexicographically_first_and_tracks_removal() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        // ids follow registration, not names: the name decides
        idx.insert_subscriber(S(0), "late", &feeds(&["A"]), "shared:1", true, false);
        idx.insert_subscriber(S(1), "early", &feeds(&["A"]), "shared:1", true, false);
        assert_eq!(idx.ack_sender("shared:1", |_| false), Some(S(1)));
        idx.remove_subscriber(S(1), "early", &feeds(&["A"]), "shared:1");
        assert_eq!(idx.ack_sender("shared:1", |_| false), Some(S(0)));
        idx.remove_subscriber(S(0), "late", &feeds(&["A"]), "shared:1");
        assert!(idx.ack_sender("shared:1", |_| false).is_none());
        assert_eq!(idx.entry_counts(), (0, 0), "no postings may leak");
        assert!(idx.by_feed.is_empty() && idx.by_endpoint.is_empty());
    }

    #[test]
    fn an_ack_resolves_to_the_first_name_still_owed() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(S(0), "b", &feeds(&["A"]), "shared", true, false);
        idx.insert_subscriber(S(1), "a", &feeds(&["A"]), "shared", true, false);
        idx.insert_subscriber(S(2), "c", &feeds(&["A"]), "shared", true, false);
        idx.insert_subscriber(S(3), "solo", &feeds(&["A"]), "own", true, false);
        assert_eq!(idx.ack_sender("shared", |_| true), Some(S(1)));
        assert_eq!(idx.ack_sender("shared", |id| id != S(1)), Some(S(0)));
        assert_eq!(idx.ack_sender("shared", |id| id == S(2)), Some(S(2)));
        // owed by nobody (a late duplicate): the first name, as before
        assert_eq!(idx.ack_sender("shared", |_| false), Some(S(1)));
        // one name on the endpoint: resolved without asking
        assert_eq!(
            idx.ack_sender("own", |_| panic!("a lone name needs no owed check")),
            Some(S(3))
        );
        assert_eq!(idx.ack_sender("nobody", |_| true), None);
    }

    #[test]
    fn relay_groups_post_by_id_and_split_out_of_a_match() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_relay(S(0), &feeds(&["A", "B"]));
        idx.insert_relay(S(1), &feeds(&["B", "C"]));
        idx.insert_subscriber(S(2), "d", &feeds(&["B"]), "d:1", true, false);
        idx.insert_subscriber(S(3), "m", &feeds(&["A"]), "m:1", true, true); // grouped
        assert_eq!(matched(&idx, &["B"]), [0, 1, 2]);
        assert_eq!(matched(&idx, &["C", "A"]), [0, 1], "ascending union");
        assert_eq!(reg.counter_value("index.matched_subscribers"), Some(5));
        assert_eq!(reg.counter_value("index.lookups"), Some(2));

        let split = |of: &[&str]| {
            let (direct, groups) = idx.split_relays(idx.matches(&feeds(of)));
            (
                direct.ones().collect::<Vec<_>>(),
                groups.ones().collect::<Vec<_>>(),
            )
        };
        assert_eq!(split(&["B"]), (vec![2], vec![0, 1]));
        assert_eq!(split(&["A"]), (vec![], vec![0]));
        assert_eq!(idx.entry_counts(), (5, 2), "group postings count");

        // without relay groups a match is all direct
        let solo = DeliveryIndex::new(&reg);
        let mut ids = Bitmap::default();
        ids.set(7);
        let (direct, groups) = solo.split_relays(ids.clone());
        assert_eq!((direct, groups.is_empty()), (ids, true));
    }

    #[test]
    fn gauges_track_posting_counts() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(S(0), "s1", &feeds(&["A", "B"]), "h:1", true, false);
        idx.insert_subscriber(S(17), "s2", &feeds(&["B"]), "h:2", true, false);
        assert_eq!(reg.gauge_value("index.feed_entries"), Some(3));
        assert_eq!(reg.gauge_value("index.endpoint_entries"), Some(2));
        idx.set_online(S(0), &feeds(&["A", "B"]), false, false);
        assert_eq!(reg.gauge_value("index.feed_entries"), Some(1));
        idx.remove_subscriber(S(17), "s2", &feeds(&["B"]), "h:2");
        assert_eq!(reg.gauge_value("index.feed_entries"), Some(0));
        assert_eq!(reg.gauge_value("index.endpoint_entries"), Some(1));
        let (f, e) = idx.entry_counts();
        assert_eq!((f as i64, e as i64), (0, 1));
    }
}

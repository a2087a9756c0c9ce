//! Inverted delivery index: feed → interested subscribers, feed →
//! group plans, endpoint → subscribers.
//!
//! The paper's server "matches each deposited file against the
//! subscriber population" (§4.2); done naively that match is a scan of
//! every registered subscriber on every deposit, which the E14 fanout
//! experiment shows dominating deposit cost at a million subscribers.
//! [`DeliveryIndex`] inverts the subscription relation so
//! `ingest_prepared` touches only `O(matched)` state per deposit:
//!
//! * `by_feed` — feed name → the *online, ungrouped* subscribers whose
//!   resolved feed set contains that feed. Sorted sets, so a lookup
//!   yields the same delivery order the sorted scan produced.
//! * `groups_by_feed` — feed name → the shared-delivery plan indices
//!   whose member feed union contains that feed, ascending — identical
//!   to enumerating the plan list in order.
//! * `by_endpoint` — configured endpoint → subscriber names sharing it
//!   (acks carry no name on the wire; the lexicographically-first name
//!   is the resolution, matching the scan-and-sort it replaces).
//!
//! Postings hold the subscriber table's own handle for a name
//! (`Arc<str>`, ordered like the string it points at), so a match hands
//! out 200 handles, not 200 copies, and an ack resolves to a handle the
//! tracker and the subscriber table are keyed by.
//!
//! The index is *incrementally maintained* at every mutation point —
//! subscriber registration and removal, online/offline flips, group
//! plan compilation, and (through those) cluster re-homing after
//! failover — and must at all times equal the brute-force scan over
//! the subscriber table. `tests/delivery_index.rs` checks exactly that
//! equivalence under random churn, plus byte-identity of receipts, WAL
//! and `status --json` against the scan path.
//!
//! Index tallies (`index.*`) live in the server's *pool* telemetry
//! registry, not the main one: the main registry renders into
//! `status_json`, whose bytes are contract-equal between the indexed
//! and scan delivery paths, and only the indexed path performs lookups.

use bistro_telemetry::{Counter, Gauge, Registry};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Handles into the owning server's pool-telemetry registry, resolved
/// once so maintenance never re-looks-up metric names.
struct IndexMetrics {
    /// Delivery-match lookups served (one per classified deposit).
    lookups: Arc<Counter>,
    /// Interested subscribers returned across all lookups.
    matched_subscribers: Arc<Counter>,
    /// Group plans returned across all lookups.
    matched_groups: Arc<Counter>,
    /// Subscribers inserted (registration, construction, re-homing).
    inserts: Arc<Counter>,
    /// Subscribers removed.
    removes: Arc<Counter>,
    /// Online/offline transitions applied.
    online_flips: Arc<Counter>,
    /// Live (feed, subscriber) postings in `by_feed`.
    feed_entries: Arc<Gauge>,
    /// Live (endpoint, subscriber) postings in `by_endpoint`.
    endpoint_entries: Arc<Gauge>,
}

/// The inverted feed→subscriber / feed→plan / endpoint→subscriber
/// index. See the module docs for the invariants.
pub(crate) struct DeliveryIndex {
    by_feed: HashMap<String, BTreeSet<Arc<str>>>,
    groups_by_feed: HashMap<String, BTreeSet<usize>>,
    by_endpoint: HashMap<String, BTreeSet<Arc<str>>>,
    metrics: IndexMetrics,
}

impl DeliveryIndex {
    /// An empty index recording its `index.*` tallies into `reg`.
    pub fn new(reg: &Registry) -> DeliveryIndex {
        DeliveryIndex {
            by_feed: HashMap::new(),
            groups_by_feed: HashMap::new(),
            by_endpoint: HashMap::new(),
            metrics: IndexMetrics {
                lookups: reg.counter("index.lookups"),
                matched_subscribers: reg.counter("index.matched_subscribers"),
                matched_groups: reg.counter("index.matched_groups"),
                inserts: reg.counter("index.inserts"),
                removes: reg.counter("index.removes"),
                online_flips: reg.counter("index.online_flips"),
                feed_entries: reg.gauge("index.feed_entries"),
                endpoint_entries: reg.gauge("index.endpoint_entries"),
            },
        }
    }

    /// Register `name` under its endpoint and — when `online` and not
    /// routed through a relay group — under each of its feeds.
    pub fn insert_subscriber(
        &mut self,
        name: &Arc<str>,
        feeds: &[String],
        endpoint: &str,
        online: bool,
        grouped: bool,
    ) {
        self.metrics.inserts.inc();
        if self
            .by_endpoint
            .entry(endpoint.to_string())
            .or_default()
            .insert(name.clone())
        {
            self.metrics.endpoint_entries.add(1);
        }
        if online && !grouped {
            self.post_feeds(name, feeds);
        }
    }

    /// Drop every posting for `name`. `feeds`/`endpoint`/`online` are
    /// the state the subscriber was registered with.
    pub fn remove_subscriber(&mut self, name: &str, feeds: &[String], endpoint: &str) {
        self.metrics.removes.inc();
        if let Some(set) = self.by_endpoint.get_mut(endpoint) {
            if set.remove(name) {
                self.metrics.endpoint_entries.add(-1);
            }
            if set.is_empty() {
                self.by_endpoint.remove(endpoint);
            }
        }
        self.unpost_feeds(name, feeds);
    }

    /// Apply an online/offline transition: offline subscribers keep
    /// their endpoint posting (acks still identify them) but leave the
    /// per-feed interested sets.
    pub fn set_online(&mut self, name: &Arc<str>, feeds: &[String], online: bool, grouped: bool) {
        self.metrics.online_flips.inc();
        if grouped {
            return; // grouped members never sit in by_feed
        }
        if online {
            self.post_feeds(name, feeds);
        } else {
            self.unpost_feeds(name, feeds);
        }
    }

    /// (Re)build the feed → plan-index postings from the compiled
    /// shared-delivery plans, in plan order.
    pub fn set_group_plans<'a>(&mut self, plans: impl Iterator<Item = (usize, &'a [String])>) {
        self.groups_by_feed.clear();
        for (idx, feeds) in plans {
            for feed in feeds {
                self.groups_by_feed
                    .entry(feed.clone())
                    .or_default()
                    .insert(idx);
            }
        }
    }

    /// The delivery match for a classified file: the sorted union of
    /// interested online subscribers and the ascending union of matched
    /// plan indices, over the file's feeds. Equals the brute-force
    /// subscriber/plan scan by the module invariant.
    pub fn matches(&self, feeds: &[String]) -> (Vec<Arc<str>>, Vec<usize>) {
        self.metrics.lookups.inc();
        let subscribers: Vec<Arc<str>> = match feeds {
            [feed] => self
                .by_feed
                .get(feed)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default(),
            _ => {
                let mut merged: BTreeSet<&Arc<str>> = BTreeSet::new();
                for feed in feeds {
                    if let Some(s) = self.by_feed.get(feed) {
                        merged.extend(s);
                    }
                }
                merged.into_iter().cloned().collect()
            }
        };
        let plans: Vec<usize> = match feeds {
            [feed] => self
                .groups_by_feed
                .get(feed)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
            _ => {
                let mut merged: BTreeSet<usize> = BTreeSet::new();
                for feed in feeds {
                    if let Some(s) = self.groups_by_feed.get(feed) {
                        merged.extend(s.iter().copied());
                    }
                }
                merged.into_iter().collect()
            }
        };
        self.metrics
            .matched_subscribers
            .add(subscribers.len() as u64);
        self.metrics.matched_groups.add(plans.len() as u64);
        (subscribers, plans)
    }

    /// The subscriber an ack from `endpoint` resolves to: the
    /// lexicographically-first registered name on that endpoint.
    pub fn subscriber_for_endpoint(&self, endpoint: &str) -> Option<&Arc<str>> {
        self.by_endpoint.get(endpoint)?.iter().next()
    }

    /// `(feed postings, endpoint postings)` currently live — the gauge
    /// values, exposed for invariant checks in tests.
    pub fn entry_counts(&self) -> (usize, usize) {
        (
            self.by_feed.values().map(|s| s.len()).sum(),
            self.by_endpoint.values().map(|s| s.len()).sum(),
        )
    }

    fn post_feeds(&mut self, name: &Arc<str>, feeds: &[String]) {
        for feed in feeds {
            if self
                .by_feed
                .entry(feed.clone())
                .or_default()
                .insert(name.clone())
            {
                self.metrics.feed_entries.add(1);
            }
        }
    }

    fn unpost_feeds(&mut self, name: &str, feeds: &[String]) {
        for feed in feeds {
            if let Some(set) = self.by_feed.get_mut(feed) {
                if set.remove(name) {
                    self.metrics.feed_entries.add(-1);
                }
                if set.is_empty() {
                    self.by_feed.remove(feed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feeds(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn h(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    fn matched(idx: &DeliveryIndex, of: &[&str]) -> Vec<String> {
        let (subs, _) = idx.matches(&feeds(of));
        subs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn matches_unions_and_sorts_across_feeds() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(&h("zeta"), &feeds(&["A", "B"]), "z:1", true, false);
        idx.insert_subscriber(&h("alpha"), &feeds(&["B"]), "a:1", true, false);
        idx.insert_subscriber(&h("mid"), &feeds(&["C"]), "m:1", true, false);
        assert_eq!(
            matched(&idx, &["A", "B"]),
            vec!["alpha", "zeta"],
            "sorted union, deduped"
        );
        assert_eq!(matched(&idx, &["C"]), vec!["mid"]);
        assert!(matched(&idx, &["NONE"]).is_empty());
    }

    #[test]
    fn offline_and_grouped_subscribers_leave_feed_postings() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(&h("s1"), &feeds(&["A"]), "h:1", true, false);
        idx.insert_subscriber(&h("s2"), &feeds(&["A"]), "h:2", true, true); // grouped
        assert_eq!(
            matched(&idx, &["A"]),
            vec!["s1"],
            "grouped member must not fan out directly"
        );

        idx.set_online(&h("s1"), &feeds(&["A"]), false, false);
        assert!(matched(&idx, &["A"]).is_empty());
        // the endpoint posting survives offline: acks still resolve
        assert_eq!(&**idx.subscriber_for_endpoint("h:1").unwrap(), "s1");

        idx.set_online(&h("s1"), &feeds(&["A"]), true, false);
        assert_eq!(matched(&idx, &["A"]), vec!["s1"]);
    }

    #[test]
    fn endpoint_resolution_is_lexicographically_first_and_tracks_removal() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(&h("late"), &feeds(&["A"]), "shared:1", true, false);
        idx.insert_subscriber(&h("early"), &feeds(&["A"]), "shared:1", true, false);
        assert_eq!(&**idx.subscriber_for_endpoint("shared:1").unwrap(), "early");
        idx.remove_subscriber("early", &feeds(&["A"]), "shared:1");
        assert_eq!(&**idx.subscriber_for_endpoint("shared:1").unwrap(), "late");
        idx.remove_subscriber("late", &feeds(&["A"]), "shared:1");
        assert!(idx.subscriber_for_endpoint("shared:1").is_none());
        assert_eq!(idx.entry_counts(), (0, 0), "no postings may leak");
    }

    #[test]
    fn group_plans_rebuild_and_merge_ascending() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        let p0 = feeds(&["A", "B"]);
        let p1 = feeds(&["B", "C"]);
        idx.set_group_plans([(0usize, p0.as_slice()), (1, p1.as_slice())].into_iter());
        let (_, plans) = idx.matches(&feeds(&["B"]));
        assert_eq!(plans, vec![0, 1]);
        let (_, plans) = idx.matches(&feeds(&["C", "A"]));
        assert_eq!(plans, vec![0, 1]);
        // rebuild replaces, never accumulates
        idx.set_group_plans([(0usize, p1.as_slice())].into_iter());
        let (_, plans) = idx.matches(&feeds(&["A"]));
        assert!(plans.is_empty());
    }

    #[test]
    fn gauges_track_posting_counts() {
        let reg = Registry::new();
        let mut idx = DeliveryIndex::new(&reg);
        idx.insert_subscriber(&h("s1"), &feeds(&["A", "B"]), "h:1", true, false);
        idx.insert_subscriber(&h("s2"), &feeds(&["B"]), "h:2", true, false);
        assert_eq!(reg.gauge_value("index.feed_entries"), Some(3));
        assert_eq!(reg.gauge_value("index.endpoint_entries"), Some(2));
        idx.set_online(&h("s1"), &feeds(&["A", "B"]), false, false);
        assert_eq!(reg.gauge_value("index.feed_entries"), Some(1));
        idx.remove_subscriber("s2", &feeds(&["B"]), "h:2");
        assert_eq!(reg.gauge_value("index.feed_entries"), Some(0));
        assert_eq!(reg.gauge_value("index.endpoint_entries"), Some(1));
        let (f, e) = idx.entry_counts();
        assert_eq!((f as i64, e as i64), (0, 1));
    }
}

//! Subscriber-side client for hybrid push-pull delivery (paper §4.1).
//!
//! "The data feed management server will push notification to
//! subscribers by invoking registered trigger scripts, while applications
//! will pull the data after relevant notifications are received at the
//! time of their choosing."
//!
//! [`SubscriberClient`] tracks received [`FileAvailable`] notifications
//! and fetches when the application decides to pull. The fetch request
//! is a header-only `FileAvailable` (size 0) sent from the subscriber to
//! its server, carrying that server's file id; the reply is a
//! [`FileDelivered`] carrying the payload. A relay drains only frames
//! sent by its upstream server, so a fetch request addressed to a relay
//! server is never mistaken for an upstream delivery.
//!
//! [`FileAvailable`]: crate::messages::SubscriberMsg::FileAvailable
//! [`FileDelivered`]: crate::messages::SubscriberMsg::FileDelivered

use crate::messages::{Message, ReliableMsg, SubscriberMsg};
use crate::net::SimNetwork;
use bistro_base::{FileId, TimePoint};
use std::collections::{BTreeMap, BTreeSet};

/// A pending (notified but not yet fetched) file at the subscriber.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingFile {
    /// The file's id at the server.
    pub file: FileId,
    /// The feed it belongs to.
    pub feed: String,
    /// The server-side staged path to request.
    pub staged_path: String,
    /// Size in bytes.
    pub size: u64,
    /// When the notification arrived.
    pub notified_at: TimePoint,
}

/// Subscriber-side state machine for the hybrid push-pull protocol and
/// the reliable (acked) delivery path.
pub struct SubscriberClient {
    /// This client's endpoint name on the network.
    pub endpoint: String,
    /// The server's endpoint name.
    pub server: String,
    pending: BTreeMap<u64, PendingFile>,
    fetched: Vec<(PendingFile, TimePoint)>,
    /// File ids already handled once (reliable-path redelivery dedupe).
    seen: BTreeSet<u64>,
    /// Files received through the reliable push path, with receive time.
    delivered: Vec<(FileId, String, TimePoint)>,
    /// Redeliveries ignored by the dedupe (every one was still acked).
    duplicates: u64,
    /// Acks sent back to the server.
    acks_sent: u64,
}

impl SubscriberClient {
    /// A client for `endpoint`, pulling from `server`.
    pub fn new(endpoint: &str, server: &str) -> SubscriberClient {
        SubscriberClient {
            endpoint: endpoint.to_string(),
            server: server.to_string(),
            pending: BTreeMap::new(),
            fetched: Vec::new(),
            seen: BTreeSet::new(),
            delivered: Vec::new(),
            duplicates: 0,
            acks_sent: 0,
        }
    }

    /// Drain the network inbox at `now`, recording availability
    /// notifications and reliable delivery attempts (each attempt is
    /// acked; redeliveries of an already-seen file are acked but
    /// otherwise ignored). Returns how many *new* files arrived.
    pub fn poll_notifications(&mut self, net: &SimNetwork, now: TimePoint) -> usize {
        let mut n = 0;
        for delivery in net.recv_ready(&self.endpoint, now) {
            match delivery.msg {
                Message::Subscriber(SubscriberMsg::FileAvailable {
                    file,
                    feed,
                    staged_path,
                    size,
                }) => {
                    self.pending.insert(
                        file.raw(),
                        PendingFile {
                            file,
                            feed,
                            staged_path,
                            size,
                            notified_at: delivery.at,
                        },
                    );
                    n += 1;
                }
                Message::Reliable(ReliableMsg::Attempt { attempt, inner }) => {
                    n += usize::from(self.on_attempt(net, now, attempt, inner));
                }
                _ => {}
            }
        }
        n
    }

    /// Handle one reliable delivery attempt: always ack (acks may race a
    /// retransmission already in flight — the server dedupes), and
    /// process the wrapped message only the first time its file is seen.
    /// Returns true if the file was new.
    fn on_attempt(
        &mut self,
        net: &SimNetwork,
        now: TimePoint,
        attempt: u32,
        inner: SubscriberMsg,
    ) -> bool {
        let file = inner.file();
        net.send(
            now,
            &self.endpoint,
            &self.server,
            Message::Reliable(ReliableMsg::Ack { file, attempt }),
        );
        self.acks_sent += 1;
        if !self.seen.insert(file.raw()) {
            self.duplicates += 1;
            return false;
        }
        match inner {
            SubscriberMsg::FileDelivered { file, feed, .. } => {
                self.delivered.push((file, feed, now));
            }
            SubscriberMsg::FileAvailable {
                file,
                feed,
                staged_path,
                size,
            } => {
                self.pending.insert(
                    file.raw(),
                    PendingFile {
                        file,
                        feed,
                        staged_path,
                        size,
                        notified_at: now,
                    },
                );
            }
        }
        true
    }

    /// Files received through the reliable push path (exactly once per
    /// file, in receive order).
    pub fn delivered(&self) -> &[(FileId, String, TimePoint)] {
        &self.delivered
    }

    /// Redeliveries the dedupe ignored.
    pub fn duplicates_ignored(&self) -> u64 {
        self.duplicates
    }

    /// Acks sent back to the server.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Files notified but not yet fetched, in file-id order.
    pub fn pending(&self) -> Vec<&PendingFile> {
        self.pending.values().collect()
    }

    /// Pull every pending file "at the time of \[our\] choosing": simulate
    /// the fetch round trip for each (request upstream, payload
    /// downstream) and mark it fetched. Returns the fetch completion
    /// times.
    pub fn fetch_all(&mut self, net: &SimNetwork, now: TimePoint) -> Vec<TimePoint> {
        let pending: Vec<PendingFile> = self.pending.values().cloned().collect();
        self.pending.clear();
        let mut done = Vec::new();
        for p in pending {
            // request: a small message to the server
            let req_arrival = net.send(
                now,
                &self.endpoint,
                &self.server,
                Message::Subscriber(SubscriberMsg::FileAvailable {
                    file: p.file,
                    feed: p.feed.clone(),
                    staged_path: p.staged_path.clone(),
                    size: 0, // request carries no payload
                }),
            );
            // response: the payload back to us
            let resp_arrival = net.send(
                req_arrival,
                &self.server,
                &self.endpoint,
                Message::Subscriber(SubscriberMsg::FileDelivered {
                    file: p.file,
                    feed: p.feed.clone(),
                    dest_path: p.staged_path.clone(),
                    size: p.size,
                }),
            );
            done.push(resp_arrival);
            self.fetched.push((p, resp_arrival));
        }
        // Drain exactly our own payload deliveries so the inbox stays
        // clean. Anything else that arrived in the fetch window — e.g. a
        // fresh FileAvailable notification — must stay queued for the
        // next poll, not be silently discarded.
        if let Some(&latest) = done.iter().max() {
            let expected: BTreeSet<u64> = self.fetched.iter().map(|(p, _)| p.file.raw()).collect();
            let _ = net.recv_where(&self.endpoint, latest, |d| {
                matches!(
                    &d.msg,
                    Message::Subscriber(SubscriberMsg::FileDelivered { file, .. })
                        if expected.contains(&file.raw())
                )
            });
        }
        done
    }

    /// Everything fetched so far, with completion times.
    pub fn fetched(&self) -> &[(PendingFile, TimePoint)] {
        &self.fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkSpec;
    use bistro_base::TimeSpan;

    fn t(s: u64) -> TimePoint {
        TimePoint::from_secs(s)
    }

    #[test]
    fn notify_then_pull_roundtrip() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000,
            latency: TimeSpan::from_millis(10),
        });
        let mut client = SubscriberClient::new("app", "bistro");

        // server pushes two availability notifications
        for i in 1..=2u64 {
            net.send(
                t(0),
                "bistro",
                "app",
                Message::Subscriber(SubscriberMsg::FileAvailable {
                    file: FileId(i),
                    feed: "F".to_string(),
                    staged_path: format!("F/f{i}.csv"),
                    size: 500_000,
                }),
            );
        }
        assert_eq!(client.poll_notifications(&net, t(1)), 2);
        assert_eq!(client.pending().len(), 2);

        // the app pulls later, at its own pace
        let completions = client.fetch_all(&net, t(60));
        assert_eq!(completions.len(), 2);
        for c in &completions {
            assert!(*c > t(60), "fetch takes network time");
            // 500KB at 1MB/s ≈ 0.5s per payload plus latency
            assert!(*c < t(63));
        }
        assert!(client.pending().is_empty());
        assert_eq!(client.fetched().len(), 2);
    }

    #[test]
    fn duplicate_notifications_dedupe() {
        let net = SimNetwork::new(LinkSpec::default());
        let mut client = SubscriberClient::new("app", "bistro");
        for _ in 0..3 {
            net.send(
                t(0),
                "bistro",
                "app",
                Message::Subscriber(SubscriberMsg::FileAvailable {
                    file: FileId(7),
                    feed: "F".to_string(),
                    staged_path: "F/same.csv".to_string(),
                    size: 10,
                }),
            );
        }
        client.poll_notifications(&net, t(1));
        assert_eq!(client.pending().len(), 1);
    }

    #[test]
    fn notification_arriving_mid_fetch_survives() {
        // Regression: fetch_all drained the whole inbox up to the latest
        // fetch completion, silently discarding any unrelated
        // FileAvailable that arrived in that window.
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000, // 500 KB payload => ~0.5 s fetch window
            latency: TimeSpan::from_millis(10),
        });
        let mut client = SubscriberClient::new("app", "bistro");
        net.send(
            t(0),
            "bistro",
            "app",
            Message::Subscriber(SubscriberMsg::FileAvailable {
                file: FileId(1),
                feed: "F".to_string(),
                staged_path: "F/one.csv".to_string(),
                size: 500_000,
            }),
        );
        client.poll_notifications(&net, t(1));

        // a second notification lands *during* the fetch round trip
        net.send(
            t(60),
            "bistro",
            "app",
            Message::Subscriber(SubscriberMsg::FileAvailable {
                file: FileId(2),
                feed: "F".to_string(),
                staged_path: "F/two.csv".to_string(),
                size: 10,
            }),
        );
        let completions = client.fetch_all(&net, t(60));
        assert_eq!(completions.len(), 1);

        // the mid-fetch notification is still pending delivery to us
        let latest = *completions.iter().max().unwrap();
        assert_eq!(client.poll_notifications(&net, latest), 1);
        assert_eq!(client.pending().len(), 1);
        assert_eq!(client.pending()[0].file, FileId(2));
    }

    #[test]
    fn reliable_attempts_acked_and_deduped() {
        let net = SimNetwork::new(LinkSpec::default());
        let mut client = SubscriberClient::new("app", "bistro");
        let push = |attempt: u32| {
            Message::Reliable(crate::messages::ReliableMsg::Attempt {
                attempt,
                inner: SubscriberMsg::FileDelivered {
                    file: FileId(5),
                    feed: "F".to_string(),
                    dest_path: "incoming/x".to_string(),
                    size: 10,
                },
            })
        };
        net.send(t(0), "bistro", "app", push(1));
        net.send(t(0), "bistro", "app", push(2)); // spurious retransmission
        let new = client.poll_notifications(&net, t(1));
        assert_eq!(new, 1, "redelivery is not a new file");
        assert_eq!(client.delivered().len(), 1);
        assert_eq!(client.duplicates_ignored(), 1);
        assert_eq!(client.acks_sent(), 2, "every attempt is acked");

        // both acks arrived at the server, echoing their attempt ids
        let acks = net.recv_ready("bistro", t(10));
        assert_eq!(acks.len(), 2);
        for (i, d) in acks.iter().enumerate() {
            match &d.msg {
                Message::Reliable(crate::messages::ReliableMsg::Ack { file, attempt }) => {
                    assert_eq!(*file, FileId(5));
                    assert_eq!(*attempt, i as u32 + 1);
                }
                other => panic!("expected ack, got {other:?}"),
            }
        }
    }

    #[test]
    fn reliable_notify_attempt_lands_in_pending() {
        let net = SimNetwork::new(LinkSpec::default());
        let mut client = SubscriberClient::new("app", "bistro");
        net.send(
            t(0),
            "bistro",
            "app",
            Message::Reliable(crate::messages::ReliableMsg::Attempt {
                attempt: 1,
                inner: SubscriberMsg::FileAvailable {
                    file: FileId(3),
                    feed: "F".to_string(),
                    staged_path: "F/three.csv".to_string(),
                    size: 10,
                },
            }),
        );
        assert_eq!(client.poll_notifications(&net, t(1)), 1);
        assert_eq!(client.pending().len(), 1);
        assert_eq!(client.acks_sent(), 1);
    }

    #[test]
    fn push_deliveries_ignored_by_pull_client() {
        let net = SimNetwork::new(LinkSpec::default());
        let mut client = SubscriberClient::new("app", "bistro");
        net.send(
            t(0),
            "bistro",
            "app",
            Message::Subscriber(SubscriberMsg::FileDelivered {
                file: FileId(1),
                feed: "F".to_string(),
                dest_path: "x".to_string(),
                size: 10,
            }),
        );
        assert_eq!(client.poll_notifications(&net, t(1)), 0);
    }
}

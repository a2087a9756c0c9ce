//! Property tests: batchers never lose or duplicate files, message
//! encoding roundtrips, and the network preserves causality.

use bistro_base::prop::{self, Runner};
use bistro_base::rng::Rng;
use bistro_base::{prop_assert, prop_assert_eq, FileId, TimePoint, TimeSpan};
use bistro_config::BatchSpec;
use bistro_transport::messages::{Message, SubscriberMsg};
use bistro_transport::{AdaptiveBatcher, Batcher, LinkSpec, SimNetwork};

/// Arbitrary arrival schedule: (gap_ms to previous event, is_punctuation).
fn schedule(rng: &mut Rng) -> Vec<(u64, bool)> {
    prop::vec_of(rng, 1..=79, |r| {
        (r.gen_range(0u64..600_000), r.gen_bool(0.1))
    })
}

/// Conservation: every file pushed into a Batcher comes out in
/// exactly one batch, in order, regardless of spec and punctuation.
#[test]
fn batcher_conserves_files() {
    Runner::new("batcher_conserves_files").cases(64).run(
        |rng| {
            (
                schedule(rng),
                prop::option_of(rng, |r| r.gen_range(1u32..10)),
                prop::option_of(rng, |r| r.gen_range(30u64..3600)),
            )
        },
        |(sched, count, window_s)| {
            if sched.is_empty() || *count == Some(0) || window_s.is_some_and(|w| w == 0) {
                return Ok(()); // shrunk out of domain
            }
            let spec = BatchSpec {
                count: *count,
                window: window_s.map(TimeSpan::from_secs),
            };
            let mut b = Batcher::new(spec);
            let mut t = TimePoint::from_secs(1_000);
            let mut emitted: Vec<FileId> = Vec::new();
            let mut pushed: Vec<FileId> = Vec::new();
            for (i, &(gap_ms, punct)) in sched.iter().enumerate() {
                t += TimeSpan::from_millis(gap_ms);
                // fire lapsed windows first, as the server's tick would
                while let Some(dl) = b.window_deadline() {
                    if dl <= t {
                        if let Some(batch) = b.on_tick(dl) {
                            emitted.extend(batch.files);
                        }
                    } else {
                        break;
                    }
                }
                let id = FileId(i as u64);
                pushed.push(id);
                if let Some(batch) = b.on_file(id, t) {
                    emitted.extend(batch.files);
                }
                if punct {
                    if let Some(batch) = b.on_punctuation(t) {
                        emitted.extend(batch.files);
                    }
                }
            }
            // final flush: punctuation closes whatever is open
            if let Some(batch) = b.on_punctuation(t + TimeSpan::from_hours(24)) {
                emitted.extend(batch.files);
            }
            prop_assert_eq!(emitted, pushed.clone());
            Ok(())
        },
    );
}

/// Same conservation law for the adaptive batcher.
#[test]
fn adaptive_batcher_conserves_files() {
    Runner::new("adaptive_batcher_conserves_files")
        .cases(64)
        .run(schedule, |sched| {
            if sched.is_empty() {
                return Ok(());
            }
            let mut b = AdaptiveBatcher::new(4.0, TimeSpan::from_mins(10));
            let mut t = TimePoint::from_secs(1_000);
            let mut emitted: Vec<FileId> = Vec::new();
            let mut pushed: Vec<FileId> = Vec::new();
            for (i, &(gap_ms, _)) in sched.iter().enumerate() {
                t += TimeSpan::from_millis(gap_ms);
                while let Some(dl) = b.tick_deadline() {
                    if dl <= t {
                        if let Some(batch) = b.on_tick(dl) {
                            emitted.extend(batch.files);
                        }
                    } else {
                        break;
                    }
                }
                let id = FileId(i as u64);
                pushed.push(id);
                if let Some(batch) = b.on_file(id, t) {
                    emitted.extend(batch.files);
                }
            }
            if let Some(batch) = b.on_tick(t + TimeSpan::from_hours(24)) {
                emitted.extend(batch.files);
            }
            prop_assert_eq!(emitted, pushed.clone());
            Ok(())
        });
}

/// Message encode/decode roundtrips for arbitrary field values.
#[test]
fn message_roundtrip() {
    Runner::new("message_roundtrip").cases(64).run(
        |rng| {
            (
                prop::string(rng, "A-Za-z0-9_./-", 1..=60),
                rng.next_u64(),
                rng.next_u64(),
                prop::string(rng, "A-Z/", 1..=20),
            )
        },
        |(path, size, file, feed)| {
            let (size, file) = (*size, *file);
            let msgs = vec![
                Message::Subscriber(SubscriberMsg::FileDelivered {
                    file: FileId(file),
                    feed: feed.clone(),
                    dest_path: path.clone(),
                    size,
                }),
                Message::Subscriber(SubscriberMsg::FileAvailable {
                    file: FileId(file),
                    feed: feed.clone(),
                    staged_path: path.clone(),
                    size,
                }),
            ];
            for m in msgs {
                prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
            }
            Ok(())
        },
    );
}

/// The network never delivers a message before it was sent, and FIFO
/// links preserve per-link send order.
#[test]
fn network_causality() {
    Runner::new("network_causality").cases(64).run(
        |rng| {
            prop::vec_of(rng, 1..=29, |r| {
                (r.gen_range(0u64..1000), r.gen_range(1u64..1_000_000))
            })
        },
        |sends| {
            if sends.is_empty() || sends.iter().any(|&(_, size)| size == 0) {
                return Ok(());
            }
            let net = SimNetwork::new(LinkSpec {
                bandwidth: 1_000_000,
                latency: TimeSpan::from_millis(7),
            });
            let mut sorted = sends.clone();
            sorted.sort();
            let mut arrivals = Vec::new();
            for (t_s, size) in sorted {
                let sent = TimePoint::from_secs(t_s);
                let at = net.send(
                    sent,
                    "a",
                    "b",
                    Message::Subscriber(SubscriberMsg::FileAvailable {
                        file: FileId(1),
                        feed: "F".into(),
                        staged_path: "x".into(),
                        size,
                    }),
                );
                prop_assert!(at > sent);
                arrivals.push(at);
            }
            // FIFO: arrivals are non-decreasing in send order
            for w in arrivals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            // and recv_ready at the max arrival drains everything
            let last = *arrivals.iter().max().unwrap();
            prop_assert_eq!(net.recv_ready("b", last).len(), arrivals.len());
            Ok(())
        },
    );
}

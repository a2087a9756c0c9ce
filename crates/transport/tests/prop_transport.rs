//! Property tests: batchers never lose or duplicate files, message
//! encoding roundtrips, the network preserves causality, and an inbox
//! keeps the order of an ordered map on `(arrival, fabric seq)`.

use bistro_base::prop::{self, Runner};
use bistro_base::rng::Rng;
use bistro_base::{fnv1a64, prop_assert, prop_assert_eq, FileId, TimePoint, TimeSpan};
use bistro_config::BatchSpec;
use bistro_transport::messages::{Message, SubscriberMsg};
use bistro_transport::{
    AdaptiveBatcher, Batcher, Delivery, FaultPlan, FaultSpec, LinkSpec, SimNetwork,
};
use std::collections::BTreeMap;

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

// -- inbox order against an ordered-map oracle ------------------------------

const ENDPOINTS: [&str; 4] = ["a", "b", "c", "d"];

/// One oracle message: `(from, message)` under its `(arrival, seq)` key.
type OracleInbox = BTreeMap<(TimePoint, u64), (String, Message)>;

/// The fabric's inboxes as ordered maps keyed by `(arrival, fabric seq)`
/// — the structure the fabric kept before its queues — fed the arrival
/// each send reports and the drops and duplicates its counters show.
#[derive(Default)]
struct Oracle {
    inboxes: BTreeMap<&'static str, OracleInbox>,
    seq: u64,
}

impl Oracle {
    fn enqueue(&mut self, to: &'static str, at: TimePoint, from: &str, msg: Message) -> u64 {
        self.seq += 1;
        let inbox = self.inboxes.entry(to).or_default();
        inbox.insert((at, self.seq), (from.to_string(), msg));
        self.seq
    }

    /// `(endpoint, seq, from, at, msg)` of every message, sorted by
    /// `(endpoint, seq)` as `pending_messages` is.
    fn pending(&self) -> Vec<(String, u64, String, TimePoint, Message)> {
        let mut out: Vec<_> = (self.inboxes.iter())
            .flat_map(|(to, inbox)| {
                (inbox.iter()).map(|(&(at, seq), (from, msg))| {
                    (to.to_string(), seq, from.clone(), at, msg.clone())
                })
            })
            .collect();
        out.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        out
    }

    fn next_arrival(&self, to: &str) -> Option<TimePoint> {
        let (&(at, _), _) = self.inboxes.get(to)?.first_key_value()?;
        Some(at)
    }

    /// `in_flight_digest`'s definition, over the oracle's contents.
    fn digest(&self) -> u64 {
        let mut hashes: Vec<u64> = (self.inboxes.iter())
            .flat_map(|(to, inbox)| {
                inbox.values().map(move |(from, msg)| {
                    let mut bytes = Vec::new();
                    bytes.extend_from_slice(to.as_bytes());
                    bytes.push(0);
                    bytes.extend_from_slice(from.as_bytes());
                    bytes.push(0);
                    bytes.extend_from_slice(&msg.encode());
                    fnv1a64(&bytes)
                })
            })
            .collect();
        hashes.sort_unstable();
        let acc: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
        fnv1a64(&acc)
    }
}

fn file_of(msg: &Message) -> u64 {
    match msg {
        Message::Subscriber(m) => m.file().0,
        other => panic!("the property sends only subscriber frames, got {other:?}"),
    }
}

/// A drain predicate from a random word: `0 (mod 5)` takes everything,
/// `4 (mod 5)` nothing, and otherwise it rejects every file whose id is
/// `≡ 0 (mod k)` after a shift, `k` in 2..=4.
fn keeps(word: u64, d_file: u64) -> bool {
    match word % 5 {
        0 => true,
        4 => false,
        k => !(d_file + word / 5).is_multiple_of(k + 1),
    }
}

/// The setup half of a case: the fault plan's seed, per-link specs
/// `(from, to, latency ms, bandwidth B/s)`, per-link fault overrides
/// `(from, to, drop ‰, dup ‰, dup delay ms)` and outages
/// `(from, to, down ms, length ms)`. Latencies and delays are whole
/// 10 ms steps and most links serialize a push in a few µs, so messages
/// from different links often arrive at the same instant, out of send
/// order: the ties the fabric seq has to break.
type Setup = (
    u64,
    Vec<(u8, u8, u64, u64)>,
    Vec<(u8, u8, u64, u64, u64)>,
    Vec<(u8, u8, u64, u64)>,
);

fn setup(rng: &mut Rng) -> Setup {
    let ends = |r: &mut Rng| (r.gen_range(0u8..4), r.gen_range(0u8..4));
    (
        rng.next_u64(),
        prop::vec_of(rng, 0..=6, |r| {
            let (f, t) = ends(r);
            let bandwidth = prop::select(r, &[1_000_000_000, 1_000_000_000, 1_000_000, 20_000]);
            (f, t, 10 * r.gen_range(0u64..40), bandwidth)
        }),
        prop::vec_of(rng, 0..=4, |r| {
            let (f, t) = ends(r);
            (
                f,
                t,
                r.gen_range(0u64..400),
                r.gen_range(0u64..600),
                10 * r.gen_range(0u64..150),
            )
        }),
        prop::vec_of(rng, 0..=3, |r| {
            let (f, t) = ends(r);
            (f, t, r.gen_range(0u64..20_000), r.gen_range(1u64..3_000))
        }),
    )
}

/// An op `(kind, x, word)`: kinds 0–3 send `x`'s link a push of
/// `word % 4000` bytes, 4 advances the clock `x / 10` 10 ms steps, 5 drains endpoint
/// `x % 4` under [`keeps`]`(word)`, and 6 / 7 / 8 take / drop /
/// duplicate one of that endpoint's messages picked by `word` (or a seq
/// no message has, when it holds none).
fn ops(rng: &mut Rng) -> Vec<(u8, u64, u64)> {
    prop::vec_of(rng, 1..=160, |r| {
        (r.gen_range(0u8..9), r.gen_range(0u64..3_000), r.next_u64())
    })
}

/// Every `SimNetwork` inbox operation — sends over links of mixed
/// latency and bandwidth through outages and a fault plan with drops and
/// delayed duplicates, filtered drains, and the model checker's take /
/// drop / duplicate — leaves the fabric equal to an ordered map on
/// `(arrival, fabric seq)`: the same drains, next arrivals, pending
/// list and in-flight digest after every step.
#[test]
fn inbox_order_matches_an_ordered_map() {
    Runner::new("inbox_order_matches_an_ordered_map")
        .cases(128)
        .run(
            |rng| (setup(rng), ops(rng)),
            |((seed, links, faults, outages), ops)| {
                let end = |i: u8| ENDPOINTS[i as usize % 4];
                let net = SimNetwork::new(LinkSpec {
                    bandwidth: 1_000_000_000,
                    latency: TimeSpan::from_millis(20),
                });
                for &(f, t, lat, bw) in links {
                    let spec = LinkSpec {
                        bandwidth: bw,
                        latency: TimeSpan::from_millis(lat),
                    };
                    net.set_link(end(f), end(t), spec);
                }
                let start = TimePoint::from_secs(1_000);
                for &(f, t, down, len) in outages {
                    let down = start + TimeSpan::from_millis(down);
                    net.add_outage(end(f), end(t), down, down + TimeSpan::from_millis(len));
                }
                let spec = |drop: u64, dup: u64, delay: u64| FaultSpec {
                    drop_prob: drop as f64 / 1000.0,
                    dup_prob: dup as f64 / 1000.0,
                    dup_delay: TimeSpan::from_millis(delay),
                };
                let mut plan = FaultPlan::uniform(*seed, spec(50, 150, 300));
                for &(f, t, drop, dup, delay) in faults {
                    let (from, to) = (end(f).to_string(), end(t).to_string());
                    plan.link_faults.push((from, to, spec(drop, dup, delay)));
                }
                // the last override of a link is the one it keeps
                let fault_of = |from: &str, to: &str| {
                    (plan.link_faults.iter().rev())
                        .find(|(f, t, _)| f == from && t == to)
                        .map_or(plan.default_faults, |&(_, _, s)| s)
                };
                let dup_delays: Vec<Vec<TimeSpan>> = (ENDPOINTS.iter())
                    .map(|f| ENDPOINTS.iter().map(|t| fault_of(f, t).dup_delay).collect())
                    .collect();
                net.install_fault_plan(plan.clone());

                let mut oracle = Oracle::default();
                let mut now = start;
                for (step, &(kind, x, word)) in ops.iter().enumerate() {
                    match kind {
                        0..=3 => {
                            let (f, t) = ((x % 4) as usize, (x / 4 % 4) as usize);
                            let msg = Message::Subscriber(SubscriberMsg::FileDelivered {
                                file: FileId(step as u64),
                                feed: "F".into(),
                                dest_path: "d".into(),
                                size: word % 4_000,
                            });
                            let (dropped, duped) =
                                (net.messages_dropped(), net.messages_duplicated());
                            let at = net.send(now, ENDPOINTS[f], ENDPOINTS[t], msg.clone());
                            if net.messages_dropped() == dropped {
                                oracle.enqueue(ENDPOINTS[t], at, ENDPOINTS[f], msg.clone());
                            }
                            if net.messages_duplicated() > duped {
                                let dup_at = at + dup_delays[f][t];
                                oracle.enqueue(ENDPOINTS[t], dup_at, ENDPOINTS[f], msg);
                            }
                        }
                        4 => now += TimeSpan::from_millis(x / 10 * 10),
                        5 => {
                            let to = ENDPOINTS[(x % 4) as usize];
                            let got: Vec<(String, TimePoint, Message)> =
                                (net.recv_where(to, now, |d: &Delivery| {
                                    keeps(word, file_of(&d.msg))
                                }))
                                .into_iter()
                                .map(|d| (d.from.to_string(), d.at, d.msg))
                                .collect();
                            let mut want = Vec::new();
                            if let Some(inbox) = oracle.inboxes.get_mut(to) {
                                let keys: Vec<(TimePoint, u64)> = (inbox.range(..=(now, u64::MAX)))
                                    .filter(|(_, (_, msg))| keeps(word, file_of(msg)))
                                    .map(|(&k, _)| k)
                                    .collect();
                                for key in keys {
                                    let (from, msg) = inbox.remove(&key).unwrap();
                                    want.push((from, key.0, msg));
                                }
                            }
                            prop_assert_eq!(got, want);
                        }
                        _ => {
                            let to = ENDPOINTS[(x % 4) as usize];
                            let seqs: Vec<u64> = (oracle.inboxes.get(to).into_iter())
                                .flat_map(|inbox| inbox.keys().map(|&(_, seq)| seq))
                                .collect();
                            let seq = match seqs.len() {
                                0 => oracle.seq + 1 + word % 3,
                                n => seqs[(word % n as u64) as usize],
                            };
                            let key = (oracle.inboxes.get(to).into_iter())
                                .flat_map(|inbox| inbox.keys().copied())
                                .find(|&(_, s)| s == seq);
                            match kind {
                                6 | 7 => {
                                    let got = if kind == 6 {
                                        net.take_message(to, seq)
                                    } else {
                                        net.drop_message(to, seq)
                                    };
                                    let want = key.map(|k| {
                                        let (from, msg) =
                                            oracle.inboxes.get_mut(to).unwrap().remove(&k).unwrap();
                                        (from, k.0, msg)
                                    });
                                    let got = got.map(|d| (d.from.to_string(), d.at, d.msg));
                                    prop_assert_eq!(got, want);
                                }
                                _ => {
                                    let want = key.map(|k| {
                                        let (from, msg) = oracle.inboxes[to][&k].clone();
                                        oracle.enqueue(to, k.0, &from, msg)
                                    });
                                    prop_assert_eq!(net.duplicate_message(to, seq), want);
                                }
                            }
                        }
                    }
                    let pending: Vec<_> = (net.pending_messages().into_iter())
                        .map(|p| (p.endpoint, p.seq, p.from, p.at, p.msg))
                        .collect();
                    prop_assert_eq!(pending, oracle.pending());
                    for to in ENDPOINTS {
                        prop_assert_eq!(net.next_arrival(to), oracle.next_arrival(to));
                    }
                    let any = ENDPOINTS
                        .iter()
                        .filter_map(|to| oracle.next_arrival(to))
                        .min();
                    prop_assert_eq!(net.next_arrival_any(), any);
                    prop_assert_eq!(net.in_flight_digest(), oracle.digest());
                }
                Ok(())
            },
        );
}

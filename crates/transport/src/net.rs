//! Simulated network fabric.
//!
//! Named endpoints exchange [`Message`]s over links with bandwidth,
//! latency and outage windows, all on simulated time. This substitutes
//! for the paper's production WAN (DESIGN.md substitution table):
//! propagation-delay experiments (E3) measure the time from a source's
//! deposit to the subscriber-side notification through this fabric.
//!
//! The model is intentionally simple and deterministic: each message
//! occupies its link for `wire_size / bandwidth` (serialization delay,
//! FIFO per link) plus a fixed propagation latency. A message entering a
//! link during an outage window is queued until the link recovers.
//!
//! ## Fault injection
//!
//! A seeded [`FaultPlan`] turns the fabric hostile: per-link message
//! *drop* probability, *duplication* probability, and programmatic link
//! *flaps* (scheduled outage windows, optionally jittered). Every fault
//! decision is drawn from a [`bistro_base::Rng`] seeded by the plan, so
//! a faulty run replays bit-for-bit from its seed — the foundation of
//! the delivery-reliability tests (DESIGN.md, "Failure model").

use crate::messages::Message;
use bistro_base::sync::Mutex;
use bistro_base::{Rng, TimePoint, TimeSpan};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Link characteristics.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Bytes per second.
    pub bandwidth: u64,
    /// Fixed propagation latency.
    pub latency: TimeSpan,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            bandwidth: 100_000_000, // 100 MB/s
            latency: TimeSpan::from_millis(1),
        }
    }
}

/// Per-link fault probabilities.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultSpec {
    /// Probability a message is silently lost in transit.
    pub drop_prob: f64,
    /// Probability a message is delivered a second time.
    pub dup_prob: f64,
    /// Extra delay on the duplicated copy (after the original arrival).
    pub dup_delay: TimeSpan,
}

impl FaultSpec {
    /// A spec that drops `drop_prob` and duplicates `dup_prob` of
    /// messages, duplicates trailing by one second.
    pub fn lossy(drop_prob: f64, dup_prob: f64) -> FaultSpec {
        FaultSpec {
            drop_prob,
            dup_prob,
            dup_delay: TimeSpan::from_secs(1),
        }
    }
}

/// A programmatic link flap: `count` outages of `down_for` each,
/// starting at `first_down` and separated by `period`. Each window start
/// is jittered by up to `jitter` (drawn from the plan's seeded RNG), so
/// flap schedules vary across seeds but replay exactly for a given one.
#[derive(Clone, Debug)]
pub struct LinkFlap {
    /// Sender endpoint of the flapping directed link.
    pub from: String,
    /// Receiver endpoint of the flapping directed link.
    pub to: String,
    /// Start of the first outage window (before jitter).
    pub first_down: TimePoint,
    /// Spacing between consecutive window starts.
    pub period: TimeSpan,
    /// Length of each outage window.
    pub down_for: TimeSpan,
    /// Number of outage windows.
    pub count: usize,
    /// Maximum random forward shift applied per window.
    pub jitter: TimeSpan,
}

/// A seeded description of everything that can go wrong on the fabric.
///
/// Installed with [`SimNetwork::install_fault_plan`]; all fault
/// decisions (drops, duplicates, flap jitter) are drawn from a single
/// [`Rng`] seeded by `seed`, so identical send sequences produce
/// identical fault sequences.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Faults applied to links without a per-link override.
    pub default_faults: FaultSpec,
    /// Per-directed-link overrides `(from, to, spec)`.
    pub link_faults: Vec<(String, String, FaultSpec)>,
    /// Scheduled link flaps, installed as outage windows.
    pub flaps: Vec<LinkFlap>,
}

impl FaultPlan {
    /// A plan with uniform faults on every link and no flaps.
    pub fn uniform(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            seed,
            default_faults: spec,
            link_faults: Vec::new(),
            flaps: Vec::new(),
        }
    }
}

/// The installed plan's RNG and default; per-link overrides sit on the
/// links themselves.
struct FaultState {
    rng: Rng,
    default_faults: FaultSpec,
}

/// A delivered message waiting in an endpoint's inbox.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// When the message fully arrived.
    pub at: TimePoint,
    /// Sender endpoint: the fabric's own handle for the name, shared by
    /// every message that endpoint ever sent.
    pub from: Arc<str>,
    /// The message.
    pub msg: Message,
}

/// An in-flight message addressed for controlled stepping: the
/// `(endpoint, seq)` pair uniquely names it to
/// [`SimNetwork::take_message`] / [`SimNetwork::drop_message`] /
/// [`SimNetwork::duplicate_message`].
#[derive(Clone, Debug)]
pub struct PendingMessage {
    /// Destination endpoint.
    pub endpoint: String,
    /// Fabric-wide sequence number (unique per copy).
    pub seq: u64,
    /// Sender endpoint.
    pub from: String,
    /// Scheduled arrival time under time-driven delivery.
    pub at: TimePoint,
    /// The message.
    pub msg: Message,
}

/// Everything the fabric knows about one directed link, created at its
/// first mention: one lookup per send reaches the spec, the FIFO state,
/// the outage windows and the fault override together.
#[derive(Default)]
struct Link {
    /// Set by [`SimNetwork::set_link`]; the fabric default otherwise.
    spec: Option<LinkSpec>,
    /// The time at which the link becomes free (serialization is FIFO).
    busy_until: TimePoint,
    /// Outage windows `[down, up)`, sorted by start.
    outages: Vec<(TimePoint, TimePoint)>,
    /// The installed fault plan's override for this link.
    faults: Option<FaultSpec>,
}

/// An endpoint's inbox, ordered by arrival time then fabric sequence.
type Inbox = BTreeMap<(TimePoint, u64), Delivery>;

struct Inner {
    /// Endpoint name → dense id. A name is interned at its first
    /// mention, so a send names its two ends by id and stamps the
    /// sender on the message as a shared handle — no per-message copy
    /// of either name.
    ids: HashMap<Arc<str>, u32>,
    /// Per-endpoint name and inbox, indexed by id.
    endpoints: Vec<(Arc<str>, Inbox)>,
    links: HashMap<(u32, u32), Link>,
    default_link: LinkSpec,
    faults: Option<FaultState>,
    seq: u64,
    /// Total bytes that crossed the fabric.
    bytes_sent: u64,
    /// Messages sent.
    messages_sent: u64,
    /// Messages lost to fault injection.
    messages_dropped: u64,
    /// Extra copies created by fault injection.
    messages_duplicated: u64,
}

impl Inner {
    fn endpoint(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.endpoints.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.ids.insert(name.clone(), id);
        self.endpoints.push((name, Inbox::new()));
        id
    }

    fn link(&mut self, from: &str, to: &str) -> &mut Link {
        let key = (self.endpoint(from), self.endpoint(to));
        self.links.entry(key).or_default()
    }

    /// The inbox of an endpoint that has been named before; asking
    /// about a stranger interns nothing.
    fn inbox(&mut self, endpoint: &str) -> Option<&mut Inbox> {
        let id = *self.ids.get(endpoint)?;
        Some(&mut self.endpoints[id as usize].1)
    }

    fn enqueue(&mut self, to: u32, at: TimePoint, from: &Arc<str>, msg: Message) {
        self.seq += 1;
        let delivery = Delivery {
            at,
            from: from.clone(),
            msg,
        };
        self.endpoints[to as usize]
            .1
            .insert((at, self.seq), delivery);
    }
}

/// The simulated network.
pub struct SimNetwork {
    inner: Mutex<Inner>,
}

impl SimNetwork {
    /// An empty fabric where every pair is connected by `default_link`.
    pub fn new(default_link: LinkSpec) -> SimNetwork {
        SimNetwork {
            inner: Mutex::new(Inner {
                ids: HashMap::new(),
                endpoints: Vec::new(),
                links: HashMap::new(),
                default_link,
                faults: None,
                seq: 0,
                bytes_sent: 0,
                messages_sent: 0,
                messages_dropped: 0,
                messages_duplicated: 0,
            }),
        }
    }

    /// Install a seeded fault plan: drops and duplicates apply to every
    /// subsequent [`SimNetwork::send`], and the plan's flaps are
    /// registered as outage windows (with seeded jitter) immediately.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let mut rng = Rng::seed_from_u64(plan.seed);
        let mut inner = self.inner.lock();
        for flap in &plan.flaps {
            for i in 0..flap.count {
                let shift = if flap.jitter > TimeSpan::ZERO {
                    TimeSpan::from_micros(rng.gen_range(0..=flap.jitter.as_micros()))
                } else {
                    TimeSpan::ZERO
                };
                let down = flap.first_down + flap.period.saturating_mul(i as u64) + shift;
                let windows = &mut inner.link(&flap.from, &flap.to).outages;
                windows.push((down, down + flap.down_for));
                windows.sort_unstable();
            }
        }
        // a new plan replaces the previous one's overrides wholesale
        for link in inner.links.values_mut() {
            link.faults = None;
        }
        for (from, to, spec) in &plan.link_faults {
            inner.link(from, to).faults = Some(*spec);
        }
        inner.faults = Some(FaultState {
            rng,
            default_faults: plan.default_faults,
        });
    }

    /// Configure a specific directed link.
    pub fn set_link(&self, from: &str, to: &str, spec: LinkSpec) {
        self.inner.lock().link(from, to).spec = Some(spec);
    }

    /// Add an outage window `[down, up)` on a directed link. Windows are
    /// kept sorted by start so the send path can bump past adjacent or
    /// overlapping windows in one forward pass.
    pub fn add_outage(&self, from: &str, to: &str, down: TimePoint, up: TimePoint) {
        let mut inner = self.inner.lock();
        let windows = &mut inner.link(from, to).outages;
        windows.push((down, up));
        windows.sort_unstable();
    }

    /// Send a message at simulated time `now`; returns the arrival time
    /// the sender would observe. Under an installed [`FaultPlan`] the
    /// message may additionally be dropped (never delivered — the
    /// returned arrival is when it *would* have arrived) or duplicated.
    pub fn send(&self, now: TimePoint, from: &str, to: &str, msg: Message) -> TimePoint {
        let mut inner = self.inner.lock();
        let inner = &mut *inner; // split field borrows through the guard
        let (from_id, to_id) = (inner.endpoint(from), inner.endpoint(to));
        let link = inner.links.entry((from_id, to_id)).or_default();
        let spec = link.spec.unwrap_or(inner.default_link);

        // FIFO merge first: serialization cannot begin before the link is
        // free. Then bump past every outage window covering that instant,
        // to a fixpoint — a bump past one window can land inside another
        // (adjacent, overlapping, or merely listed out of order).
        let mut begin = now.max(link.busy_until);
        while let Some(&(_, up)) = link
            .outages
            .iter()
            .find(|&&(down, up)| begin >= down && begin < up)
        {
            begin = up;
        }
        let size = msg.wire_size();
        // Round the serialization delay *up* to at least 1 µs: integer
        // division would truncate to zero for any message smaller than
        // bandwidth/1e6 bytes, letting small messages occupy the link for
        // no time at all and never contend with each other.
        let ser = TimeSpan::from_micros(
            size.saturating_mul(1_000_000)
                .div_ceil(spec.bandwidth.max(1))
                .max(1),
        );
        let done_sending = begin + ser;
        link.busy_until = done_sending;
        let arrival = done_sending + spec.latency;

        inner.bytes_sent += size;
        inner.messages_sent += 1;

        // fault injection: drop or duplicate, decided by the seeded plan
        let (mut dropped, mut dup_at) = (false, None);
        if let Some(faults) = &mut inner.faults {
            let fspec = link.faults.unwrap_or(faults.default_faults);
            if fspec.drop_prob > 0.0 && faults.rng.gen_bool(fspec.drop_prob) {
                dropped = true;
                inner.messages_dropped += 1;
            } else if fspec.dup_prob > 0.0 && faults.rng.gen_bool(fspec.dup_prob) {
                dup_at = Some(arrival + fspec.dup_delay);
                inner.messages_duplicated += 1;
            }
        }
        // the message moves into the inbox; only a duplicate is a copy
        let sender = inner.endpoints[from_id as usize].0.clone();
        let copy = dup_at.map(|at| (at, msg.clone()));
        if !dropped {
            inner.enqueue(to_id, arrival, &sender, msg);
        }
        if let Some((at, msg)) = copy {
            inner.enqueue(to_id, at, &sender, msg);
        }
        arrival
    }

    /// Drain all messages that have arrived at `endpoint` by `now`.
    pub fn recv_ready(&self, endpoint: &str, now: TimePoint) -> Vec<Delivery> {
        self.recv_where(endpoint, now, |_| true)
    }

    /// Drain only the messages arrived at `endpoint` by `now` that match
    /// `pred`; everything else stays queued. Lets a protocol client pick
    /// its own responses out of the inbox without discarding unrelated
    /// traffic that arrived in the same window.
    pub fn recv_where(
        &self,
        endpoint: &str,
        now: TimePoint,
        mut pred: impl FnMut(&Delivery) -> bool,
    ) -> Vec<Delivery> {
        let mut inner = self.inner.lock();
        let Some(inbox) = inner.inbox(endpoint) else {
            return Vec::new();
        };
        inbox
            .extract_if(..=(now, u64::MAX), |_, d| pred(d))
            .map(|(_, d)| d)
            .collect()
    }

    /// Every message still in flight, across all endpoints, sorted by
    /// `(endpoint, seq)` — the controlled-stepping view used by the
    /// model checker (`bistro-mc`). Where [`SimNetwork::recv_ready`]
    /// drains whatever the clock says has arrived, this exposes each
    /// pending message as an addressable event so a scheduler can
    /// deliver, drop, or duplicate them in any order it chooses.
    pub fn pending_messages(&self) -> Vec<PendingMessage> {
        let inner = self.inner.lock();
        let mut out: Vec<PendingMessage> = inner
            .endpoints
            .iter()
            .flat_map(|(endpoint, inbox)| {
                inbox.iter().map(move |(&(at, seq), d)| PendingMessage {
                    endpoint: endpoint.to_string(),
                    seq,
                    from: d.from.to_string(),
                    at,
                    msg: d.msg.clone(),
                })
            })
            .collect();
        out.sort_by(|a, b| (&a.endpoint, a.seq).cmp(&(&b.endpoint, b.seq)));
        out
    }

    /// Remove and return the in-flight message addressed by
    /// `(endpoint, seq)` regardless of its scheduled arrival time. The
    /// model checker's "deliver this message now" step.
    pub fn take_message(&self, endpoint: &str, seq: u64) -> Option<Delivery> {
        let mut inner = self.inner.lock();
        let inbox = inner.inbox(endpoint)?;
        let key = inbox.keys().find(|&&(_, s)| s == seq).copied()?;
        inbox.remove(&key)
    }

    /// Silently discard the in-flight message addressed by
    /// `(endpoint, seq)`, counting it as dropped. The model checker's
    /// "lose this message" step.
    pub fn drop_message(&self, endpoint: &str, seq: u64) -> Option<Delivery> {
        let dropped = self.take_message(endpoint, seq);
        if dropped.is_some() {
            self.inner.lock().messages_dropped += 1;
        }
        dropped
    }

    /// Enqueue a second copy of the in-flight message addressed by
    /// `(endpoint, seq)`, counting it as duplicated; returns the copy's
    /// fabric sequence. The model checker's "duplicate this message"
    /// step.
    pub fn duplicate_message(&self, endpoint: &str, seq: u64) -> Option<u64> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let to = *inner.ids.get(endpoint)?;
        let copy = inner.endpoints[to as usize]
            .1
            .iter()
            .find(|(&(_, s), _)| s == seq)
            .map(|(_, d)| d.clone())?;
        inner.enqueue(to, copy.at, &copy.from, copy.msg);
        inner.messages_duplicated += 1;
        Some(inner.seq)
    }

    /// Order-independent digest of the in-flight message multiset:
    /// each pending message hashes as (endpoint, sender, wire bytes) —
    /// deliberately excluding arrival times and fabric sequences, which
    /// vary across action orders that reach the same protocol state —
    /// and the per-message hashes are combined order-independently.
    /// One ingredient of a model-checker state hash.
    pub fn in_flight_digest(&self) -> u64 {
        use bistro_base::fnv1a64;
        let inner = self.inner.lock();
        let mut hashes: Vec<u64> = inner
            .endpoints
            .iter()
            .flat_map(|(endpoint, inbox)| {
                inbox.values().map(move |d| {
                    let mut bytes = Vec::with_capacity(64);
                    bytes.extend_from_slice(endpoint.as_bytes());
                    bytes.push(0);
                    bytes.extend_from_slice(d.from.as_bytes());
                    bytes.push(0);
                    bytes.extend_from_slice(&d.msg.encode());
                    fnv1a64(&bytes)
                })
            })
            .collect();
        hashes.sort_unstable();
        let mut acc = Vec::with_capacity(hashes.len() * 8);
        for h in hashes {
            acc.extend_from_slice(&h.to_le_bytes());
        }
        fnv1a64(&acc)
    }

    /// The earliest pending arrival time for `endpoint`, if any — lets a
    /// driver advance the clock to the next interesting instant.
    pub fn next_arrival(&self, endpoint: &str) -> Option<TimePoint> {
        let mut inner = self.inner.lock();
        inner.inbox(endpoint)?.keys().next().map(|(t, _)| *t)
    }

    /// Earliest pending arrival across all endpoints.
    pub fn next_arrival_any(&self) -> Option<TimePoint> {
        let inner = self.inner.lock();
        inner
            .endpoints
            .iter()
            .filter_map(|(_, b)| b.keys().next().map(|(t, _)| *t))
            .min()
    }

    /// Total bytes sent through the fabric.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.lock().bytes_sent
    }

    /// Total messages sent through the fabric.
    pub fn messages_sent(&self) -> u64 {
        self.inner.lock().messages_sent
    }

    /// Messages lost to the installed fault plan.
    pub fn messages_dropped(&self) -> u64 {
        self.inner.lock().messages_dropped
    }

    /// Extra copies created by the installed fault plan.
    pub fn messages_duplicated(&self) -> u64 {
        self.inner.lock().messages_duplicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::SubscriberMsg;
    use bistro_base::FileId;

    /// A header-only frame: `size` is a header field, so the wire cost
    /// stays a few bytes whatever it says.
    fn msg(size: u64) -> Message {
        Message::Subscriber(SubscriberMsg::FileAvailable {
            file: FileId(1),
            feed: "F".to_string(),
            staged_path: "x".to_string(),
            size,
        })
    }

    fn t(s: u64) -> TimePoint {
        TimePoint::from_secs(s)
    }

    #[test]
    fn latency_and_serialization() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000, // 1 MB/s
            latency: TimeSpan::from_millis(100),
        });
        // a notification's wire size is header-only (~small)
        let arrival = net.send(t(0), "a", "b", msg(0));
        assert!(arrival >= TimePoint::from_millis(100));
        assert!(arrival < TimePoint::from_millis(200));
    }

    #[test]
    fn fifo_serialization_queues() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 10, // absurdly slow: 10 B/s
            latency: TimeSpan::ZERO,
        });
        let a1 = net.send(t(0), "a", "b", msg(0));
        let a2 = net.send(t(0), "a", "b", msg(0));
        assert!(a2 > a1, "second message waits for the first");
    }

    #[test]
    fn small_sends_still_occupy_the_link() {
        // Regression: serialization time truncated to 0 µs for messages
        // smaller than bandwidth/1e6 bytes, so back-to-back small sends
        // shared one busy_until and contention was never modeled. The
        // delay now rounds up to ≥1 µs, so the second send's arrival
        // (busy_until + fixed latency) is strictly later.
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 100_000_000, // 100 MB/s: header-only msgs are < 100 B
            latency: TimeSpan::from_millis(1),
        });
        let a1 = net.send(t(0), "a", "b", msg(0));
        let a2 = net.send(t(0), "a", "b", msg(0));
        assert!(
            a2 > a1,
            "back-to-back small sends must get distinct busy_until: {a1:?} vs {a2:?}"
        );
        assert!(a2 >= a1 + TimeSpan::from_micros(1));
    }

    #[test]
    fn recv_ready_respects_time() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000_000,
            latency: TimeSpan::from_secs(5),
        });
        net.send(t(0), "a", "b", msg(0));
        assert!(net.recv_ready("b", t(1)).is_empty());
        let got = net.recv_ready("b", t(6));
        assert_eq!(got.len(), 1);
        assert_eq!(&*got[0].from, "a");
        // drained: second call is empty
        assert!(net.recv_ready("b", t(10)).is_empty());
    }

    #[test]
    fn outage_delays_delivery() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000_000,
            latency: TimeSpan::from_millis(1),
        });
        net.add_outage("a", "b", t(0), t(60));
        let arrival = net.send(t(10), "a", "b", msg(0));
        assert!(arrival >= t(60));
        // other direction unaffected
        let arrival = net.send(t(10), "b", "a", msg(0));
        assert!(arrival < t(11));
    }

    #[test]
    fn per_link_overrides() {
        let net = SimNetwork::new(LinkSpec::default());
        net.set_link(
            "a",
            "slow",
            LinkSpec {
                bandwidth: 1,
                latency: TimeSpan::from_secs(30),
            },
        );
        let fast = net.send(t(0), "a", "fast", msg(0));
        let slow = net.send(t(0), "a", "slow", msg(0));
        assert!(slow > fast + TimeSpan::from_secs(10));
    }

    #[test]
    fn adjacent_outages_registered_out_of_order() {
        // Regression: windows were scanned in insertion order with at
        // most one bump each, so bumping past the second-listed window
        // could land inside the first-listed (adjacent) one and deliver
        // during an outage.
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000_000,
            latency: TimeSpan::ZERO,
        });
        net.add_outage("a", "b", t(60), t(120)); // registered first
        net.add_outage("a", "b", t(0), t(60)); // adjacent, earlier
        let arrival = net.send(t(10), "a", "b", msg(0));
        assert!(
            arrival >= t(120),
            "send at t=10 must wait out both adjacent windows, got {arrival:?}"
        );
        // overlapping windows likewise resolve to the latest recovery
        net.add_outage("a", "b", t(200), t(400));
        net.add_outage("a", "b", t(150), t(250));
        let arrival = net.send(t(160), "a", "b", msg(0));
        assert!(arrival >= t(400), "{arrival:?}");
    }

    #[test]
    fn fifo_merge_cannot_land_in_outage() {
        // Regression: `begin = start.max(busy_until)` could push the
        // send *back into* an outage after the outage check had passed.
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 10, // 10 B/s: a 500-byte message occupies 50 s
            latency: TimeSpan::ZERO,
        });
        net.add_outage("a", "b", t(40), t(100));
        // a push delivery's wire size includes its payload (500 bytes)
        let first = net.send(
            t(0),
            "a",
            "b",
            Message::Subscriber(crate::messages::SubscriberMsg::FileDelivered {
                file: bistro_base::FileId(1),
                feed: "F".to_string(),
                dest_path: "d".to_string(),
                size: 500,
            }),
        );
        assert!(first >= t(50));
        // the second send starts clear of any outage but the FIFO merge
        // lands it at busy_until = 50s, inside [40, 100)
        let second = net.send(t(0), "a", "b", msg(0));
        assert!(
            second >= t(100),
            "FIFO-merged send must wait out the outage, got {second:?}"
        );
    }

    #[test]
    fn fault_plan_drops_are_seeded_and_counted() {
        let run = |seed: u64| {
            let net = SimNetwork::new(LinkSpec::default());
            net.install_fault_plan(FaultPlan::uniform(seed, FaultSpec::lossy(0.5, 0.0)));
            for _ in 0..100 {
                net.send(t(0), "a", "b", msg(0));
            }
            let delivered = net.recv_ready("b", t(100)).len() as u64;
            (delivered, net.messages_dropped())
        };
        let (delivered, dropped) = run(7);
        assert_eq!(delivered + dropped, 100);
        assert!(dropped > 20 && dropped < 80, "dropped {dropped}");
        // same seed, same faults — bit-for-bit replay
        assert_eq!(run(7), (delivered, dropped));
        // a different seed gives a different fault sequence
        assert_ne!(run(8), (delivered, dropped));
    }

    #[test]
    fn fault_plan_duplicates_messages() {
        let net = SimNetwork::new(LinkSpec::default());
        net.install_fault_plan(FaultPlan::uniform(
            3,
            FaultSpec {
                drop_prob: 0.0,
                dup_prob: 1.0,
                dup_delay: TimeSpan::from_secs(5),
            },
        ));
        let arrival = net.send(t(0), "a", "b", msg(0));
        assert_eq!(net.messages_duplicated(), 1);
        // the original arrives on time, the copy 5 s later
        assert_eq!(net.recv_ready("b", arrival).len(), 1);
        assert_eq!(
            net.recv_ready("b", arrival + TimeSpan::from_secs(5)).len(),
            1
        );
    }

    #[test]
    fn fault_plan_per_link_overrides() {
        let net = SimNetwork::new(LinkSpec::default());
        let mut plan = FaultPlan::uniform(1, FaultSpec::default());
        plan.link_faults.push((
            "a".to_string(),
            "lossy".to_string(),
            FaultSpec::lossy(1.0, 0.0),
        ));
        net.install_fault_plan(plan);
        net.send(t(0), "a", "lossy", msg(0));
        net.send(t(0), "a", "clean", msg(0));
        assert!(net.recv_ready("lossy", t(10)).is_empty());
        assert_eq!(net.recv_ready("clean", t(10)).len(), 1);
    }

    #[test]
    fn fault_plan_flaps_become_outages() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000_000,
            latency: TimeSpan::ZERO,
        });
        let mut plan = FaultPlan::uniform(9, FaultSpec::default());
        plan.flaps.push(LinkFlap {
            from: "a".to_string(),
            to: "b".to_string(),
            first_down: t(100),
            period: TimeSpan::from_secs(100),
            down_for: TimeSpan::from_secs(20),
            count: 3,
            jitter: TimeSpan::ZERO,
        });
        net.install_fault_plan(plan);
        // before the first flap: unaffected
        assert!(net.send(t(50), "a", "b", msg(0)) < t(60));
        // inside the second flap window [200, 220): held until recovery
        assert!(net.send(t(205), "a", "b", msg(0)) >= t(220));
    }

    #[test]
    fn recv_where_leaves_unmatched_queued() {
        let net = SimNetwork::new(LinkSpec::default());
        net.send(t(0), "a", "b", msg(10));
        net.send(t(0), "c", "b", msg(20));
        let picked = net.recv_where("b", t(10), |d| &*d.from == "a");
        assert_eq!(picked.len(), 1);
        assert_eq!(&*picked[0].from, "a");
        // the other message is still there
        let rest = net.recv_ready("b", t(10));
        assert_eq!(rest.len(), 1);
        assert_eq!(&*rest[0].from, "c");
    }

    #[test]
    fn pending_messages_are_addressable() {
        let net = SimNetwork::new(LinkSpec::default());
        net.send(t(0), "a", "b", msg(1));
        net.send(t(0), "a", "c", msg(2));
        net.send(t(0), "c", "b", msg(3));

        let pending = net.pending_messages();
        assert_eq!(pending.len(), 3);
        // sorted by (endpoint, seq)
        let order: Vec<_> = pending
            .iter()
            .map(|p| (p.endpoint.clone(), p.seq))
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);

        // take one out of order (regardless of arrival time)
        let to_b: Vec<_> = pending.iter().filter(|p| p.endpoint == "b").collect();
        assert_eq!(to_b.len(), 2);
        let later = to_b[1];
        let got = net.take_message("b", later.seq).unwrap();
        assert_eq!(&*got.from, later.from);
        assert_eq!(net.pending_messages().len(), 2);
        // a second take of the same seq is None
        assert!(net.take_message("b", later.seq).is_none());
        assert!(net.take_message("nobody", 1).is_none());
    }

    #[test]
    fn drop_and_duplicate_pending() {
        let net = SimNetwork::new(LinkSpec::default());
        net.send(t(0), "a", "b", msg(1));
        let seq = net.pending_messages()[0].seq;

        let copy_seq = net.duplicate_message("b", seq).unwrap();
        assert_ne!(copy_seq, seq);
        assert_eq!(net.messages_duplicated(), 1);
        assert_eq!(net.pending_messages().len(), 2);

        assert!(net.drop_message("b", seq).is_some());
        assert_eq!(net.messages_dropped(), 1);
        // the copy survives the original's drop
        let left = net.pending_messages();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].seq, copy_seq);
        // duplicating a gone message is None
        assert!(net.duplicate_message("b", seq).is_none());
    }

    #[test]
    fn in_flight_digest_ignores_schedule_but_sees_content() {
        // Two different send orders reaching the same in-flight multiset
        // must hash identically even though seqs/arrival times differ.
        let run = |flip: bool| {
            let net = SimNetwork::new(LinkSpec::default());
            if flip {
                net.send(t(1), "a", "c", msg(2));
                net.send(t(2), "a", "b", msg(1));
            } else {
                net.send(t(0), "a", "b", msg(1));
                net.send(t(0), "a", "c", msg(2));
            }
            net.in_flight_digest()
        };
        assert_eq!(run(false), run(true));

        // content differences do change the digest
        let net = SimNetwork::new(LinkSpec::default());
        net.send(t(0), "a", "b", msg(1));
        net.send(t(0), "a", "c", msg(99));
        assert_ne!(net.in_flight_digest(), run(false));

        // and an empty fabric differs from a loaded one
        let empty = SimNetwork::new(LinkSpec::default());
        assert_ne!(empty.in_flight_digest(), run(false));
    }

    #[test]
    fn next_arrival_ordering() {
        let net = SimNetwork::new(LinkSpec {
            bandwidth: 1_000_000_000,
            latency: TimeSpan::from_secs(3),
        });
        net.send(t(0), "a", "b", msg(0));
        net.send(t(0), "a", "c", msg(0));
        assert!(net.next_arrival("b").is_some());
        assert_eq!(net.next_arrival_any(), net.next_arrival("b"));
        assert_eq!(net.next_arrival("nobody"), None);
        assert_eq!(net.messages_sent(), 2);
    }
}

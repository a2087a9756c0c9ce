//! Server-side acknowledgement/retry bookkeeping for reliable delivery.
//!
//! The paper's §4.2 requires that "every file received from a data
//! source that matches definition of a particular feed will be delivered
//! to all the feed's subscribers" — over a network that may drop,
//! duplicate, or delay messages ([`crate::net::FaultPlan`]). The
//! [`RetryTracker`] holds every unacked send and schedules
//! retransmissions under a [`RetryPolicy`]: per-send timeout with
//! exponential backoff and seeded jitter (so two servers retrying into
//! the same congested link desynchronize, yet a run still replays
//! bit-for-bit from its seed).
//!
//! The tracker is pure bookkeeping: it never touches the network or the
//! receipt store. The server sends [`ReliableMsg::Attempt`] envelopes,
//! feeds acks back in, polls [`RetryTracker::due`] on its clock ticks,
//! and writes the delivery receipt only once the ack arrives.
//!
//! There is one table type, generic over what an entry carries and what
//! it is keyed by. An entry has one attempt count and one jittered
//! deadline however many subscribers it serves. The server runs two
//! instances of it, both shaped "one entry per file send":
//!
//! * direct sends, `RetryTracker<CohortSend<_>, Cohort>`: one entry per
//!   (file, send cohort) — a deposit's whole fan-out, or one backfill
//!   send — holding a shared handle to the file's delivery plan (a resend
//!   re-renders its messages from it) and the bitmap of subscriber ids
//!   still owed an ack ([`RetryTracker::ack_member`] clears one bit);
//! * delivery trees, `RetryTracker<GroupSend>`: one entry per
//!   `(group, file)` send to a relay, cleared by the relay's one
//!   completion ack ([`RetryTracker::on_ack`]) once it has served every
//!   member that wants the file.
//!
//! The counters count (target, file) sends either way: a cohort stands
//! for one send per subscriber it still owes ([`Payload::sends`]). The
//! default key, a `(name, file)` [`Target`], takes the by-name calls
//! ([`RetryTracker::track`], [`RetryTracker::on_ack`]).
//!
//! [`ReliableMsg::Attempt`]: crate::messages::ReliableMsg::Attempt

use crate::messages::SubscriberMsg;
use bistro_base::{Bitmap, FileId, Rng, TimePoint, TimeSpan};
use bistro_telemetry::{Counter, Gauge, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Retransmission policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Timeout before the first retransmission.
    pub base_timeout: TimeSpan,
    /// Multiplier applied to the timeout after every failed attempt.
    pub backoff: u32,
    /// Ceiling on the per-attempt timeout.
    pub max_timeout: TimeSpan,
    /// Give up (and alarm) after this many attempts.
    pub max_attempts: u32,
    /// Fraction of the timeout randomized (`0.2` = ±20 %), drawn from
    /// the tracker's seeded RNG.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: TimeSpan::from_secs(30),
            backoff: 2,
            max_timeout: TimeSpan::from_mins(10),
            max_attempts: 6,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// The nominal (pre-jitter) timeout for `attempt` (1-based):
    /// `base_timeout * backoff^(attempt-1)`, capped at `max_timeout`.
    pub fn timeout_for(&self, attempt: u32) -> TimeSpan {
        let factor = (self.backoff.max(1) as u64).saturating_pow(attempt.saturating_sub(1));
        self.base_timeout
            .saturating_mul(factor)
            .min(self.max_timeout)
    }
}

/// What a tracker entry carries: whatever the caller needs to send
/// again.
pub trait Payload: Clone {
    /// How many (target, file) sends the entry stands for — what the
    /// counters and [`RetryTracker::outstanding_count`] count.
    fn sends(&self) -> u32 {
        1
    }
}

impl Payload for SubscriberMsg {}

/// The default key: a target's name (stored once per entry) and a file.
pub type Target = (Arc<str>, FileId);

/// A direct send's key: the file and its send cohort, a number the
/// caller hands out so that each send of a file — its deposit fan-out,
/// each backfill send — is an entry of its own.
pub type Cohort = (FileId, u64);

/// One unacked send.
#[derive(Clone, Debug)]
struct Entry<P> {
    attempt: u32,
    deadline: TimePoint,
    first_sent: TimePoint,
    payload: P,
}

/// A retransmission scheduled by [`RetryTracker::due`].
#[derive(Clone, Debug)]
pub struct Resend<P = SubscriberMsg, K = Target> {
    /// Which send: a `(target, file)` pair, or a file's send cohort.
    pub key: K,
    /// The new (bumped) attempt number to stamp on the envelope.
    pub attempt: u32,
    /// What the send carries — the caller wraps it in the wire envelope.
    pub payload: P,
}

/// The outcome of one [`RetryTracker::due`] sweep.
#[derive(Clone, Debug)]
pub struct RetryRound<P = SubscriberMsg, K = Target> {
    /// Sends whose timeout lapsed, in key order: retransmit these.
    pub resend: Vec<Resend<P, K>>,
    /// Sends that exhausted [`RetryPolicy::max_attempts`], in key order,
    /// with what they carried; they are no longer tracked — the caller
    /// should alarm and fall back to failure-detection + backfill.
    pub exhausted: Vec<(K, P)>,
}

/// The tracker's telemetry handles. Counters are the *only* tallies —
/// there is no private shadow copy; callers that need the totals read
/// them through [`RetryTracker::totals`].
struct TrackerMetrics {
    attempts: Arc<Counter>,
    acks: Arc<Counter>,
    resends: Arc<Counter>,
    exhausted: Arc<Counter>,
    outstanding: Arc<Gauge>,
}

impl TrackerMetrics {
    fn detached() -> TrackerMetrics {
        TrackerMetrics {
            attempts: Arc::new(Counter::detached()),
            acks: Arc::new(Counter::detached()),
            resends: Arc::new(Counter::detached()),
            exhausted: Arc::new(Counter::detached()),
            outstanding: Arc::new(Gauge::detached()),
        }
    }

    fn registered(reg: &Registry, prefix: &str) -> TrackerMetrics {
        TrackerMetrics {
            attempts: reg.counter(&format!("{prefix}.attempts")),
            acks: reg.counter(&format!("{prefix}.acks")),
            resends: reg.counter(&format!("{prefix}.resends")),
            exhausted: reg.counter(&format!("{prefix}.exhausted")),
            outstanding: reg.gauge(&format!("{prefix}.outstanding")),
        }
    }
}

/// The unacked-send table: one entry per key, iterated in key order —
/// retry rounds (and so the jitter draw order and the resend order on
/// the wire) and state digests inherit it — and generic over what each
/// entry carries: a [`SubscriberMsg`], a [`GroupSend`] (the file's
/// identity) for a delivery tree, or a [`CohortSend`] (a plan to
/// re-render from and the subscribers still owed).
pub struct RetryTracker<P = SubscriberMsg, K = Target> {
    policy: RetryPolicy,
    rng: Rng,
    /// Entries are boxed to keep the tree's nodes small: a leaf of eleven
    /// inline `GroupSend` entries is over 1 kB, and a table that fills
    /// and drains every file splits and frees such leaves all the time —
    /// glibc consolidates its fast bins before serving any request of
    /// 1 kB or more, which after a snapshot's frees took milliseconds.
    outstanding: BTreeMap<K, Box<Entry<P>>>,
    /// Sends across all entries ([`Payload::sends`]).
    sends: usize,
    metrics: TrackerMetrics,
}

impl<P: Payload, K: Ord + Clone> RetryTracker<P, K> {
    /// A tracker under `policy`; `seed` drives the backoff jitter.
    /// Counters record into detached handles; use
    /// [`RetryTracker::with_telemetry`] to surface them in a registry.
    pub fn new(policy: RetryPolicy, seed: u64) -> RetryTracker<P, K> {
        RetryTracker {
            policy,
            rng: Rng::seed_from_u64(seed),
            outstanding: BTreeMap::new(),
            sends: 0,
            metrics: TrackerMetrics::detached(),
        }
    }

    /// A tracker whose `{prefix}.*` counters and outstanding gauge live
    /// in `reg` (`"reliable"` for direct sends, `"group"` for delivery
    /// trees). Telemetry draws nothing from the jitter RNG, so a
    /// registered tracker replays identically to a detached one.
    pub fn with_telemetry(
        policy: RetryPolicy,
        seed: u64,
        reg: &Registry,
        prefix: &str,
    ) -> RetryTracker<P, K> {
        RetryTracker {
            metrics: TrackerMetrics::registered(reg, prefix),
            ..RetryTracker::new(policy, seed)
        }
    }

    /// `(acks, resends, exhausted)` totals since construction — the
    /// reliability tallies formerly duplicated by the server.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.metrics.acks.get(),
            self.metrics.resends.get(),
            self.metrics.exhausted.get(),
        )
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn jittered(policy: &RetryPolicy, rng: &mut Rng, nominal: TimeSpan) -> TimeSpan {
        if policy.jitter <= 0.0 {
            return nominal;
        }
        // uniform in [1-jitter, 1+jitter], re-clamped at max_timeout:
        // `timeout_for` caps the *nominal* timeout, so without the final
        // min() an upward jitter draw could schedule a deadline as far as
        // (1+jitter)·max_timeout out, past the policy's stated ceiling.
        let f = 1.0 + policy.jitter * (2.0 * rng.next_f64() - 1.0);
        TimeSpan::from_micros((nominal.as_micros() as f64 * f) as u64).min(policy.max_timeout)
    }

    /// Record the table size after it changed.
    fn resized(&self) {
        self.metrics.outstanding.set(self.sends as i64);
    }

    /// Register attempt 1 of a send made at `now` under `key`; returns
    /// the attempt number to stamp on the envelope. If `key` is already
    /// outstanding, the existing attempt is kept.
    pub fn track_key(&mut self, key: K, payload: P, now: TimePoint) -> u32 {
        match self.outstanding.get(&key) {
            Some(o) => o.attempt,
            None => self.insert(key, payload, now),
        }
    }

    fn insert(&mut self, key: K, payload: P, now: TimePoint) -> u32 {
        let sends = payload.sends();
        let deadline =
            now + Self::jittered(&self.policy, &mut self.rng, self.policy.timeout_for(1));
        let entry = Entry {
            attempt: 1,
            deadline,
            first_sent: now,
            payload,
        };
        self.outstanding.insert(key, Box::new(entry));
        self.sends += sends as usize;
        self.metrics.attempts.add(u64::from(sends));
        self.resized();
        1
    }

    /// Drop the entry under `key`, handing back what it carried.
    fn remove(&mut self, key: &K) -> Option<P> {
        let o = self.outstanding.remove(key)?;
        self.sends -= o.payload.sends() as usize;
        self.resized();
        Some(o.payload)
    }

    /// Number of unacked sends ([`Payload::sends`] summed over entries).
    pub fn outstanding_count(&self) -> usize {
        self.sends
    }

    /// Sweep the table at `now`: every entry past its deadline is either
    /// scheduled for retransmission (attempt bumped once, backoff applied,
    /// one jitter draw) or, if `max_attempts` is spent, reported as
    /// exhausted and dropped.
    pub fn due(&mut self, now: TimePoint) -> RetryRound<P, K> {
        let mut round = RetryRound {
            resend: Vec::new(),
            exhausted: Vec::new(),
        };
        let lapsed: Vec<K> = (self.outstanding.iter())
            .filter(|(_, o)| o.deadline <= now)
            .map(|(key, _)| key.clone())
            .collect();
        let (mut resent, mut exhausted) = (0u64, 0u64);
        for key in lapsed {
            let o = self.outstanding.get_mut(&key).expect("collected above");
            let sends = u64::from(o.payload.sends());
            if o.attempt >= self.policy.max_attempts {
                let payload = self.remove(&key).expect("collected above");
                exhausted += sends;
                round.exhausted.push((key, payload));
                continue;
            }
            o.attempt += 1;
            let nominal = self.policy.timeout_for(o.attempt);
            o.deadline = now + Self::jittered(&self.policy, &mut self.rng, nominal);
            resent += sends;
            round.resend.push(Resend {
                attempt: o.attempt,
                payload: o.payload.clone(),
                key,
            });
        }
        self.metrics.attempts.add(resent);
        self.metrics.resends.add(resent);
        self.metrics.exhausted.add(exhausted);
        self.resized();
        round
    }

    /// Sweep the table as if *every* outstanding deadline had lapsed at
    /// `now` — the model checker's "fire the retry timer" action, which
    /// abstracts away wall-clock deadlines: an interleaving where the
    /// timer fires is explored regardless of how much virtual time the
    /// policy would have required.
    pub fn fire_all(&mut self, now: TimePoint) -> RetryRound<P, K> {
        for o in self.outstanding.values_mut() {
            o.deadline = now;
        }
        self.due(now)
    }

    /// Drop every entry whose key `gone` picks, as nobody's ack: what it
    /// carried is owed no longer (its file expired), so it is neither
    /// resent nor exhausted.
    pub fn forget_where(&mut self, mut gone: impl FnMut(&K) -> bool) {
        let sends = &mut self.sends;
        self.outstanding.retain(|key, o| {
            let keep = !gone(key);
            if !keep {
                *sends -= o.payload.sends() as usize;
            }
            keep
        });
        self.resized();
    }

    /// The outstanding table as `(key, attempt, payload)` in key order —
    /// digestible state for model-checker state hashes.
    pub fn entries(&self) -> impl Iterator<Item = (&K, u32, &P)> {
        (self.outstanding.iter()).map(|(key, o)| (key, o.attempt, &o.payload))
    }

    /// The scheduled retransmission deadline under `key`, if outstanding
    /// — test-only visibility into the jitter schedule.
    #[cfg(test)]
    fn deadline_of(&self, key: &K) -> Option<TimePoint> {
        self.outstanding.get(key).map(|o| o.deadline)
    }

    /// How long the oldest unacked send has been waiting, as of `now`.
    pub fn oldest_unacked_age(&self, now: TimePoint) -> Option<TimeSpan> {
        (self.outstanding.values())
            .map(|o| now.since(o.first_sent))
            .max()
    }
}

/// The stored form of a by-name key.
fn key(target: &str, file: FileId) -> Target {
    (Arc::from(target), file)
}

impl<P: Payload> RetryTracker<P, Target> {
    /// Register attempt 1 of a send of `file` to `target` made at `now`;
    /// returns the attempt number to stamp on the envelope. If the pair
    /// is already outstanding, the existing attempt is kept (the caller
    /// should not double-send; [`RetryTracker::is_outstanding`] guards).
    pub fn track(&mut self, target: &str, file: FileId, payload: P, now: TimePoint) -> u32 {
        self.track_key(key(target, file), payload, now)
    }

    /// An ack for `(target, file)` arrived: clear the entry; false if the
    /// pair was not outstanding. Any attempt number proves delivery — a
    /// late ack of an earlier attempt is just as good.
    pub fn on_ack(&mut self, target: &str, file: FileId, _attempt: u32) -> bool {
        let acked = self.remove(&key(target, file)).is_some();
        if acked {
            self.metrics.acks.inc();
        }
        acked
    }

    /// True if `(target, file)` has an unacked send in flight.
    pub fn is_outstanding(&self, target: &str, file: FileId) -> bool {
        self.outstanding.contains_key(&key(target, file))
    }
}

/// What one unacked *group* delivery carries in the [`RetryTracker`]:
/// what a (re)send to the relay needs. The relay acks a send only once
/// its own receipts show every member that wants the file served, so a
/// resend doubles as the cascaded-backfill trigger: the relay answers it
/// from its own store and backfills stragglers there.
#[derive(Clone, Debug)]
pub struct GroupSend {
    /// The file's landing name (stable across stores).
    pub file_name: String,
    /// Payload size.
    pub size: u64,
}

impl Payload for GroupSend {}

// ---------------------------------------------------------------------------
// Direct fan-out: one entry per file send, an owed bitmap over subscriber
// ids as its payload — the group tier's shape, with the server itself as
// the relay. A deposit's fan-out to 200 subscribers is one entry, one
// deadline and one jitter draw, not 200 of each.
// ---------------------------------------------------------------------------

/// What one unacked send *cohort* of a file carries in the
/// [`RetryTracker`]: what a resend re-renders its messages from, and who
/// has not acked yet. Its key is a [`Cohort`].
#[derive(Clone, Debug)]
pub struct CohortSend<T> {
    /// The file's delivery plan.
    pub plan: T,
    /// Bit `i` is set while subscriber id `i` owes its ack.
    pub owed: Bitmap,
}

impl<T: Clone> Payload for CohortSend<T> {
    fn sends(&self) -> u32 {
        self.owed.count()
    }
}

impl<T: Clone> RetryTracker<CohortSend<T>, Cohort> {
    /// What `file`'s open cohorts still owe, one bitmap per cohort.
    pub fn owed(&self, file: FileId) -> impl Iterator<Item = &Bitmap> {
        (self.outstanding.range((file, 0)..=(file, u64::MAX))).map(|(_, o)| &o.payload.owed)
    }

    /// An ack of `file` from subscriber `id` arrived: clear its bit in
    /// the cohort that owes it — a cohort goes with its last bit — and
    /// hand back the cohort's plan, or `None` if no cohort owed the pair
    /// (a late or duplicate ack).
    pub fn ack_member(&mut self, file: FileId, id: u32) -> Option<T> {
        let (&key, o) = (self.outstanding.range_mut((file, 0)..=(file, u64::MAX)))
            .find(|(_, o)| o.payload.owed.get(id))?;
        o.payload.owed.clear(id);
        let plan = o.payload.plan.clone();
        if o.payload.owed.is_empty() {
            self.outstanding.remove(&key);
        }
        self.sends -= 1;
        self.metrics.acks.inc();
        self.resized();
        Some(plan)
    }

    /// Clear subscriber `id`'s bit in every cohort (it went offline or
    /// left; recovery goes through backfill), dropping the cohorts that
    /// then owe nobody.
    pub fn forget_member(&mut self, id: u32) {
        let sends = &mut self.sends;
        self.outstanding.retain(|_, o| {
            if o.payload.owed.clear(id) {
                *sends -= 1;
            }
            !o.payload.owed.is_empty()
        });
        self.resized();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> TimePoint {
        TimePoint::from_secs(s)
    }

    fn msg(id: u64) -> SubscriberMsg {
        SubscriberMsg::FileDelivered {
            file: FileId(id),
            feed: "F".to_string(),
            dest_path: "d".to_string(),
            size: 1,
        }
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            base_timeout: TimeSpan::from_secs(10),
            backoff: 2,
            max_timeout: TimeSpan::from_secs(100),
            max_attempts: 3,
            jitter: 0.0, // deterministic deadlines for the unit tests
        }
    }

    #[test]
    fn backoff_schedule() {
        let p = policy();
        assert_eq!(p.timeout_for(1), TimeSpan::from_secs(10));
        assert_eq!(p.timeout_for(2), TimeSpan::from_secs(20));
        assert_eq!(p.timeout_for(3), TimeSpan::from_secs(40));
        // capped
        assert_eq!(p.timeout_for(7), TimeSpan::from_secs(100));
    }

    #[test]
    fn ack_clears_before_deadline() {
        let mut tr = RetryTracker::new(policy(), 1);
        assert_eq!(tr.track("s", FileId(1), msg(1), t(0)), 1);
        assert!(tr.is_outstanding("s", FileId(1)));
        assert!(tr.on_ack("s", FileId(1), 1));
        assert!(!tr.is_outstanding("s", FileId(1)));
        // nothing to retry
        assert!(tr.due(t(1000)).resend.is_empty());
        // a second ack for the same pair is a no-op
        assert!(!tr.on_ack("s", FileId(1), 1));
    }

    fn group_send() -> GroupSend {
        GroupSend {
            file_name: "f_1.csv".to_string(),
            size: 3,
        }
    }

    fn check_backoff<P: Payload>(payload: P) {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("s", FileId(1), payload, t(0));
        assert!(tr.due(t(5)).resend.is_empty(), "not due yet");
        let r = tr.due(t(10));
        assert_eq!(r.resend.len(), 1);
        assert_eq!(r.resend[0].attempt, 2);
        // next deadline is 10 + 20 (backoff doubled)
        assert!(tr.due(t(29)).resend.is_empty());
        let r = tr.due(t(30));
        assert_eq!(r.resend.len(), 1);
        assert_eq!(r.resend[0].attempt, 3);
    }

    #[test]
    fn timeout_bumps_attempt_with_backoff() {
        check_backoff(msg(1));
        check_backoff(group_send());
    }

    fn check_exhaustion<P: Payload>(payload: P) {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("s", FileId(1), payload, t(0));
        tr.due(t(10)); // attempt 2
        tr.due(t(100)); // attempt 3 == max
        let r = tr.due(t(1000));
        assert!(r.resend.is_empty());
        let keys: Vec<&Target> = r.exhausted.iter().map(|(key, _)| key).collect();
        assert_eq!(keys, [&(Arc::from("s"), FileId(1))]);
        assert_eq!(tr.outstanding_count(), 0);
        assert_eq!(tr.totals(), (0, 2, 1));
    }

    #[test]
    fn exhaustion_after_max_attempts() {
        check_exhaustion(msg(1));
        check_exhaustion(group_send());
    }

    #[test]
    fn resend_carries_the_tracked_payload() {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("g", FileId(1), group_send(), t(0));
        let r = tr.due(t(10));
        assert_eq!(&*r.resend[0].key.0, "g");
        assert_eq!(r.resend[0].payload.file_name, "f_1.csv");
        assert_eq!(r.resend[0].payload.size, 3);
    }

    /// A jitter schedule recorded as literals (seed `0xB157`, the
    /// per-subscriber and group tables of PR 11 both produced it): one
    /// RNG draw per `track` and per resend, in key order. A same-commit
    /// replay test cannot see the draw order shift between commits; these
    /// literals can.
    fn check_golden_schedule<P: Payload>(payload: P) {
        let p = RetryPolicy {
            jitter: 0.2,
            ..policy()
        };
        let mut tr = RetryTracker::new(p, 0xB157);
        let schedule = |tr: &RetryTracker<P>| -> Vec<(String, u32, u64)> {
            tr.entries()
                .map(|(key @ (target, file), attempt, _)| {
                    let deadline = tr.deadline_of(key).expect("listed");
                    (
                        format!("{target}/{}", file.raw()),
                        attempt,
                        deadline.as_micros(),
                    )
                })
                .collect()
        };
        let row = |k: &str, attempt: u32, deadline_us: u64| (k.to_string(), attempt, deadline_us);

        tr.track("a", FileId(1), payload.clone(), t(0));
        tr.track("b", FileId(2), payload.clone(), t(0));
        tr.track("c", FileId(3), payload.clone(), t(1));
        assert_eq!(
            schedule(&tr),
            vec![
                row("a/1", 1, 9_483_630),
                row("b/2", 1, 8_226_620),
                row("c/3", 1, 12_956_653),
            ]
        );
        assert_eq!(tr.due(t(13)).resend.len(), 3);
        assert_eq!(
            schedule(&tr),
            vec![
                row("a/1", 2, 33_322_263),
                row("b/2", 2, 36_918_110),
                row("c/3", 2, 31_457_233),
            ]
        );
        assert!(tr.on_ack("b", FileId(2), 1));
        tr.track("d", FileId(4), payload, t(14));
        let round = tr.due(t(40));
        assert_eq!(round.resend.len(), 3);
        assert!(round.exhausted.is_empty());
        assert_eq!(
            schedule(&tr),
            vec![
                row("a/1", 3, 75_287_541),
                row("c/3", 3, 80_771_028),
                row("d/4", 2, 60_642_022),
            ]
        );
        let round = tr.due(t(90));
        assert_eq!(round.exhausted.len(), 2);
        assert_eq!(schedule(&tr), vec![row("d/4", 3, 124_054_055)]);
    }

    #[test]
    fn golden_jitter_schedule_for_both_payloads() {
        check_golden_schedule(msg(1));
        check_golden_schedule(group_send());
    }

    #[test]
    fn late_ack_of_earlier_attempt_counts() {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("s", FileId(1), msg(1), t(0));
        tr.due(t(10)); // now at attempt 2
        assert!(
            tr.on_ack("s", FileId(1), 1),
            "attempt-1 ack still proves delivery"
        );
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let mut p = policy();
        p.jitter = 0.5;
        let deadlines = |seed: u64| {
            let mut tr = RetryTracker::new(p, seed);
            tr.track("s", FileId(1), msg(1), t(0));
            // find the deadline by probing
            let mut out = Vec::new();
            for s in 0..30u64 {
                if !tr.due(t(s)).resend.is_empty() {
                    out.push(s);
                }
            }
            out
        };
        let a = deadlines(1);
        assert_eq!(a, deadlines(1), "same seed, same schedule");
        // bounded by [5, 15] for a 10-second base timeout
        assert!(a[0] >= 5 && a[0] <= 15, "{a:?}");
    }

    #[test]
    fn prop_jittered_deadline_never_exceeds_max_timeout_cap() {
        // Regression: `jittered` scaled the nominal timeout *after*
        // `timeout_for` applied the max_timeout cap, so an upward jitter
        // draw could schedule a deadline up to (1+jitter)·max_timeout
        // out. Inductively, lapsing each attempt exactly at its deadline,
        // attempt k's deadline must stay within first_sent +
        // max_timeout·k.
        use bistro_base::prop::Runner;
        use bistro_base::prop_assert;
        Runner::new("retry_deadline_cap").cases(64).run(
            |rng| {
                (
                    rng.gen_range(0u64..1 << 48), // tracker seed
                    rng.gen_range(1u64..=60),     // base timeout (s)
                    rng.gen_range(1u64..=90),     // max timeout (s)
                    rng.gen_range(1u64..=100),    // jitter (% of nominal)
                )
            },
            |&(seed, base, maxt, jitter_pct)| {
                let p = RetryPolicy {
                    base_timeout: TimeSpan::from_secs(base),
                    backoff: 3,
                    max_timeout: TimeSpan::from_secs(maxt),
                    max_attempts: 8,
                    jitter: jitter_pct as f64 / 100.0,
                };
                let mut tr = RetryTracker::new(p, seed);
                let first_sent = t(0);
                tr.track("s", FileId(1), msg(1), first_sent);
                let mut attempts = 1u64;
                while let Some(deadline) = tr.deadline_of(&(Arc::from("s"), FileId(1))) {
                    let cap = first_sent + p.max_timeout.saturating_mul(attempts);
                    prop_assert!(
                        deadline <= cap,
                        "attempt {} deadline {:?} exceeds first_sent + max_timeout*attempts = {:?}",
                        attempts,
                        deadline,
                        cap
                    );
                    tr.due(deadline); // lapse exactly at the deadline
                    attempts += 1;
                }
                Ok(())
            },
        );
    }

    fn cohort(ids: &[u32]) -> CohortSend<&'static str> {
        let mut owed = Bitmap::default();
        for &id in ids {
            owed.set(id);
        }
        CohortSend { plan: "plan", owed }
    }

    /// A cohort is one entry — one attempt count, one deadline, one
    /// jitter draw — while every counter counts the pairs it owes.
    #[test]
    fn a_cohort_is_one_entry_counting_its_pairs() {
        let reg = Registry::new();
        let mut tr = RetryTracker::with_telemetry(policy(), 1, &reg, "reliable");
        let f = FileId(7);
        assert_eq!(tr.track_key((f, 0), cohort(&[0, 2, 5, 9]), t(0)), 1);
        assert_eq!(tr.outstanding_count(), 4);
        assert_eq!(reg.counter_value("reliable.attempts"), Some(4));
        assert_eq!(tr.ack_member(f, 2), Some("plan"));
        assert_eq!(tr.ack_member(f, 2), None, "a duplicate ack owes nothing");
        assert_eq!(tr.ack_member(FileId(8), 0), None);
        assert_eq!(reg.gauge_value("reliable.outstanding"), Some(3));

        let round = tr.due(t(10));
        assert_eq!(round.resend.len(), 1, "one resend per cohort");
        let r = &round.resend[0];
        assert_eq!((r.key, r.attempt), ((f, 0), 2));
        assert_eq!(r.payload.owed.ones().collect::<Vec<_>>(), [0, 5, 9]);
        assert_eq!(reg.counter_value("reliable.resends"), Some(3));
        assert_eq!(reg.counter_value("reliable.attempts"), Some(7));

        tr.forget_member(5);
        tr.forget_member(5);
        assert_eq!(tr.outstanding_count(), 2);
        tr.ack_member(f, 0);
        tr.forget_member(9);
        assert_eq!(tr.outstanding_count(), 0);
        assert_eq!(tr.entries().count(), 0, "a cohort goes with its last bit");
        assert_eq!(tr.totals(), (2, 3, 0));
        assert_eq!(reg.gauge_value("reliable.outstanding"), Some(0));
    }

    #[test]
    fn cohorts_of_one_file_keep_their_own_attempts() {
        let mut tr = RetryTracker::new(policy(), 1);
        let f = FileId(3);
        tr.track_key((f, 0), cohort(&[1, 4]), t(0));
        tr.due(t(10)); // the fan-out is at attempt 2
        tr.track_key((f, 1), cohort(&[2]), t(10)); // a backfill send
        let owed: Vec<Vec<u32>> = tr.owed(f).map(|b| b.ones().collect()).collect();
        assert_eq!(owed, [vec![1, 4], vec![2]]);
        let attempts: Vec<(Cohort, u32)> = tr.entries().map(|(k, a, _)| (*k, a)).collect();
        assert_eq!(attempts, [((f, 0), 2), ((f, 1), 1)]);
        assert!(tr.ack_member(f, 2).is_some());
        assert_eq!(tr.entries().count(), 1);

        // exhaustion hands back who was still owed
        tr.due(t(30)); // attempt 3 == max
        let r = tr.due(t(1000));
        let gone: Vec<(Cohort, Vec<u32>)> = (r.exhausted.iter())
            .map(|(k, p)| (*k, p.owed.ones().collect()))
            .collect();
        assert_eq!(gone, [((f, 0), vec![1, 4])]);
        assert_eq!(tr.totals(), (1, 4, 2));
    }

    /// The table iterates in `(target, file)` order — the order the flat
    /// `BTreeMap<(String, u64), _>` it replaced had, which retry rounds
    /// (and so the jitter draw order and the resend order on the wire)
    /// and state digests inherit. Checked against that flat map on a
    /// table whose targets share prefixes and whose files arrive out of
    /// order, through acks and an emptied target.
    #[test]
    fn iteration_order_is_target_then_file_on_a_mixed_table() {
        let mut tr = RetryTracker::new(policy(), 1);
        let mut flat: BTreeMap<(String, u64), u32> = BTreeMap::new();
        let sends = [
            ("b", 7),
            ("a", 300),
            ("ab", 2),
            ("a", 4),
            ("a1", 9),
            ("b", 1),
            ("", 5),
            ("a", 12),
            ("B", 3),
            ("ab", 1),
        ];
        for (target, file) in sends {
            assert_eq!(tr.track(target, FileId(file), msg(file), t(0)), 1);
            flat.insert((target.to_string(), file), 1);
        }
        assert!(tr.on_ack("a", FileId(4), 1));
        flat.remove(&("a".to_string(), 4));
        assert!(tr.on_ack("a1", FileId(9), 1)); // "a1" is now an empty target
        flat.remove(&("a1".to_string(), 9));
        assert!(tr.on_ack("ab", FileId(1), 1) && tr.on_ack("ab", FileId(2), 1));
        flat.retain(|(target, _), _| target != "ab");
        tr.track("a1", FileId(8), msg(8), t(0));
        flat.insert(("a1".to_string(), 8), 1);

        let listed: Vec<(String, u64, u32)> = tr
            .entries()
            .map(|((target, file), attempt, _)| (target.to_string(), file.raw(), attempt))
            .collect();
        let reference: Vec<(String, u64, u32)> = flat
            .iter()
            .map(|((target, file), attempt)| (target.clone(), *file, *attempt))
            .collect();
        assert_eq!(listed, reference);
        assert_eq!(tr.outstanding_count(), flat.len());
        // a retry round walks the same order
        let resent: Vec<(String, u64)> = tr
            .fire_all(t(1))
            .resend
            .iter()
            .map(|r| (r.key.0.to_string(), r.key.1.raw()))
            .collect();
        let keys: Vec<(String, u64)> = flat.keys().cloned().collect();
        assert_eq!(resent, keys);
    }

    #[test]
    fn telemetry_counters_track_lifecycle() {
        let reg = Registry::new();
        let mut tr = RetryTracker::with_telemetry(policy(), 1, &reg, "reliable");
        tr.track("s", FileId(1), msg(1), t(0));
        tr.track("s", FileId(2), msg(2), t(0));
        assert_eq!(reg.counter_value("reliable.attempts"), Some(2));
        assert_eq!(reg.gauge_value("reliable.outstanding"), Some(2));
        tr.on_ack("s", FileId(2), 1);
        assert_eq!(reg.counter_value("reliable.acks"), Some(1));
        tr.due(t(10)); // attempt 2
        tr.due(t(100)); // attempt 3 == max
        tr.due(t(1000)); // exhausted, dropped from the table
        assert_eq!(reg.counter_value("reliable.resends"), Some(2));
        assert_eq!(reg.counter_value("reliable.attempts"), Some(4));
        assert_eq!(reg.counter_value("reliable.exhausted"), Some(1));
        assert_eq!(reg.gauge_value("reliable.outstanding"), Some(0));
        assert_eq!(tr.totals(), (1, 2, 1));
    }

    #[test]
    fn fire_all_lapses_every_deadline() {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("a", FileId(1), msg(1), t(0));
        tr.track("b", FileId(2), msg(2), t(0));
        // nothing is due yet by the clock, but the forced sweep resends
        let r = tr.fire_all(t(1));
        assert_eq!(r.resend.len(), 2);
        assert!(r.exhausted.is_empty());
        let attempts: Vec<_> = (tr.entries())
            .map(|((k, f), a, _)| (&**k, f.raw(), a))
            .collect();
        assert_eq!(attempts, vec![("a", 1, 2), ("b", 2, 2)]);
        // repeated firing walks each entry to exhaustion
        tr.fire_all(t(2)); // attempt 3 == max
        let r = tr.fire_all(t(3));
        assert_eq!(r.exhausted.len(), 2);
        assert_eq!(tr.outstanding_count(), 0);
    }

    #[test]
    fn oldest_unacked_age_tracks_first_send() {
        let mut tr = RetryTracker::new(policy(), 1);
        assert_eq!(tr.oldest_unacked_age(t(10)), None);
        tr.track("s", FileId(1), msg(1), t(0));
        tr.due(t(10)); // retry does not reset the age
        assert_eq!(tr.oldest_unacked_age(t(15)), Some(TimeSpan::from_secs(15)));

        // a group entry ages the same way
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("g", FileId(1), group_send(), t(2));
        tr.due(t(12));
        assert_eq!(tr.oldest_unacked_age(t(15)), Some(TimeSpan::from_secs(13)));
    }

    // -- shared delivery trees ---------------------------------------------

    #[test]
    fn a_group_send_completes_on_its_one_ack() {
        let mut tr = RetryTracker::new(policy(), 1);
        assert_eq!(tr.track("g", FileId(1), group_send(), t(0)), 1);
        assert!(tr.is_outstanding("g", FileId(1)));
        // duplicate track keeps the existing attempt
        assert_eq!(tr.track("g", FileId(1), group_send(), t(1)), 1);
        // an ack of another group's send, or another file, clears nothing
        assert!(!tr.on_ack("h", FileId(1), 0));
        assert!(!tr.on_ack("g", FileId(2), 0));
        assert!(tr.is_outstanding("g", FileId(1)));

        // the relay's completion ack removes the entry
        assert!(tr.on_ack("g", FileId(1), 0));
        assert!(!tr.is_outstanding("g", FileId(1)));
        assert_eq!(tr.outstanding_count(), 0);
        // an ack for a finished delivery is a stale no-op
        assert!(!tr.on_ack("g", FileId(1), 0));
    }

    #[test]
    fn group_prefix_telemetry_counts_every_completing_ack() {
        let reg = Registry::new();
        let mut tr = RetryTracker::with_telemetry(policy(), 1, &reg, "group");
        tr.track("g", FileId(1), group_send(), t(0));
        tr.track("h", FileId(2), group_send(), t(0));
        assert_eq!(reg.counter_value("group.attempts"), Some(2));
        assert_eq!(reg.gauge_value("group.outstanding"), Some(2));
        tr.on_ack("g", FileId(1), 0);
        let open: Vec<_> = (tr.entries())
            .map(|((g, f), a, _)| (&**g, f.raw(), a))
            .collect();
        assert_eq!(open, vec![("h", 2, 1)]);
        tr.on_ack("h", FileId(2), 0);
        tr.on_ack("h", FileId(2), 0); // stale: not counted
        assert_eq!(reg.counter_value("group.acks"), Some(2));
        assert_eq!(reg.gauge_value("group.outstanding"), Some(0));
        assert_eq!(reg.counter_value("reliable.acks"), None);
    }

    #[test]
    fn forgotten_entries_are_neither_resent_nor_exhausted_nor_acked() {
        let reg = Registry::new();
        let mut tr = RetryTracker::with_telemetry(policy(), 1, &reg, "group");
        tr.track("g", FileId(1), group_send(), t(0));
        tr.track("h", FileId(1), group_send(), t(0));
        tr.track("g", FileId(2), group_send(), t(0));
        tr.forget_where(|(_, file)| *file == FileId(1));
        assert_eq!(tr.outstanding_count(), 1);
        assert_eq!(reg.gauge_value("group.outstanding"), Some(1));
        let round = tr.fire_all(t(1));
        let keys: Vec<_> = round.resend.iter().map(|r| r.key.1).collect();
        assert_eq!(keys, [FileId(2)]);
        assert_eq!(tr.totals(), (0, 1, 0), "a forget is not an ack");
    }
}

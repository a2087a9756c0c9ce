//! Server-side acknowledgement/retry bookkeeping for reliable delivery.
//!
//! The paper's §4.2 requires that "every file received from a data
//! source that matches definition of a particular feed will be delivered
//! to all the feed's subscribers" — over a network that may drop,
//! duplicate, or delay messages ([`crate::net::FaultPlan`]). The
//! [`RetryTracker`] holds every unacked send and schedules
//! retransmissions under a [`RetryPolicy`]: per-subscriber timeout with
//! exponential backoff and seeded jitter (so two servers retrying into
//! the same congested link desynchronize, yet a run still replays
//! bit-for-bit from its seed).
//!
//! The tracker is pure bookkeeping: it never touches the network or the
//! receipt store. The server sends [`ReliableMsg::Attempt`] envelopes,
//! feeds acks into [`RetryTracker::on_ack`], polls
//! [`RetryTracker::due`] on its clock ticks, and writes the delivery
//! receipt only once the ack arrives.
//!
//! There is one table type, generic over what an entry carries. The
//! server runs two instances of it: one for per-subscriber sends, whose
//! entries hold a shared handle to the file's delivery plan (a resend
//! re-renders its message from it, an ack gets it back through
//! [`RetryTracker::take_acked`]), and `RetryTracker<GroupSend>` for
//! delivery trees, where an entry is one `(group, file)` send to a relay
//! and a [`Coverage`] bitmap of the members served so far
//! ([`RetryTracker::on_coverage`] is the only group-specific step).
//!
//! [`ReliableMsg::Attempt`]: crate::messages::ReliableMsg::Attempt

use crate::messages::SubscriberMsg;
use bistro_base::{FileId, Rng, TimePoint, TimeSpan};
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
pub struct Resend<P = SubscriberMsg> {
    /// Who to retransmit to: a subscriber, or a group (via its relay) —
    /// the table's own handle for the name.
    pub target: Arc<str>,
    /// The file being redelivered.
    pub file: FileId,
    /// The new (bumped) attempt number to stamp on the envelope.
    pub attempt: u32,
    /// What the send carries — the caller wraps it in the wire envelope.
    pub payload: P,
}

/// The outcome of one [`RetryTracker::due`] sweep.
#[derive(Clone, Debug)]
pub struct RetryRound<P = SubscriberMsg> {
    /// Sends whose timeout lapsed: retransmit these.
    pub resend: Vec<Resend<P>>,
    /// Sends that exhausted [`RetryPolicy::max_attempts`]; they are no
    /// longer tracked — the caller should alarm and fall back to
    /// failure-detection + backfill.
    pub exhausted: Vec<(Arc<str>, FileId)>,
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

/// The unacked-send table, keyed by target then file (deterministic
/// iteration in `(target, file)` order: two `BTreeMap`s) and generic over
/// what each entry carries — whatever the caller needs to send again: a
/// [`SubscriberMsg`], a [`GroupSend`] (coverage bitmap + file identity)
/// for a delivery tree, or a handle to a plan it can re-render from.
///
/// A target's name is stored once, when it is first tracked; every
/// lookup after that borrows the caller's `&str`. An acked-empty target
/// keeps its (empty) file map until [`RetryTracker::forget`], so the
/// steady ack/track cycle of a live subscriber allocates nothing.
pub struct RetryTracker<P = SubscriberMsg> {
    policy: RetryPolicy,
    rng: Rng,
    outstanding: BTreeMap<Arc<str>, BTreeMap<u64, Entry<P>>>,
    /// Entries across all targets.
    len: usize,
    metrics: TrackerMetrics,
}

impl<P: Clone> RetryTracker<P> {
    /// A tracker under `policy`; `seed` drives the backoff jitter.
    /// Counters record into detached handles; use
    /// [`RetryTracker::with_telemetry`] to surface them in a registry.
    pub fn new(policy: RetryPolicy, seed: u64) -> RetryTracker<P> {
        RetryTracker {
            policy,
            rng: Rng::seed_from_u64(seed),
            outstanding: BTreeMap::new(),
            len: 0,
            metrics: TrackerMetrics::detached(),
        }
    }

    /// A tracker whose `{prefix}.*` counters and outstanding gauge live
    /// in `reg` (`"reliable"` for per-subscriber sends, `"group"` for
    /// delivery trees). Telemetry draws nothing from the jitter RNG, so
    /// a registered tracker replays identically to a detached one.
    pub fn with_telemetry(
        policy: RetryPolicy,
        seed: u64,
        reg: &Registry,
        prefix: &str,
    ) -> RetryTracker<P> {
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

    fn jittered(&mut self, nominal: TimeSpan) -> TimeSpan {
        if self.policy.jitter <= 0.0 {
            return nominal;
        }
        // uniform in [1-jitter, 1+jitter], re-clamped at max_timeout:
        // `timeout_for` caps the *nominal* timeout, so without the final
        // min() an upward jitter draw could schedule a deadline as far as
        // (1+jitter)·max_timeout out, past the policy's stated ceiling.
        let f = 1.0 + self.policy.jitter * (2.0 * self.rng.next_f64() - 1.0);
        TimeSpan::from_micros((nominal.as_micros() as f64 * f) as u64).min(self.policy.max_timeout)
    }

    fn entry(&self, target: &str, file: FileId) -> Option<&Entry<P>> {
        self.outstanding.get(target)?.get(&file.raw())
    }

    /// Record the table size after it changed.
    fn resized(&self) {
        self.metrics.outstanding.set(self.len as i64);
    }

    /// Register attempt 1 of a send made at `now`; returns the attempt
    /// number to stamp on the envelope. If the `(target, file)` pair is
    /// already outstanding, the existing attempt is kept (the caller
    /// should not double-send; [`RetryTracker::is_outstanding`] guards).
    pub fn track(&mut self, target: &str, file: FileId, payload: P, now: TimePoint) -> u32 {
        if let Some(o) = self.entry(target, file) {
            return o.attempt;
        }
        let entry = Entry {
            attempt: 1,
            deadline: now + self.jittered(self.policy.timeout_for(1)),
            first_sent: now,
            payload,
        };
        match self.outstanding.get_mut(target) {
            Some(files) => files.insert(file.raw(), entry),
            None => self
                .outstanding
                .entry(Arc::from(target))
                .or_default()
                .insert(file.raw(), entry),
        };
        self.len += 1;
        self.metrics.attempts.inc();
        self.resized();
        1
    }

    /// An ack for `(target, file)` arrived: clear the entry and hand
    /// back what it carried, or `None` if the pair was not outstanding.
    /// Any attempt number proves delivery — a late ack of an earlier
    /// attempt is just as good.
    pub fn take_acked(&mut self, target: &str, file: FileId) -> Option<P> {
        let o = self.outstanding.get_mut(target)?.remove(&file.raw())?;
        self.len -= 1;
        self.metrics.acks.inc();
        self.resized();
        Some(o.payload)
    }

    /// [`RetryTracker::take_acked`] for a caller that only needs to know
    /// whether the pair was outstanding.
    pub fn on_ack(&mut self, target: &str, file: FileId, _attempt: u32) -> bool {
        self.take_acked(target, file).is_some()
    }

    /// True if `(target, file)` has an unacked send in flight.
    pub fn is_outstanding(&self, target: &str, file: FileId) -> bool {
        self.entry(target, file).is_some()
    }

    /// Number of unacked sends.
    pub fn outstanding_count(&self) -> usize {
        self.len
    }

    /// Drop every outstanding entry for `target` (it was flagged
    /// offline or deregistered; recovery goes through backfill instead
    /// of retries) and the table's handle for its name.
    pub fn forget(&mut self, target: &str) {
        if let Some(files) = self.outstanding.remove(target) {
            self.len -= files.len();
        }
        self.resized();
    }

    /// Sweep the table at `now`: every entry past its deadline is either
    /// scheduled for retransmission (attempt bumped, backoff applied) or,
    /// if `max_attempts` is spent, reported as exhausted and dropped.
    pub fn due(&mut self, now: TimePoint) -> RetryRound<P> {
        let mut round = RetryRound {
            resend: Vec::new(),
            exhausted: Vec::new(),
        };
        let lapsed: Vec<(Arc<str>, u64)> = self
            .outstanding
            .iter()
            .flat_map(|(target, files)| files.iter().map(move |(file, o)| (target, *file, o)))
            .filter(|(_, _, o)| o.deadline <= now)
            .map(|(target, file, _)| (target.clone(), file))
            .collect();
        for (target, file) in lapsed {
            let files = self.outstanding.get_mut(&target).expect("collected above");
            let o = files.get_mut(&file).expect("collected above");
            if o.attempt >= self.policy.max_attempts {
                files.remove(&file);
                self.len -= 1;
                round.exhausted.push((target, FileId(file)));
                continue;
            }
            o.attempt += 1;
            let attempt = o.attempt;
            let payload = o.payload.clone();
            let nominal = self.policy.timeout_for(attempt);
            let deadline = now + self.jittered(nominal);
            self.outstanding
                .get_mut(&target)
                .and_then(|files| files.get_mut(&file))
                .expect("still present")
                .deadline = deadline;
            round.resend.push(Resend {
                target,
                file: FileId(file),
                attempt,
                payload,
            });
        }
        self.metrics.attempts.add(round.resend.len() as u64);
        self.metrics.resends.add(round.resend.len() as u64);
        self.metrics.exhausted.add(round.exhausted.len() as u64);
        self.resized();
        round
    }

    /// Sweep the table as if *every* outstanding deadline had lapsed at
    /// `now` — the model checker's "fire the retry timer" action, which
    /// abstracts away wall-clock deadlines: an interleaving where the
    /// timer fires is explored regardless of how much virtual time the
    /// policy would have required.
    pub fn fire_all(&mut self, now: TimePoint) -> RetryRound<P> {
        for o in self.outstanding.values_mut().flat_map(BTreeMap::values_mut) {
            o.deadline = now;
        }
        self.due(now)
    }

    /// The outstanding table as `(target, file, attempt, payload)` in
    /// key order — digestible state for model-checker state hashes.
    pub fn entries(&self) -> impl Iterator<Item = (&str, FileId, u32, &P)> {
        self.outstanding.iter().flat_map(|(target, files)| {
            files
                .iter()
                .map(move |(file, o)| (&**target, FileId(*file), o.attempt, &o.payload))
        })
    }

    /// The scheduled retransmission deadline for `(target, file)`, if
    /// outstanding — test-only visibility into the jitter schedule.
    #[cfg(test)]
    fn deadline_of(&self, target: &str, file: FileId) -> Option<TimePoint> {
        self.entry(target, file).map(|o| o.deadline)
    }

    /// How long the oldest unacked send has been waiting, as of `now`.
    pub fn oldest_unacked_age(&self, now: TimePoint) -> Option<TimeSpan> {
        self.outstanding
            .values()
            .flat_map(BTreeMap::values)
            .map(|o| now.since(o.first_sent))
            .max()
    }
}

// ---------------------------------------------------------------------------
// Shared delivery trees: compact per-member coverage as tracker payload.
//
// A subscriber *group* is delivered once — to its relay node — and the
// relay reports which members it has covered with a bitmap over the
// group's sorted member list. One `Coverage` per outstanding
// `(group, file)` replaces one tracker entry (string key, cloned
// message, deadline) per *member*: a 1000-member group costs 125 bytes
// of bitmap instead of ~1000 tracker entries, which is what lets fanout
// state scale with group count rather than member count.
// ---------------------------------------------------------------------------

/// Member-coverage bitmap for one `(group, file)` delivery: bit `i`
/// (LSB-first within each byte) is set when member `i` of the group's
/// sorted member list has received the file. The *watermark* is the
/// count of leading covered members — the high-watermark form used on
/// the wire and in receipt records, cheap to compare during recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    members: u32,
    bits: Vec<u8>,
}

impl Coverage {
    /// An empty bitmap over `members` members.
    pub fn new(members: u32) -> Coverage {
        Coverage {
            members,
            bits: vec![0; (members as usize).div_ceil(8)],
        }
    }

    /// Rebuild from wire/receipt form, clamping adversarial input: the
    /// bitmap is truncated (or zero-extended) to the local member count,
    /// stray bits beyond `members` are masked off, and the watermark
    /// prefix is OR-ed in (capped at `members`).
    pub fn from_wire(members: u32, bits: &[u8], watermark: u64) -> Coverage {
        let mut c = Coverage::new(members);
        for (i, byte) in c.bits.iter_mut().enumerate() {
            *byte = bits.get(i).copied().unwrap_or(0);
        }
        c.mask_tail();
        let wm = watermark.min(members as u64) as u32;
        for i in 0..wm {
            c.bits[(i / 8) as usize] |= 1 << (i % 8);
        }
        c
    }

    /// Zero any bits past the member count so `complete`/`count` are
    /// exact even after merging a hostile bitmap.
    fn mask_tail(&mut self) {
        let spare = self.bits.len() * 8 - self.members as usize;
        if spare > 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= 0xFF >> spare;
            }
        }
    }

    /// Mark member `i` covered; true if it was newly set.
    pub fn set(&mut self, i: u32) -> bool {
        if i >= self.members {
            return false;
        }
        let (byte, bit) = ((i / 8) as usize, 1u8 << (i % 8));
        let newly = self.bits[byte] & bit == 0;
        self.bits[byte] |= bit;
        newly
    }

    /// Is member `i` covered?
    pub fn get(&self, i: u32) -> bool {
        i < self.members && self.bits[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// OR another report into this one; true if anything changed.
    pub fn merge_wire(&mut self, bits: &[u8], watermark: u64) -> bool {
        let merged = Coverage::from_wire(self.members, bits, watermark);
        let mut changed = false;
        for (mine, theirs) in self.bits.iter_mut().zip(merged.bits.iter()) {
            if *mine | *theirs != *mine {
                *mine |= *theirs;
                changed = true;
            }
        }
        changed
    }

    /// Covered members.
    pub fn count(&self) -> u32 {
        self.bits.iter().map(|b| b.count_ones()).sum()
    }

    /// Every member covered?
    pub fn complete(&self) -> bool {
        self.count() == self.members
    }

    /// Count of leading covered members (the high-watermark).
    pub fn watermark(&self) -> u32 {
        let mut wm = 0;
        for &byte in &self.bits {
            if byte == 0xFF {
                wm += 8;
                continue;
            }
            wm += byte.trailing_ones();
            break;
        }
        wm.min(self.members)
    }

    /// The group's member count.
    pub fn members(&self) -> u32 {
        self.members
    }

    /// The raw bitmap (wire/receipt form).
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }
}

/// What one unacked *group* delivery carries in the [`RetryTracker`]:
/// the members covered so far plus what a (re)send to the relay needs.
/// A resend is also the cascaded-backfill trigger — the relay answers
/// every (re)delivery with its current coverage and backfills
/// stragglers from its own store.
#[derive(Clone, Debug)]
pub struct GroupSend {
    /// Members the relay has reported served, merged across acks.
    pub coverage: Coverage,
    /// The file's landing name (stable across stores).
    pub file_name: String,
    /// Payload size.
    pub size: u64,
}

impl RetryTracker<GroupSend> {
    /// A coverage report for `(group, file)` arrived. Merges it in and
    /// returns `(merged coverage, changed)` — `None` if the pair is not
    /// outstanding (stale or duplicate ack of a finished delivery).
    /// Unlike a per-subscriber ack, a report only clears the entry once
    /// the merged bitmap is complete.
    pub fn on_coverage(
        &mut self,
        group: &str,
        file: FileId,
        bits: &[u8],
        watermark: u64,
    ) -> Option<(Coverage, bool)> {
        let files = self.outstanding.get_mut(group)?;
        let coverage = &mut files.get_mut(&file.raw())?.payload.coverage;
        let changed = coverage.merge_wire(bits, watermark);
        let merged = coverage.clone();
        self.metrics.acks.inc();
        if merged.complete() {
            files.remove(&file.raw());
            self.len -= 1;
            self.resized();
        }
        Some((merged, changed))
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

    fn group_send(members: u32) -> GroupSend {
        GroupSend {
            coverage: Coverage::new(members),
            file_name: "f_1.csv".to_string(),
            size: 3,
        }
    }

    fn check_backoff<P: Clone>(payload: P) {
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
        check_backoff(group_send(8));
    }

    fn check_exhaustion<P: Clone>(payload: P) {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("s", FileId(1), payload, t(0));
        tr.due(t(10)); // attempt 2
        tr.due(t(100)); // attempt 3 == max
        let r = tr.due(t(1000));
        assert!(r.resend.is_empty());
        assert_eq!(r.exhausted, vec![(Arc::from("s"), FileId(1))]);
        assert_eq!(tr.outstanding_count(), 0);
        assert_eq!(tr.totals(), (0, 2, 1));
    }

    #[test]
    fn exhaustion_after_max_attempts() {
        check_exhaustion(msg(1));
        check_exhaustion(group_send(8));
    }

    #[test]
    fn resend_carries_the_tracked_payload() {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("g", FileId(1), group_send(8), t(0));
        let r = tr.due(t(10));
        assert_eq!(&*r.resend[0].target, "g");
        assert_eq!(r.resend[0].payload.file_name, "f_1.csv");
        assert_eq!(r.resend[0].payload.size, 3);
    }

    /// A jitter schedule recorded as literals (seed `0xB157`, the
    /// per-subscriber and group tables of PR 11 both produced it): one
    /// RNG draw per `track` and per resend, in key order. A same-commit
    /// replay test cannot see the draw order shift between commits; these
    /// literals can.
    fn check_golden_schedule<P: Clone>(payload: P) {
        let p = RetryPolicy {
            jitter: 0.2,
            ..policy()
        };
        let mut tr = RetryTracker::new(p, 0xB157);
        let schedule = |tr: &RetryTracker<P>| -> Vec<(String, u32, u64)> {
            tr.entries()
                .map(|(target, file, attempt, _)| {
                    let deadline = tr.deadline_of(target, file).expect("listed");
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
        check_golden_schedule(group_send(4));
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
                while let Some(deadline) = tr.deadline_of("s", FileId(1)) {
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

    #[test]
    fn forget_drops_the_targets_entries() {
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("a", FileId(1), msg(1), t(0));
        tr.track("b", FileId(2), msg(2), t(0));
        tr.forget("a");
        assert!(!tr.is_outstanding("a", FileId(1)));
        assert!(tr.is_outstanding("b", FileId(2)));
    }

    /// The table iterates in `(target, file)` order — the order the flat
    /// `BTreeMap<(String, u64), _>` it replaced had, which retry rounds
    /// (and so the jitter draw order and the resend order on the wire)
    /// and state digests inherit. Checked against that flat map on a
    /// table whose targets share prefixes and whose files arrive out of
    /// order, through acks, a forget and an emptied target.
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
        tr.forget("ab");
        flat.retain(|(target, _), _| target != "ab");
        tr.track("a1", FileId(8), msg(8), t(0));
        flat.insert(("a1".to_string(), 8), 1);

        let listed: Vec<(String, u64, u32)> = tr
            .entries()
            .map(|(target, file, attempt, _)| (target.to_string(), file.raw(), attempt))
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
            .map(|r| (r.target.to_string(), r.file.raw()))
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
        let attempts: Vec<_> = tr.entries().map(|(k, f, a, _)| (k, f.raw(), a)).collect();
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

        // a group entry ages the same way, and a partial coverage report
        // does not reset it either
        let mut tr = RetryTracker::new(policy(), 1);
        tr.track("g", FileId(1), group_send(4), t(2));
        tr.on_coverage("g", FileId(1), &[], 2);
        assert_eq!(tr.oldest_unacked_age(t(15)), Some(TimeSpan::from_secs(13)));
    }

    // -- shared delivery trees ---------------------------------------------

    #[test]
    fn coverage_set_count_watermark() {
        let mut c = Coverage::new(11);
        assert_eq!(c.count(), 0);
        assert_eq!(c.watermark(), 0);
        assert!(!c.complete());
        assert!(c.set(0));
        assert!(!c.set(0), "second set is not new");
        assert!(c.set(2));
        assert_eq!(c.count(), 2);
        assert_eq!(c.watermark(), 1, "gap at member 1 stops the watermark");
        c.set(1);
        assert_eq!(c.watermark(), 3);
        for i in 3..11 {
            c.set(i);
        }
        assert!(c.complete());
        assert_eq!(c.watermark(), 11);
        // out-of-range member indices are ignored, not panics
        assert!(!c.set(11));
        assert!(!c.get(11));
    }

    #[test]
    fn coverage_wire_roundtrip_and_hostile_input() {
        let mut c = Coverage::new(10);
        c.set(0);
        c.set(1);
        c.set(7);
        c.set(9);
        let back = Coverage::from_wire(10, c.bits(), c.watermark() as u64);
        assert_eq!(back, c);

        // oversized bitmap, stray tail bits and a lying watermark are
        // all clamped to the member count
        let hostile = Coverage::from_wire(3, &[0xFF, 0xFF, 0xFF, 0xFF], u64::MAX);
        assert_eq!(hostile.members(), 3);
        assert_eq!(hostile.count(), 3);
        assert!(hostile.complete());

        // a short bitmap with a watermark still covers the prefix
        let prefix = Coverage::from_wire(20, &[], 12);
        assert_eq!(prefix.count(), 12);
        assert_eq!(prefix.watermark(), 12);
        assert!(!prefix.complete());
    }

    #[test]
    fn group_partial_coverage_then_complete() {
        let mut tr = RetryTracker::new(policy(), 1);
        assert_eq!(tr.track("g", FileId(1), group_send(10), t(0)), 1);
        assert!(tr.is_outstanding("g", FileId(1)));
        // duplicate track keeps the existing attempt
        assert_eq!(tr.track("g", FileId(1), group_send(10), t(1)), 1);

        // partial coverage: first 4 members — stays outstanding
        let partial = Coverage::from_wire(10, &[], 4);
        let (merged, changed) = tr
            .on_coverage("g", FileId(1), partial.bits(), 4)
            .expect("outstanding");
        assert!(changed);
        assert_eq!(merged.count(), 4);
        assert!(tr.is_outstanding("g", FileId(1)));
        let (_, _, _, held) = tr.entries().next().unwrap();
        assert_eq!(held.coverage.watermark(), 4);

        // same report again: no change
        let (_, changed) = tr.on_coverage("g", FileId(1), partial.bits(), 4).unwrap();
        assert!(!changed);

        // full coverage finishes and removes the entry
        let full = Coverage::from_wire(10, &[], 10);
        let (merged, _) = tr.on_coverage("g", FileId(1), full.bits(), 10).unwrap();
        assert!(merged.complete());
        assert!(!tr.is_outstanding("g", FileId(1)));
        assert_eq!(tr.outstanding_count(), 0);
        // a report for a finished delivery is a stale no-op
        assert!(tr.on_coverage("g", FileId(1), full.bits(), 10).is_none());
    }

    #[test]
    fn group_prefix_telemetry_counts_every_merged_report() {
        let reg = Registry::new();
        let mut tr = RetryTracker::with_telemetry(policy(), 1, &reg, "group");
        tr.track("g", FileId(1), group_send(4), t(0));
        tr.track("h", FileId(2), group_send(2), t(0));
        assert_eq!(reg.counter_value("group.attempts"), Some(2));
        assert_eq!(reg.gauge_value("group.outstanding"), Some(2));
        let half = Coverage::from_wire(4, &[], 2);
        tr.on_coverage("g", FileId(1), half.bits(), 2);
        let covered: Vec<_> = tr
            .entries()
            .map(|(g, f, a, p)| (g, f.raw(), a, p.coverage.count()))
            .collect();
        assert_eq!(covered, vec![("g", 1, 1, 2), ("h", 2, 1, 0)]);
        let full = Coverage::from_wire(2, &[], 2);
        tr.on_coverage("h", FileId(2), full.bits(), 2);
        assert_eq!(reg.counter_value("group.acks"), Some(2));
        assert_eq!(reg.gauge_value("group.outstanding"), Some(1));
        assert_eq!(reg.counter_value("reliable.acks"), None);
    }
}

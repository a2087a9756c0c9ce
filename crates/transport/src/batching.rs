//! The batch-boundary engine (paper §2.3, §4.1).
//!
//! Streaming-warehouse subscribers want triggers per *batch* — "invoke
//! the triggered updates only when the raw files contributing to that
//! partition has been received" — not per file. The configuration
//! language expresses batch boundaries three ways, all handled here:
//!
//! * **count-based**: close after N files ("three SNMP pollers ⇒ a batch
//!   of three files") — fragile when a poller skips an interval;
//! * **time-based**: close when the batch has been open for a window —
//!   robust but adds delay;
//! * **hybrid** (both): close on whichever comes first — "works well in
//!   practice";
//! * **punctuation**: a cooperative source marks end-of-batch explicitly,
//!   closing immediately with zero added delay.
//!
//! One [`Batcher`] instance exists per (feed, subscriber); the E4
//! experiment sweeps these policies against unreliable pollers.

use bistro_base::{FileId, TimePoint, TimeSpan};
use bistro_config::BatchSpec;

/// Why a batch boundary was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchCloseReason {
    /// The configured file count was reached.
    Count,
    /// The configured time window elapsed.
    Window,
    /// The source sent end-of-batch punctuation.
    Punctuation,
}

/// A closed batch ready for trigger invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The files in the batch, in arrival order.
    pub files: Vec<FileId>,
    /// When the first file of the batch arrived.
    pub opened: TimePoint,
    /// When the batch closed.
    pub closed: TimePoint,
    /// Why it closed.
    pub reason: BatchCloseReason,
}

impl BatchOutcome {
    /// Notification delay contributed by batching: how long the *first*
    /// file of the batch waited for the boundary.
    pub fn first_file_delay(&self) -> TimeSpan {
        self.closed.since(self.opened)
    }
}

/// Accumulates files into batches per the spec.
#[derive(Debug)]
pub struct Batcher {
    spec: BatchSpec,
    open: Vec<FileId>,
    opened_at: Option<TimePoint>,
    earliest_origin: Option<TimePoint>,
}

impl Batcher {
    /// A batcher for the given spec. A per-file spec
    /// ([`BatchSpec::is_per_file`]) closes a batch on every file.
    pub fn new(spec: BatchSpec) -> Batcher {
        Batcher {
            spec,
            open: Vec::new(),
            opened_at: None,
            earliest_origin: None,
        }
    }

    /// The deadline by which the open batch must close due to its window
    /// (`None` if no batch is open or no window is configured). The
    /// caller arranges to call [`Batcher::on_tick`] at this time.
    ///
    /// The window is anchored at the batch's *origin* (the earliest
    /// feed-time of its files, when known) rather than its arrival time.
    /// A streaming warehouse wants the partition for interval `k` closed
    /// a bounded grace period after `k` ends — "invoke the triggered
    /// updates only when the raw files contributing to that partition
    /// has been received". Anchoring at arrival would let a late first
    /// file push the deadline past the *next* interval's burst, so the
    /// count clause always wins and the window never isolates intervals.
    pub fn window_deadline(&self) -> Option<TimePoint> {
        let w = self.spec.window?;
        let arrival = self.opened_at? + w;
        Some(match self.earliest_origin {
            Some(origin) => arrival.min(origin + w),
            None => arrival,
        })
    }

    /// Number of files in the open batch.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// A file arrived. Returns a closed batch if this file completed one.
    /// Equivalent to [`Batcher::on_file_at`] with no origin timestamp.
    pub fn on_file(&mut self, file: FileId, now: TimePoint) -> Option<BatchOutcome> {
        self.on_file_at(file, now, None)
    }

    /// A file arrived, carrying its origin timestamp (the feed-time
    /// captured from its name) when the pattern provides one. Returns a
    /// closed batch if this file completed one.
    ///
    /// Callers that can observe time passing between files should first
    /// drain [`Batcher::take_lapsed`] so a file arriving after the open
    /// batch's window deadline starts a fresh batch instead of being
    /// folded into the stale one.
    pub fn on_file_at(
        &mut self,
        file: FileId,
        now: TimePoint,
        origin: Option<TimePoint>,
    ) -> Option<BatchOutcome> {
        // per-file mode: every file is its own batch
        if self.spec.is_per_file() {
            return Some(BatchOutcome {
                files: vec![file],
                opened: now,
                closed: now,
                reason: BatchCloseReason::Count,
            });
        }
        if self.opened_at.is_none() {
            self.opened_at = Some(now);
        }
        if let Some(o) = origin {
            self.earliest_origin = Some(match self.earliest_origin {
                Some(e) => e.min(o),
                None => o,
            });
        }
        self.open.push(file);
        if let Some(count) = self.spec.count {
            if self.open.len() >= count as usize {
                return Some(self.close(now, BatchCloseReason::Count));
            }
        }
        None
    }

    /// Close and return the open batch if its window deadline has already
    /// lapsed by `now`. The batch closes *at the deadline* (the moment it
    /// should have fired), not at `now`, so delay accounting does not
    /// depend on how late the caller noticed. Call before
    /// [`Batcher::on_file_at`] when arrivals are the only clock the
    /// caller observes.
    pub fn take_lapsed(&mut self, now: TimePoint) -> Option<BatchOutcome> {
        let deadline = self.window_deadline()?;
        if now >= deadline && !self.open.is_empty() {
            return Some(self.close(deadline, BatchCloseReason::Window));
        }
        None
    }

    /// The clock reached `now`; close the batch if its window lapsed.
    pub fn on_tick(&mut self, now: TimePoint) -> Option<BatchOutcome> {
        let deadline = self.window_deadline()?;
        if now >= deadline && !self.open.is_empty() {
            return Some(self.close(now, BatchCloseReason::Window));
        }
        None
    }

    /// The source emitted end-of-batch punctuation: close immediately.
    pub fn on_punctuation(&mut self, now: TimePoint) -> Option<BatchOutcome> {
        if self.open.is_empty() {
            return None;
        }
        Some(self.close(now, BatchCloseReason::Punctuation))
    }

    fn close(&mut self, now: TimePoint, reason: BatchCloseReason) -> BatchOutcome {
        let files = std::mem::take(&mut self.open);
        let opened = self.opened_at.take().unwrap_or(now);
        self.earliest_origin = None;
        BatchOutcome {
            files,
            opened,
            closed: now,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> TimePoint {
        TimePoint::from_secs(s)
    }

    #[test]
    fn per_file_mode_fires_every_file() {
        let mut b = Batcher::new(BatchSpec::per_file());
        for i in 0..3 {
            let out = b.on_file(FileId(i), t(i)).unwrap();
            assert_eq!(out.files, vec![FileId(i)]);
            assert_eq!(out.first_file_delay(), TimeSpan::ZERO);
        }
    }

    #[test]
    fn count_based_closes_at_n() {
        let mut b = Batcher::new(BatchSpec {
            count: Some(3),
            window: None,
        });
        assert!(b.on_file(FileId(1), t(0)).is_none());
        assert!(b.on_file(FileId(2), t(1)).is_none());
        let out = b.on_file(FileId(3), t(2)).unwrap();
        assert_eq!(out.files.len(), 3);
        assert_eq!(out.reason, BatchCloseReason::Count);
        assert_eq!(out.first_file_delay(), TimeSpan::from_secs(2));
        // next batch starts fresh
        assert!(b.on_file(FileId(4), t(3)).is_none());
        assert_eq!(b.open_len(), 1);
    }

    #[test]
    fn count_based_stalls_when_poller_missing() {
        // §4.1: "If one poller does not produce reading during particular
        // time interval, it will not only delay the notification till a
        // first file for the next time interval arrives…"
        let mut b = Batcher::new(BatchSpec {
            count: Some(3),
            window: None,
        });
        // interval 1: only 2 of 3 pollers report
        assert!(b.on_file(FileId(1), t(0)).is_none());
        assert!(b.on_file(FileId(2), t(1)).is_none());
        // interval 2 begins; its first file closes the stale batch…
        let out = b.on_file(FileId(10), t(300)).unwrap();
        assert_eq!(out.files, vec![FileId(1), FileId(2), FileId(10)]);
        // …and the batch now straddles two intervals (the failure mode
        // the hybrid spec exists to avoid)
        assert_eq!(out.first_file_delay(), TimeSpan::from_secs(300));
    }

    #[test]
    fn window_based_closes_on_tick() {
        let mut b = Batcher::new(BatchSpec {
            count: None,
            window: Some(TimeSpan::from_mins(5)),
        });
        assert!(b.on_file(FileId(1), t(0)).is_none());
        assert!(b.on_file(FileId(2), t(10)).is_none());
        assert_eq!(b.window_deadline(), Some(t(300)));
        assert!(b.on_tick(t(299)).is_none());
        let out = b.on_tick(t(300)).unwrap();
        assert_eq!(out.files.len(), 2);
        assert_eq!(out.reason, BatchCloseReason::Window);
        assert!(b.window_deadline().is_none());
    }

    #[test]
    fn hybrid_closes_on_whichever_first() {
        let spec = BatchSpec {
            count: Some(3),
            window: Some(TimeSpan::from_mins(5)),
        };
        // count first
        let mut b = Batcher::new(spec);
        b.on_file(FileId(1), t(0));
        b.on_file(FileId(2), t(1));
        let out = b.on_file(FileId(3), t(2)).unwrap();
        assert_eq!(out.reason, BatchCloseReason::Count);
        // window first
        let mut b = Batcher::new(spec);
        b.on_file(FileId(1), t(0));
        let out = b.on_tick(t(300)).unwrap();
        assert_eq!(out.reason, BatchCloseReason::Window);
        assert_eq!(out.files.len(), 1);
    }

    #[test]
    fn punctuation_closes_immediately() {
        let mut b = Batcher::new(BatchSpec {
            count: Some(100),
            window: Some(TimeSpan::from_hours(1)),
        });
        b.on_file(FileId(1), t(0));
        b.on_file(FileId(2), t(1));
        let out = b.on_punctuation(t(2)).unwrap();
        assert_eq!(out.reason, BatchCloseReason::Punctuation);
        assert_eq!(out.files.len(), 2);
        assert_eq!(out.first_file_delay(), TimeSpan::from_secs(2));
        // punctuation with nothing open is a no-op
        assert!(b.on_punctuation(t(3)).is_none());
    }

    #[test]
    fn origin_anchored_window_caps_deadline() {
        // 5m feed, 6m window: the interval-0 file arrives 25s late, so an
        // arrival-anchored deadline (25s + 6m) would land after the next
        // burst at ~5m. Origin anchoring keeps the deadline at 0 + 6m.
        let mut b = Batcher::new(BatchSpec {
            count: Some(3),
            window: Some(TimeSpan::from_mins(6)),
        });
        assert!(b.on_file_at(FileId(1), t(325), Some(t(0))).is_none());
        assert_eq!(b.window_deadline(), Some(t(360)));
        // a second straggler from the same interval does not move it
        assert!(b.on_file_at(FileId(2), t(340), Some(t(0))).is_none());
        assert_eq!(b.window_deadline(), Some(t(360)));
        let out = b.take_lapsed(t(400)).unwrap();
        assert_eq!(out.reason, BatchCloseReason::Window);
        assert_eq!(out.files, vec![FileId(1), FileId(2)]);
        // closes at the deadline, not at the observation time
        assert_eq!(out.closed, t(360));
    }

    #[test]
    fn take_lapsed_keeps_next_interval_out_of_stale_batch() {
        // Without take_lapsed, a file arriving after the deadline would be
        // folded into the stale batch (the pre-fix behaviour).
        let mut b = Batcher::new(BatchSpec {
            count: Some(3),
            window: Some(TimeSpan::from_mins(6)),
        });
        b.on_file_at(FileId(1), t(10), Some(t(0)));
        b.on_file_at(FileId(2), t(20), Some(t(0)));
        // next interval's first file arrives at 310; deadline was 360?
        // no — deadline is min(10+360, 0+360) = 360, still open. Use a
        // later arrival to lapse it.
        let arrival = t(400);
        let lapsed = b.take_lapsed(arrival).unwrap();
        assert_eq!(lapsed.files, vec![FileId(1), FileId(2)]);
        assert!(b.on_file_at(FileId(10), arrival, Some(t(300))).is_none());
        assert_eq!(b.open_len(), 1);
        assert_eq!(b.window_deadline(), Some(t(660)));
    }

    #[test]
    fn take_lapsed_without_open_batch_is_noop() {
        let mut b = Batcher::new(BatchSpec {
            count: Some(3),
            window: Some(TimeSpan::from_mins(6)),
        });
        assert!(b.take_lapsed(t(10_000)).is_none());
        // origin resets between batches
        b.on_file_at(FileId(1), t(5), Some(t(0)));
        b.on_file_at(FileId(2), t(6), Some(t(0)));
        b.on_file_at(FileId(3), t(7), Some(t(0))); // count closes
        b.on_file_at(FileId(4), t(700), Some(t(600)));
        assert_eq!(b.window_deadline(), Some(t(960)));
    }

    #[test]
    fn empty_window_never_fires() {
        let mut b = Batcher::new(BatchSpec {
            count: None,
            window: Some(TimeSpan::from_mins(5)),
        });
        assert!(b.on_tick(t(10_000)).is_none());
        assert!(b.window_deadline().is_none());
    }
}

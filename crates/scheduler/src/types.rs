//! Job and subscriber specifications for the delivery simulator.

use bistro_base::{SubscriberId, TimePoint, TimeSpan};

/// A subscriber as the scheduler sees it.
#[derive(Clone, Debug)]
pub struct SubscriberSpec {
    /// Identity.
    pub id: SubscriberId,
    /// Receive bandwidth in bytes/second — the dominant source of
    /// subscriber heterogeneity (§4.3).
    pub bandwidth: u64,
    /// Fixed per-transfer latency.
    pub latency: TimeSpan,
    /// Responsiveness class, 0 = most responsive. The partitioned
    /// scheduler maps classes to partitions.
    pub class: usize,
    /// Outage intervals `[down, up)` during which transfers to this
    /// subscriber fail. Must be sorted and non-overlapping.
    pub outages: Vec<(TimePoint, TimePoint)>,
}

impl SubscriberSpec {
    /// A subscriber with the given id and bandwidth, no latency, class 0,
    /// always online.
    pub fn simple(id: u32, bandwidth: u64) -> SubscriberSpec {
        SubscriberSpec {
            id: SubscriberId(id),
            bandwidth,
            latency: TimeSpan::ZERO,
            class: 0,
            outages: Vec::new(),
        }
    }

    /// Is the subscriber online at `t`?
    pub fn online_at(&self, t: TimePoint) -> bool {
        !self.outages.iter().any(|&(down, up)| t >= down && t < up)
    }

    /// The next time ≥ `t` at which the subscriber is online.
    pub fn next_online(&self, t: TimePoint) -> TimePoint {
        for &(down, up) in &self.outages {
            if t >= down && t < up {
                return up;
            }
        }
        t
    }
}

/// One delivery task: a file to one subscriber.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Unique job id (caller-assigned, dense from 0 preferred).
    pub id: u64,
    /// Target subscriber.
    pub subscriber: SubscriberId,
    /// When the file becomes available for delivery.
    pub release: TimePoint,
    /// Delivery deadline (release + the subscriber's tardiness target).
    pub deadline: TimePoint,
    /// Payload size in bytes.
    pub size: u64,
    /// The feed's inter-arrival period, used by Rate-Monotonic priority.
    pub period: TimeSpan,
    /// Priority class for EDF-P (lower = more important).
    pub priority: u32,
    /// Identifies the underlying file: jobs delivering the same file to
    /// different subscribers share this key (drives the storage cache and
    /// the locality heuristic).
    pub file_key: u64,
    /// True if this job backfills missed history rather than new data.
    pub backfill: bool,
}

impl JobSpec {
    /// A simple real-time job.
    pub fn new(id: u64, subscriber: u32, release_s: u64, deadline_s: u64, size: u64) -> JobSpec {
        JobSpec {
            id,
            subscriber: SubscriberId(subscriber),
            release: TimePoint::from_secs(release_s),
            deadline: TimePoint::from_secs(deadline_s),
            size,
            period: TimeSpan::from_mins(5),
            priority: 0,
            file_key: id,
            backfill: false,
        }
    }
}

/// How backlogged history is delivered after a subscriber recovers
/// (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackfillMode {
    /// Deliver each subscriber's files strictly in arrival order: real
    /// time data waits behind the backlog.
    InOrder,
    /// Deliver new data in real time concurrently with backfilling missed
    /// history (backfill jobs only run when no real-time job is eligible).
    /// This is what Bistro implements.
    #[default]
    Concurrent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_windows() {
        let mut s = SubscriberSpec::simple(1, 1_000_000);
        s.outages = vec![
            (TimePoint::from_secs(100), TimePoint::from_secs(200)),
            (TimePoint::from_secs(500), TimePoint::from_secs(600)),
        ];
        assert!(s.online_at(TimePoint::from_secs(50)));
        assert!(!s.online_at(TimePoint::from_secs(100)));
        assert!(!s.online_at(TimePoint::from_secs(199)));
        assert!(s.online_at(TimePoint::from_secs(200)));
        assert_eq!(
            s.next_online(TimePoint::from_secs(150)),
            TimePoint::from_secs(200)
        );
        assert_eq!(
            s.next_online(TimePoint::from_secs(300)),
            TimePoint::from_secs(300)
        );
    }
}

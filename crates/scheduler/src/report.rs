//! Simulation results and aggregation.

use bistro_base::{SubscriberId, TimePoint, TimeSpan};
use std::collections::BTreeMap;

/// The outcome of one delivery job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job id.
    pub job: u64,
    /// Target subscriber.
    pub subscriber: SubscriberId,
    /// The subscriber's responsiveness class.
    pub class: usize,
    /// Release time.
    pub release: TimePoint,
    /// Deadline.
    pub deadline: TimePoint,
    /// Completion time (`None` if never delivered within the simulation).
    pub completed: Option<TimePoint>,
    /// Tardiness (zero if on time; `None` if never completed).
    pub tardiness: Option<TimeSpan>,
    /// Transfer attempts (≥ 1; >1 means outage-aborted retries).
    pub attempts: u32,
    /// Service (transfer) time of the successful attempt.
    pub service: Option<TimeSpan>,
    /// Whether the job was a backfill job.
    pub backfill: bool,
}

/// Aggregated statistics for a set of jobs.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Jobs in this aggregate.
    pub count: usize,
    /// Completed jobs.
    pub completed: usize,
    /// Deadline misses among completed jobs.
    pub misses: usize,
    /// Mean tardiness over completed jobs.
    pub mean_tardiness: TimeSpan,
    /// 95th-percentile tardiness over completed jobs.
    pub p95_tardiness: TimeSpan,
    /// Maximum tardiness over completed jobs.
    pub max_tardiness: TimeSpan,
}

impl ClassStats {
    /// Aggregate outcomes (completed jobs contribute tardiness; jobs that
    /// never completed count as misses).
    pub fn from_outcomes<'a>(outcomes: impl Iterator<Item = &'a JobOutcome>) -> ClassStats {
        let mut tards: Vec<u64> = Vec::new();
        let mut stats = ClassStats::default();
        for o in outcomes {
            stats.count += 1;
            match o.tardiness {
                Some(t) => {
                    stats.completed += 1;
                    if t > TimeSpan::ZERO {
                        stats.misses += 1;
                    }
                    tards.push(t.as_micros());
                }
                None => stats.misses += 1,
            }
        }
        if !tards.is_empty() {
            tards.sort_unstable();
            let sum: u64 = tards.iter().sum();
            stats.mean_tardiness = TimeSpan::from_micros(sum / tards.len() as u64);
            let idx = ((tards.len() as f64) * 0.95).ceil() as usize;
            stats.p95_tardiness =
                TimeSpan::from_micros(tards[idx.saturating_sub(1).min(tards.len() - 1)]);
            stats.max_tardiness = TimeSpan::from_micros(*tards.last().unwrap());
        }
        stats
    }

    /// Fraction of jobs that missed their deadline (or never completed).
    pub fn miss_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.misses as f64 / self.count as f64
        }
    }
}

/// Full simulation report.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Per-job outcomes, in job-id order.
    pub outcomes: Vec<JobOutcome>,
    /// Simulated completion time of the last event.
    pub makespan: TimePoint,
    /// Storage reads that hit the cache (shared with a concurrent or
    /// recent transfer of the same file).
    pub cache_hits: u64,
    /// Storage reads that had to go to disk.
    pub cache_misses: u64,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
}

impl SimReport {
    /// Stats over all jobs.
    pub fn overall(&self) -> ClassStats {
        ClassStats::from_outcomes(self.outcomes.iter())
    }

    /// Stats per responsiveness class.
    pub fn per_class(&self) -> BTreeMap<usize, ClassStats> {
        let mut classes: BTreeMap<usize, Vec<&JobOutcome>> = BTreeMap::new();
        for o in &self.outcomes {
            classes.entry(o.class).or_default().push(o);
        }
        classes
            .into_iter()
            .map(|(c, v)| (c, ClassStats::from_outcomes(v.into_iter())))
            .collect()
    }

    /// Stats for real-time (non-backfill) jobs only — the quantity the
    /// E7 backfill experiment compares.
    pub fn realtime_only(&self) -> ClassStats {
        ClassStats::from_outcomes(self.outcomes.iter().filter(|o| !o.backfill))
    }

    /// Bridge the report's aggregates into a telemetry registry as
    /// `sched.*` counters/gauges (absolute totals for this run), overall
    /// and per responsiveness class.
    pub fn publish(&self, reg: &bistro_telemetry::Registry) {
        let overall = self.overall();
        reg.counter("sched.jobs").set(overall.count as u64);
        reg.counter("sched.completed").set(overall.completed as u64);
        reg.counter("sched.deadline_misses")
            .set(overall.misses as u64);
        reg.gauge("sched.max_tardiness_us")
            .set(overall.max_tardiness.as_micros() as i64);
        for (class, stats) in self.per_class() {
            reg.counter(&format!("sched.completed.class{class}"))
                .set(stats.completed as u64);
            reg.counter(&format!("sched.deadline_misses.class{class}"))
                .set(stats.misses as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tardiness_s: Option<u64>, class: usize) -> JobOutcome {
        JobOutcome {
            job: 0,
            subscriber: SubscriberId(1),
            class,
            release: TimePoint::EPOCH,
            deadline: TimePoint::from_secs(10),
            completed: tardiness_s.map(|t| TimePoint::from_secs(10 + t)),
            tardiness: tardiness_s.map(TimeSpan::from_secs),
            attempts: 1,
            service: Some(TimeSpan::from_secs(1)),
            backfill: false,
        }
    }

    #[test]
    fn stats_aggregate() {
        let outcomes = [
            outcome(Some(0), 0),
            outcome(Some(10), 0),
            outcome(Some(20), 0),
            outcome(None, 0),
        ];
        let s = ClassStats::from_outcomes(outcomes.iter());
        assert_eq!(s.count, 4);
        assert_eq!(s.completed, 3);
        assert_eq!(s.misses, 3); // two late + one never
        assert_eq!(s.mean_tardiness, TimeSpan::from_secs(10));
        assert_eq!(s.max_tardiness, TimeSpan::from_secs(20));
        assert!((s.miss_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_stats() {
        let s = ClassStats::from_outcomes(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn per_class_split() {
        let report = SimReport {
            outcomes: vec![
                outcome(Some(0), 0),
                outcome(Some(5), 1),
                outcome(Some(7), 1),
            ],
            ..Default::default()
        };
        let per = report.per_class();
        assert_eq!(per[&0].count, 1);
        assert_eq!(per[&1].count, 2);
    }
}

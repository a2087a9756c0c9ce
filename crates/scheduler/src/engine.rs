//! The discrete-event delivery simulator.
//!
//! Models the resources §4.3 identifies as constrained: a pool of worker
//! cores (optionally split into fixed partitions by subscriber class), a
//! storage system whose reads are shared via a cache, and per-subscriber
//! network bandwidth. Subscribers go offline and online per their outage
//! schedule; in-flight transfers to a failing subscriber abort and retry
//! after recovery (§4.2's failure detection + backfill).

use crate::queue::{PolicyKind, ReadyQueue};
use crate::report::{JobOutcome, SimReport};
use crate::types::{BackfillMode, JobSpec, SubscriberSpec};
use bistro_base::{SubscriberId, TimePoint, TimeSpan};
use bistro_telemetry::{Counter, Histogram, SharedRegistry};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A partition of the worker pool.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Workers dedicated to this partition.
    pub workers: usize,
    /// The scheduling policy inside this partition.
    pub policy: PolicyKind,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker partitions. Subscribers of class `c` are served by
    /// partition `min(c, partitions-1)`. A single entry models a global
    /// (unpartitioned) scheduler.
    pub partitions: Vec<PartitionSpec>,
    /// Storage read bandwidth in bytes/second (cost of a cache miss).
    pub storage_bandwidth: u64,
    /// How many distinct files the storage cache holds.
    pub cache_files: usize,
    /// Locality heuristic slack (prefer in-flight files whose queue key
    /// is within this much of the head); `None` disables it.
    pub locality_slack: Option<TimeSpan>,
    /// Backfill strategy (§4.3).
    pub backfill: BackfillMode,
}

impl EngineConfig {
    /// A global (single-partition) scheduler with `workers` cores running
    /// `policy`.
    pub fn global(workers: usize, policy: PolicyKind) -> EngineConfig {
        EngineConfig {
            partitions: vec![PartitionSpec { workers, policy }],
            storage_bandwidth: 500_000_000,
            cache_files: 256,
            locality_slack: None,
            backfill: BackfillMode::Concurrent,
        }
    }

    /// Bistro's partitioned scheduler: `per_class` workers per class
    /// partition, EDF within each.
    pub fn partitioned(per_class: &[usize]) -> EngineConfig {
        EngineConfig {
            partitions: per_class
                .iter()
                .map(|&workers| PartitionSpec {
                    workers,
                    policy: PolicyKind::Edf,
                })
                .collect(),
            storage_bandwidth: 500_000_000,
            cache_files: 256,
            locality_slack: Some(TimeSpan::from_secs(30)),
            backfill: BackfillMode::Concurrent,
        }
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    SubUp(SubscriberId),
    SubDown(SubscriberId),
    Release(u64),
    Complete(u64),
}

struct InFlight {
    job: JobSpec,
    partition: usize,
    started: TimePoint,
}

struct Partition {
    workers: usize,
    busy: usize,
    rt: ReadyQueue,
    backfill: ReadyQueue,
}

/// The engine's tallies. Registered in a telemetry registry when one is
/// attached, detached otherwise — either way these counters are the only
/// copy; [`SimReport`] is populated by reading them back at the end of
/// the run.
struct EngineMetrics {
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    bytes_delivered: Arc<Counter>,
    registry: Option<SharedRegistry>,
    /// Per-responsiveness-class tardiness histograms, populated lazily
    /// (`sched.tardiness_us.class<N>`), only when a registry is attached.
    tardiness: HashMap<usize, Arc<Histogram>>,
}

impl EngineMetrics {
    fn new(registry: Option<SharedRegistry>) -> EngineMetrics {
        let (cache_hits, cache_misses, bytes_delivered) = match &registry {
            Some(reg) => (
                reg.counter("sched.cache_hits"),
                reg.counter("sched.cache_misses"),
                reg.counter("sched.bytes_delivered"),
            ),
            None => (
                Arc::new(Counter::detached()),
                Arc::new(Counter::detached()),
                Arc::new(Counter::detached()),
            ),
        };
        EngineMetrics {
            cache_hits,
            cache_misses,
            bytes_delivered,
            registry,
            tardiness: HashMap::new(),
        }
    }

    fn record_tardiness(&mut self, class: usize, tardiness: TimeSpan) {
        let Some(reg) = &self.registry else { return };
        let hist = self
            .tardiness
            .entry(class)
            .or_insert_with(|| reg.histogram(&format!("sched.tardiness_us.class{class}")));
        hist.record(tardiness.as_micros());
    }

    fn record_queue_depths(&self, partitions: &[Partition]) {
        let Some(reg) = &self.registry else { return };
        for (pi, part) in partitions.iter().enumerate() {
            reg.gauge(&format!("sched.queue_depth.part{pi}"))
                .set_max((part.rt.len() + part.backfill.len()) as i64);
        }
    }
}

/// The simulator. Construct, add subscribers and jobs, then [`Engine::run`].
pub struct Engine {
    cfg: EngineConfig,
    subs: HashMap<SubscriberId, SubscriberSpec>,
    jobs: BTreeMap<u64, JobSpec>,
    telemetry: Option<SharedRegistry>,
}

impl Engine {
    /// New engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            cfg,
            subs: HashMap::new(),
            jobs: BTreeMap::new(),
            telemetry: None,
        }
    }

    /// Surface the run's tallies in `reg`: `sched.cache_hits` /
    /// `sched.cache_misses` / `sched.bytes_delivered` counters,
    /// per-class tardiness histograms (`sched.tardiness_us.class<N>`)
    /// and per-partition high-water queue depth gauges
    /// (`sched.queue_depth.part<N>`). The simulation itself is unchanged.
    pub fn set_telemetry(&mut self, reg: SharedRegistry) {
        self.telemetry = Some(reg);
    }

    /// Register a subscriber.
    pub fn add_subscriber(&mut self, sub: SubscriberSpec) {
        self.subs.insert(sub.id, sub);
    }

    /// Register a delivery job. Job ids must be unique; id order is
    /// treated as arrival order for in-order backfill.
    pub fn add_job(&mut self, job: JobSpec) {
        self.jobs.insert(job.id, job);
    }

    /// The registered jobs (id → spec), for calibration harnesses.
    pub fn jobs(&self) -> impl Iterator<Item = (&u64, &JobSpec)> {
        self.jobs.iter()
    }

    /// Run the simulation to completion and return the report.
    pub fn run(self) -> SimReport {
        let Engine {
            cfg,
            subs,
            jobs,
            telemetry,
        } = self;
        let mut metrics = EngineMetrics::new(telemetry);
        let locality_us = cfg.locality_slack.map(|s| s.as_micros());

        let mut partitions: Vec<Partition> = cfg
            .partitions
            .iter()
            .map(|p| Partition {
                workers: p.workers.max(1),
                busy: 0,
                rt: ReadyQueue::new(p.policy, locality_us),
                backfill: ReadyQueue::new(p.policy, locality_us),
            })
            .collect();

        // event queue: (time, seq, kind) — seq keeps ordering deterministic
        let mut events: BinaryHeap<Reverse<(TimePoint, u64, EventKind)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let push_event = |events: &mut BinaryHeap<_>, seq: &mut u64, at, kind| {
            *seq += 1;
            events.push(Reverse((at, *seq, kind)));
        };

        for sub in subs.values() {
            for &(down, up) in &sub.outages {
                push_event(&mut events, &mut seq, down, EventKind::SubDown(sub.id));
                if up < TimePoint::MAX {
                    // up == MAX means "never recovers": no recovery event
                    push_event(&mut events, &mut seq, up, EventKind::SubUp(sub.id));
                }
            }
        }
        for job in jobs.values() {
            push_event(
                &mut events,
                &mut seq,
                job.release,
                EventKind::Release(job.id),
            );
        }

        // runtime state
        let mut online: HashMap<SubscriberId, bool> = subs
            .keys()
            .map(|&id| (id, subs[&id].online_at(TimePoint::EPOCH)))
            .collect();
        let mut parked_offline: HashMap<SubscriberId, Vec<JobSpec>> = HashMap::new();
        // in-order sequencing state
        let mut seq_pending: HashMap<SubscriberId, BTreeMap<u64, JobSpec>> = HashMap::new();
        let mut seq_busy: HashSet<SubscriberId> = HashSet::new();
        // transfers
        let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
        let mut in_flight_by_sub: HashMap<SubscriberId, Vec<u64>> = HashMap::new();
        let mut in_flight_files: HashMap<u64, usize> = HashMap::new();
        // storage cache (FIFO eviction)
        let mut cache: HashSet<u64> = HashSet::new();
        let mut cache_order: VecDeque<u64> = VecDeque::new();
        // per-job bookkeeping (counter tallies live in `metrics`)
        let mut outcomes: HashMap<u64, JobOutcome> = HashMap::new();
        let mut attempts: HashMap<u64, u32> = HashMap::new();
        let mut makespan = TimePoint::EPOCH;

        // enqueue a runnable job into its partition's queues
        let enqueue = |job: JobSpec,
                       now: TimePoint,
                       partitions: &mut Vec<Partition>,
                       subs: &HashMap<SubscriberId, SubscriberSpec>,
                       cfg: &EngineConfig| {
            let sub = &subs[&job.subscriber];
            let p = sub.class.min(cfg.partitions.len() - 1);
            let now_us = now.as_micros();
            if job.backfill && cfg.backfill == BackfillMode::Concurrent {
                partitions[p].backfill.push(job, now_us);
            } else {
                partitions[p].rt.push(job, now_us);
            }
        };

        // a job became available: route through offline parking and
        // in-order sequencing
        macro_rules! admit {
            ($job:expr, $now:expr) => {{
                let job: JobSpec = $job;
                let now: TimePoint = $now;
                if !online.get(&job.subscriber).copied().unwrap_or(false) {
                    parked_offline.entry(job.subscriber).or_default().push(job);
                } else if cfg.backfill == BackfillMode::InOrder {
                    seq_pending
                        .entry(job.subscriber)
                        .or_default()
                        .insert(job.id, job.clone());
                    if !seq_busy.contains(&job.subscriber) {
                        let sub_id = job.subscriber;
                        if let Some(map) = seq_pending.get_mut(&sub_id) {
                            if let Some((&first, _)) = map.iter().next() {
                                let j = map.remove(&first).unwrap();
                                seq_busy.insert(sub_id);
                                enqueue(j, now, &mut partitions, &subs, &cfg);
                            }
                        }
                    }
                } else {
                    enqueue(job, now, &mut partitions, &subs, &cfg);
                }
            }};
        }

        // dispatch free workers in every partition
        macro_rules! dispatch {
            ($now:expr) => {{
                let now: TimePoint = $now;
                let now_us = now.as_micros();
                let flying: HashSet<u64> = in_flight_files.keys().copied().collect();
                for (pi, part) in partitions.iter_mut().enumerate() {
                    while part.busy < part.workers {
                        let job = match part.rt.pop(&flying, now_us) {
                            Some(j) => Some(j),
                            None => part.backfill.pop(&flying, now_us),
                        };
                        let Some(job) = job else { break };
                        let sub = &subs[&job.subscriber];
                        // storage read: hit if cached or concurrently in flight
                        let read_cost = if cache.contains(&job.file_key)
                            || in_flight_files.contains_key(&job.file_key)
                        {
                            metrics.cache_hits.inc();
                            TimeSpan::ZERO
                        } else {
                            metrics.cache_misses.inc();
                            // insert into cache
                            if cache.len() >= cfg.cache_files.max(1) {
                                if let Some(victim) = cache_order.pop_front() {
                                    cache.remove(&victim);
                                }
                            }
                            cache.insert(job.file_key);
                            cache_order.push_back(job.file_key);
                            TimeSpan::from_micros(
                                job.size.saturating_mul(1_000_000) / cfg.storage_bandwidth.max(1),
                            )
                        };
                        let xfer = TimeSpan::from_micros(
                            job.size.saturating_mul(1_000_000) / sub.bandwidth.max(1),
                        );
                        let service = sub.latency + read_cost + xfer;
                        let finish = now + service;
                        *attempts.entry(job.id).or_insert(0) += 1;
                        *in_flight_files.entry(job.file_key).or_insert(0) += 1;
                        in_flight_by_sub
                            .entry(job.subscriber)
                            .or_default()
                            .push(job.id);
                        part.busy += 1;
                        let id = job.id;
                        in_flight.insert(
                            id,
                            InFlight {
                                job,
                                partition: pi,
                                started: now,
                            },
                        );
                        push_event(&mut events, &mut seq, finish, EventKind::Complete(id));
                    }
                }
            }};
        }

        // Process all events sharing a timestamp before dispatching, so
        // e.g. two releases at the same instant are both visible to the
        // policy when workers are assigned.
        while let Some(Reverse((now, _, kind))) = events.pop() {
            makespan = makespan.max(now);
            let mut batch = vec![kind];
            while let Some(Reverse((t, _, _))) = events.peek() {
                if *t != now {
                    break;
                }
                let Reverse((_, _, k)) = events.pop().unwrap();
                batch.push(k);
            }
            for kind in batch {
                match kind {
                    EventKind::Release(id) => {
                        let job = jobs[&id].clone();
                        admit!(job, now);
                    }
                    EventKind::SubDown(sub_id) => {
                        online.insert(sub_id, false);
                        // abort in-flight transfers to this subscriber
                        if let Some(ids) = in_flight_by_sub.remove(&sub_id) {
                            for jid in ids {
                                if let Some(fl) = in_flight.remove(&jid) {
                                    partitions[fl.partition].busy -= 1;
                                    if let Some(n) = in_flight_files.get_mut(&fl.job.file_key) {
                                        *n -= 1;
                                        if *n == 0 {
                                            in_flight_files.remove(&fl.job.file_key);
                                        }
                                    }
                                    parked_offline.entry(sub_id).or_default().push(fl.job);
                                }
                            }
                        }
                        seq_busy.remove(&sub_id);
                        // park queued jobs for this subscriber
                        for part in partitions.iter_mut() {
                            for j in part.rt.remove_subscriber(sub_id) {
                                parked_offline.entry(sub_id).or_default().push(j);
                            }
                            for j in part.backfill.remove_subscriber(sub_id) {
                                parked_offline.entry(sub_id).or_default().push(j);
                            }
                        }
                        // and any sequencer-pending jobs stay where they are;
                        // move them to parked so recovery re-admits in order
                        if let Some(map) = seq_pending.remove(&sub_id) {
                            parked_offline
                                .entry(sub_id)
                                .or_default()
                                .extend(map.into_values());
                        }
                    }
                    EventKind::SubUp(sub_id) => {
                        online.insert(sub_id, true);
                        if let Some(mut parked) = parked_offline.remove(&sub_id) {
                            parked.sort_by_key(|j| j.id);
                            for job in parked {
                                admit!(job, now);
                            }
                        }
                    }
                    EventKind::Complete(id) => {
                        let Some(fl) = in_flight.remove(&id) else {
                            continue; // aborted transfer's stale completion
                        };
                        partitions[fl.partition].busy -= 1;
                        if let Some(n) = in_flight_files.get_mut(&fl.job.file_key) {
                            *n -= 1;
                            if *n == 0 {
                                in_flight_files.remove(&fl.job.file_key);
                            }
                        }
                        if let Some(v) = in_flight_by_sub.get_mut(&fl.job.subscriber) {
                            v.retain(|&j| j != id);
                        }
                        let sub = &subs[&fl.job.subscriber];
                        let tardiness = now.since(fl.job.deadline);
                        metrics.bytes_delivered.add(fl.job.size);
                        metrics.record_tardiness(sub.class, tardiness);
                        outcomes.insert(
                            id,
                            JobOutcome {
                                job: id,
                                subscriber: fl.job.subscriber,
                                class: sub.class,
                                release: fl.job.release,
                                deadline: fl.job.deadline,
                                completed: Some(now),
                                tardiness: Some(tardiness),
                                attempts: attempts.get(&id).copied().unwrap_or(1),
                                service: Some(now.since(fl.started)),
                                backfill: fl.job.backfill,
                            },
                        );
                        // in-order: admit the subscriber's next job
                        if cfg.backfill == BackfillMode::InOrder {
                            seq_busy.remove(&fl.job.subscriber);
                            if let Some(map) = seq_pending.get_mut(&fl.job.subscriber) {
                                if let Some((&first, _)) = map.iter().next() {
                                    let j = map.remove(&first).unwrap();
                                    seq_busy.insert(fl.job.subscriber);
                                    enqueue(j, now, &mut partitions, &subs, &cfg);
                                }
                            }
                        }
                    }
                }
            }
            dispatch!(now);
            metrics.record_queue_depths(&partitions);
        }

        // jobs that never completed (subscriber stayed offline)
        let mut all_outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
        for (id, job) in &jobs {
            match outcomes.remove(id) {
                Some(o) => all_outcomes.push(o),
                None => {
                    let sub = &subs[&job.subscriber];
                    all_outcomes.push(JobOutcome {
                        job: *id,
                        subscriber: job.subscriber,
                        class: sub.class,
                        release: job.release,
                        deadline: job.deadline,
                        completed: None,
                        tardiness: None,
                        attempts: attempts.get(id).copied().unwrap_or(0),
                        service: None,
                        backfill: job.backfill,
                    });
                }
            }
        }

        SimReport {
            outcomes: all_outcomes,
            makespan,
            cache_hits: metrics.cache_hits.get(),
            cache_misses: metrics.cache_misses.get(),
            bytes_delivered: metrics.bytes_delivered.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    #[test]
    fn single_job_completes() {
        let mut eng = Engine::new(EngineConfig::global(1, PolicyKind::Edf));
        eng.add_subscriber(SubscriberSpec::simple(1, 10 * MB));
        eng.add_job(JobSpec::new(0, 1, 0, 60, 10 * MB));
        let report = eng.run();
        let o = &report.outcomes[0];
        // 10MB at 10MB/s = 1s transfer (+ tiny read cost)
        let done = o.completed.unwrap();
        assert!(done >= TimePoint::from_secs(1));
        assert!(done < TimePoint::from_secs(2));
        assert_eq!(o.tardiness, Some(TimeSpan::ZERO));
    }

    #[test]
    fn edf_meets_deadlines_fifo_misses() {
        // one worker; a long low-urgency job released just before a short
        // urgent one — FIFO runs the long one first and misses.
        let jobs = |eng: &mut Engine| {
            let mut long = JobSpec::new(0, 1, 0, 1_000, 50 * MB); // 5s service, lax deadline
            long.file_key = 100;
            let mut short = JobSpec::new(1, 1, 1, 3, MB); // needs to finish by t=3
            short.file_key = 200;
            eng.add_subscriber(SubscriberSpec::simple(1, 10 * MB));
            eng.add_job(long);
            eng.add_job(short);
        };
        let mut fifo = Engine::new(EngineConfig::global(1, PolicyKind::Fifo));
        jobs(&mut fifo);
        let fifo_report = fifo.run();
        let mut edf = Engine::new(EngineConfig::global(1, PolicyKind::Edf));
        jobs(&mut edf);
        let edf_report = edf.run();

        // FIFO: short job waits ~5s, missing its 3s deadline
        assert!(fifo_report.outcomes[1].tardiness.unwrap() > TimeSpan::ZERO);
        // EDF: at t=1 the long job is already running (non-preemptive), so
        // the short job still waits — but this scenario releases both at 0?
        // Release long at 0, short at 1: non-preemptive EDF also misses.
        // Re-run with both released at 0 for the EDF win:
        let mut edf2 = Engine::new(EngineConfig::global(1, PolicyKind::Edf));
        let mut long = JobSpec::new(0, 1, 0, 1_000, 50 * MB);
        long.file_key = 100;
        let mut short = JobSpec::new(1, 1, 0, 3, MB);
        short.file_key = 200;
        edf2.add_subscriber(SubscriberSpec::simple(1, 10 * MB));
        edf2.add_job(long);
        edf2.add_job(short);
        let edf2_report = edf2.run();
        assert_eq!(edf2_report.outcomes[1].tardiness, Some(TimeSpan::ZERO));
        let _ = edf_report;
    }

    #[test]
    fn offline_subscriber_gets_backfill_on_recovery() {
        let mut eng = Engine::new(EngineConfig::global(2, PolicyKind::Edf));
        let mut sub = SubscriberSpec::simple(1, 10 * MB);
        sub.outages = vec![(TimePoint::from_secs(0), TimePoint::from_secs(100))];
        eng.add_subscriber(sub);
        for i in 0..5 {
            eng.add_job(JobSpec::new(i, 1, 10 * i, 10 * i + 30, MB));
        }
        let report = eng.run();
        for o in &report.outcomes {
            let done = o.completed.expect("all jobs eventually delivered");
            assert!(
                done >= TimePoint::from_secs(100),
                "delivered only after recovery"
            );
        }
        assert_eq!(report.overall().completed, 5);
    }

    #[test]
    fn mid_transfer_failure_retries() {
        let mut eng = Engine::new(EngineConfig::global(1, PolicyKind::Edf));
        let mut sub = SubscriberSpec::simple(1, MB); // 1 MB/s → 10s transfer
        sub.outages = vec![(TimePoint::from_secs(5), TimePoint::from_secs(50))];
        eng.add_subscriber(sub);
        eng.add_job(JobSpec::new(0, 1, 0, 20, 10 * MB));
        let report = eng.run();
        let o = &report.outcomes[0];
        assert_eq!(o.attempts, 2, "aborted once, retried after recovery");
        assert!(o.completed.unwrap() >= TimePoint::from_secs(60));
    }

    #[test]
    fn never_recovering_subscriber_leaves_unfinished() {
        let mut eng = Engine::new(EngineConfig::global(1, PolicyKind::Edf));
        let mut sub = SubscriberSpec::simple(1, MB);
        sub.outages = vec![(TimePoint::EPOCH, TimePoint::MAX)];
        eng.add_subscriber(sub);
        eng.add_job(JobSpec::new(0, 1, 10, 20, MB));
        let report = eng.run();
        assert_eq!(report.outcomes[0].completed, None);
        assert_eq!(report.overall().completed, 0);
        assert_eq!(report.overall().misses, 1);
    }

    #[test]
    fn partitioned_isolates_slow_subscribers() {
        // class 0: fast subscriber with tight deadlines.
        // class 1: very slow subscriber with a huge backlog.
        // Global EDF: slow jobs with early deadlines occupy all workers.
        // Partitioned: class 0 keeps its own worker and stays on time.
        let build = |cfg: EngineConfig| {
            let mut eng = Engine::new(cfg);
            let mut fast = SubscriberSpec::simple(1, 100 * MB);
            fast.class = 0;
            let mut slow = SubscriberSpec::simple(2, MB / 10); // 0.1 MB/s
            slow.class = 1;
            eng.add_subscriber(fast);
            eng.add_subscriber(slow);
            let mut id = 0;
            // slow subscriber backlog: 20 × 10MB files, early deadlines
            for i in 0..20 {
                let mut j = JobSpec::new(id, 2, 0, 1 + i, 10 * MB);
                j.file_key = 1000 + id;
                eng.add_job(j);
                id += 1;
            }
            // fast subscriber real-time flow: a file every 10s, 30s deadline
            for i in 0..20 {
                let mut j = JobSpec::new(id, 1, 10 * i, 10 * i + 30, 10 * MB);
                j.file_key = 1000 + id;
                eng.add_job(j);
                id += 1;
            }
            eng
        };

        let global = build(EngineConfig::global(2, PolicyKind::Edf)).run();
        let parted = build(EngineConfig::partitioned(&[1, 1])).run();

        let global_fast = &global.per_class()[&0];
        let parted_fast = &parted.per_class()[&0];
        assert!(
            parted_fast.max_tardiness < global_fast.max_tardiness,
            "partitioned fast-class max tardiness {} should beat global {}",
            parted_fast.max_tardiness,
            global_fast.max_tardiness
        );
        assert_eq!(
            parted_fast.misses, 0,
            "partitioned fast class fully on time"
        );
    }

    #[test]
    fn concurrent_backfill_protects_realtime() {
        let build = |mode: BackfillMode| {
            let mut cfg = EngineConfig::global(1, PolicyKind::Edf);
            cfg.backfill = mode;
            let mut eng = Engine::new(cfg);
            eng.add_subscriber(SubscriberSpec::simple(1, 10 * MB));
            let mut id = 0;
            // backlog of 50 × 10MB backfill jobs released at t=0 (1s each)
            for _ in 0..50 {
                let mut j = JobSpec::new(id, 1, 0, 10_000, 10 * MB);
                j.backfill = true;
                j.file_key = id;
                eng.add_job(j);
                id += 1;
            }
            // real-time stream: 1MB file every 5s, 10s deadline
            for i in 0..10 {
                let mut j = JobSpec::new(id, 1, 5 * i, 5 * i + 10, MB);
                j.file_key = id;
                eng.add_job(j);
                id += 1;
            }
            eng
        };
        let concurrent = build(BackfillMode::Concurrent).run();
        let inorder = build(BackfillMode::InOrder).run();

        let c_rt = concurrent.realtime_only();
        let i_rt = inorder.realtime_only();
        assert_eq!(c_rt.misses, 0, "concurrent: real-time stays on time");
        assert!(
            i_rt.misses > 0,
            "in-order: real-time waits behind the backlog"
        );
        // both eventually deliver everything
        assert_eq!(concurrent.overall().completed, 60);
        assert_eq!(inorder.overall().completed, 60);
    }

    #[test]
    fn cache_shares_reads_across_subscribers() {
        // the same file delivered to 8 subscribers: 1 miss + 7 hits
        let mut eng = Engine::new(EngineConfig::global(8, PolicyKind::Edf));
        for s in 1..=8 {
            eng.add_subscriber(SubscriberSpec::simple(s, 10 * MB));
        }
        for (i, s) in (1..=8).enumerate() {
            let mut j = JobSpec::new(i as u64, s, 0, 60, 10 * MB);
            j.file_key = 777;
            eng.add_job(j);
        }
        let report = eng.run();
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 7);
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let mut eng = Engine::new(EngineConfig::partitioned(&[2, 1]));
            for s in 1..=6 {
                let mut sub = SubscriberSpec::simple(s as u32, s * MB);
                sub.class = (s % 2) as usize;
                eng.add_subscriber(sub);
            }
            for i in 0..100u64 {
                let mut j = JobSpec::new(i, 1 + (i % 6) as u32, i, i + 30, MB + i * 1000);
                j.file_key = i % 10;
                eng.add_job(j);
            }
            eng.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.bytes_delivered, b.bytes_delivered);
        assert_eq!(a.makespan, b.makespan);
        let ams: Vec<_> = a.outcomes.iter().map(|o| o.completed).collect();
        let bms: Vec<_> = b.outcomes.iter().map(|o| o.completed).collect();
        assert_eq!(ams, bms);
    }

    #[test]
    fn telemetry_mirrors_report_tallies() {
        use bistro_telemetry::Registry;
        let reg = Registry::new();
        let mut eng = Engine::new(EngineConfig::global(2, PolicyKind::Edf));
        eng.set_telemetry(reg.clone());
        eng.add_subscriber(SubscriberSpec::simple(1, 10 * MB));
        // deadline at release: guaranteed tardy by the service time
        eng.add_job(JobSpec::new(0, 1, 0, 0, 10 * MB));
        eng.add_job(JobSpec::new(1, 1, 0, 100, 3 * MB));
        let report = eng.run();
        assert_eq!(
            reg.counter_value("sched.bytes_delivered"),
            Some(report.bytes_delivered)
        );
        assert_eq!(
            reg.counter_value("sched.cache_misses"),
            Some(report.cache_misses)
        );
        // both completions recorded in the class-0 tardiness histogram,
        // one of them tardy
        let p_max = reg
            .histogram_quantile("sched.tardiness_us.class0", 1.0)
            .unwrap();
        assert!(p_max > 0, "tardy job must show in the histogram");
        assert!(reg.gauge_value("sched.queue_depth.part0").unwrap() >= 0);
        // the report bridge publishes the same totals
        report.publish(&reg);
        assert_eq!(reg.counter_value("sched.jobs"), Some(2));
        assert_eq!(reg.counter_value("sched.completed"), Some(2));
        assert_eq!(reg.counter_value("sched.deadline_misses"), Some(1));
    }

    #[test]
    fn bytes_accounting() {
        let mut eng = Engine::new(EngineConfig::global(2, PolicyKind::Edf));
        eng.add_subscriber(SubscriberSpec::simple(1, 10 * MB));
        eng.add_job(JobSpec::new(0, 1, 0, 100, 3 * MB));
        eng.add_job(JobSpec::new(1, 1, 0, 100, 4 * MB));
        let report = eng.run();
        assert_eq!(report.bytes_delivered, 7 * MB);
    }
}

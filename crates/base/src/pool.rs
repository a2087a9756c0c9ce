//! A deterministic worker pool with sharded work queues.
//!
//! The parallel ingest stage (`core::parallel`) needs to fan CPU-bound
//! work (classify + normalize) across threads *without* giving up the
//! workspace's reproducibility guarantees. The usual shared-queue /
//! work-stealing designs make the item→worker assignment depend on
//! thread scheduling, which leaks into any per-worker accounting. This
//! pool instead uses **static sharding**: item `i` of a batch always
//! goes to worker `i % workers`, so the partition of work — and every
//! per-worker statistic derived from it — is a pure function of the
//! input, independent of how the OS schedules the threads.
//!
//! Results come back **in input order** regardless of completion order:
//! each worker writes its results straight into the pre-sized output
//! slots for its own shard. Combined with static sharding this gives the
//! determinism contract the ingest pipeline builds on: for a pure `f`,
//! `pool.map(items, f)` is byte-for-byte identical for any worker count.
//!
//! Threads are scoped per call (`std::thread::scope`) rather than kept
//! alive: batch ingest is bursty, a scope borrows the caller's data
//! without `'static` bounds or channels, and spawning a handful of
//! threads costs tens of microseconds each — small beside a batch of
//! compression, not beside a batch of name classifications, so whether a
//! batch is worth a pool at all is the caller's decision
//! (`Server::deposit_batch` makes it from the config). Zero external
//! dependencies, per the hermetic build rule.

/// How one worker's shard of a [`Pool::map_with_stats`] call went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Items this worker processed.
    pub jobs: u64,
}

/// A fixed-width worker pool. See the module docs for the determinism
/// contract.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool of `workers` threads; `0` is clamped to `1`.
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, in parallel across the pool's workers,
    /// returning results in input order. `f` receives `(index, item)`.
    ///
    /// With one worker (or zero/one items) the map runs inline on the
    /// caller's thread — same results, no spawn cost.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_with_stats(items, f).0
    }

    /// Like [`Pool::map`], also reporting per-worker shard statistics.
    /// The stats vector always has exactly `workers` entries (idle
    /// workers report zero jobs) and, by static sharding, is identical
    /// for a given input length no matter how threads were scheduled.
    pub fn map_with_stats<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<R>, Vec<ShardStat>)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n.max(1));
        let mut stats: Vec<ShardStat> = (0..self.workers)
            .map(|worker| ShardStat { worker, jobs: 0 })
            .collect();

        if workers <= 1 || n <= 1 {
            let out: Vec<R> = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
            stats[0].jobs = n as u64;
            return (out, stats);
        }

        // Shard statically: worker w takes items {i | i % workers == w},
        // keeping each shard's (index, item) pairs in input order.
        let mut shards: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            shards[i % workers].push((i, item));
        }
        for (w, shard) in shards.iter().enumerate() {
            stats[w].jobs = shard.len() as u64;
        }

        let mut results: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    scope.spawn(|| {
                        shard
                            .into_iter()
                            .map(|(i, item)| (i, f(i, item)))
                            .collect::<Vec<(usize, R)>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });

        // Merge back to input order: round-robin across shards is the
        // exact inverse of the sharding above.
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for shard in &mut results {
            for (i, r) in shard.drain(..) {
                out[i] = Some(r);
            }
        }
        let out = out
            .into_iter()
            .map(|r| r.expect("every index assigned to exactly one shard"))
            .collect();
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for workers in [1, 2, 4, 8] {
            let pool = Pool::new(workers);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.map(items, |i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let items: Vec<String> = (0..57).map(|i| format!("item-{i}")).collect();
        let reference = Pool::new(1).map(items.clone(), |i, s| format!("{i}:{s}"));
        for workers in [2, 3, 4, 8, 16] {
            let out = Pool::new(workers).map(items.clone(), |i, s| format!("{i}:{s}"));
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn stats_are_static_shards() {
        let (out, stats) = Pool::new(4).map_with_stats((0..10).collect::<Vec<u64>>(), |_, x| x);
        assert_eq!(out.len(), 10);
        // 10 items over 4 workers: shards of 3, 3, 2, 2
        assert_eq!(
            stats,
            vec![
                ShardStat { worker: 0, jobs: 3 },
                ShardStat { worker: 1, jobs: 3 },
                ShardStat { worker: 2, jobs: 2 },
                ShardStat { worker: 3, jobs: 2 },
            ]
        );
        // stats don't depend on scheduling: re-run gives the same split
        let (_, again) = Pool::new(4).map_with_stats((0..10).collect::<Vec<u64>>(), |_, x| x);
        assert_eq!(again, stats);
    }

    #[test]
    fn inline_paths_report_stats() {
        let (out, stats) = Pool::new(1).map_with_stats(vec![5u64, 6, 7], |_, x| x + 1);
        assert_eq!(out, vec![6, 7, 8]);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].jobs, 3);
        // single item on a wide pool stays inline but keeps 8 stat slots
        let (out, stats) = Pool::new(8).map_with_stats(vec![1u64], |_, x| x);
        assert_eq!(out, vec![1]);
        assert_eq!(stats.len(), 8);
        assert_eq!(stats[0].jobs, 1);
        assert!(stats[1..].iter().all(|s| s.jobs == 0));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(vec![1, 2], |_, x| x), vec![1, 2]);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = Pool::new(4).map_with_stats(Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.jobs == 0));
    }
}

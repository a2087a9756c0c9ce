//! Property-based tests for the delivery simulator.

use bistro_base::prop::{self, Runner};
use bistro_base::rng::Rng;
use bistro_base::{prop_assert, prop_assert_eq, TimePoint, TimeSpan};
use bistro_scheduler::{BackfillMode, Engine, EngineConfig, JobSpec, PolicyKind, SubscriberSpec};

const MB: u64 = 1_000_000;

// (subscriber 1..=4, release_s, deadline_offset_s, size)
fn jobs_gen(rng: &mut Rng) -> Vec<(u64, u64, u64, u64)> {
    prop::vec_of(rng, 1..=39, |r| {
        (
            r.gen_range(1u64..=4),
            r.gen_range(0u64..500),
            r.gen_range(1u64..100),
            r.gen_range(1_000u64..5 * MB),
        )
    })
}

/// Shrunk tuples can leave the generator's domain; skip those cases.
fn jobs_in_domain(jobs: &[(u64, u64, u64, u64)]) -> bool {
    !jobs.is_empty()
        && jobs
            .iter()
            .all(|&(sub, _, dl, size)| (1..=4).contains(&sub) && dl >= 1 && size >= 1_000)
}

/// With every subscriber always online, every job completes, exactly
/// once, at or after its release, under every policy.
#[test]
fn all_jobs_complete_online() {
    Runner::new("all_jobs_complete_online").cases(32).run(
        |rng| (jobs_gen(rng), rng.gen_range(0usize..5)),
        |(jobs, policy_idx)| {
            if !jobs_in_domain(jobs) || *policy_idx >= 5 {
                return Ok(());
            }
            let policy = PolicyKind::all()[*policy_idx];
            let mut eng = Engine::new(EngineConfig::global(2, policy));
            for s in 1..=4 {
                eng.add_subscriber(SubscriberSpec::simple(s, 5 * MB));
            }
            for (i, (sub, rel, dl, size)) in jobs.iter().enumerate() {
                let mut j = JobSpec::new(i as u64, *sub as u32, *rel, rel + dl, *size);
                j.file_key = i as u64 % 7;
                eng.add_job(j);
            }
            let report = eng.run();
            prop_assert_eq!(report.outcomes.len(), jobs.len());
            let mut bytes = 0u64;
            for (o, (_, rel, _, size)) in report.outcomes.iter().zip(jobs.iter()) {
                let done = o.completed.expect("online subscribers always complete");
                prop_assert!(done >= TimePoint::from_secs(*rel));
                bytes += size;
            }
            prop_assert_eq!(report.bytes_delivered, bytes);
            prop_assert!(report.cache_hits + report.cache_misses >= jobs.len() as u64);
            Ok(())
        },
    );
}

/// With outages, every job to a subscriber that eventually recovers
/// still completes (the reliability guarantee), under both backfill
/// modes.
#[test]
fn outages_never_lose_jobs() {
    Runner::new("outages_never_lose_jobs").cases(32).run(
        |rng| {
            (
                jobs_gen(rng),
                rng.gen_range(0u64..300),
                rng.gen_range(1u64..300),
                rng.gen_bool(0.5),
            )
        },
        |(jobs, down, dur, inorder)| {
            if !jobs_in_domain(jobs) || *dur == 0 {
                return Ok(());
            }
            let mut cfg = EngineConfig::global(2, PolicyKind::Edf);
            cfg.backfill = if *inorder {
                BackfillMode::InOrder
            } else {
                BackfillMode::Concurrent
            };
            let mut eng = Engine::new(cfg);
            for s in 1..=4 {
                let mut sub = SubscriberSpec::simple(s, 5 * MB);
                if s == 1 {
                    sub.outages = vec![(
                        TimePoint::from_secs(*down),
                        TimePoint::from_secs(down + dur),
                    )];
                }
                eng.add_subscriber(sub);
            }
            for (i, (sub, rel, dl, size)) in jobs.iter().enumerate() {
                eng.add_job(JobSpec::new(i as u64, *sub as u32, *rel, rel + dl, *size));
            }
            let report = eng.run();
            for o in &report.outcomes {
                prop_assert!(o.completed.is_some(), "job {} never delivered", o.job);
            }
            Ok(())
        },
    );
}

/// Makespan is bounded below by the serial work on the busiest
/// single-worker partition's subscriber.
#[test]
fn makespan_sanity() {
    Runner::new("makespan_sanity")
        .cases(32)
        .run(jobs_gen, |jobs| {
            if !jobs_in_domain(jobs) {
                return Ok(());
            }
            let mut eng = Engine::new(EngineConfig::global(4, PolicyKind::Edf));
            for s in 1..=4 {
                eng.add_subscriber(SubscriberSpec::simple(s, 5 * MB));
            }
            let mut total_xfer_us = 0u64;
            for (i, (sub, rel, dl, size)) in jobs.iter().enumerate() {
                eng.add_job(JobSpec::new(i as u64, *sub as u32, *rel, rel + dl, *size));
                total_xfer_us += size * 1_000_000 / (5 * MB);
            }
            let report = eng.run();
            // 4 workers: makespan * 4 >= total transfer time
            let makespan_us = report.makespan.as_micros();
            prop_assert!(
                makespan_us.saturating_mul(4) + 1_000_000 >= total_xfer_us,
                "makespan {} too small for {} us of work",
                makespan_us,
                total_xfer_us
            );
            let _ = TimeSpan::ZERO;
            Ok(())
        });
}

//! Property test: InOrder backfill mode delivers each subscriber's jobs
//! strictly in job-id order (the ordering guarantee that mode trades
//! real-time performance for).

use bistro_base::prop::{self, Runner};
use bistro_base::{prop_assert_eq, TimePoint};
use bistro_scheduler::{BackfillMode, Engine, EngineConfig, JobSpec, PolicyKind, SubscriberSpec};
use std::collections::HashMap;

/// Runs the InOrder scenario and returns Err describing the first
/// out-of-order subscriber, if any.
fn check_inorder(jobs: &[(u64, u64, u64)], outage: Option<(u64, u64)>) -> Result<(), String> {
    let mut cfg = EngineConfig::global(3, PolicyKind::Edf);
    cfg.backfill = BackfillMode::InOrder;
    let mut eng = Engine::new(cfg);
    for s in 1..=3 {
        let mut sub = SubscriberSpec::simple(s, 2_000_000);
        if s == 1 {
            if let Some((down, dur)) = outage {
                sub.outages = vec![(TimePoint::from_secs(down), TimePoint::from_secs(down + dur))];
            }
        }
        eng.add_subscriber(sub);
    }
    // ids must follow arrival (release) order — that is the engine's
    // documented contract; the server assigns ids on arrival. The
    // generated per-job values are treated as release *gaps*.
    let mut release = 0u64;
    for (i, &(sub, gap, size)) in jobs.iter().enumerate() {
        release += gap;
        // deadlines deliberately scrambled relative to ids so EDF
        // would reorder if allowed to
        let mut j = JobSpec::new(
            i as u64,
            sub as u32,
            release,
            release + 1 + (i as u64 * 37) % 100,
            size,
        );
        j.file_key = i as u64;
        eng.add_job(j);
    }
    let report = eng.run();

    let mut per_sub: HashMap<u32, Vec<(TimePoint, u64)>> = HashMap::new();
    for o in &report.outcomes {
        let done = o.completed.expect("everything completes");
        per_sub
            .entry(o.subscriber.raw())
            .or_default()
            .push((done, o.job));
    }
    for (sub, mut v) in per_sub {
        v.sort();
        let ids: Vec<u64> = v.iter().map(|&(_, id)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ids, sorted, "subscriber {} out of order", sub);
    }
    Ok(())
}

#[test]
fn inorder_mode_preserves_per_subscriber_order() {
    Runner::new("inorder_mode_preserves_per_subscriber_order")
        .cases(32)
        .run(
            |rng| {
                (
                    prop::vec_of(rng, 1..=39, |r| {
                        (
                            r.gen_range(1u64..=3),
                            r.gen_range(0u64..20),
                            r.gen_range(1_000u64..2_000_000),
                        )
                    }),
                    prop::option_of(rng, |r| (r.gen_range(0u64..100), r.gen_range(1u64..100))),
                )
            },
            |(jobs, outage)| {
                // shrunk values can leave the generator's domain
                if jobs.is_empty()
                    || jobs
                        .iter()
                        .any(|&(sub, _, size)| !(1..=3).contains(&sub) || size < 1_000)
                    || outage.is_some_and(|(_, dur)| dur == 0)
                {
                    return Ok(());
                }
                check_inorder(jobs, *outage)
            },
        );
}

/// Regression found by the property test: two jobs for the same
/// subscriber where the first has a later deadline than the second —
/// EDF would swap them; InOrder must not.
#[test]
fn inorder_regression_two_jobs_scrambled_deadlines() {
    let jobs = [(2, 139, 1_000), (2, 0, 1_000)];
    if let Err(e) = check_inorder(&jobs, None) {
        panic!("{e}");
    }
}

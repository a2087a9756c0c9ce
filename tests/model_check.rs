//! Bounded exhaustive model checking of the distributed stack
//! (DESIGN.md §11), driven by `bistro-mc`.
//!
//! Each test prints one `[mc] scenario=…` line with the explored-state
//! and duration counters; the CI `mc` stage runs this file uncaptured
//! so those counters land in the build log.

use bistro::mc::scenarios::{ClusterFailover, SingleServer};
use bistro::mc::{explore, replay, Action, Bounds, Model, Outcome};

/// Debug-mode exploration costs roughly a millisecond per transition,
/// so the default caps keep a plain `cargo test` run around a minute
/// while still covering ~20k distinct states across the file. The CI
/// `mc` stage raises the cap through `BISTRO_MC_STATES` and runs in
/// release mode, where the same scenarios cover >100k states.
fn state_cap(default_states: usize) -> usize {
    std::env::var("BISTRO_MC_STATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_states)
}

fn label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Pass(_) => "pass",
        Outcome::Truncated(_) => "truncated",
        Outcome::Violation { .. } => "violation",
    }
}

/// Print the scenario's `[mc]` line and, under the CI `mc` stage's
/// `BISTRO_MC_STATES=60000`, hold its outcome and explored-state count
/// to `pinned` — the counts that stage prints are a pinned surface: a
/// change that moves one changes the explored space and must say why.
/// A plain `cargo test` checks only each test's lower bound.
fn report(scenario: &str, outcome: &Outcome, pinned: (&str, usize)) {
    println!(
        "[mc] scenario={scenario} outcome={} {}",
        label(outcome),
        outcome.stats()
    );
    if std::env::var("BISTRO_MC_STATES").as_deref() == Ok("60000") {
        assert_eq!(
            (label(outcome), outcome.stats().states),
            pinned,
            "[mc] scenario={scenario} moved off its pinned count"
        );
    }
}

/// Scenario 1: reliable delivery over a single lossy link. Every
/// interleaving of message delivery, loss, duplication and retry-timer
/// firings for two deposited files — exactly-once receipts and
/// quiescence completeness must hold in every reached state.
#[test]
fn reliable_link_survives_drops_duplicates_and_retries() {
    let mut model = SingleServer::reliable_delivery(2, 4);
    let outcome = explore(
        &mut model,
        Bounds {
            max_depth: 12,
            max_states: state_cap(14_000),
        },
    );
    report("reliable-link", &outcome, ("truncated", 60_000));
    if let Some(cx) = outcome.counterexample() {
        panic!("unexpected counterexample:\n{cx}");
    }
    assert!(
        outcome.stats().states >= 12_000,
        "exploration too shallow: {}",
        outcome.stats()
    );
}

/// Scenario 2: crash at any point, restart over the durable store. WAL
/// replay must preserve every acked receipt and the unacked backfill
/// must complete delivery without double-applying at the subscriber.
#[test]
fn crash_restart_replays_wal_and_backfills_unacked() {
    let mut model = SingleServer::crash_restart(2);
    let outcome = explore(
        &mut model,
        Bounds {
            max_depth: 12,
            max_states: state_cap(6_000),
        },
    );
    report("crash-restart", &outcome, ("pass", 51_222));
    if let Some(cx) = outcome.counterexample() {
        panic!("unexpected counterexample:\n{cx}");
    }
    assert!(
        outcome.stats().states >= 5_000,
        "exploration too shallow: {}",
        outcome.stats()
    );
}

/// Scenario 3 with the replica epoch fence on (the default): every
/// interleaving of ingress, crash, failure declaration and control- and
/// data-plane message delivery keeps exactly-once delivery, epoch
/// monotonicity and the single-live-home property.
#[test]
fn cluster_failover_with_fence_holds_every_invariant() {
    let mut model = ClusterFailover::new(2, true);
    let outcome = explore(
        &mut model,
        Bounds {
            max_depth: 14,
            max_states: 60_000,
        },
    );
    report("cluster-failover", &outcome, ("pass", 245));
    if let Some(cx) = outcome.counterexample() {
        panic!("unexpected counterexample:\n{cx}");
    }
    // the reachable space at this depth is small (a few hundred states)
    // but must be explored to exhaustion, i.e. the outcome is Pass, not
    // Truncated, and every one of those states passed every invariant
    assert!(
        matches!(outcome, Outcome::Pass(_)),
        "failover space must be exhausted: {}",
        outcome.stats()
    );
    assert!(
        outcome.stats().states >= 200,
        "exploration too shallow: {}",
        outcome.stats()
    );
}

/// Revert-verified regression for the in-flight-replicate vs.
/// backfill-marking race: with the fence disabled
/// ([`bistro::server::Cluster::set_replica_fence`]) the checker must
/// rediscover the duplicate delivery and produce a minimized,
/// replayable counterexample; the minimal schedule necessarily
/// contains the crash, the failure declaration, and the late replica.
#[test]
fn disabling_the_replica_fence_reintroduces_the_backfill_race() {
    let mut model = ClusterFailover::new(1, false);
    let outcome = explore(
        &mut model,
        Bounds {
            max_depth: 14,
            max_states: 60_000,
        },
    );
    report("cluster-failover-unfenced", &outcome, ("violation", 34));
    let cx = outcome
        .counterexample()
        .expect("the unfenced race must be found");
    println!("{cx}");
    assert!(
        cx.invariant.contains("exactly-once"),
        "wrong invariant: {}",
        cx.invariant
    );
    assert!(
        cx.trace.iter().any(|a| matches!(a, Action::Crash { .. })),
        "minimal trace must crash the home"
    );
    assert!(
        cx.trace
            .iter()
            .any(|a| matches!(a, Action::DeclareFailed { .. })),
        "minimal trace must declare the failure"
    );
    // the witness replays: same trace, same violation
    replay(&mut model, &cx.trace).expect("counterexample must replay");
    assert!(
        model.check().is_err(),
        "replaying the counterexample must reproduce the violation"
    );
    // and the fence closes exactly this schedule: replaying it with the
    // fence on must never violate — the fence rejects the late replica,
    // so the duplicate delivery it would have produced no longer exists
    // as an action (skipped below) and no state along the way breaks an
    // invariant
    let mut fenced = ClusterFailover::new(1, true);
    let mut skipped = 0;
    for action in &cx.trace {
        if fenced.apply(action).is_err() {
            skipped += 1;
        }
        assert!(
            fenced.check().is_ok(),
            "the epoch fence must close the counterexample schedule"
        );
    }
    assert!(
        skipped > 0,
        "the fence must make the duplicate-delivery action impossible"
    );
}

/// Same-seed determinism regression (the property replay-based checking
/// rests on): two independently built models stepped through the same
/// schedule must agree on every state digest. Catches nondeterministic
/// iteration (HashMap order differs between instances within one
/// process) sneaking back into the protocol layers.
#[test]
fn same_schedule_twice_yields_identical_state_digests() {
    let mut a = ClusterFailover::new(2, true);
    let mut b = ClusterFailover::new(2, true);
    assert_eq!(a.digest(), b.digest(), "initial digests diverge");
    for step in 0..32 {
        let actions = a.enabled();
        let Some(action) = actions.into_iter().next() else {
            break;
        };
        a.apply(&action).expect("run A applies");
        b.apply(&action).expect("run B applies");
        assert_eq!(
            a.digest(),
            b.digest(),
            "digests diverge at step {step} after {action}"
        );
    }

    let mut a = SingleServer::reliable_delivery(2, 4);
    let mut b = SingleServer::reliable_delivery(2, 4);
    assert_eq!(a.digest(), b.digest(), "initial digests diverge");
    for step in 0..32 {
        // exercise the *last* enabled action too (retry firings, crash
        // paths) by alternating ends of the enabled set
        let actions = a.enabled();
        if actions.is_empty() {
            break;
        }
        let action = if step % 2 == 0 {
            actions.into_iter().next().unwrap()
        } else {
            actions.into_iter().next_back().unwrap()
        };
        a.apply(&action).expect("run A applies");
        b.apply(&action).expect("run B applies");
        assert_eq!(
            a.digest(),
            b.digest(),
            "digests diverge at step {step} after {action}"
        );
    }
}

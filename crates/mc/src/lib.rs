//! `bistro-mc`: a bounded exhaustive model checker for Bistro's
//! distributed protocols (DESIGN.md §11).
//!
//! The production simulation ([`bistro_transport::SimNetwork`]) delivers
//! messages in arrival-time order, so one seed explores one schedule.
//! The checker instead takes control of scheduling: a [`Model`] exposes
//! the set of *enabled actions* in its current state — deliver, drop or
//! duplicate one in-flight message, fire the retry timer, crash or
//! restart a server, declare a failure — and [`explore`] walks every
//! interleaving of those actions up to a depth bound, checking the
//! model's invariants in every state it reaches.
//!
//! States are deduplicated by a schedule-independent digest (directory
//! epochs, receipt-store contents, the in-flight message multiset —
//! never timestamps or fabric sequence numbers), so interleavings that
//! converge to the same protocol state are explored once.
//!
//! Bistro's `Server` and `Cluster` are not cloneable — they own WAL
//! handles and durable stores — so the checker is *replay-based*: a
//! state is represented by the action trace that reaches it, and
//! visiting a state means [`Model::reset`] followed by re-applying the
//! trace. Determinism is what makes this sound: the same trace always
//! reproduces the same state (bit-for-bit — see the same-seed digest
//! regression in `tests/model_check.rs`).
//!
//! A violated invariant yields a [`Counterexample`]: the action trace,
//! greedily minimized (every action that can be removed while still
//! reproducing the violation is removed) and re-verified by replay.

pub mod scenarios;

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

/// One scheduling decision the checker can make. `Deliver`, `Drop` and
/// `Duplicate` address an in-flight message by its
/// `(endpoint, fabric seq)` pair (see
/// [`bistro_transport::SimNetwork::pending_messages`]); the rest are
/// whole-node events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Hand the addressed in-flight message to its destination now.
    Deliver {
        /// Destination endpoint.
        endpoint: String,
        /// Fabric sequence number of the copy.
        seq: u64,
    },
    /// Silently discard the addressed in-flight message.
    Drop {
        /// Destination endpoint.
        endpoint: String,
        /// Fabric sequence number of the copy.
        seq: u64,
    },
    /// Enqueue a second copy of the addressed in-flight message.
    Duplicate {
        /// Destination endpoint.
        endpoint: String,
        /// Fabric sequence number of the copy.
        seq: u64,
    },
    /// Lapse every outstanding retry deadline at `server` and
    /// retransmit ([`bistro_core::Server::retry_fire`]).
    RetryFire {
        /// The server whose retry timer fires.
        server: String,
    },
    /// Crash `server`: its in-memory state is lost, its durable store
    /// survives.
    Crash {
        /// The server that crashes.
        server: String,
    },
    /// Restart `server` over its durable store and re-deliver whatever
    /// the recovered receipts do not show as delivered.
    Restart {
        /// The server that restarts.
        server: String,
    },
    /// The failure detector declares `server` dead *now*
    /// ([`bistro_core::Cluster::declare_failed`]), promoting standbys.
    DeclareFailed {
        /// The server declared failed.
        server: String,
    },
    /// Inject the model's `index`-th ingress event (a source deposit).
    Ingress {
        /// Which ingress event fires.
        index: usize,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { endpoint, seq } => write!(f, "deliver({endpoint}, #{seq})"),
            Action::Drop { endpoint, seq } => write!(f, "drop({endpoint}, #{seq})"),
            Action::Duplicate { endpoint, seq } => write!(f, "duplicate({endpoint}, #{seq})"),
            Action::RetryFire { server } => write!(f, "retry-fire({server})"),
            Action::Crash { server } => write!(f, "crash({server})"),
            Action::Restart { server } => write!(f, "restart({server})"),
            Action::DeclareFailed { server } => write!(f, "declare-failed({server})"),
            Action::Ingress { index } => write!(f, "ingress(#{index})"),
        }
    }
}

/// A system under test. Implementations own the real Bistro objects
/// (servers, cluster, network) plus an environment model (subscribers,
/// pending ingress) and must be *deterministic*: after [`Model::reset`],
/// re-applying the same actions reproduces the same state and the same
/// [`Model::digest`].
pub trait Model {
    /// Return to the initial state. Called once per replay — keep it as
    /// cheap as the system allows.
    fn reset(&mut self);

    /// Every action enabled in the current state. Order is the DFS
    /// visit order; it must be deterministic.
    fn enabled(&self) -> Vec<Action>;

    /// Apply one action. `Err` means the action is not applicable in
    /// this state — legal during counterexample minimization (a removed
    /// prefix action can invalidate a later one), a bug if it happens
    /// for an action [`Model::enabled`] just returned.
    fn apply(&mut self, action: &Action) -> Result<(), String>;

    /// Schedule-independent digest of the current state, for visited-set
    /// deduplication.
    fn digest(&self) -> u64;

    /// Check every invariant; `Err` describes the violated one.
    fn check(&self) -> Result<(), String>;
}

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Longest action trace explored.
    pub max_depth: usize,
    /// Stop after this many distinct states.
    pub max_states: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_depth: 12,
            max_states: 100_000,
        }
    }
}

/// Exploration counters, reported by the CI `mc` stage.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Distinct states visited (including the initial state).
    pub states: usize,
    /// Actions applied at exploration frontiers (excludes replays).
    pub transitions: usize,
    /// Transitions that led to an already-visited state.
    pub deduped: usize,
    /// Deepest trace that reached a new state.
    pub max_depth: usize,
    /// Wall-clock time of the exploration.
    pub elapsed_ms: u128,
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "states={} transitions={} deduped={} max_depth={} elapsed_ms={}",
            self.states, self.transitions, self.deduped, self.max_depth, self.elapsed_ms
        )
    }
}

/// A replayable witness of an invariant violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Minimized action trace; replaying it from [`Model::reset`]
    /// reproduces the violation.
    pub trace: Vec<Action>,
    /// The violated invariant's description.
    pub invariant: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        writeln!(f, "replayable trace ({} actions):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {a}")?;
        }
        Ok(())
    }
}

/// The result of an exploration.
#[derive(Debug)]
pub enum Outcome {
    /// Every reachable state within the depth bound was visited and all
    /// invariants held.
    Pass(Stats),
    /// The state cap was hit first; no violation in what was explored.
    Truncated(Stats),
    /// An invariant was violated.
    Violation {
        /// The minimized, replay-verified witness.
        counterexample: Counterexample,
        /// Counters up to the point of violation.
        stats: Stats,
    },
}

impl Outcome {
    /// The exploration counters, whatever the outcome.
    pub fn stats(&self) -> &Stats {
        match self {
            Outcome::Pass(s) | Outcome::Truncated(s) => s,
            Outcome::Violation { stats, .. } => stats,
        }
    }

    /// The counterexample, if the exploration found a violation.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Outcome::Violation { counterexample, .. } => Some(counterexample),
            _ => None,
        }
    }
}

/// Reset the model and re-apply `trace`. `Err` carries the failing
/// action's index and the model's error.
pub fn replay(model: &mut dyn Model, trace: &[Action]) -> Result<(), String> {
    model.reset();
    for (i, a) in trace.iter().enumerate() {
        model
            .apply(a)
            .map_err(|e| format!("action {i} ({a}) failed: {e}"))?;
    }
    Ok(())
}

/// Replay `trace`, checking invariants after every action. `Some` is
/// the first violation's description; `None` means the trace either
/// does not apply or applies cleanly.
fn violation_of(model: &mut dyn Model, trace: &[Action]) -> Option<String> {
    model.reset();
    if let Err(v) = model.check() {
        return Some(v);
    }
    for a in trace {
        if model.apply(a).is_err() {
            return None;
        }
        if let Err(v) = model.check() {
            return Some(v);
        }
    }
    None
}

/// Greedily minimize a violating trace: repeatedly drop any single
/// action whose removal still reproduces a violation, to a fixpoint.
/// The result is 1-minimal (no single action can be removed), not
/// globally minimal — enough to make counterexamples readable.
pub fn minimize(model: &mut dyn Model, trace: &[Action]) -> Vec<Action> {
    let mut best = trace.to_vec();
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            if violation_of(model, &candidate).is_some() {
                best = candidate;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Depth-first bounded exploration of every interleaving of `model`'s
/// enabled actions, deduplicating states by digest and checking
/// invariants in every state reached. On violation the witness trace is
/// minimized and re-verified by replay before being returned.
pub fn explore(model: &mut dyn Model, bounds: Bounds) -> Outcome {
    let started = Instant::now();
    let mut stats = Stats::default();
    let mut visited: HashSet<u64> = HashSet::new();

    model.reset();
    if let Err(invariant) = model.check() {
        stats.elapsed_ms = started.elapsed().as_millis();
        return Outcome::Violation {
            counterexample: Counterexample {
                trace: Vec::new(),
                invariant,
            },
            stats,
        };
    }
    visited.insert(model.digest());
    stats.states = 1;

    // Each frontier entry carries the enabled set computed when its
    // state was first reached, so expansion needs one replay per child
    // rather than one extra per node.
    let mut frontier: Vec<(Vec<Action>, Vec<Action>)> = vec![(Vec::new(), model.enabled())];

    while let Some((trace, actions)) = frontier.pop() {
        if trace.len() >= bounds.max_depth {
            continue;
        }
        for action in actions {
            if replay(model, &trace).is_err() {
                unreachable!("an explored prefix must replay cleanly");
            }
            if model.apply(&action).is_err() {
                unreachable!("an enabled action must apply");
            }
            stats.transitions += 1;
            let mut child = trace.clone();
            child.push(action);
            if model.check().is_err() {
                let minimized = minimize(model, &child);
                let invariant = violation_of(model, &minimized)
                    .expect("a minimized counterexample must still violate on replay");
                stats.elapsed_ms = started.elapsed().as_millis();
                return Outcome::Violation {
                    counterexample: Counterexample {
                        trace: minimized,
                        invariant,
                    },
                    stats,
                };
            }
            if visited.insert(model.digest()) {
                stats.states += 1;
                stats.max_depth = stats.max_depth.max(child.len());
                if stats.states >= bounds.max_states {
                    stats.elapsed_ms = started.elapsed().as_millis();
                    return Outcome::Truncated(stats);
                }
                let enabled = model.enabled();
                frontier.push((child, enabled));
            } else {
                stats.deduped += 1;
            }
        }
    }

    stats.elapsed_ms = started.elapsed().as_millis();
    Outcome::Pass(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: a counter stepped by +1 (`ingress #0`) or +2
    /// (`ingress #1`), with an optional no-op (`ingress #2`), bounded
    /// above, and an optional forbidden value.
    struct Counter {
        x: i64,
        max: i64,
        forbidden: Option<i64>,
        with_noop: bool,
    }

    impl Model for Counter {
        fn reset(&mut self) {
            self.x = 0;
        }
        fn enabled(&self) -> Vec<Action> {
            let mut out = Vec::new();
            if self.x < self.max {
                out.push(Action::Ingress { index: 0 });
            }
            if self.x + 2 <= self.max {
                out.push(Action::Ingress { index: 1 });
            }
            if self.with_noop {
                out.push(Action::Ingress { index: 2 });
            }
            out
        }
        fn apply(&mut self, action: &Action) -> Result<(), String> {
            match action {
                Action::Ingress { index: 0 } if self.x < self.max => {
                    self.x += 1;
                    Ok(())
                }
                Action::Ingress { index: 1 } if self.x + 2 <= self.max => {
                    self.x += 2;
                    Ok(())
                }
                Action::Ingress { index: 2 } => Ok(()),
                other => Err(format!("{other} not applicable at x={}", self.x)),
            }
        }
        fn digest(&self) -> u64 {
            self.x as u64
        }
        fn check(&self) -> Result<(), String> {
            match self.forbidden {
                Some(v) if self.x == v => Err(format!("counter reached forbidden value {v}")),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn exhaustive_exploration_counts_distinct_states() {
        let mut m = Counter {
            x: 0,
            max: 10,
            forbidden: None,
            with_noop: false,
        };
        let out = explore(&mut m, Bounds::default());
        let Outcome::Pass(stats) = out else {
            panic!("expected pass, got {out:?}");
        };
        // states are exactly {0, 1, ..., 10}
        assert_eq!(stats.states, 11);
        assert!(stats.deduped > 0, "step order must converge and dedup");
        // every new state is found within 10 steps; dedup means the
        // deepest chain of *fresh* states may be shorter
        assert!(
            (5..=10).contains(&stats.max_depth),
            "unexpected max_depth {}",
            stats.max_depth
        );
    }

    #[test]
    fn depth_bound_truncates_reachability() {
        let mut m = Counter {
            x: 0,
            max: 100,
            forbidden: None,
            with_noop: false,
        };
        let out = explore(
            &mut m,
            Bounds {
                max_depth: 3,
                max_states: 100_000,
            },
        );
        let Outcome::Pass(stats) = out else {
            panic!("expected pass, got {out:?}");
        };
        // depth 3 reaches at most x = 6 → states {0..=6}
        assert_eq!(stats.states, 7);
    }

    #[test]
    fn violation_is_found_minimized_and_replayable() {
        let mut m = Counter {
            x: 0,
            max: 10,
            forbidden: Some(7),
            with_noop: true,
        };
        let out = explore(&mut m, Bounds::default());
        let Outcome::Violation { counterexample, .. } = out else {
            panic!("expected violation, got {out:?}");
        };
        assert!(counterexample.invariant.contains("forbidden value 7"));
        // minimal: no no-ops survive, and the sum is exactly 7
        let sum: i64 = counterexample
            .trace
            .iter()
            .map(|a| match a {
                Action::Ingress { index: 0 } => 1,
                Action::Ingress { index: 1 } => 2,
                Action::Ingress { index: 2 } => 0,
                _ => panic!("unexpected action"),
            })
            .sum();
        assert_eq!(sum, 7);
        assert!(
            !counterexample
                .trace
                .iter()
                .any(|a| matches!(a, Action::Ingress { index: 2 })),
            "minimization must strip no-ops"
        );
        // replay-verified
        assert!(violation_of(&mut m, &counterexample.trace).is_some());
    }

    #[test]
    fn minimize_strips_redundant_actions() {
        let mut m = Counter {
            x: 0,
            max: 10,
            forbidden: Some(5),
            with_noop: true,
        };
        let bloated = vec![
            Action::Ingress { index: 2 },
            Action::Ingress { index: 1 },
            Action::Ingress { index: 2 },
            Action::Ingress { index: 1 },
            Action::Ingress { index: 2 },
            Action::Ingress { index: 0 },
        ];
        assert!(violation_of(&mut m, &bloated).is_some());
        let minimal = minimize(&mut m, &bloated);
        assert_eq!(minimal.len(), 3, "2 + 2 + 1 with no-ops stripped");
    }

    #[test]
    fn state_cap_reports_truncation() {
        let mut m = Counter {
            x: 0,
            max: 1000,
            forbidden: None,
            with_noop: false,
        };
        let out = explore(
            &mut m,
            Bounds {
                max_depth: 1000,
                max_states: 50,
            },
        );
        assert!(matches!(out, Outcome::Truncated(_)));
        assert_eq!(out.stats().states, 50);
    }
}

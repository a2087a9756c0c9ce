#!/usr/bin/env bash
# Offline CI gate: the whole workspace must build, test, lint, and
# format-check without touching the network or a registry cache.
# Bistro has zero external dependencies by construction — this script
# is what enforces that invariant.
#
# Staged: `./ci.sh <stage>` runs one suite; `./ci.sh` (or `./ci.sh all`)
# runs every stage in order. The GitHub workflow calls the stages
# individually so a failing suite is visible from its step name. The
# root-package suites (faults, crash, distributed, alloc, parallel, the
# status smoke, the delivery index) run twice by design: once captured
# inside `test`, once uncaptured in their own stage so a failure prints
# its replay seed or its measured figure. Stages after `build` assume
# `./target/release` binaries exist.
set -euo pipefail
cd "$(dirname "$0")"

stage_build() {
  # --workspace: the root package does not depend on bistro-bench, and
  # the bench/fanout stages run ./target/release/exp_* binaries
  cargo build --release --offline --workspace
  # benchmark/ has its own [workspace], so --workspace never compiles
  # it; build it here so an API change that breaks it fails the gate
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
}

# Full workspace suite — includes the bench crate's experiment shape
# tests (e1..e11); nothing is exempted.
stage_test() {
  cargo test -q --offline --workspace
}

# Fault-injection suite, run explicitly and uncaptured so a failure
# surfaces its replay seed (scenario asserts embed `seed 0x...`; the
# property harness prints `BISTRO_PROP_SEED=...`). Then the fabric's
# seeded properties: causality, and the inbox order against an ordered
# map under drops, delayed duplicates, outages and take/drop/duplicate.
stage_faults() {
  cargo test --offline --test fault_injection -- --nocapture
  cargo test --offline -p bistro-transport --test prop_transport -- --nocapture
}

# Storage crash-point sweeps: replay the full pipeline crashing at every
# mutating storage op — including the networked commit window of a
# batch deposit — reopen on the surviving bytes, and check the recovery
# invariants (store opens, no acked delivery forgotten, no dangling
# receipt, no FileId reuse — ids a subscriber merely *received* count —
# exactly-once after backfill). Five narrower sweeps ride along: every
# crash op of a networked `deposit_batch` window (no send outruns its
# arrival), of a `scan_landing` (a landing file is never lost), of
# one `poll_network` drain of nine acks over three files (the drain's
# receipts are one append: a prefix of whole sets survives, no trigger
# fired past it, the lost suffix is a resend the clients dedup), from
# two runtime `add_subscriber`s to the first set that puts their
# ids on record (the store reopens, a durable id survives registering
# again, backfill is exactly-once), of a run whose receipt store
# snapshots itself under its checkpoint rule (a reopen replays at most
# the threshold plus one commit), and of a hub whose relay group's
# completion acks complete files (a completion it counted is durable,
# backfill re-sends exactly the files without their group receipt).
# Uncaptured so a failure echoes its `seed=... crash_op=...` replay key.
# Then the receipt crate's own suite: the on-disk format (record tags,
# snapshot version, torn frames, a crash between snapshot and prune) and
# the checkpoint rule's property test are there, and the root package's
# `cargo test` does not run it. Last, the real-disk suite: a `DiskFs`
# store past the checkpoint threshold holds only its snapshot and the
# segments it does not cover.
stage_crash() {
  cargo test --offline --test crash_points -- --nocapture
  cargo test --offline -p bistro-receipts -- --nocapture
  cargo test --offline --test on_disk -- --nocapture
}

# Distributed suite: the relay network plus the seeded multi-server
# failover scenario (kill + re-home + backfill, exactly-once, replayed
# bit-for-bit), then the cluster's unit tests (placement, fencing, the
# backfill page bound). Uncaptured so a failure echoes the replay seed
# the scenario prints (`[distributed] failover scenario seed=0x...`),
# mirroring the crash-sweep stage.
stage_distributed() {
  cargo test --offline --test distributed -- --nocapture
  cargo test --offline -p bistro-core --lib cluster -- --nocapture
}

# Telemetry subsystem: its own suite plus a `bistro status --json` smoke
# check — two same-seed runs must render byte-identical, well-formed JSON
# carrying a known metric key.
stage_telemetry() {
  cargo test -q --offline -p bistro-telemetry
  cargo test -q --offline --test status_smoke
  local snap_a snap_b
  snap_a=$(./target/release/bistro status --json --seed 11)
  snap_b=$(./target/release/bistro status --json --seed 11)
  [ "$snap_a" = "$snap_b" ] || { echo "status --json is not deterministic" >&2; exit 1; }
  case "$snap_a" in
    '{'*'"delivery.receipts"'*'}') ;;
    *) echo "status --json missing delivery.receipts or malformed: $snap_a" >&2; exit 1 ;;
  esac
}

# Parallel-ingest determinism: the sharded classify/normalize pool may
# not leak its schedule into any observable output — the property test
# checks receipts, triggers, status and raw WAL bytes across worker
# counts, and the CLI snapshot must be byte-identical for any count.
stage_parallel() {
  cargo test -q --offline --test parallel_determinism
  local snap_a snap_p
  snap_a=$(./target/release/bistro status --json --seed 11)
  snap_p=$(./target/release/bistro status --json --seed 11 --workers 4)
  [ "$snap_a" = "$snap_p" ] || { echo "status --json differs with --workers 4" >&2; exit 1; }
}

# Model-checking stage: bounded exhaustive exploration of reliable
# delivery, crash-restart and failover interleavings (DESIGN.md §11).
# Uncaptured so the `[mc] scenario=… states=… elapsed_ms=…` counters
# land in the build log; under this stage's `BISTRO_MC_STATES=60000`
# `tests/model_check.rs` also asserts each scenario's outcome and state
# count equal to the pinned ones (245 / 34 / 51 222 / 60 000). Runs the scenario file in release mode with a
# raised state cap: the same scenarios that cover ~20k distinct states
# under a plain `cargo test` exhaust >100k here in similar wall time.
stage_mc() {
  cargo test -q --offline -p bistro-mc -- --nocapture
  BISTRO_MC_STATES=60000 \
    cargo test -q --release --offline --test model_check -- --nocapture
}

# Allocation budgets: a counting allocator in the test binary reads heap
# allocations per delivery on a 200-subscriber reliable fan-out and per
# deposit on a local one, and the live-heap growth per subscriber of
# 2 000 local per-file subscribers over 20 deliveries each (the byte
# budget: a latency histogram keeps only the octaves it uses, and a
# per-file subscriber keeps no batcher); each fails above its budget.
# Uncaptured so the measured figures land in the build log.
stage_alloc() {
  cargo test --offline --test alloc_budget -- --nocapture
}

# Compression kernel: the encoder must emit, byte for byte, the stream of
# the original encoder kept under #[cfg(test)] as its oracle — over 2000
# generated corpora instead of the default 96 — and the bounded decoders
# must stop a crafted bomb at the declared length. Release mode and
# uncaptured so `[compress] … oracle N us/file, kernel M us/file, ratio R`
# lands in the build log as optimized-code figures (`./ci.sh test` runs
# the same suite in debug, where overflow checks are on).
stage_compress() {
  BISTRO_PROP_CASES=2000 \
    cargo test --release --offline -p bistro-compress -- --nocapture
}

# --workspace: without it clippy lints the root package alone, and a
# warning in any crate's tests goes unseen. The doc build fails on any
# rustdoc warning, so a doc link naming a deleted item fails the gate.
stage_lint() {
  cargo clippy --offline --workspace --all-targets -- -D warnings
  cargo fmt --check
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
}

# Run a release experiment binary in quick mode from target/ci-bench, so
# the BENCH_*.json it writes to its cwd lands there and a CI run leaves
# `git status` clean (the committed files at the root are refreshed by
# hand, from a full run).
quick_exp() {
  mkdir -p target/ci-bench
  (cd target/ci-bench && "../release/$1" --quick)
}

# The prepare pool must not be able to lose: the par{1,2} batch-ingest
# arms of E11 in quick mode, failing when par2's median sits more than
# the stated limit above par1's. Both medians come from this run, so the
# check needs no committed baseline and does not care how fast the runner
# is. Regression gating against a parent commit is `./ci.sh compare`.
stage_bench() {
  quick_exp exp_e11
}

# Delivery-tree fanout: the group tracker's unit tests, the
# group-delivery unit/integration suites (the relay's completion rule
# against a by-name reference, the hub's one receipt per file and group
# on the relay's first completion ack), the receipt store's name index
# that the relay's dedup and completion rule look files up through
# (against the linear scan it replaced), the crash sweep at a hub across
# its group-completion drains, the delivery-index equivalence property
# suite, the lossy relay hop with one-feed and two-feed groups, then E14
# in quick mode: the shape table (sends and tracker entries per deposit
# follow the group count — the run panics otherwise) and the deposit-cost
# sweep, which fails itself if it is not flat in subscriber count.
stage_fanout() {
  cargo test -q --offline -p bistro-transport --lib reliable
  cargo test -q --offline -p bistro-core --lib relay
  cargo test -q --offline -p bistro-receipts file_by_name
  cargo test -q --offline -p bistro-core --lib index
  cargo test -q --offline -p bistro-core --test server_integration group
  cargo test --offline --test crash_points group -- --nocapture
  cargo test -q --offline --test delivery_index
  cargo test --offline --test fault_injection relay_hop -- --nocapture
  quick_exp exp_e14
}

# The repo benchmark's self-check (BENCHMARK.json): its unit tests, two
# `--smoke` runs whose exact-count metrics must agree, and the manifest
# and metric-name set against the committed BENCHMARK.json.
stage_benchmark() {
  benchmark/check.sh
}

# The pipeline's verdict before pushing: `./ci.sh compare [BASE]` (default
# HEAD~1) builds the repo benchmark at BASE from a detached local clone
# and at the working tree, takes one result file per side with the
# benchmark's own `run --repeat 3`, and prints `benchmark compare`'s
# table (exit 1 on a metric out of bound). `run` does every repeat of
# every workload in one invocation, so the two sides cannot interleave:
# base runs first, head second, ~15 minutes together — run nothing else
# meanwhile, and settle a borderline reading with alternating runs of the
# two built binaries (.claude/skills/verify/SKILL.md). Not part of `all`.
stage_compare() {
  local base base_dir=target/compare-base bin=benchmark/target/release/bistro-benchmark
  base=$(git rev-parse --verify "${1:-HEAD~1}^{commit}")
  rm -rf "$base_dir"
  # a clone, not a worktree: its own HEAD stamps the base's result file
  # and an interrupted run leaves nothing registered in .git
  git clone -q --no-checkout . "$base_dir"
  git -C "$base_dir" checkout -q --detach "$base"
  cargo build --release --offline --manifest-path "$base_dir/benchmark/Cargo.toml"
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  (cd "$base_dir" && "$bin" run --repeat 3 --out ../compare-base.json)
  "$bin" run --repeat 3 --out target/compare-head.json
  rm -rf "$base_dir"
  "$bin" compare target/compare-base.json target/compare-head.json
}

stage_all() {
  stage_build
  stage_test
  stage_faults
  stage_crash
  stage_distributed
  stage_telemetry
  stage_parallel
  stage_mc
  stage_alloc
  stage_compress
  stage_lint
  stage_bench
  stage_fanout
  stage_benchmark
}

stage="${1:-all}"
case "$stage" in
  build|test|faults|crash|distributed|telemetry|parallel|mc|alloc|compress|lint|bench|fanout|benchmark|all)
    "stage_$stage"
    ;;
  compare)
    stage_compare "${2:-}"
    ;;
  *)
    echo "usage: ./ci.sh [build|test|faults|crash|distributed|telemetry|parallel|mc|alloc|compress|lint|bench|fanout|benchmark|all] | compare [BASE]" >&2
    exit 2
    ;;
esac

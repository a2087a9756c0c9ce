//! # bistro-bench
//!
//! The experiment harness. The Bistro paper (industrial track) has no
//! numbered result tables; its evaluation content is a set of
//! quantitative claims embedded in the text. Each module here
//! regenerates one of them as a measured table — see DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for recorded results.
//!
//! Every experiment has a binary (`cargo run --release -p bistro-bench
//! --bin exp_e1` …) printing a markdown table, and the hot kernels are
//! additionally covered by the in-tree micro-benchmark harness
//! ([`harness`], `cargo bench`), which emits machine-readable
//! `BENCH_*.json` result files — a record of each experiment's medians.
//! Nothing here compares a run with an earlier one: regression gating is
//! the repo benchmark's (`benchmark/`, `BENCHMARK.json`).

pub mod harness;
pub mod json;

pub mod e10_false_positives;
pub mod e11_throughput;
pub mod e13_failover;
pub mod e14_fanout;
pub mod e1_pull_scan;
pub mod e2_rsync;
pub mod e3_propagation;
pub mod e4_batching;
pub mod e5_reliability;
pub mod e6_scheduling;
pub mod e7_backfill;
pub mod e8_discovery;
pub mod e9_false_negatives;
pub mod table;

pub use table::Table;

//! E14: shared delivery trees at million-subscriber fanout.
//!
//! Prints the fanout-shape table (delivery sends and tracker entries
//! per deposit must follow the group count, never the member count —
//! `run_fanout` panics otherwise), then measures `fanout_deposit_cost`:
//! per-deposit latency across a subscriber sweep at a fixed group
//! count, written to `BENCH_fanout.json` in the working directory. The
//! inverted delivery index makes the match step `O(matched)`, so those
//! medians must stay flat in subscriber count (the pre-index scan grew
//! linearly); the run exits non-zero when the largest point's median
//! exceeds the smallest's by more than [`FLATNESS_FACTOR`]. Both ends
//! come from this run, so there is no baseline to pass in.
//!
//! Flags:
//!
//! * `--quick` — CI mode: cap the scale at tens of thousands of
//!   subscribers and take fewer samples.
use bistro_bench::e14_fanout as e14;
use bistro_bench::harness;

/// How much the deposit-cost median may grow from the smallest to the
/// largest subscriber count before the sweep fails. Same-run medians on
/// the same machine: the index holds this near 1×; the pre-index scan
/// sat at ~`subscribers_max / subscribers_min` (100× in full mode).
const FLATNESS_FACTOR: f64 = 3.0;

fn main() {
    let mut quick = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            other => panic!("unknown exp_e14 flag {other}"),
        }
    }

    // (groups, members-per-group) scale points. The full grid crosses
    // G and M so the table shows ops following G while M varies freely,
    // topping out at 1k groups × 1k members = one million subscribers.
    let points: &[(usize, usize)] = if quick {
        &[(100, 100), (400, 100), (100, 400)]
    } else {
        &[(100, 100), (1000, 100), (100, 1000), (1000, 1000)]
    };
    let samples = if quick { 10 } else { 15 };

    let shape: Vec<e14::FanoutPoint> = points
        .iter()
        .map(|&(g, m)| e14::run_fanout(g, m, 2))
        .collect();
    print!("{}", e14::table(&shape));

    // Deposit cost vs subscriber count at a fixed group count: the
    // sweep the inverted delivery index must keep flat. Quick mode
    // spans 10k→40k; the full sweep tops out at a million.
    let cost_points: &[usize] = if quick {
        &[10_000, 40_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let cost: Vec<harness::BenchResult> = cost_points
        .iter()
        .map(|&subs| e14::bench_deposit_cost(subs, samples))
        .collect();
    harness::write_json("BENCH_fanout.json", &cost).expect("write BENCH_fanout.json");
    for r in &cost {
        println!("{}", r.summary());
    }
    println!("wrote BENCH_fanout.json");
    let (small, large) = (&cost[0], &cost[cost.len() - 1]);
    let growth = large.median_ns / small.median_ns;
    println!(
        "deposit-cost flatness: {} → {} grows {growth:.2}x (limit {FLATNESS_FACTOR}x)",
        small.name, large.name
    );
    if growth > FLATNESS_FACTOR {
        eprintln!(
            "deposit cost is not flat in subscriber count: {growth:.2}x from {} to {}",
            small.name, large.name
        );
        std::process::exit(1);
    }
}

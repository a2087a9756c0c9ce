//! Run every experiment (E1-E11, E13, E14; E12 lives in the examples) and print all tables. This
//! is the regeneration entry point referenced by EXPERIMENTS.md.
use bistro_base::TimeSpan;
use bistro_bench::*;

fn main() {
    println!("# Bistro paper experiment suite\n");
    let p = e1_pull_scan::run(&[1_000, 5_000, 10_000, 50_000], 10);
    print!("{}", e1_pull_scan::table(&p, 10));
    let p = e2_rsync::run(&[1_000, 5_000, 10_000, 50_000]);
    print!("{}", e2_rsync::table(&p));
    let p = e3_propagation::run(&[
        TimeSpan::from_secs(1),
        TimeSpan::from_secs(5),
        TimeSpan::from_secs(30),
        TimeSpan::from_mins(5),
    ]);
    print!("{}", e3_propagation::table(&p));
    let p = e4_batching::run(&[0.0, 0.1, 0.3]);
    print!("{}", e4_batching::table(&p));
    let p = e5_reliability::run(&[1, 7, 42, 99, 1234], 80);
    print!("{}", e5_reliability::table(&p));
    let p = e5_reliability::run_faulty(&[1, 7, 42, 99, 1234], 60);
    print!("{}", e5_reliability::table_faulty(&p));
    let p = e6_scheduling::run();
    print!("{}", e6_scheduling::table(&p));
    let p = e7_backfill::run(&[20, 100, 300]);
    print!("{}", e7_backfill::table(&p));
    let p = e8_discovery::run(&[10, 25, 50, 100, 150], 4, 6);
    print!("{}", e8_discovery::table(&p));
    let p = e9_false_negatives::run(10);
    print!("{}", e9_false_negatives::table(&p, 10));
    let p = e10_false_positives::run(&[0.001, 0.005, 0.01, 0.03, 0.1, 0.3]);
    print!("{}", e10_false_positives::table(&p));
    let classify = e11_throughput::run_classifier(&[10, 50, 100, 250, 500]);
    let ingest = e11_throughput::run_ingest(5_000, 60_000);
    let (t1, t2) = e11_throughput::tables(&classify, &ingest);
    print!("{t1}{t2}");
    let p = e13_failover::run(&[1, 7, 42, 99, 1234], 40);
    print!("{}", e13_failover::table(&p));
    // shape points only — the full million-subscriber grid and the
    // deposit-cost sweep belong to the exp_e14 binary
    let p: Vec<_> = [(100, 100), (400, 100), (100, 400)]
        .iter()
        .map(|&(g, m)| e14_fanout::run_fanout(g, m, 2))
        .collect();
    print!("{}", e14_fanout::table(&p));
}

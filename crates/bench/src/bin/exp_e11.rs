//! E11: deployment-scale throughput.
//!
//! Prints the experiment tables, measures the
//! `server_ingest_100_feeds/par{N}` batch-ingest arms, writes them to
//! `BENCH_throughput.json` in the working directory (schema
//! `bistro-bench-v1`: median/p95 per-batch latency plus files/sec) and
//! exits non-zero when the curve is inverted: any `par{N}` median more
//! than [`e11::PAR_LIMIT`]× `par1`'s. Both sides of that ratio come from
//! this run, so there is no baseline to pass in.
//!
//! Flags:
//!
//! * `--workers N[,N...]` — worker counts for the `par{N}` arms
//!   (default `1,2,4,8`; `--quick` defaults to `1,2`). `1` is measured
//!   whether listed or not — every other arm is read against it.
//! * `--quick` — CI mode: skip the slow classifier/ingest scaling
//!   tables and take fewer samples.
use bistro_bench::e11_throughput as e11;
use bistro_bench::harness;

fn main() {
    let mut workers_list: Option<Vec<usize>> = None;
    let mut quick = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                let v = it.next().expect("--workers needs a value (e.g. 1,2,4,8)");
                workers_list = Some(
                    v.split(',')
                        .map(|s| s.parse().expect("bad --workers value"))
                        .collect(),
                );
            }
            "--quick" => quick = true,
            other => panic!("unknown exp_e11 flag {other}"),
        }
    }
    let mut workers_list =
        workers_list.unwrap_or_else(|| if quick { vec![1, 2] } else { vec![1, 2, 4, 8] });
    if !workers_list.contains(&1) {
        workers_list.insert(0, 1);
    }
    let samples = if quick { 12 } else { 30 };

    if !quick {
        let classify = e11::run_classifier(&[10, 50, 100, 250, 500]);
        let ingest = e11::run_ingest(5_000, 60_000);
        let (t1, t2) = e11::tables(&classify, &ingest);
        print!("{t1}{t2}");
    }

    let arms = e11::bench_par_arms(60_000, samples, &workers_list);
    harness::write_json("BENCH_throughput.json", &arms).expect("write BENCH_throughput.json");
    for r in &arms {
        println!("{}", r.summary());
    }
    println!("wrote BENCH_throughput.json");

    let mut inverted = false;
    for (name, ratio) in e11::par_ratios(&arms) {
        let verdict = if ratio > e11::PAR_LIMIT {
            inverted = true;
            "INVERTED"
        } else {
            "ok"
        };
        println!(
            "{name} / par1 = {ratio:.2} (limit {}) {verdict}",
            e11::PAR_LIMIT
        );
    }
    if inverted {
        eprintln!(
            "par{{N}} curve is inverted: more workers made ingest more than {}x slower than one",
            e11::PAR_LIMIT
        );
        std::process::exit(1);
    }
}

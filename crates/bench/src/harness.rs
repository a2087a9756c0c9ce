//! A minimal, dependency-free micro-benchmark harness (the Criterion
//! replacement for hermetic builds).
//!
//! Methodology per benchmark: a short calibration phase picks an
//! iteration count so one sample takes ~1 ms, a warmup phase runs the
//! routine for a fixed time budget, then `sample_size` timed samples
//! are collected. Reported statistics are per-iteration latencies over
//! samples: median, p95, mean, min, max — plus derived throughput when
//! the benchmark declares units per iteration.
//!
//! Results render as a text summary and serialize to machine-readable
//! JSON (`BENCH_*.json`, schema `bistro-bench-v1`) via [`crate::json`];
//! each file is written whole by the one binary that owns it.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Units processed by one iteration, for throughput derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Logical items per iteration (files, classifications, …).
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup; kept for Criterion API
/// compatibility (the strategy does not change measurement here).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap to set up.
    SmallInput,
    /// Inputs are expensive to set up.
    LargeInput,
}

/// One benchmark's measured statistics (per-iteration nanoseconds).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Group name (e.g. `classifier_250_feeds`).
    pub group: String,
    /// Benchmark name within the group (e.g. `hit`).
    pub name: String,
    /// Iterations folded into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Median per-iteration latency.
    pub median_ns: f64,
    /// 95th-percentile per-iteration latency.
    pub p95_ns: f64,
    /// Mean per-iteration latency.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Declared units per iteration, if any.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// Units per second at the median latency (`None` when the
    /// benchmark declared no throughput units).
    pub fn per_sec(&self) -> Option<f64> {
        let units = match self.throughput {
            Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) => n as f64,
            None => return None,
        };
        Some(units / (self.median_ns / 1e9))
    }

    /// One line for an experiment binary's stdout:
    /// `group/name: median … ns, p95 … ns, … /s`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{}: median {:.0} ns, p95 {:.0} ns, {:.0} /s",
            self.group,
            self.name,
            self.median_ns,
            self.p95_ns,
            self.per_sec().unwrap_or(0.0)
        )
    }

    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("group".to_string(), Json::Str(self.group.clone())),
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "iters_per_sample".to_string(),
                Json::Num(self.iters_per_sample as f64),
            ),
            ("samples".to_string(), Json::Num(self.samples as f64)),
            ("median_ns".to_string(), Json::Num(self.median_ns)),
            ("p95_ns".to_string(), Json::Num(self.p95_ns)),
            ("mean_ns".to_string(), Json::Num(self.mean_ns)),
            ("min_ns".to_string(), Json::Num(self.min_ns)),
            ("max_ns".to_string(), Json::Num(self.max_ns)),
        ];
        if let Some(t) = self.throughput {
            let (unit, n) = match t {
                Throughput::Elements(n) => ("elements", n),
                Throughput::Bytes(n) => ("bytes", n),
            };
            obj.push((
                "throughput".to_string(),
                Json::Obj(vec![
                    ("unit".to_string(), Json::Str(unit.to_string())),
                    ("units_per_iter".to_string(), Json::Num(n as f64)),
                    (
                        "per_sec".to_string(),
                        Json::Num(self.per_sec().unwrap_or(0.0)),
                    ),
                ]),
            ));
        }
        Json::Obj(obj)
    }
}

/// Serialize results to the `bistro-bench-v1` JSON document, stamped
/// with the core count of the box that wrote it: medians of the
/// `par{N}` groups mean nothing without it.
pub fn results_to_json(results: &[BenchResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("bistro-bench-v1".to_string()),
        ),
        ("nproc".to_string(), Json::Num(nproc as f64)),
        (
            "results".to_string(),
            Json::Arr(results.iter().map(BenchResult::to_json).collect()),
        ),
    ])
    .render()
}

/// Measure one routine: calibrate, warm up, then collect samples.
///
/// This is the primitive both the Criterion-shaped API and the
/// experiment binaries use directly.
pub fn time_fn(
    group: &str,
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: impl FnMut(),
) -> BenchResult {
    // calibrate: double the iteration count until one sample is ~1 ms
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t0.elapsed();
        if el >= Duration::from_millis(1) || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    // warmup: at least 10 ms of additional running
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(10) {
        f();
    }
    // timed samples
    let mut per_iter_ns = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats(group, name, iters, per_iter_ns, throughput)
}

fn stats(
    group: &str,
    name: &str,
    iters: u64,
    mut per_iter_ns: Vec<f64>,
    throughput: Option<Throughput>,
) -> BenchResult {
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = per_iter_ns.len();
    let pct = |p: f64| per_iter_ns[(((n - 1) as f64) * p).round() as usize];
    BenchResult {
        group: group.to_string(),
        name: name.to_string(),
        iters_per_sample: iters,
        samples: n,
        median_ns: pct(0.50),
        p95_ns: pct(0.95),
        mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
        min_ns: per_iter_ns[0],
        max_ns: per_iter_ns[n - 1],
        throughput,
    }
}

/// The harness root: owns collected results. API-shaped after
/// Criterion so the microbench file ports with minimal changes.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
    sample_size: usize,
}

impl Criterion {
    /// A harness with the default sample count (30).
    pub fn new() -> Criterion {
        Criterion {
            results: Vec::new(),
            sample_size: 30,
        }
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            c: self,
            name: name.into(),
            throughput: None,
            sample_size,
        }
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print a human-readable summary table to stdout.
    pub fn print_summary(&self) {
        println!(
            "{:<46} {:>12} {:>12} {:>16}",
            "benchmark", "median", "p95", "throughput"
        );
        for r in &self.results {
            let tp = r
                .per_sec()
                .map(|v| {
                    let unit = match r.throughput {
                        Some(Throughput::Bytes(_)) => "B/s",
                        _ => "elem/s",
                    };
                    format!("{} {unit}", human(v))
                })
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:<46} {:>12} {:>12} {:>16}",
                format!("{}/{}", r.group, r.name),
                format!("{} ns", human(r.median_ns)),
                format!("{} ns", human(r.p95_ns)),
                tp
            );
        }
    }

    /// Write all results as `bistro-bench-v1` JSON.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        write_json(path, &self.results)
    }
}

/// Write a result set as `bistro-bench-v1` JSON to `path`.
pub fn write_json(path: &str, results: &[BenchResult]) -> std::io::Result<()> {
    std::fs::write(path, results_to_json(results))
}

fn human(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Declare units processed per iteration for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Override the sample count for subsequent benches.
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(5);
    }

    /// Measure one benchmark; the closure receives a [`Bencher`] and
    /// must call one of its `iter*` methods.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            group: self.name.clone(),
            name: id.into(),
            sample_size: self.sample_size,
            throughput: self.throughput,
            result: None,
        };
        f(&mut b);
        let result = b
            .result
            .expect("bench_function closure must call Bencher::iter or iter_batched");
        self.c.results.push(result);
    }

    /// End the group (kept for Criterion API symmetry).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; runs the measurement.
pub struct Bencher {
    group: String,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    result: Option<BenchResult>,
}

impl Bencher {
    /// Measure `routine` directly.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        self.result = Some(time_fn(
            &self.group,
            &self.name,
            self.sample_size,
            self.throughput,
            || {
                std::hint::black_box(routine());
            },
        ));
    }

    /// Measure `routine` over fresh inputs from `setup`; setup cost is
    /// included in the calibration run but excluded from samples by
    /// timing only the routine.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        // calibrate on the combined cost, then time routine-only samples
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine(setup()));
            }
            if t0.elapsed() >= Duration::from_millis(1) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some(stats(
            &self.group,
            &self.name,
            iters,
            per_iter_ns,
            self.throughput,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_fn_produces_sane_stats() {
        let mut acc = 0u64;
        let r = time_fn("g", "spin", 10, Some(Throughput::Elements(100)), || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert!(r.p95_ns <= r.max_ns);
        assert!(r.per_sec().unwrap() > 0.0);
        assert_eq!(r.samples, 10);
    }

    #[test]
    fn json_output_roundtrips_through_parser() {
        let results = vec![
            BenchResult {
                group: "classify".to_string(),
                name: "hit \"quoted\"\n".to_string(),
                iters_per_sample: 1024,
                samples: 30,
                median_ns: 123.456,
                p95_ns: 234.5,
                mean_ns: 150.0,
                min_ns: 100.0,
                max_ns: 400.25,
                throughput: Some(Throughput::Elements(1)),
            },
            BenchResult {
                group: "ingest".to_string(),
                name: "deposit".to_string(),
                iters_per_sample: 8,
                samples: 20,
                median_ns: 1e6,
                p95_ns: 2e6,
                mean_ns: 1.1e6,
                min_ns: 0.9e6,
                max_ns: 3e6,
                throughput: None,
            },
        ];
        let text = results_to_json(&results);
        let parsed = Json::parse(&text).expect("emitted JSON must parse");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bistro-bench-v1")
        );
        assert!(parsed.get("nproc").and_then(Json::as_num).unwrap() >= 1.0);
        let arr = parsed.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("name").and_then(Json::as_str),
            Some("hit \"quoted\"\n")
        );
        assert_eq!(
            arr[0].get("median_ns").and_then(Json::as_num),
            Some(123.456)
        );
        let tp = arr[0].get("throughput").unwrap();
        assert_eq!(tp.get("unit").and_then(Json::as_str), Some("elements"));
        // per_sec consistency: units / median seconds
        let per_sec = tp.get("per_sec").and_then(Json::as_num).unwrap();
        assert!((per_sec - 1.0 / (123.456 / 1e9)).abs() / per_sec < 1e-9);
        assert!(arr[1].get("throughput").is_none());
        // re-render the parsed tree: parse again and compare trees
        let rerendered = parsed.render();
        assert_eq!(Json::parse(&rerendered).unwrap(), parsed);
    }

    #[test]
    fn criterion_shim_collects_results() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("math");
            g.sample_size(5);
            g.throughput(Throughput::Elements(1));
            g.bench_function("add", |b| {
                b.iter(|| std::hint::black_box(2u64) + std::hint::black_box(3u64))
            });
            g.bench_function("batched", |b| {
                b.iter_batched(
                    || vec![1u64; 16],
                    |v| v.iter().sum::<u64>(),
                    BatchSize::SmallInput,
                )
            });
            g.finish();
        }
        assert_eq!(c.results().len(), 2);
        assert!(c.results().iter().all(|r| r.median_ns > 0.0));
    }
}

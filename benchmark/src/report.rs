//! Output: the one-run result line the driver reads, the all-workloads
//! `run` with its stamped result file, and `compare`.

use crate::harness::Outcome;
use crate::spec::{self, obj, s, END_TO_END, WORKLOADS};
use crate::stats;
use crate::Cli;
use bistro_telemetry::json::Json;
use std::process::Command;

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Every metric by name with its unit, then — as the last line of
/// standard output — the result object.
pub fn print_single(workload: &str, o: &Outcome) {
    println!("workload {workload}");
    for line in &o.info {
        println!("  {line}");
    }
    for (name, value) in &o.metrics {
        println!("  {name} = {value} {}", spec::unit_of(name).unwrap_or(""));
    }
    println!("  ops_attempted = {} count", o.attempted);
    println!("  ops_failed = {} count", o.failed);
    for note in &o.notes {
        eprintln!("  failed: {note}");
    }
    let metrics = o
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).unwrap_or("");
            (
                name.to_string(),
                obj(vec![
                    ("value", Json::Num(finite(*value))),
                    ("unit", s(unit)),
                ]),
            )
        })
        .collect();
    let result = obj(vec![
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child process per workload and pass, so `peak_rss_mb` is per
/// workload; returns the result object of its last output line.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &cli.trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

fn metric_values(result: &Json) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// All four workloads untraced, then all four traced; prints every
/// metric by name and writes the stamped result document.
pub fn run_all(cli: &Cli) -> Result<bool, String> {
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![WORKLOADS
            .iter()
            .find(|s| s.name == w)
            .map(|s| s.name)
            .ok_or_else(|| format!("unknown workload {w:?}"))?],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    let mut per_workload: Vec<(String, Vec<(String, Json)>)> =
        names.iter().map(|n| (n.to_string(), Vec::new())).collect();
    let mut pool_workers = 0.0;
    for trace in [false, true] {
        for (i, name) in names.iter().enumerate() {
            let repeats = if trace { 1 } else { cli.repeat };
            let mut values: Vec<(String, Vec<f64>)> = Vec::new();
            let (mut attempted, mut failed) = (0.0, 0.0);
            for _ in 0..repeats {
                let result = child(cli, name, trace)?;
                attempted += result
                    .get("attempted")
                    .and_then(Json::as_num)
                    .unwrap_or(0.0);
                failed += result.get("failed").and_then(Json::as_num).unwrap_or(1.0);
                for (k, v) in metric_values(&result) {
                    match values.iter_mut().find(|(name, _)| *name == k) {
                        Some((_, vs)) => vs.push(v),
                        None => values.push((k, vec![v])),
                    }
                }
            }
            all_correct &= failed == 0.0;
            let pass = if trace { "traced" } else { "untraced" };
            println!("{name} ({pass}): ops_attempted {attempted} ops_failed {failed}");
            for (k, vs) in &values {
                let unit = spec::unit_of(k).unwrap_or("");
                let median = stats::median(vs).unwrap_or(0.0);
                println!("  {k} = {median} {unit}");
                // one for every workload but the pooled one
                if k == "pool.workers" {
                    pool_workers = f64::max(pool_workers, median);
                }
            }
            let section = if trace { "per_layer" } else { "end_to_end" };
            let metrics = values
                .into_iter()
                .map(|(k, vs)| (k, Json::Arr(vs.into_iter().map(Json::Num).collect())))
                .collect();
            per_workload[i]
                .1
                .push((section.to_string(), Json::Obj(metrics)));
            per_workload[i].1.push((
                format!("{section}_ops"),
                obj(vec![
                    ("attempted", Json::Num(attempted)),
                    ("failed", Json::Num(failed)),
                ]),
            ));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let scale = if cli.smoke {
        1.0 / crate::SMOKE_SCALE as f64
    } else {
        1.0
    };
    let stamp = obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", s(&command_line("rustc", &["--version"]))),
        ("profile", s(profile)),
        (
            "git_commit",
            s(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("scale", Json::Num(scale)),
        ("smoke", Json::Bool(cli.smoke)),
        ("seconds", Json::Num(cli.seconds)),
        ("repeat", Json::Num(cli.repeat as f64)),
        ("pool.workers", Json::Num(pool_workers)),
    ]);
    let doc = obj(vec![
        ("schema", s("bistro-benchmark-v1")),
        ("stamp", stamp),
        (
            "workloads",
            Json::Obj(
                per_workload
                    .into_iter()
                    .map(|(name, sections)| (name, Json::Obj(sections)))
                    .collect(),
            ),
        ),
        // this benchmark measures; it claims no gain
        ("claim", Json::Null),
    ]);
    let text = spec::pretty(&doc);
    if let Some(path) = &cli.out {
        std::fs::write(path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("result file: {}", path.display());
    }
    print!("{text}");
    Ok(all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("bistro-benchmark-v1") {
        return Err(format!("{path} is not a bistro-benchmark-v1 result file"));
    }
    Ok(doc)
}

/// The runs a result file holds for one workload × end-to-end metric.
/// A file that lacks the pair cannot pass the gate: that is an error,
/// not an `unresolved`.
fn runs_of(doc: &Json, path: &str, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let runs: Vec<f64> = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_num).collect())
        .unwrap_or_default();
    if runs.is_empty() {
        return Err(format!("{path} has no {workload} x {metric}"));
    }
    Ok(runs)
}

/// `ok`, `worse` or `unresolved` for one workload × metric, B against
/// its base A. Worse means B's median is beyond A's by more than the
/// bound. Where either side's own quartile spread exceeds the bound the
/// medians decide nothing: only all-runs-better is `ok`, only
/// all-runs-worse is `worse`.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return "unresolved";
    };
    let worse_than = |x: f64, base: f64| {
        if higher_is_better {
            x < base
        } else {
            x > base
        }
    };
    let beyond = if higher_is_better {
        mb < ma * (1.0 - bound)
    } else {
        mb > ma * (1.0 + bound)
    };
    let spread = |v: &[f64], m: f64| {
        stats::quartiles(v).map_or(
            0.0,
            |(q1, q3)| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 },
        )
    };
    if spread(a, ma).max(spread(b, mb)) <= bound {
        return if beyond { "worse" } else { "ok" };
    }
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| f(x, y)));
    if all(&|x, y| !worse_than(x, y)) {
        "ok"
    } else if beyond && all(&|x, y| worse_than(x, y)) {
        "worse"
    } else {
        "unresolved"
    }
}

/// Per workload × end-to-end metric: both medians, the ratio with its
/// base, the bound, the verdict. `Ok(false)` (exit 1) on any `worse`;
/// an error (exit 2) when either file lacks a workload or a metric.
pub fn compare(cli: &Cli) -> Result<bool, String> {
    let [a_path, b_path] = cli.positional.as_slice() else {
        return Err("compare takes two result files: A.json (base) B.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    // every pair first: a file that lacks one fails before any verdict
    for w in &WORKLOADS {
        for m in &END_TO_END {
            runs_of(&a, a_path, w.name, m.name)?;
            runs_of(&b, b_path, w.name, m.name)?;
        }
    }
    println!("base A = {a_path}, B = {b_path}; ratio = B / A");
    let mut any_worse = false;
    for w in &WORKLOADS {
        println!("{}", w.name);
        for m in &END_TO_END {
            let ra = runs_of(&a, a_path, w.name, m.name)?;
            let rb = runs_of(&b, b_path, w.name, m.name)?;
            let v = verdict(&ra, &rb, m.better == "higher", m.bound);
            any_worse |= v == "worse";
            let (ma, mb) = (
                stats::median(&ra).unwrap_or(f64::NAN),
                stats::median(&rb).unwrap_or(f64::NAN),
            );
            println!(
                "  {:<20} A {:>14.4} B {:>14.4} {:<5} ratio {:>7.4} of A  bound {:>4.0}% {}  {v}",
                m.name,
                ma,
                mb,
                m.unit,
                mb / ma,
                m.bound * 100.0,
                if m.better == "higher" {
                    "lower is worse"
                } else {
                    "higher is worse"
                },
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::{runs_of, verdict};
    use bistro_telemetry::json::Json;

    #[test]
    fn a_result_file_without_the_pair_is_an_error() {
        let doc = Json::parse(
            r#"{"workloads":{"ingest_stream":{"end_to_end":{"files_per_s":[1.5,2.5]}}}}"#,
        )
        .unwrap();
        let runs = |w, m| runs_of(&doc, "B.json", w, m);
        assert_eq!(runs("ingest_stream", "files_per_s"), Ok(vec![1.5, 2.5]));
        assert!(runs("ingest_stream", "recovery_ms").is_err());
        assert!(runs("fanout_tree", "files_per_s").is_err());
    }

    #[test]
    fn verdict_applies_the_bound_to_medians() {
        // throughput: 10 % bound
        assert_eq!(verdict(&[100.0], &[95.0], true, 0.10), "ok");
        assert_eq!(verdict(&[100.0], &[89.0], true, 0.10), "worse");
        assert_eq!(verdict(&[100.0], &[150.0], true, 0.10), "ok");
        // latency: lower is better
        assert_eq!(verdict(&[100.0], &[109.0], false, 0.10), "ok");
        assert_eq!(verdict(&[100.0], &[111.0], false, 0.10), "worse");
        assert_eq!(verdict(&[], &[1.0], false, 0.10), "unresolved");
    }

    #[test]
    fn verdict_is_unresolved_when_the_spread_exceeds_the_bound() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        // medians equal, spread 30 % > 10 %: cannot call it unchanged
        assert_eq!(verdict(&noisy, &noisy, false, 0.10), "unresolved");
        // every B run better than every A run
        assert_eq!(verdict(&noisy, &[50.0, 60.0, 70.0], false, 0.10), "ok");
        // every B run worse than every A run, and beyond the bound
        assert_eq!(
            verdict(&noisy, &[150.0, 160.0, 170.0], false, 0.10),
            "worse"
        );
    }
}

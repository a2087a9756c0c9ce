//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! bistro-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
//! bistro-benchmark run [--workload W] [--seed N] [--seconds S] [--smoke] [--repeat R] [--trace-dir DIR] [--out FILE]
//! bistro-benchmark compare A.json B.json
//! bistro-benchmark manifest                                          print BENCHMARK.json
//! ```

mod fanout;
mod gen;
mod harness;
mod ingest;
mod lifecycle;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;

use harness::{Budget, Opts, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--smoke`: every count divided by this, and an exact window count
/// instead of a wall-clock budget, so every count repeats per seed.
pub const SMOKE_SCALE: u64 = 10;
const SMOKE_WINDOWS: u64 = 2;

pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: Option<PathBuf>,
    pub smoke: bool,
    pub repeat: usize,
    pub out: Option<PathBuf>,
    pub positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_dir: None,
        smoke: false,
        repeat: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        fn num<T: std::str::FromStr>(arg: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{arg}: cannot read {v:?}"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = num(arg, value("a number")?)?,
            "--seconds" => cli.seconds = num(arg, value("a number")?)?,
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-dir" => cli.trace_dir = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => cli.smoke = true,
            "--repeat" => cli.repeat = num::<usize>(arg, value("a count")?)?.max(1),
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cli)
}

fn run_one(cli: &Cli, workload: &str) -> Result<Outcome, String> {
    use harness::Workload as _;
    let opts = Opts {
        seed: cli.seed,
        budget: if cli.smoke {
            Budget::Windows(SMOKE_WINDOWS)
        } else {
            Budget::Seconds(cli.seconds)
        },
        trace: cli.trace,
        trace_dir: cli.trace_dir.clone(),
        scale: if cli.smoke { SMOKE_SCALE } else { 1 },
    };
    Ok(match workload {
        ingest::IngestStream::NAME => harness::run::<ingest::IngestStream>(&opts),
        ingest::IngestBatch::NAME => harness::run::<ingest::IngestBatch>(&opts),
        fanout::FanoutDirect::NAME => harness::run::<fanout::FanoutDirect>(&opts),
        fanout::FanoutTree::NAME => harness::run::<fanout::FanoutTree>(&opts),
        other => {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other:?} (one of {})",
                names.join(", ")
            ));
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "manifest")) => (c, &args[1..]),
        _ => ("single", &args[..]),
    };
    let result = parse(rest).and_then(|cli| match command {
        "manifest" => {
            print!("{}", spec::pretty(&spec::manifest()));
            Ok(true)
        }
        "compare" => report::compare(&cli),
        "run" => report::run_all(&cli),
        _ => {
            let workload = cli
                .workload
                .clone()
                .ok_or("--workload is required (or use the `run` subcommand)")?;
            let outcome = run_one(&cli, &workload)?;
            report::print_single(&workload, &outcome);
            Ok(true)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bistro-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

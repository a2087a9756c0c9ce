//! `bistro` — command-line companion for the Bistro feed manager.
//!
//! ```text
//! bistro check <config>             validate a configuration file
//! bistro render <config>            print the canonical form of a configuration
//! bistro classify <config> <name>…  show which feeds the given filenames match
//! bistro discover <dir> [min]       run new-feed discovery over a real directory
//! bistro analyze <config> <dir>     full analyzer pass: classify a directory,
//!                                   then report unknowns, suggestions, drift
//! bistro status [--json] [--seed N] [--workers W]
//!                                   one-screen health report from the seeded
//!                                   demo scenario (same seed → same bytes,
//!                                   for any ingest worker count W)
//! ```

use bistro::analyzer::{infer_schema, suggest_groups, FeedDiscoverer, FnDetector};
use bistro::config::parse_config;
use bistro::server::Classifier;
use bistro::vfs::{walk_files, DiskFs, FileStore};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("discover") => cmd_discover(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        _ => {
            eprintln!(
                "usage: bistro <check|render|classify|discover|analyze|status> …\n\
                 \n\
                 bistro check <config>             validate a configuration file\n\
                 bistro render <config>            print the canonical form\n\
                 bistro classify <config> <name>…  match filenames against feeds\n\
                 bistro discover <dir> [min]       suggest feed definitions for a directory\n\
                 bistro analyze <config> <dir>     classify a directory and report drift\n\
                 bistro status [--json] [--seed N] [--workers W]\n\
                 \u{20}                                 health report from the seeded demo run"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_config(path: &str) -> Result<bistro::config::Config, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_config(&src).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: bistro check <config>")?;
    let cfg = load_config(path)?;
    println!(
        "ok: {} feeds, {} groups, {} subscribers",
        cfg.feeds.len(),
        cfg.groups.len(),
        cfg.subscribers.len()
    );
    for sub in &cfg.subscribers {
        let feeds = cfg.subscriber_feeds(&sub.name).map_err(|e| e.to_string())?;
        println!("  subscriber {} receives {} feeds", sub.name, feeds.len());
    }
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: bistro render <config>")?;
    print!("{}", load_config(path)?.to_source());
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let (path, names) = args
        .split_first()
        .ok_or("usage: bistro classify <config> <name>…")?;
    if names.is_empty() {
        return Err("no filenames given".to_string());
    }
    let cfg = load_config(path)?;
    let classifier = Classifier::compile(&cfg);
    for name in names {
        let feeds = classifier.feeds_for(name);
        if feeds.is_empty() {
            println!("{name}: (unknown feed)");
        } else {
            println!("{name}: {}", feeds.join(", "));
        }
    }
    Ok(())
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .ok_or("usage: bistro discover <dir> [min-support]")?;
    let min_support: usize = args
        .get(1)
        .map(|s| s.parse().map_err(|_| format!("bad min-support: {s}")))
        .transpose()?
        .unwrap_or(3);

    let store = DiskFs::open(dir).map_err(|e| e.to_string())?;
    let files = walk_files(&store, "").map_err(|e| e.to_string())?;
    if files.is_empty() {
        return Err(format!("{dir}: no files found"));
    }
    let mut disc = FeedDiscoverer::new();
    for f in &files {
        disc.observe(f);
    }
    let suggestions = disc.suggestions(min_support);
    println!(
        "{} files → {} suggested feeds (min support {min_support}):\n",
        files.len(),
        suggestions.len()
    );
    for s in &suggestions {
        println!("feed ? {{");
        println!("    pattern \"{}\";", s.pattern.text().replace('"', "\\\""));
        println!("    # support {} files; {}", s.support, s.description);
        if let Some(p) = s.period {
            println!("    # inferred period {p}");
        }
        if let Some(n) = s.sources {
            println!("    # inferred sources {n}");
        }
        // content-based schema for the first example we can read
        if let Some(example) = s.examples.first() {
            if let Ok(data) = store.read(example) {
                if let Some(schema) = infer_schema(&data) {
                    println!("    # content schema {schema}");
                }
            }
        }
        println!("}}");
    }
    let groups = suggest_groups(&suggestions, 0.7);
    if !groups.is_empty() {
        println!("\nsuggested groupings:");
        for g in groups {
            let members: Vec<&str> = g
                .members
                .iter()
                .map(|&i| suggestions[i].pattern.text())
                .collect();
            println!(
                "  {} (cohesion {:.2}): {}",
                g.suggested_name,
                g.cohesion,
                members.join("  ")
            );
        }
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut seed: u64 = 0xB157_0057;
    let mut workers: usize = 1;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = v.parse().map_err(|_| format!("bad workers: {v}"))?;
            }
            other => return Err(format!("unknown status flag {other}")),
        }
    }
    if json {
        println!("{}", bistro::status::status_json(seed, workers).render());
    } else {
        print!("{}", bistro::status::status_text(seed, workers));
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let [config_path, dir] = args else {
        return Err("usage: bistro analyze <config> <dir>".to_string());
    };
    let cfg = load_config(config_path)?;
    let classifier = Classifier::compile(&cfg);
    let store = DiskFs::open(dir).map_err(|e| e.to_string())?;
    let files = walk_files(&store, "").map_err(|e| e.to_string())?;

    let mut matched = 0usize;
    let mut discoverer = FeedDiscoverer::new();
    let mut fn_det = FnDetector::new(
        cfg.feeds
            .iter()
            .map(|f| (f.name.clone(), f.patterns.clone()))
            .collect(),
    );
    for f in &files {
        let name = f.rsplit('/').next().unwrap_or(f);
        if classifier.classify(name).is_empty() {
            discoverer.observe(name);
            fn_det.observe(name);
        } else {
            matched += 1;
        }
    }
    println!(
        "{} files: {} matched, {} unknown",
        files.len(),
        matched,
        files.len() - matched
    );

    let warnings = fn_det.warnings();
    if !warnings.is_empty() {
        println!("\npossible false negatives (naming drift):");
        for w in warnings {
            println!(
                "  {} ← {} files like {} (similarity {:.2})",
                w.feed, w.file_count, w.suggested_pattern, w.similarity
            );
        }
    }
    let suggestions = discoverer.suggestions(3);
    if !suggestions.is_empty() {
        println!("\nsuggested new feeds:");
        for s in suggestions {
            println!("  pattern \"{}\" ({} files)", s.pattern, s.support);
        }
    }
    Ok(())
}

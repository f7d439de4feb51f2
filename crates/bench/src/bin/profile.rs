//! Profile inspector: read a run report produced under `NETSIM_PROFILE=1`
//! (or `--profile`) and render the flight-recorder data it embeds.
//!
//! ```text
//! cargo run --bin profile -- target/run-reports/all_experiments.json
//! cargo run --bin profile -- <report> --tree          # scope call tree
//! cargo run --bin profile -- <report> --hot 15        # hottest scopes
//! cargo run --bin profile -- <report> --alloc 15      # heaviest allocators
//! cargo run --bin profile -- <report> --export-chrome out.json
//! ```
//!
//! With no mode flag it prints the call tree. Text modes also render the
//! runner section (per-worker utilization) when the report has one.

use std::fs;
use std::process::ExitCode;

use netsim::profile::ProfileReport;
use serde::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profile: {e}");
            eprintln!();
            eprintln!("usage: profile <run-report.json> [MODE]");
            eprintln!("modes: --tree | --hot [N] | --alloc [N] | --export-chrome OUT.json");
            ExitCode::FAILURE
        }
    }
}

enum Mode {
    Tree,
    Hot(usize),
    Alloc(usize),
    ExportChrome(String),
}

fn run(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut mode = Mode::Tree;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        // `--hot 15` / `--alloc 15`: the count is optional.
        let mut opt_count = |default: usize| match it.peek().and_then(|n| n.parse().ok()) {
            Some(n) => {
                it.next();
                n
            }
            None => default,
        };
        match a.as_str() {
            "--tree" => mode = Mode::Tree,
            "--hot" => mode = Mode::Hot(opt_count(20)),
            "--alloc" => mode = Mode::Alloc(opt_count(20)),
            "--export-chrome" => {
                let out = it
                    .next()
                    .cloned()
                    .ok_or("--export-chrome needs an output path")?;
                mode = Mode::ExportChrome(out);
            }
            _ if path.is_none() && !a.starts_with('-') => path = Some(a.clone()),
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    let path = path.ok_or("no input file given")?;
    let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;

    let report = get(&doc, "profile")
        .and_then(ProfileReport::from_value)
        .ok_or_else(|| {
            format!(
                "{path}: no profile section (rerun the experiment with \
                 NETSIM_PROFILE=1 or --profile to record one)"
            )
        })?;

    match mode {
        Mode::Tree => {
            print!("{}", report.render_tree());
            print_counters(&report);
            print_runner(&doc);
        }
        Mode::Hot(top) => {
            print!("{}", report.render_hot(top));
            print_runner(&doc);
        }
        Mode::Alloc(top) => {
            print!("{}", report.render_alloc(top));
            print_runner(&doc);
        }
        Mode::ExportChrome(out) => {
            let json = serde_json::to_string_pretty(&report.chrome_trace())
                .map_err(|e| format!("chrome trace: {e:?}"))?;
            fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("profile: wrote chrome trace to {out}");
        }
    }
    Ok(())
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::F64(f) => Some(*f as u64),
        _ => None,
    }
}

fn print_counters(report: &ProfileReport) {
    let interesting: Vec<_> = report.counters.iter().filter(|(_, v)| *v > 0).collect();
    if interesting.is_empty() {
        return;
    }
    println!("counters:");
    for (name, v) in interesting {
        println!("  {name:<24} {v}");
    }
}

/// Render the `runner` section: one block per pool batch with per-worker
/// job counts and busy-time shares — the quickest way to see whether a
/// "parallel" run actually overlapped work or just time-sliced one core.
fn print_runner(doc: &Value) {
    let Some(Value::Array(batches)) = get(doc, "runner") else {
        return;
    };
    for (ix, batch) in batches.iter().enumerate() {
        let jobs = get(batch, "jobs").and_then(as_u64).unwrap_or(0);
        let threads = get(batch, "threads").and_then(as_u64).unwrap_or(0);
        let wall = get(batch, "wall_ns").and_then(as_u64).unwrap_or(0);
        println!(
            "runner batch {ix}: {jobs} jobs / {threads} threads · wall {}",
            human_ns(wall)
        );
        let Some(Value::Array(workers)) = get(batch, "workers") else {
            continue;
        };
        for w in workers {
            let label = match get(w, "label") {
                Some(Value::Str(s)) => s.clone(),
                _ => "?".into(),
            };
            let wjobs = get(w, "jobs").and_then(as_u64).unwrap_or(0);
            let busy = get(w, "busy_ns").and_then(as_u64).unwrap_or(0);
            let util = if wall > 0 {
                busy as f64 * 100.0 / wall as f64
            } else {
                0.0
            };
            println!(
                "  {label:<20} {wjobs:>4} jobs  busy {:>10}  util {util:>5.1}%",
                human_ns(busy)
            );
        }
    }
}

fn human_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

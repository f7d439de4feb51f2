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
//! With no mode flag it prints the call tree.

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
        }
        Mode::Hot(top) => print!("{}", report.render_hot(top)),
        Mode::Alloc(top) => print!("{}", report.render_alloc(top)),
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

//! `inspect profile`: the flight-recorder data a run report recorded under
//! `NETSIM_PROFILE=1` (or `--profile`) embeds. With no mode flag it prints
//! the call tree.

use std::fs;
use std::process::ExitCode;

use netsim::profile::ProfileReport;

enum Mode {
    Tree,
    Hot(usize),
    Alloc(usize),
    ExportChrome(String),
}

pub(crate) fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut mode = Mode::Tree;
    let [path] = crate::parse(args, |flag| {
        // `--hot 15` / `--alloc 15`: the count is optional.
        match flag.name {
            "--tree" => mode = Mode::Tree,
            "--hot" => mode = Mode::Hot(flag.count().unwrap_or(20)),
            "--alloc" => mode = Mode::Alloc(flag.count().unwrap_or(20)),
            "--export-chrome" => mode = Mode::ExportChrome(flag.value("an output path")?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let doc = crate::load(path)?;

    let report = doc
        .get("profile")
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
            eprintln!("inspect: wrote chrome trace to {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
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

//! Runs every experiment in DESIGN.md §5, one after the other, and prints
//! all result tables — the source of the "measured" columns in
//! EXPERIMENTS.md.
//!
//! Always writes the structured run report to `target/run-reports/`; with
//! `--json <path>`, additionally writes the bare tables as JSON at the
//! given path (the pre-report format kept for downstream tooling).
//!
//! `NETSIM_PROFILE=1` or `--profile` records the flight recorder (scope
//! timings, gauge samples) into the run report; `--profile-chrome <path>`
//! also writes a chrome://tracing file. Any other `--flag` exits 2.

fn main() {
    // Read before the run: `--json` with no path after it is refused at
    // once, not after the tables have printed.
    let json_path = bench::runbin::path_knob("--json");
    let tables = bench::runbin::run("all_experiments", &["--json"], bench::experiments::run_all);
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&tables).expect("serializable");
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

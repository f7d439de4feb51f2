//! Runs every experiment in DESIGN.md §5, one after the other, and prints
//! all result tables — the source of the "measured" columns in
//! EXPERIMENTS.md. The structured run report, tables included, goes to
//! `target/run-reports/all_experiments.json`.
//!
//! `NETSIM_PROFILE=1` or `--profile` records the flight recorder (scope
//! timings, gauge samples) into the run report; `--profile-chrome <path>`
//! also writes a chrome://tracing file. Any other `--flag` exits 2.

fn main() {
    bench::runbin::run("all_experiments", &[], bench::experiments::run_all);
}

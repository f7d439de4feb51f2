//! `exp <name>` runs one paper experiment — any entry of
//! `bench::experiments::EXPERIMENTS`, DESIGN.md §5 — prints its tables and
//! writes `<name>.json`. A missing or unknown name lists the names on
//! stderr and exits 2.
//!
//! `NETSIM_PROFILE=1` or `--profile` records the flight recorder into the
//! run report; `--profile-chrome <path>` also writes a chrome://tracing
//! file. Any other `--flag` exits 2.

fn main() {
    let name = std::env::args().nth(1);
    match bench::experiments::lookup(name.as_deref()) {
        Ok((name, run)) => {
            bench::runbin::run(name, &[], run);
        }
        Err(complaint) => {
            eprintln!("exp: {complaint}");
            std::process::exit(2);
        }
    }
}

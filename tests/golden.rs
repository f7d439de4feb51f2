//! Every experiment's output, pinned: `tests/golden.manifest` holds one line
//! per entry of `bench::experiments::EXPERIMENTS` — its name, a 64-bit FNV-1a
//! of the tables exactly as `exp <name>` prints them, and one of the JSON run
//! report `exp <name>` writes (collector on, profiling off) — plus one line
//! for `exp_scale` on a 2 000-host world with the policy miss storm on.
//!
//! A change that moves an output fails here with the name of every
//! experiment it moved and the replacement manifest on stdout. A change
//! that moves output on purpose commits the replacement in the same diff
//! and says why each changed line changed.

use bench::experiments::{exp_scale, EXPERIMENTS};
use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};
use bench::Table;

/// The committed manifest.
const MANIFEST: &str = include_str!("golden.manifest");

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The manifest line for one run: what `runbin::run` prints and emits.
fn line(name: &str, tables: &[Table]) -> String {
    let printed: String = tables.iter().map(|t| format!("{t}\n")).collect();
    let report = serde_json::to_string_pretty(&bench::report::build(name, tables))
        .expect("reports serialize");
    format!(
        "{name} {:016x} {:016x}",
        fnv(printed.as_bytes()),
        fnv(report.as_bytes())
    )
}

/// `exp_scale --hosts 2000 --correspondents 4000`, through the calls the
/// bin makes.
fn scale_line() -> String {
    let (mut world, index) = build_world(&ScaleParams::with_hosts(2_000));
    bench::report::observe_world(&mut world);
    let churn = ChurnParams {
        correspondents: 4_000,
        ..ChurnParams::default()
    };
    let stats = run_churn(&mut world, &index, &churn);
    assert!(
        !world.has_invariant_violations(),
        "{}",
        serde_json::to_string(&world.invariant_report()).unwrap_or_default()
    );
    bench::report::record_value("scale/churn", &stats);
    line("exp_scale", &[exp_scale::table(index.hosts.len(), &stats)])
}

/// One test: the report collector is process-global.
#[test]
fn every_experiment_matches_the_golden_manifest() {
    bench::report::enable();
    let mut lines: Vec<String> = EXPERIMENTS
        .iter()
        .map(|(name, run)| line(name, &run()))
        .collect();
    lines.push(scale_line());

    let expected: Vec<&str> = MANIFEST.lines().collect();
    let name = |l: &str| l.split(' ').next().unwrap_or("").to_string();
    let moved: Vec<String> = lines
        .iter()
        .zip(expected.iter().copied().chain(std::iter::repeat("")))
        .filter(|(got, want)| got.as_str() != *want)
        .map(|(got, _)| name(got))
        .collect();
    if !moved.is_empty() || lines.len() != expected.len() {
        println!("replacement tests/golden.manifest:\n{}", lines.join("\n"));
        panic!(
            "outputs differ from tests/golden.manifest for: {} ({} lines expected, {} produced)",
            moved.join(", "),
            expected.len(),
            lines.len()
        );
    }
}

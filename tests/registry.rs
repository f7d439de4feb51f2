//! `bench::experiments::EXPERIMENTS` is the one list of the paper's
//! experiments: `all_experiments` walks it and `exp <name>` runs one entry
//! of it, so an entry must give the same tables either way, and the same
//! bytes every time.

use bench::experiments::{run_all, EXPERIMENTS};
use bench::{report, Table};

fn json(tables: &[Table]) -> String {
    serde_json::to_string(tables).expect("serializable")
}

fn report_json(tables: &[Table]) -> String {
    serde_json::to_string(&report::build("all_experiments", tables)).expect("serializable")
}

#[test]
fn names_are_the_report_names_in_paper_order() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        [
            "fig01_basic",
            "fig02_filtering",
            "fig03_bitunnel",
            "fig04_triangle",
            "fig05_smart_ch",
            "fig06_07_formats",
            "fig10_grid",
            "exp_probing",
            "exp_http",
            "exp_handoff",
            "exp_multicast",
            "exp_feedback",
            "exp_foreign_agent",
            "exp_encap",
            "exp_decap_risk",
            "exp_lsr",
        ]
    );
}

/// The only test here that runs an experiment: the report collector is
/// process-global and `report::build` drains it.
#[test]
fn an_entry_alone_and_the_whole_table_twice_give_the_same_bytes() {
    report::enable();
    let first = run_all();
    let first_report = report_json(&first);
    let second = run_all();
    assert_eq!(json(&first), json(&second), "tables differ run to run");
    assert_eq!(first_report, report_json(&second), "reports differ");

    let mut rest = first.as_slice();
    for (name, run) in EXPERIMENTS {
        let alone = run();
        assert!(alone.len() <= rest.len(), "{name}: more tables alone");
        let (same, after) = rest.split_at(alone.len());
        assert_eq!(json(&alone), json(same), "{name} alone vs in run_all()");
        rest = after;
    }
    assert!(rest.is_empty(), "run_all() has tables no entry gives");
    // And the snapshots the entries recorded one by one are the report's.
    assert_eq!(first_report, report_json(&first), "report from single runs");
}

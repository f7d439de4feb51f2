//! One module per paper artifact (DESIGN.md §5).

pub mod exp_decap_risk;
pub mod exp_encap;
pub mod exp_feedback;
pub mod exp_foreign_agent;
pub mod exp_handoff;
pub mod exp_http;
pub mod exp_lsr;
pub mod exp_multicast;
pub mod exp_probing;
/// Not in [`EXPERIMENTS`]: scale runs are sized by flags and wall-clock
/// sensitive, so `all_experiments` output stays byte-stable without them.
pub mod exp_scale;
pub mod fig01_basic;
pub mod fig02_filtering;
pub mod fig03_bitunnel;
pub mod fig04_triangle;
pub mod fig05_smart_ch;
pub mod fig06_formats;
pub mod fig10_grid;

use crate::Table;

/// An experiment's name — its `exp <name>` argument, report file and
/// profile scope — and the function that runs it.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// The sixteen paper experiments, in paper order (DESIGN.md §5). The one
/// list: `all_experiments` walks it and `exp <name>` looks a name up in it.
pub const EXPERIMENTS: [Experiment; 16] = [
    ("fig01_basic", || vec![fig01_basic::run()]),
    ("fig02_filtering", fig02_filtering::run),
    ("fig03_bitunnel", || vec![fig03_bitunnel::run()]),
    ("fig04_triangle", || {
        vec![fig04_triangle::run(&[5, 10, 25, 50, 100, 200])]
    }),
    ("fig05_smart_ch", fig05_smart_ch::run),
    ("fig06_07_formats", fig06_formats::run),
    ("fig10_grid", || {
        vec![fig10_grid::run().table, fig10_grid::run_filtered().table]
    }),
    ("exp_probing", || vec![exp_probing::run()]),
    ("exp_http", || vec![exp_http::run()]),
    ("exp_handoff", || vec![exp_handoff::run()]),
    ("exp_multicast", || vec![exp_multicast::run()]),
    ("exp_feedback", || vec![exp_feedback::run()]),
    ("exp_foreign_agent", || vec![exp_foreign_agent::run()]),
    ("exp_encap", || vec![exp_encap::run()]),
    ("exp_decap_risk", || vec![exp_decap_risk::run()]),
    ("exp_lsr", || vec![exp_lsr::run()]),
];

/// The experiment `exp <name>` asks for, or — for a missing or unknown
/// name — the complaint to print: what was wrong and every name there is.
pub fn lookup(name: Option<&str>) -> Result<Experiment, String> {
    let hit = EXPERIMENTS.into_iter().find(|(n, _)| Some(*n) == name);
    hit.ok_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        let asked = match name {
            Some(n) => format!("no experiment named {n}"),
            None => "no experiment name given".into(),
        };
        format!("{asked}; the experiments are\n  {}", names.join("\n  "))
    })
}

/// Run every experiment at full scale, one after the other on the calling
/// thread, and collect the output tables in paper order. Each runs under a
/// profile scope of its own name, so `inspect profile --hot` attributes wall time
/// to individual experiments.
pub fn run_all() -> Vec<Table> {
    let mut tables = Vec::new();
    for (name, run) in EXPERIMENTS {
        let _prof = netsim::profile::scope(name);
        tables.extend(run());
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::{lookup, EXPERIMENTS};

    #[test]
    fn lookup_finds_a_known_name_and_lists_all_sixteen_otherwise() {
        let (name, _) = lookup(Some("fig10_grid")).expect("a table entry");
        assert_eq!(name, "fig10_grid");
        for (asked, complaint) in [
            (None, "no experiment name given"),
            (
                Some("no_such_experiment"),
                "no experiment named no_such_experiment",
            ),
            (Some("--profile"), "no experiment named --profile"),
            (Some("fig10"), "no experiment named fig10"),
        ] {
            let err = lookup(asked).expect_err("not in the table");
            let mut lines = err.lines();
            assert_eq!(
                lines.next(),
                Some(format!("{complaint}; the experiments are").as_str())
            );
            let listed: Vec<&str> = lines.map(str::trim_start).collect();
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            assert_eq!(listed, names, "{asked:?}");
        }
    }
}

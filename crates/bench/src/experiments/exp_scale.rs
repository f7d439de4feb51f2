//! E18 — mass churn on hierarchical worlds.
//!
//! Builds a backbone/transit/stub world (see [`crate::scale`]) and drives
//! the three storm workloads a deployed Mobile IP infrastructure has to
//! absorb: a handoff storm, a flash crowd on one host, and the
//! re-registration stampede after a home-agent restart. The table reports
//! only deterministic quantities (counts and simulated time); wall-clock
//! build/run rates and per-host memory are measured by the `exp_scale`
//! binary and printed to stderr, so run reports stay byte-comparable
//! across machines.

use crate::scale::{build_world, run_churn, ChurnParams, ChurnStats, ScaleIndex, ScaleParams};
use crate::util::Table;
use netsim::World;

/// One sized run: the built world (for callers that want snapshots) plus
/// the churn outcome.
pub struct ScaleOutcome {
    /// The world after churn completed.
    pub world: World,
    /// Topology index of the built world.
    pub index: ScaleIndex,
    /// What the churn driver did.
    pub stats: ChurnStats,
}

/// Build a world of (at least) `hosts` hosts and run the churn workloads.
pub fn run_sized(hosts: usize, seed: u64, churn: &ChurnParams) -> ScaleOutcome {
    let params = ScaleParams {
        seed,
        ..ScaleParams::with_hosts(hosts)
    };
    let (mut world, index) = build_world(&params);
    crate::report::observe_world(&mut world);
    let stats = run_churn(&mut world, &index, churn);
    crate::report::record_value("scale/churn", &stats);
    ScaleOutcome {
        world,
        index,
        stats,
    }
}

/// Render the outcome as the experiment table.
pub fn table(hosts_built: usize, stats: &ChurnStats) -> Table {
    let mut t = Table::new(
        "E18 — mass churn on a hierarchical world (handoff storm, flash crowd, re-registration stampede)",
        &["metric", "value"],
    );
    t.row(&["hosts built", &hosts_built.to_string()]);
    t.row(&["handoffs", &stats.handoffs.to_string()]);
    t.row(&["flash pings", &stats.flash_pings.to_string()]);
    t.row(&["flash replies", &stats.flash_replies.to_string()]);
    t.row(&["registrations sent", &stats.registrations_sent.to_string()]);
    t.row(&[
        "registrations accepted",
        &stats.registrations_accepted.to_string(),
    ]);
    t.row(&[
        "bindings dropped by restart",
        &stats.bindings_dropped.to_string(),
    ]);
    t.row(&["churn events", &stats.events.to_string()]);
    t.row(&["sim elapsed (us)", &stats.sim_elapsed_us.to_string()]);
    // Policy miss-storm rows appear only when the storm ran
    // (`--correspondents > 0`), so default tables keep their bytes.
    if let Some(p) = &stats.policy {
        t.row(&["policy correspondents", &p.correspondents.to_string()]);
        t.row(&["policy cache cap", &p.cache_cap.to_string()]);
        t.row(&["policy decisions", &p.decisions.to_string()]);
        t.row(&["policy cache hits", &p.hits.to_string()]);
        t.row(&["policy cache misses", &p.misses.to_string()]);
        t.row(&["policy evictions", &p.evictions.to_string()]);
        t.row(&[
            "policy hot history retained",
            &format!("{}/{}", p.hot_retained, p.hot_set),
        ]);
    }
    t.note("routes installed arithmetically from the domain hierarchy; no per-node shortest-path computation at any size");
    t
}

/// Default-scale run used by the test suite: a few thousand hosts, modest
/// churn. The binary sizes real runs with `--hosts`/`--churn` flags.
pub fn run() -> Table {
    let out = run_sized(2_000, 1, &ChurnParams::default());
    crate::report::record_world("scale/default", &out.world);
    table(out.index.hosts.len(), &out.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_churn_completes() {
        let t = run();
        // hosts built ≥ the 2000 requested.
        let hosts: usize = t.cell(0, 1).parse().unwrap();
        assert!(hosts >= 2_000);
        let accepted: u64 = t.cell(5, 1).parse().unwrap();
        let sent: u64 = t.cell(4, 1).parse().unwrap();
        assert_eq!(accepted, sent, "every registration accepted");
    }
}

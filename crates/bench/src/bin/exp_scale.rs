//! E18 — mass churn on hierarchical worlds, sized from the command line.
//!
//! ```text
//! exp_scale [--hosts N] [--seed S] [--handoffs N] [--flash N] [--rereg N]
//!           [--correspondents N] [--profile] [--profile-chrome [PATH]]
//! ```
//!
//! Any other `--flag` exits 2.
//!
//! `--correspondents N` adds the policy miss storm: one mobile's method
//! cache, capped at `N/2` entries, faces `N` distinct correspondents while
//! a hot set keeps conversing — the table then reports mode-decision
//! quality under cache pressure (hits, misses, evictions, and how much
//! hot history the LRU eviction discipline preserved).
//!
//! The printed table and the emitted run report contain only deterministic
//! quantities; wall-clock build time, per-host steady-state memory (from
//! the counting allocator's live-byte gauge), and churn throughput go to
//! stderr, keeping reports byte-comparable across machines and runs.
//!
//! The world runs under the invariant monitors. A violation is attached to
//! the report as the `scale/invariants` snapshot (a clean run has none),
//! named on stderr, and makes the exit status 1.

use std::time::Instant;

use bench::experiments::exp_scale;
use bench::runbin::{self, u64_knob};
use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};

/// The flags `main` reads through [`u64_knob`].
const FLAGS: [&str; 6] = [
    "--hosts",
    "--seed",
    "--handoffs",
    "--flash",
    "--rereg",
    "--correspondents",
];

fn main() {
    let hosts = u64_knob("--hosts").unwrap_or(10_000) as usize;
    let seed = u64_knob("--seed").unwrap_or(1);
    let defaults = ChurnParams::default();
    let churn = ChurnParams {
        handoffs: u64_knob("--handoffs").map_or(defaults.handoffs, |n| n as usize),
        flash_crowd: u64_knob("--flash").map_or(defaults.flash_crowd, |n| n as usize),
        rereg: u64_knob("--rereg").map_or(defaults.rereg, |n| n as usize),
        lifetime: defaults.lifetime,
        correspondents: u64_knob("--correspondents")
            .map_or(defaults.correspondents, |n| n as usize),
    };

    let mut violated = false;
    runbin::run("exp_scale", &FLAGS, || {
        let params = ScaleParams {
            seed,
            ..ScaleParams::with_hosts(hosts)
        };
        let live_before = netsim::profile::live_bytes();
        let t_build = Instant::now();
        let (mut world, index) = build_world(&params);
        let build_wall = t_build.elapsed();
        let live_world = netsim::profile::live_bytes() - live_before;

        bench::report::observe_world(&mut world);
        let t_churn = Instant::now();
        let stats = run_churn(&mut world, &index, &churn);
        let churn_wall = t_churn.elapsed();
        let live_steady = netsim::profile::live_bytes() - live_before;
        bench::report::record_value("scale/churn", &stats);
        violated = world.has_invariant_violations();
        if violated {
            let verdict = world.invariant_report();
            let section = serde::from_fn(|w| w.object(|w| w.field("invariants", &verdict)));
            bench::report::record_value("scale/invariants", &section);
        }

        let n = index.hosts.len() as i64;
        eprintln!(
            "exp_scale: built {} hosts ({} nodes, {} stubs) in {:.2?}; \
             {} B/host after build, {} B/host steady-state",
            n,
            params.total_nodes(),
            index.stubs.len(),
            build_wall,
            live_world / n.max(1),
            live_steady / n.max(1),
        );
        eprintln!(
            "exp_scale: {} churn events over {:.2?} wall ({:.0} events/s), {} sim-us",
            stats.events,
            churn_wall,
            stats.events as f64 / churn_wall.as_secs_f64().max(1e-9),
            stats.sim_elapsed_us,
        );
        vec![exp_scale::table(index.hosts.len(), &stats)]
    });
    if violated {
        eprintln!("exp_scale: invariant violations, see the report's scale/invariants snapshot");
        std::process::exit(1);
    }
}

//! The five workloads. Each drives the workspace crates only through
//! their public functions and checks what they return.

pub mod churn;
pub mod grid_stream;
pub mod paper_suite;
pub mod transit_flows;

use netsim::{SchedulerStats, World};

use crate::harness::{Config, Metric, Workload};
use crate::spans::Tracer;
use crate::stats::Fnv;

/// Workload names with the one-line reason each exists, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper_suite",
        "what all_experiments users run: 16 experiments on ten-node worlds with every observer on, report built and serialised",
    ),
    (
        "churn_observed",
        "exp_scale's default at 10^5 hosts: dense per-node metrics first-touched on a cache-cold world; the only workload the metrics layer moves",
    ),
    (
        "churn_shards2",
        "the same churn unobserved on two shards, checked against a serial run; the only workload where the shard engine does the work",
    ),
    (
        "transit_flows",
        "steady unicast forwarding on a cache-resident 2k-host world, no observers or shards: the control for metrics and shard changes",
    ),
    (
        "grid_stream",
        "the paper's own data path: UDP echo at 4/512/1400 B and a 4 MiB TCP transfer through each of the seven useful Figure-10 cells",
    ),
];

/// Build workload `name` (warm-up included); `None` if there is no such
/// workload.
pub fn create(
    name: &str,
    cfg: &Config,
    tr: &mut Tracer,
    process_start: std::time::Instant,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_suite" => Box::new(paper_suite::PaperSuite::new(tr, process_start)),
        "churn_observed" => Box::new(churn::Churn::new(cfg, tr, true)),
        "churn_shards2" => Box::new(churn::Churn::new(cfg, tr, false)),
        "transit_flows" => Box::new(transit_flows::TransitFlows::new(cfg, tr)),
        "grid_stream" => Box::new(grid_stream::GridStream::new(cfg, tr)),
        _ => return None,
    })
}

/// Fold what a world shows of itself from outside into `d`: the simulated
/// clock, how much the packet trace recorded, and the scheduler's counts.
/// Cheap at any world size, and any change in simulated timing, packet
/// count or event count moves it.
fn digest_world(d: &mut Fnv, world: &World) {
    let sched = world.scheduler_stats();
    d.u64(world.now().0);
    d.u64(world.trace.events().len() as u64);
    d.u64(world.trace.packets_identified() as u64);
    d.u64(sched.pushed);
    d.u64(sched.dispatched);
    d.u64(sched.cancelled);
}

/// What the scheduler counted between two readings.
fn sched_delta(before: SchedulerStats, after: SchedulerStats) -> SchedulerStats {
    SchedulerStats {
        pushed: after.pushed - before.pushed,
        dispatched: after.dispatched - before.dispatched,
        cancelled: after.cancelled - before.cancelled,
    }
}

/// The `world.*` and `event.*` counts every world-driving workload reports:
/// `sched` is the measured phase's scheduler delta, `ops` and `measured_s`
/// one repetition's operations and measured wall seconds.
fn push_event_counts(sched: SchedulerStats, ops: f64, measured_s: f64, out: &mut Vec<Metric>) {
    let events = sched.dispatched as f64;
    out.push(Metric::new(
        "world.events_per_op",
        events / ops,
        "events/op",
    ));
    out.push(Metric::new(
        "world.ns_per_event",
        measured_s * 1e9 / events,
        "ns/event",
    ));
    out.push(Metric::new(
        "event.pushed_per_op",
        sched.pushed as f64 / ops,
        "events/op",
    ));
    out.push(Metric::new(
        "event.cancelled_per_op",
        sched.cancelled as f64 / ops,
        "events/op",
    ));
}

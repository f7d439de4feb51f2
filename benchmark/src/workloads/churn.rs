//! `churn_observed` and `churn_shards2`: the three mass-churn phases of
//! `exp_scale` on a 10⁵-host world.
//!
//! * `churn_observed` arms the observers exactly as the `exp_scale` bin
//!   does. It is ROADMAP's headline pathology — dense per-node metrics
//!   first-touched on a working set far larger than the last-level cache —
//!   and the only workload where the `metrics` layer moves time and memory.
//! * `churn_shards2` runs the same world unobserved on two shards. It is
//!   the only workload where the `shard` layer does the work; every
//!   repetition also runs the scenario serially, untimed, and the two
//!   digests must agree.

use bench::experiments::exp_scale;
use bench::report;
use bench::scale::{build_world, run_churn, ChurnParams, ChurnStats, ScaleIndex, ScaleParams};
use netsim::profile::live_bytes;
use netsim::{set_default_shards, SchedulerStats, World};

use crate::harness::{
    cold_rep, median_measured_s, push_span_s, Config, Metric, Phase, PhaseClock, Rep, Workload,
};
use crate::spans::Tracer;
use crate::stats::{median, Fnv};

/// One span per `run_churn` call, in phase order.
const PHASES: [&str; 3] = [
    "scale.handoff_storm",
    "scale.flash_crowd",
    "scale.rereg_stampede",
];

/// Counters read at the span boundaries of the latest repetition. The
/// simulator is deterministic, so every repetition reads the same.
#[derive(Default)]
struct Counts {
    hosts: f64,
    ops: f64,
    built_bytes: f64,
    churned_bytes: f64,
    nodes_touched: f64,
    json_bytes: f64,
    sched: SchedulerStats,
    /// `(windows, stalls, border messages, busiest shard's event share)`.
    shard: Option<(f64, f64, f64, f64)>,
}

/// Either churn workload.
pub struct Churn {
    /// `churn_observed` when set, `churn_shards2` otherwise.
    observed: bool,
    params: ScaleParams,
    /// Handoffs, flash pings and re-registering mobiles.
    counts: [usize; 3],
    cold_rep_s: f64,
    last: Counts,
}

impl Churn {
    /// Build the inputs and run the cold first repetition, which is left
    /// out of every metric and printed as `cold_rep_s`.
    pub fn new(cfg: &Config, tr: &mut Tracer, observed: bool) -> Churn {
        if observed {
            report::enable();
        }
        let hosts = if cfg.smoke { 2_000 } else { 100_000 };
        let mut w = Churn {
            observed,
            params: ScaleParams {
                seed: cfg.seed,
                ..ScaleParams::with_hosts(hosts)
            },
            // The same counts for every seed. Moving them with the seed
            // makes `live_mib` jump between 0.9 and 1.5 GiB (the dense
            // metrics vector grows by doubling, so its capacity depends on
            // the order nodes are first touched in) and `allocs_per_op`
            // on two shards move by 8 %: far outside what those metrics
            // may spread over ten seeds.
            counts: [if observed { 512 } else { 128 }; 3],
            cold_rep_s: 0.0,
            last: Counts::default(),
        };
        w.cold_rep_s = cold_rep(&mut w, tr);
        w
    }

    fn phase_params(&self, phase: usize) -> ChurnParams {
        let mut p = ChurnParams {
            handoffs: 0,
            flash_crowd: 0,
            rereg: 0,
            lifetime: 300,
            correspondents: 0,
        };
        match phase {
            0 => p.handoffs = self.counts[0],
            1 => p.flash_crowd = self.counts[1],
            _ => p.rereg = self.counts[2],
        }
        p
    }
}

/// The phases' outcomes summed into one `ChurnStats`, as one `run_churn`
/// call over all three would have reported them.
fn total(stats: &[ChurnStats; 3]) -> ChurnStats {
    let mut t = ChurnStats::default();
    for s in stats {
        t.handoffs += s.handoffs;
        t.flash_pings += s.flash_pings;
        t.flash_replies += s.flash_replies;
        t.registrations_sent += s.registrations_sent;
        t.registrations_accepted += s.registrations_accepted;
        t.bindings_dropped += s.bindings_dropped;
        t.events += s.events;
        t.sim_elapsed_us += s.sim_elapsed_us;
    }
    t
}

/// Everything deterministic a churned world shows from outside.
fn digest(world: &World, stats: &[ChurnStats; 3]) -> Fnv {
    let mut d = Fnv::default();
    d.bytes(format!("{stats:?}").as_bytes());
    super::digest_world(&mut d, world);
    d
}

impl Workload for Churn {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        if !self.observed {
            set_default_shards(2);
        }
        let mut clock = PhaseClock::start(Phase::Setup);
        let live_before = live_bytes();
        let (mut world, index): (World, ScaleIndex) =
            tr.span("scale.build_world", || build_world(&self.params));
        let built_bytes = live_bytes() - live_before;
        if self.observed {
            tr.span("report.observe_world", || report::observe_world(&mut world));
        }
        let sched_before = world.scheduler_stats();

        clock.enter(Phase::Measured);
        let mut stats = [ChurnStats::default(); 3];
        for (phase, span) in PHASES.into_iter().enumerate() {
            let churn = self.phase_params(phase);
            stats[phase] = tr.span(span, || run_churn(&mut world, &index, &churn));
        }
        clock.enter(Phase::Untimed);

        let churned_bytes = live_bytes() - live_before;
        let sched = world.scheduler_stats();
        let sum = total(&stats);
        let mut failed = (sum.flash_pings - sum.flash_replies)
            + (sum.registrations_sent - sum.registrations_accepted)
            + (self.counts[0] as u64 - sum.handoffs);
        let mut digest = digest(&world, &stats);

        let mut json_bytes = 0;
        if self.observed {
            // What `exp_scale` does once churn is over.
            report::record_value("scale/churn", &sum);
            let table = exp_scale::table(index.hosts.len(), &sum);
            let report = tr.span("report.build", || report::build("exp_scale", &[table]));
            let json = tr.span("report.json", || {
                serde_json::to_string(&report).expect("rendering a value tree cannot fail")
            });
            let totals = tr.span("metrics.totals", || world.metrics.totals());
            digest.bytes(json.as_bytes());
            digest.bytes(format!("{totals:?}").as_bytes());
            json_bytes = json.len();
            failed += u64::from(world.has_invariant_violations());
        }
        let live_at_end = live_bytes();

        self.last = Counts {
            hosts: index.hosts.len() as f64,
            ops: sum.events as f64,
            built_bytes: built_bytes as f64,
            churned_bytes: churned_bytes as f64,
            nodes_touched: world.metrics.node_ids().count() as f64,
            json_bytes: json_bytes as f64,
            sched: super::sched_delta(sched_before, sched),
            shard: world.shard_stats().map(|shards| {
                let sum = |f: fn(&netsim::ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
                let busiest = shards.iter().map(|s| s.events).max().unwrap_or(0);
                (
                    sum(|s| s.windows) as f64,
                    sum(|s| s.stalls) as f64,
                    sum(|s| s.msgs_out) as f64,
                    busiest as f64 / sum(|s| s.events).max(1) as f64,
                )
            }),
        };
        tr.span("world.drop", || drop(world));

        if !self.observed {
            // The serial reference: same inputs, one shard, untimed.
            set_default_shards(1);
            let (mut world, index) = build_world(&self.params);
            let open = tr.begin("shard.serial_ref");
            let mut reference = [ChurnStats::default(); 3];
            for (phase, slot) in reference.iter_mut().enumerate() {
                *slot = run_churn(&mut world, &index, &self.phase_params(phase));
            }
            tr.end(open);
            failed += u64::from(self::digest(&world, &reference) != digest);
        }

        let mut rep = Rep::from_clock(clock);
        rep.live_bytes = live_at_end;
        rep.ops = sum.events - failed.min(sum.events);
        rep.failed = failed;
        rep.events = self.last.sched.dispatched;
        rep.digest = digest.0;
        rep
    }

    fn layers(&self, tr: &Tracer, reps: &[Rep], out: &mut Vec<Metric>) {
        let c = &self.last;
        push_span_s(tr, "scale.build_world", "scale.build_world_s", out);
        out.push(Metric::new(
            "scale.build_bytes_per_host",
            c.built_bytes / c.hosts,
            "B/host",
        ));
        for span in PHASES {
            push_span_s(tr, span, &format!("{span}_s"), out);
        }
        out.push(Metric::new(
            "scale.live_bytes_per_host",
            c.churned_bytes / c.hosts,
            "B/host",
        ));
        if self.observed {
            out.push(Metric::new(
                "metrics.nodes_touched",
                c.nodes_touched,
                "count",
            ));
            out.push(Metric::new(
                "metrics.bytes_per_touched_node",
                (c.churned_bytes - c.built_bytes) / c.nodes_touched.max(1.0),
                "B/node",
            ));
            push_span_s(tr, "metrics.totals", "metrics.totals_s", out);
            push_span_s(tr, "report.observe_world", "report.observe_world_s", out);
            push_span_s(tr, "report.build", "report.build_s", out);
            push_span_s(tr, "report.json", "report.json_s", out);
            out.push(Metric::new("report.json_bytes", c.json_bytes, "B"));
        }
        let measured_s = median_measured_s(reps);
        super::push_event_counts(c.sched, c.ops, measured_s, out);
        push_span_s(tr, "world.drop", "world.drop_s", out);
        if let Some((windows, stalls, border_msgs, busiest_share)) = c.shard {
            out.push(Metric::new(
                "shard.windows_per_op",
                windows / c.ops,
                "count",
            ));
            out.push(Metric::new("shard.stalls_per_op", stalls / c.ops, "count"));
            out.push(Metric::new(
                "shard.border_msgs_per_op",
                border_msgs / c.ops,
                "count",
            ));
            out.push(Metric::new("shard.busiest_share", busiest_share, "ratio"));
            let serial_s = median(&tr.per_rep_s("shard.serial_ref"));
            out.push(Metric::new("shard.serial_ref_s", serial_s, "s"));
            out.push(Metric::new(
                "shard.speedup_vs_serial",
                serial_s / measured_s,
                "ratio",
            ));
        }
    }

    fn cold_rep_s(&self) -> Option<f64> {
        Some(self.cold_rep_s)
    }
}

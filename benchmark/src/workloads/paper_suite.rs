//! `paper_suite`: what `all_experiments` users run — the sixteen paper
//! experiments with the report collector on, then the run report built
//! and serialised. Observers, report serialisation and TCP/mobility on
//! ten-node worlds dominate; the scheduler, scale and shard layers do
//! almost nothing here.

use std::panic::catch_unwind;
use std::time::Instant;

use bench::experiments::{
    exp_decap_risk, exp_encap, exp_feedback, exp_foreign_agent, exp_handoff, exp_http, exp_lsr,
    exp_multicast, exp_probing, fig01_basic, fig02_filtering, fig03_bitunnel, fig04_triangle,
    fig05_smart_ch, fig06_formats, fig10_grid,
};
use bench::{report, Table};
use netsim::profile::live_bytes;

use crate::harness::{push_span_s, Metric, Phase, PhaseClock, Rep, Workload};
use crate::spans::Tracer;
use crate::stats::{median, Fnv};

/// Passes over the suite before measuring; their wall time, from process
/// start, is this workload's `setup_s`.
const WARM_UP_PASSES: usize = 3;

/// An experiment's span name and its public `run()`.
type Experiment = (&'static str, fn() -> Vec<Table>);

/// The experiments in the order of `experiments::run_all_with`. One
/// experiment is one operation.
const EXPERIMENTS: [Experiment; 16] = [
    ("experiments.fig01_basic", || vec![fig01_basic::run()]),
    ("experiments.fig02_filtering", fig02_filtering::run),
    ("experiments.fig03_bitunnel", || vec![fig03_bitunnel::run()]),
    ("experiments.fig04_triangle", || {
        vec![fig04_triangle::run(&[5, 10, 25, 50, 100, 200])]
    }),
    ("experiments.fig05_smart_ch", fig05_smart_ch::run),
    ("experiments.fig06_formats", fig06_formats::run),
    ("experiments.fig10_grid", || {
        vec![fig10_grid::run().table, fig10_grid::run_filtered().table]
    }),
    ("experiments.probing", || vec![exp_probing::run()]),
    ("experiments.http", || vec![exp_http::run()]),
    ("experiments.handoff", || vec![exp_handoff::run()]),
    ("experiments.multicast", || vec![exp_multicast::run()]),
    ("experiments.feedback", || vec![exp_feedback::run()]),
    ("experiments.foreign_agent", || {
        vec![exp_foreign_agent::run()]
    }),
    ("experiments.encap", || vec![exp_encap::run()]),
    ("experiments.decap_risk", || vec![exp_decap_risk::run()]),
    ("experiments.lsr", || vec![exp_lsr::run()]),
];

/// The `paper_suite` workload.
pub struct PaperSuite {
    warm_up_s: f64,
    /// Median wall time of the suite with the collector off; only a traced
    /// run measures it.
    unobserved_s: Option<f64>,
    json_bytes: usize,
}

/// Run the sixteen experiments; returns their tables and how many panicked.
fn suite(tr: &mut Tracer) -> (Vec<Table>, u64) {
    let mut tables = Vec::new();
    let mut panicked = 0;
    let open = tr.begin("experiments.suite");
    for (name, run) in EXPERIMENTS {
        match tr.span(name, || catch_unwind(run)) {
            Ok(t) => tables.extend(t),
            Err(_) => panicked += 1,
        }
    }
    tr.end(open);
    (tables, panicked)
}

impl PaperSuite {
    /// Warm up. `process_start` anchors `setup_s`.
    pub fn new(tr: &mut Tracer, process_start: Instant) -> PaperSuite {
        // `report::enable()` cannot be undone, so the collector-off
        // reference for `experiments.observer_cost_ratio` has to run first.
        // Users never run the suite this way, so an untraced run skips it.
        let unobserved_s = tr.active().then(|| {
            let passes: Vec<f64> = (0..WARM_UP_PASSES)
                .map(|_| {
                    let t = Instant::now();
                    let open = tr.begin("experiments.suite_unobserved");
                    suite(tr);
                    tr.end(open);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&passes)
        });
        report::enable();
        let mut w = PaperSuite {
            warm_up_s: 0.0,
            unobserved_s,
            json_bytes: 0,
        };
        for _ in 0..WARM_UP_PASSES {
            w.rep(tr);
        }
        w.warm_up_s = process_start.elapsed().as_secs_f64();
        w
    }
}

impl Workload for PaperSuite {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut clock = PhaseClock::start(Phase::Measured);
        let (tables, panicked) = suite(tr);
        let report = tr.span("report.build", || report::build("all_experiments", &tables));
        let json = tr.span("report.json", || {
            serde_json::to_string(&report).expect("rendering a value tree cannot fail")
        });
        clock.enter(Phase::Untimed);
        let live_at_end = live_bytes();
        let mut digest = Fnv::default();
        digest.bytes(json.as_bytes());
        self.json_bytes = json.len();
        // Users pay for freeing the report's value tree too.
        clock.enter(Phase::Measured);
        tr.span("report.drop", || drop((tables, report, json)));

        let mut rep = Rep::from_clock(clock);
        rep.live_bytes = live_at_end;
        rep.setup_s = self.warm_up_s;
        rep.ops = EXPERIMENTS.len() as u64 - panicked;
        rep.failed = panicked;
        rep.digest = digest.0;
        rep
    }

    fn layers(&self, tr: &Tracer, _reps: &[Rep], out: &mut Vec<Metric>) {
        for (span, _) in EXPERIMENTS {
            push_span_s(tr, span, &format!("{span}_s"), out);
        }
        if let Some(unobserved_s) = self.unobserved_s {
            let observed_s = median(&tr.per_rep_s("experiments.suite"));
            out.push(Metric::new(
                "experiments.observer_cost_ratio",
                observed_s / unobserved_s,
                "ratio",
            ));
        }
        push_span_s(tr, "report.build", "report.build_s", out);
        push_span_s(tr, "report.json", "report.json_s", out);
        out.push(Metric::new(
            "report.json_bytes",
            self.json_bytes as f64,
            "B",
        ));
    }
}

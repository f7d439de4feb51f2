//! The measuring loop shared by every workload: phase clock, time box,
//! per-repetition records and their reduction to the end-to-end metrics.

use std::time::{Duration, Instant};

use netsim::profile::thread_allocations;

use crate::spans::Tracer;
use crate::stats::{median, quartiles};

/// What the process was asked to do, as the workloads see it.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// `--seed`: the harness's whole input stream derives from it.
    pub seed: u64,
    /// `--seconds`: measured-phase wall time to spend per workload.
    pub seconds: f64,
    /// `--trace 1`: record spans and report per-layer metrics.
    pub trace: bool,
    /// `--smoke`: 2 k-host worlds and a single repetition.
    pub smoke: bool,
}

/// Which bucket the wall clock is currently charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building, arming observers, warm-up traffic: `setup_s`.
    Setup,
    /// The operations the workload is about: `ops_per_s`, `allocs_per_op`.
    Measured,
    /// Checks, digests, reference runs, drops: charged to nothing.
    Untimed,
}

/// Splits a repetition's wall time (and the measured phase's driver-thread
/// allocations) between [`Phase`]s as the workload moves through them.
pub struct PhaseClock {
    phase: Phase,
    since: Instant,
    allocs_at: u64,
    /// Wall time spent in [`Phase::Setup`].
    pub setup: Duration,
    /// Wall time spent in [`Phase::Measured`].
    pub measured: Duration,
    /// Driver-thread allocations made in [`Phase::Measured`].
    pub allocs: u64,
}

impl PhaseClock {
    /// A clock starting now, in `phase`.
    pub fn start(phase: Phase) -> PhaseClock {
        PhaseClock {
            phase,
            since: Instant::now(),
            allocs_at: thread_allocations().0,
            setup: Duration::ZERO,
            measured: Duration::ZERO,
            allocs: 0,
        }
    }

    /// Close the current phase and open `next`.
    pub fn enter(&mut self, next: Phase) {
        let now = Instant::now();
        let allocs = thread_allocations().0;
        match self.phase {
            Phase::Setup => self.setup += now - self.since,
            Phase::Measured => {
                self.measured += now - self.since;
                self.allocs += allocs - self.allocs_at;
            }
            Phase::Untimed => {}
        }
        self.phase = next;
        self.allocs_at = allocs;
        self.since = Instant::now();
    }
}

/// What one repetition did. Counts are exact and, the simulator being
/// deterministic, the same in every repetition of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Wall seconds before the measured phase.
    pub setup_s: f64,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Driver-thread allocations in the measured phase.
    pub allocs: u64,
    /// Operations that completed correctly.
    pub ops: u64,
    /// Operations (or whole-repetition checks) that did not.
    pub failed: u64,
    /// Simulator events dispatched in the measured phase.
    pub events: u64,
    /// `live_bytes()` at the end, world and report still alive.
    pub live_bytes: i64,
    /// FNV-1a-64 of the repetition's deterministic outputs.
    pub digest: u64,
}

impl Rep {
    /// Close `clock` into a record.
    pub fn from_clock(mut clock: PhaseClock) -> Rep {
        clock.enter(Phase::Untimed);
        Rep {
            setup_s: clock.setup.as_secs_f64(),
            measured_s: clock.measured.as_secs_f64(),
            allocs: clock.allocs,
            ..Rep::default()
        }
    }
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name, e.g. `ops_per_s` or `world.run_s`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in the catalogue.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A workload: builds its inputs from the seed once, then repeats.
pub trait Workload {
    /// Run one repetition, recording spans into `tr` while it is active.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// This workload's per-layer metrics, from the spans of the traced
    /// repetitions and the counters read at the same boundaries.
    fn layers(&self, tr: &Tracer, reps: &[Rep], out: &mut Vec<Metric>);

    /// Wall seconds of the cold first repetition, for the workloads that
    /// run one before measuring; printed un-gated as `cold_rep_s`.
    fn cold_rep_s(&self) -> Option<f64> {
        None
    }
}

/// Run `workload`'s cold first repetition and return its wall seconds.
pub fn cold_rep(workload: &mut dyn Workload, tr: &mut Tracer) -> f64 {
    let t = Instant::now();
    workload.rep(tr);
    t.elapsed().as_secs_f64()
}

/// The median measured-phase wall seconds of `reps`.
pub fn median_measured_s(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(|r| r.measured_s).collect::<Vec<_>>())
}

/// The repetition budget: repeat until `seconds` of measured-phase wall
/// time is spent, but never fewer than `min` nor more than `max` times.
#[derive(Debug, Clone, Copy)]
pub struct TimeBox {
    /// Measured-phase seconds to spend.
    pub seconds: f64,
    /// Fewest repetitions, however slow they are.
    pub min: usize,
    /// Most repetitions, however fast they are.
    pub max: usize,
}

impl TimeBox {
    /// The box for `cfg`: 5..=400 repetitions, or exactly one in smoke mode.
    pub fn for_config(cfg: &Config) -> TimeBox {
        if cfg.smoke {
            TimeBox {
                seconds: 0.0,
                min: 1,
                max: 1,
            }
        } else {
            TimeBox {
                seconds: cfg.seconds,
                min: 5,
                max: 400,
            }
        }
    }

    /// Whether another repetition is due after `done` repetitions that
    /// spent `spent_s` measured seconds.
    pub fn wants_more(&self, done: usize, spent_s: f64) -> bool {
        done < self.min || (done < self.max && spent_s < self.seconds)
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced run) and un-gated extras.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations and repetition checks that failed.
    pub failed: u64,
    /// Digest of the first repetition.
    pub digest: u64,
}

/// Repeat `workload` inside `time_box` and reduce the repetitions.
///
/// In a traced run the tracer is switched on for every other repetition,
/// so that `trace.overhead_share` compares traced and untraced repetitions
/// of one process, interleaved, instead of two processes minutes apart.
pub fn measure(
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    time_box: TimeBox,
    trace: bool,
    live_at_start: i64,
) -> Outcome {
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    while time_box.wants_more(reps.len(), spent) {
        tr.start_rep(reps.len() as u32 + 1, trace && reps.len().is_multiple_of(2));
        let rep = workload.rep(tr);
        spent += rep.measured_s;
        reps.push(rep);
    }
    tr.start_rep(reps.len() as u32 + 1, false);

    let first = reps[0];
    // A repetition whose outputs differ from the first one's is a failed
    // repetition: the simulator is supposed to be deterministic.
    let drifted = reps.iter().filter(|r| r.digest != first.digest).count() as u64;
    let failed = reps.iter().map(|r| r.failed).sum::<u64>() + drifted;
    let attempted = reps.iter().map(|r| r.ops + r.failed).sum::<u64>();

    let rate = |r: &Rep| r.ops as f64 / r.measured_s;
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    let (p25, p50, p75) = quartiles(&rates);
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mib = |r: &Rep| (r.live_bytes - live_at_start) as f64 / (1024.0 * 1024.0);

    let mut end_to_end = vec![
        Metric::new("ops_per_s", p50, "ops/s"),
        Metric::new("ops_per_s.p25", p25, "ops/s"),
        Metric::new("ops_per_s.p75", p75, "ops/s"),
        Metric::new("reps", reps.len() as f64, "count"),
        Metric::new(
            "allocs_per_op",
            per_rep(&|r| r.allocs as f64 / r.ops.max(1) as f64),
            "allocs/op",
        ),
        Metric::new("live_mib", per_rep(&mib), "MiB"),
        Metric::new("setup_s", per_rep(&|r| r.setup_s), "s"),
        Metric::new(
            "failed_ops_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("ops_per_rep", first.ops as f64, "count"),
        Metric::new("events_per_rep", first.events as f64, "count"),
    ];
    if let Some(s) = workload.cold_rep_s() {
        end_to_end.push(Metric::new("cold_rep_s", s, "s"));
    }

    let mut per_layer = Vec::new();
    if trace {
        workload.layers(tr, &reps, &mut per_layer);
        let traced: Vec<f64> = rates.iter().step_by(2).copied().collect();
        let untraced: Vec<f64> = rates.iter().skip(1).step_by(2).copied().collect();
        if !untraced.is_empty() {
            per_layer.push(Metric::new(
                "trace.overhead_share",
                1.0 - median(&traced) / median(&untraced),
                "ratio",
            ));
        }
    }

    Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        digest: first.digest,
    }
}

/// The median, over the traced repetitions, of the seconds spent in spans
/// named `span`, pushed as metric `name`. Nothing is pushed when no such
/// span was recorded.
pub fn push_span_s(tr: &Tracer, span: &str, name: &str, out: &mut Vec<Metric>) {
    let per_rep = tr.per_rep_s(span);
    if !per_rep.is_empty() {
        out.push(Metric::new(name, median(&per_rep), "s"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_box_clamps_repetitions() {
        let b = TimeBox {
            seconds: 12.0,
            min: 5,
            max: 400,
        };
        // Slow repetitions: the box is long spent, the minimum still holds.
        assert!(b.wants_more(0, 0.0));
        assert!(b.wants_more(4, 100.0));
        assert!(!b.wants_more(5, 100.0));
        // Ordinary case: stop once the box is spent.
        assert!(b.wants_more(50, 11.9));
        assert!(!b.wants_more(50, 12.0));
        // Fast repetitions: the maximum holds with the box unspent.
        assert!(b.wants_more(399, 0.1));
        assert!(!b.wants_more(400, 0.1));
    }

    #[test]
    fn smoke_mode_is_one_repetition() {
        let cfg = Config {
            seed: 1,
            seconds: 12.0,
            trace: false,
            smoke: true,
        };
        let b = TimeBox::for_config(&cfg);
        assert!(b.wants_more(0, 0.0));
        assert!(!b.wants_more(1, 0.0));
    }

    struct Scripted {
        digests: Vec<u64>,
        next: usize,
    }

    impl Workload for Scripted {
        fn rep(&mut self, tr: &mut Tracer) -> Rep {
            tr.span("layer.call", || ());
            let digest = self.digests[self.next];
            self.next += 1;
            Rep {
                setup_s: 0.5,
                measured_s: 2.0,
                allocs: 30,
                ops: 10,
                failed: 0,
                events: 100,
                live_bytes: 3 << 20,
                digest,
            }
        }

        fn layers(&self, tr: &Tracer, _reps: &[Rep], out: &mut Vec<Metric>) {
            push_span_s(tr, "layer.call", "layer.call_s", out);
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).expect(name).value
    }

    #[test]
    fn measure_reduces_repetitions_and_counts_digest_drift_as_failure() {
        let b = TimeBox {
            seconds: 7.0,
            min: 2,
            max: 10,
        };
        let mut w = Scripted {
            digests: vec![7, 7, 8, 7],
            next: 0,
        };
        let mut tr = Tracer::new(false);
        let out = measure(&mut w, &mut tr, b, true, 1 << 20);
        assert_eq!(value(&out.end_to_end, "reps"), 4.0, "7 s at 2 s each");
        assert_eq!(value(&out.end_to_end, "ops_per_s"), 5.0);
        assert_eq!(value(&out.end_to_end, "allocs_per_op"), 3.0);
        assert_eq!(value(&out.end_to_end, "live_mib"), 2.0);
        assert_eq!(value(&out.end_to_end, "setup_s"), 0.5);
        assert_eq!((out.attempted, out.failed, out.digest), (40, 1, 7));
        assert_eq!(value(&out.end_to_end, "failed_ops_share"), 1.0 / 40.0);
        // Repetitions 1 and 3 were traced, 2 and 4 were not.
        assert_eq!(tr.per_rep_s("layer.call").len(), 2);
        assert_eq!(value(&out.per_layer, "trace.overhead_share"), 0.0);
        assert!(out.per_layer.iter().any(|m| m.name == "layer.call_s"));
    }
}

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
/// Not part of [`run_all_with`]: scale runs are sized by flags and wall-clock
/// sensitive, so `all_experiments` output stays byte-stable without them.
pub mod exp_scale;
pub mod fig01_basic;
pub mod fig02_filtering;
pub mod fig03_bitunnel;
pub mod fig04_triangle;
pub mod fig05_smart_ch;
pub mod fig06_formats;
pub mod fig10_grid;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Table;

// ---- runner telemetry --------------------------------------------------------

/// What one runner (a helper thread or the calling thread) did during a
/// [`pool_map`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStat {
    /// Thread name plus the runner's index in the batch, e.g.
    /// `bench-pool#1`; `#0` is the calling thread.
    pub label: String,
    /// Jobs this runner claimed and ran.
    pub jobs: u64,
    /// Wall nanoseconds spent inside jobs; the rest of the batch wall
    /// time was idle (waiting on the claim counter or the batch tail).
    pub busy_ns: u64,
}

serde::impl_serialize!(WorkerStat {
    label,
    jobs,
    busy_ns,
});

/// Telemetry for one [`pool_map`] batch: per-runner utilization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerBatch {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Runners the batch used (including the caller).
    pub threads: usize,
    /// Batch wall time, start of fan-out to last runner joined.
    pub wall_ns: u64,
    /// One entry per runner, the caller first. A runner that claimed
    /// nothing is listed too: that is exactly what utilization data is
    /// supposed to expose.
    pub workers: Vec<WorkerStat>,
}

serde::impl_serialize!(RunnerBatch {
    jobs,
    threads,
    wall_ns,
    workers,
});

/// Every batch run while the flight recorder was enabled.
static RUNNER_TELEMETRY: Mutex<Vec<RunnerBatch>> = Mutex::new(Vec::new());

/// A snapshot of the recorded batches — the run report's `runner` section
/// when there are any.
pub fn runner_telemetry() -> Vec<RunnerBatch> {
    RUNNER_TELEMETRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Fan `jobs` out over `threads` runners (clamped to `1..=jobs.len()`) and
/// return the results **in job order**, regardless of completion order.
/// Runners pull the next unclaimed job index from a shared counter (work
/// stealing by index), so long and short jobs mix freely. `threads == 1`
/// is a strictly serial in-order run on the calling thread — the
/// `--serial` escape hatch — and produces identical results by
/// construction, since job order alone determines the output vector.
///
/// The calling thread is runner 0; the other `threads - 1` are scoped
/// threads spawned for this call and joined before it returns. The width
/// is honoured as given, also above the core count: the jobs are CPU-bound
/// simulations, so runners past that point only time-slice, and choosing
/// a sensible width is [`default_threads`]' job. A panicking job is
/// resurfaced on the caller after the rest of the batch finishes.
pub fn pool_map<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    let start = Instant::now();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let run = |runner: usize| {
        let mut done = Vec::new();
        let mut busy_ns = 0u64;
        loop {
            // Relaxed: the counter only hands out indexes; a job is
            // published to its runner by the slot's mutex.
            let ix = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = jobs.get(ix) else { break };
            let job = slot
                .lock()
                .expect("jobs run outside their slot's lock")
                .take()
                .expect("each job claimed once");
            let t0 = Instant::now();
            done.push((ix, catch_unwind(AssertUnwindSafe(job))));
            busy_ns += t0.elapsed().as_nanos() as u64;
        }
        netsim::profile::flush_thread();
        let thread = std::thread::current();
        let stat = WorkerStat {
            label: format!("{}#{runner}", thread.name().unwrap_or("worker")),
            jobs: done.len() as u64,
            busy_ns,
        };
        (done, stat)
    };
    let parts = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .map(|runner| {
                std::thread::Builder::new()
                    .name("bench-pool".into())
                    .spawn_scoped(s, move || run(runner))
                    .expect("spawning a pool runner")
            })
            .collect();
        let mut parts = vec![run(0)];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("a runner catches its jobs' panics")),
        );
        parts
    });
    let mut results = Vec::with_capacity(jobs.len());
    let mut workers = Vec::with_capacity(threads);
    for (done, stat) in parts {
        results.extend(done);
        workers.push(stat);
    }
    if netsim::profile::enabled() {
        RUNNER_TELEMETRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(RunnerBatch {
                jobs: jobs.len(),
                threads,
                wall_ns: start.elapsed().as_nanos() as u64,
                workers,
            });
    }
    results.sort_unstable_by_key(|&(ix, _)| ix);
    results
        .into_iter()
        .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Worker-thread count for [`run_all_with`] — the one place a width is
/// chosen: the `NETSIM_BENCH_THREADS` environment variable when set to a
/// positive integer, else the number of available cores (else 4 when that
/// cannot be determined).
pub fn default_threads() -> usize {
    std::env::var("NETSIM_BENCH_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Run every experiment at full scale on `threads` runners and collect
/// the output tables, in paper order. Used by `src/bin/all_experiments.rs`
/// to regenerate `EXPERIMENTS.md`'s measured columns.
///
/// Experiments are independent, deterministic simulations (each builds its
/// own seeded `World`), so they fan out over [`pool_map`] and are
/// re-assembled in paper order afterwards — the output is byte-identical
/// to a serial run (`threads == 1`).
pub fn run_all_with(threads: usize) -> Vec<Table> {
    type Job = Box<dyn FnOnce() -> Vec<Table> + Send>;
    /// Names each experiment's profiling scope so `profile --hot` can
    /// attribute wall time to individual experiments.
    fn prof(name: &'static str, f: impl FnOnce() -> Vec<Table> + Send + 'static) -> Job {
        Box::new(move || {
            let _prof = netsim::profile::scope(name);
            f()
        })
    }
    let jobs: Vec<Job> = vec![
        prof("exp:fig01_basic", || vec![fig01_basic::run()]),
        prof("exp:fig02_filtering", fig02_filtering::run),
        prof("exp:fig03_bitunnel", || vec![fig03_bitunnel::run()]),
        prof("exp:fig04_triangle", || {
            vec![fig04_triangle::run(&[5, 10, 25, 50, 100, 200])]
        }),
        prof("exp:fig05_smart_ch", fig05_smart_ch::run),
        prof("exp:fig06_formats", fig06_formats::run),
        prof("exp:fig10_grid", || {
            vec![fig10_grid::run().table, fig10_grid::run_filtered().table]
        }),
        prof("exp:probing", || vec![exp_probing::run()]),
        prof("exp:http", || vec![exp_http::run()]),
        prof("exp:handoff", || vec![exp_handoff::run()]),
        prof("exp:multicast", || vec![exp_multicast::run()]),
        prof("exp:feedback", || vec![exp_feedback::run()]),
        prof("exp:foreign_agent", || vec![exp_foreign_agent::run()]),
        prof("exp:encap", || vec![exp_encap::run()]),
        prof("exp:decap_risk", || vec![exp_decap_risk::run()]),
        prof("exp:lsr", || vec![exp_lsr::run()]),
    ];
    pool_map(jobs, threads).into_iter().flatten().collect()
}

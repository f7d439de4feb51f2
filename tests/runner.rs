//! The parallel experiment runner must be a pure wall-clock optimisation:
//! same tables, same run report, byte for byte, at any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use bench::experiments::{pool_map, run_all_with};
use bench::report;

#[test]
fn pool_map_preserves_job_order() {
    let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
        .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
        .collect();
    let expect: Vec<usize> = (0..20usize).map(|i| i * i).collect();
    assert_eq!(pool_map(jobs, 4), expect);
}

#[test]
fn pool_map_handles_degenerate_thread_counts() {
    for threads in [0, 1, 7, 64] {
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = (0..3)
            .map(|i| Box::new(move || i - 1) as Box<dyn FnOnce() -> i32 + Send>)
            .collect();
        assert_eq!(pool_map(jobs, threads), vec![-1, 0, 1], "threads={threads}");
    }
    let none: Vec<Box<dyn FnOnce() -> i32 + Send>> = Vec::new();
    assert_eq!(pool_map(none, 8), Vec::<i32>::new());
}

#[test]
fn pool_map_resurfaces_job_panics_on_the_caller() {
    let ran = AtomicUsize::new(0);
    let jobs: Vec<_> = (0..8usize)
        .map(|i| {
            let ran = &ran;
            move || {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 5, "job five exploded");
                i
            }
        })
        .collect();
    let err =
        catch_unwind(AssertUnwindSafe(|| pool_map(jobs, 4))).expect_err("panic must propagate");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(msg.contains("job five exploded"), "got: {msg}");
    assert_eq!(ran.load(Ordering::Relaxed), 8, "the rest of the batch ran");
}

#[test]
fn parallel_run_report_is_byte_identical_to_serial() {
    report::enable();
    let serial_tables = run_all_with(1);
    let serial = serde_json::to_string(&report::build("all_experiments", &serial_tables))
        .expect("serializable");
    let parallel_tables = run_all_with(4);
    let parallel = serde_json::to_string(&report::build("all_experiments", &parallel_tables))
        .expect("serializable");
    assert_eq!(
        serde_json::to_string(&serial_tables).unwrap(),
        serde_json::to_string(&parallel_tables).unwrap(),
        "tables diverged between serial and parallel runs"
    );
    assert_eq!(serial, parallel, "run reports diverged");
}

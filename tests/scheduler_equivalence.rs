//! The timing wheel must be observationally identical to the reference
//! heap across every experiment world in the repository: same tables, same
//! metrics, same packet-lifecycle spans, byte for byte.
//!
//! This is deliberately the ONLY test in this binary: it flips the
//! process-global default scheduler, and cargo runs test binaries
//! sequentially but tests within a binary in parallel.

use bench::experiments::run_all;
use bench::report;
use mobility4x4::netsim::{set_default_scheduler, SchedulerKind};

#[test]
fn all_experiment_worlds_are_byte_identical_across_schedulers() {
    report::enable();

    set_default_scheduler(SchedulerKind::Wheel);
    let wheel_tables = run_all();
    let wheel =
        serde_json::to_string(&report::build("all_experiments", &wheel_tables)).expect("serialize");

    set_default_scheduler(SchedulerKind::ReferenceHeap);
    let heap_tables = run_all();
    let heap =
        serde_json::to_string(&report::build("all_experiments", &heap_tables)).expect("serialize");
    set_default_scheduler(SchedulerKind::Wheel);

    assert_eq!(
        wheel_tables.len(),
        heap_tables.len(),
        "experiment count diverged"
    );
    assert_eq!(
        serde_json::to_string(&wheel_tables).unwrap(),
        serde_json::to_string(&heap_tables).unwrap(),
        "experiment tables diverged between schedulers"
    );
    assert_eq!(wheel, heap, "run reports diverged between schedulers");
}

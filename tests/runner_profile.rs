//! The profile-gated `runner` report section: one batch per `pool_map`
//! call, every runner listed. A test binary of its own because the flight
//! recorder's enable flag is process-wide and `tests/runner.rs` compares
//! run reports that must never see it on.

use bench::experiments::{pool_map, runner_telemetry};
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let Value::Object(fields) = v else {
        panic!("not an object: {v:?}");
    };
    let hit = fields.iter().find(|(k, _)| k == key);
    &hit.unwrap_or_else(|| panic!("no `{key}` in {v:?}")).1
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        other => panic!("not an unsigned integer: {other:?}"),
    }
}

#[test]
fn every_profiled_call_records_one_batch_listing_every_runner() {
    assert_eq!(runner_telemetry(), [], "recorder off: nothing kept");
    pool_map(vec![|| 0u8], 1);
    assert_eq!(runner_telemetry(), [], "recorder off: nothing kept");

    netsim::profile::set_enabled(true);
    // The empty batch is the deterministic zero-job runner: the caller
    // claims nothing and is still listed. The 16-wide batches usually have
    // some too, the first runners draining the jobs before the last start.
    let shapes = [
        (0usize, 8usize, 1u64),
        (16, 1, 1),
        (16, 4, 4),
        (16, 16, 16),
        (3, 64, 3),
    ];
    for (call, (jobs, asked, threads)) in shapes.into_iter().enumerate() {
        let got = pool_map((0..jobs).map(|i| move || i).collect(), asked);
        assert_eq!(got, (0..jobs).collect::<Vec<_>>());
        // As the `runner` section of a run report reads.
        let section = serde_json::to_string(&runner_telemetry()).expect("renders");
        let Ok(Value::Array(batches)) = serde_json::from_str(&section) else {
            panic!("recorder on: batches kept, got {section}");
        };
        assert_eq!(batches.len(), call + 1, "one batch per call");
        let batch = &batches[call];
        assert_eq!(uint(field(batch, "jobs")), jobs as u64);
        assert_eq!(uint(field(batch, "threads")), threads);
        uint(field(batch, "wall_ns"));
        let Value::Array(workers) = field(batch, "workers") else {
            panic!("workers is an array");
        };
        assert_eq!(workers.len() as u64, threads, "every runner listed");
        let claimed: u64 = workers.iter().map(|w| uint(field(w, "jobs"))).sum();
        assert_eq!(claimed, jobs as u64, "each job counted once");
        let Value::Str(caller) = field(&workers[0], "label") else {
            panic!("label is a string");
        };
        assert!(caller.ends_with("#0"), "caller first, got {caller}");
    }
    netsim::profile::set_enabled(false);
}

//! The report path streams: recording a world, building the report and
//! rendering it cost the spans `Lifecycle::reconstruct` builds plus the
//! growth of a few output strings — never an allocation per JSON node, which
//! is what a value tree costs twice over (a `String` key and a boxed value).
//! A test binary of its own because it turns the process-wide collector on.

use bench::report;
use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{OutMode, PolicyConfig};
use netsim::profile::thread_allocations;
use netsim::SimDuration;
use serde_json::Value;

fn json_nodes(v: &Value) -> u64 {
    match v {
        Value::Array(items) => 1 + items.iter().map(json_nodes).sum::<u64>(),
        Value::Object(fields) => 1 + fields.iter().map(|(_, v)| json_nodes(v)).sum::<u64>(),
        _ => 1,
    }
}

#[test]
fn recording_and_rendering_a_world_does_not_allocate_per_json_node() {
    report::enable();
    // The Figure 2 world: the roamed mobile pings a server inside its home
    // institution Out-DH, past a home boundary that filters the source.
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        home_ingress_filter: true,
        mh_policy: PolicyConfig::fixed(OutMode::DH).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    report::observe_world(&mut s.world);
    s.roam_to_a();
    let mh = s.mh;
    for seq in 0..16 {
        s.world.host_do(mh, |h, ctx| {
            h.send_ping(ctx, ip(addrs::MH_HOME), ip(addrs::SERVER), seq)
        });
        s.world.run_for(SimDuration::from_millis(500));
    }

    let before = thread_allocations().0;
    report::record_world("fig02", &s.world);
    let built = report::build("alloc", &[]);
    let json = serde_json::to_string(&built).expect("renders");
    let allocs = thread_allocations().0 - before;

    let nodes = json_nodes(&serde_json::from_str(&json).expect("parses"));
    assert!(
        nodes > 1_000,
        "the world must have a story to tell: {nodes}"
    );
    assert!(
        allocs * 8 <= nodes,
        "{allocs} allocations for a report of {nodes} JSON nodes"
    );
}

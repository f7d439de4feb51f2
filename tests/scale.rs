//! Scale-tentpole invariants, end to end: the hierarchical generator is
//! deterministic — same seed, same world, byte for byte, at 1, 2, and 4
//! shards — and memory-compact: a hundred-thousand-host world costs at
//! most 1 KiB of live heap per host, through build and a handoff storm.
//! On two shards the storm's cost follows the work done, not the size of
//! the world it happens in.
//!
//! The tests flip or read process-global state (the default shard count
//! and the counting allocator's live-byte gauge), so they serialize on one
//! lock.

use std::sync::Mutex;

use bench::report;
use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};
use mobility4x4::netsim::link::FaultOutcome;
use mobility4x4::netsim::{
    self, set_default_shards, IpProtocol, Ipv4Addr, Ipv4Packet, MetricsRegistry, NodeId, SegmentId,
    SimDuration, TraceEventKind,
};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Build a seeded world at a shard count, run the full churn workload,
/// and fingerprint everything observable: the world snapshot (nodes,
/// routes, bindings) and the churn outcome.
fn fingerprint(shards: usize, params: &ScaleParams, churn: &ChurnParams) -> (String, String) {
    set_default_shards(shards);
    let (mut w, ix) = build_world(params);
    let stats = run_churn(&mut w, &ix, churn);
    let snap = report::world_snapshot(&w);
    (snap, format!("{stats:?}"))
}

#[test]
fn seeded_generator_is_byte_identical_across_shard_counts() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = ScaleParams {
        seed: 42,
        ..ScaleParams::with_hosts(500)
    };
    let churn = ChurnParams::default();

    let serial = fingerprint(1, &params, &churn);
    let again = fingerprint(1, &params, &churn);
    assert_eq!(serial, again, "same seed must reproduce the same world");

    for shards in [2usize, 4] {
        let sharded = fingerprint(shards, &params, &churn);
        assert_eq!(
            serial.0, sharded.0,
            "world snapshot diverged at {shards} shards"
        );
        assert_eq!(
            serial.1, sharded.1,
            "churn outcome diverged at {shards} shards"
        );
    }
    set_default_shards(1);
}

#[test]
fn big_world_stays_under_a_kib_per_host() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    set_default_shards(1);
    // Debug builds pay the same allocation *sizes* but ~20× the build
    // time, so they check an eighth of the release-mode world — at the
    // same hosts-per-stub density, since the budget amortizes each
    // stub's segment and router-interface overhead over its residents.
    let params = if cfg!(debug_assertions) {
        ScaleParams {
            backbones: 2,
            transits_per_backbone: 4,
            stubs_per_transit: 8,
            hosts_per_stub: 196,
            seed: 1,
        }
    } else {
        ScaleParams {
            seed: 1,
            ..ScaleParams::with_hosts(100_000)
        }
    };

    let before = netsim::profile::live_bytes();
    let (mut w, ix) = build_world(&params);
    // Full packet tracing is a debugging aid; scale runs sample flows
    // instead (see the telemetry knobs), so the budget excludes it.
    w.trace.set_enabled(false);
    let built = netsim::profile::live_bytes() - before;
    let n = ix.hosts.len() as i64;

    let storm = ChurnParams {
        handoffs: 64,
        flash_crowd: 0,
        rereg: 0,
        lifetime: 300,
        correspondents: 0,
    };
    let stats = run_churn(&mut w, &ix, &storm);
    assert_eq!(stats.handoffs, 64, "storm must actually run");
    let steady = netsim::profile::live_bytes() - before;

    assert!(
        built / n <= 1024,
        "freshly built world costs {} B/host (budget 1024)",
        built / n
    );
    assert!(
        steady / n <= 1024,
        "world after a handoff storm costs {} B/host (budget 1024)",
        steady / n
    );
}

#[test]
fn dense_metrics_footprint_ignores_touch_order() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    // A handoff storm touches nodes in whatever order hosts move; the
    // registry's steady-state memory must depend on which ids recorded,
    // not on which came first.
    const NODES: usize = 100_000;
    let pkt = Ipv4Packet::new(
        Ipv4Addr(1),
        Ipv4Addr(2),
        IpProtocol::Udp,
        Default::default(),
    );
    let footprint = |order: &mut dyn Iterator<Item = usize>| {
        let before = netsim::profile::live_bytes();
        let mut reg = MetricsRegistry::new(true);
        for id in order {
            reg.record_packet(NodeId(id), TraceEventKind::Sent, &pkt);
            reg.record_transmit(
                SegmentId(id / 196),
                64,
                SimDuration::ZERO,
                SimDuration::from_micros(5),
                FaultOutcome::Deliver,
            );
        }
        let bytes = netsim::profile::live_bytes() - before;
        assert_eq!(reg.totals().packets_sent, NODES as u64);
        bytes
    };
    let ascending = footprint(&mut (0..NODES));
    let descending = footprint(&mut (0..NODES).rev());
    // 7919 is coprime to NODES: a full-cycle stride, like the churn driver's.
    let strided = footprint(&mut (0..NODES).map(|i| i * 7919 % NODES));
    // The gauge is process-wide and the test harness's own threads allocate
    // a few KiB while this runs; an order-dependent capacity is off by
    // megabytes (doubling from id 0 ends 31% above an exact fit).
    let slack = 64 * 1024;
    assert!(
        ascending.abs_diff(descending) <= slack && ascending.abs_diff(strided) <= slack,
        "footprint depends on touch order: {ascending} / {descending} / {strided} B"
    );
    assert!(
        ascending / NODES as i64 <= 600,
        "dense metrics cost {} B/node",
        ascending / NODES as i64
    );
}

#[test]
fn sharded_storm_cost_does_not_scale_with_the_world() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    set_default_shards(2);
    let storm = ChurnParams {
        handoffs: 64,
        flash_crowd: 0,
        rereg: 0,
        lifetime: 300,
        correspondents: 0,
    };
    // Allocations this thread (the shard coordinator) makes across the
    // storm: 64 × (re-plug, re-address, announce) and one sharded run.
    let storm_allocs = |params: &ScaleParams| {
        let (mut w, ix) = build_world(params);
        w.trace.set_enabled(false);
        // The one-off partition (made when traffic is first injected) is
        // O(world) by design; it is set-up, not storm.
        w.host_do(ix.hosts[0], |_, _| ());
        let before = netsim::profile::thread_allocations().0;
        let stats = run_churn(&mut w, &ix, &storm);
        let allocs = netsim::profile::thread_allocations().0 - before;
        assert_eq!(stats.handoffs, 64, "storm must actually run");
        assert_eq!(w.shard_count(), 2, "storm must run sharded");
        (w, ix, allocs)
    };
    // Same stub density, an eighth of the stubs.
    let (_, _, small) = storm_allocs(&ScaleParams {
        backbones: 2,
        transits_per_backbone: 4,
        stubs_per_transit: 8,
        hosts_per_stub: 196,
        seed: 1,
    });
    let (mut w, ix, big) = storm_allocs(&ScaleParams {
        seed: 1,
        ..ScaleParams::with_hosts(100_000)
    });
    assert_eq!(ix.hosts.len(), 100_352);
    assert!(
        big * 2 <= small * 3 && small * 2 <= big * 3,
        "a 64-handoff storm allocates {small} times at 12 544 hosts, {big} at 100 352"
    );

    // One more handoff on the built world: border upkeep re-derives the
    // two LANs it touched, never a per-node or per-segment view of the rest.
    let (h, target) = (ix.hosts[5], ix.stubs[9].segment);
    let before = netsim::profile::thread_allocations().0;
    w.reattach(h, 0, target);
    w.host_do(h, |host, ctx| {
        host.send_gratuitous_arp(ctx, 0, Ipv4Addr(0x0a00_09f0))
    });
    let allocs = netsim::profile::thread_allocations().0 - before;
    assert!(allocs <= 64, "one handoff allocated {allocs} times");
    set_default_shards(1);
}

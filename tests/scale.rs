//! Scale-tentpole invariants, end to end: the hierarchical generator is
//! deterministic — same seed, same world and same churn outcome, byte for
//! byte — and memory-compact: a hundred-thousand-host world costs at most
//! [`BYTES_PER_HOST`] of live heap per host, through build and a handoff
//! storm, and the node structs every host pays for stay at their sizes.
//! The storm's cost follows the work done, not the size of the world it
//! happens in, and sustained cross-backbone flows are all answered.
//!
//! The tests read process-global state (the counting allocator's
//! live-byte gauge), so they serialize on one lock.

use std::sync::Mutex;

use bench::report;
use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};
use mobility4x4::netsim::link::FaultOutcome;
use mobility4x4::netsim::wire::icmp::IcmpMessage;
use mobility4x4::netsim::{
    self, IpProtocol, Ipv4Addr, Ipv4Packet, MetricsRegistry, NodeId, SegmentId, SimDuration,
    TraceEventKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Live heap per host of a scale world, built and after a handoff storm.
/// Set at the larger steady figure plus 4 % when the world read 695 / 696 B
/// (release, 100 352 hosts) and 697 / 701 B (debug, the eighth-size world
/// below); since a segment keeps one attachment list with the MACs in it,
/// they read 674 / 675 B and 676 / 680 B. The name of the test holding it
/// dates from a 1 KiB budget.
const BYTES_PER_HOST: i64 = 730;

/// Build a seeded world, run the full churn workload, and fingerprint
/// everything observable: the world snapshot (nodes, routes, bindings) and
/// the churn outcome.
fn fingerprint(params: &ScaleParams, churn: &ChurnParams) -> (String, String) {
    let (mut w, ix) = build_world(params);
    let stats = run_churn(&mut w, &ix, churn);
    let snap = report::world_snapshot(&w);
    (snap, format!("{stats:?}"))
}

/// Same seed twice. (The name dates from the shard sweep this was and is
/// pinned by the test floor; a world has one engine.)
#[test]
fn seeded_generator_is_byte_identical_across_shard_counts() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = ScaleParams {
        seed: 42,
        ..ScaleParams::with_hosts(500)
    };
    let churn = ChurnParams::default();

    let first = fingerprint(&params, &churn);
    let again = fingerprint(&params, &churn);
    assert_eq!(first.0, again.0, "same seed, another world snapshot");
    assert_eq!(first.1, again.1, "same seed, another churn outcome");
}

#[test]
fn big_world_stays_under_a_kib_per_host() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
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
    // Full packet tracing is a debugging aid a scale run turns off, so the
    // budget excludes it.
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
        built / n <= BYTES_PER_HOST,
        "freshly built world costs {} B/host (budget {BYTES_PER_HOST})",
        built / n
    );
    assert!(
        steady / n <= BYTES_PER_HOST,
        "world after a handoff storm costs {} B/host (budget {BYTES_PER_HOST})",
        steady / n
    );
}

/// Every host of a world pays for one `Node`, so the node structs are part
/// of the per-host budget: a field added to `Host` (or to what it embeds)
/// fails here by name, not as a drift of [`BYTES_PER_HOST`]. Sizes are
/// those of a 64-bit target; state a host rarely uses goes behind its
/// cold box, and routers behind theirs.
#[test]
fn node_structs_stay_within_their_byte_budgets() {
    use netsim::world::Node;
    use netsim::{Host, RouteTable, Router};
    use std::mem::size_of;
    for (name, size, budget) in [
        ("Node", size_of::<Node>(), 216),
        ("Host", size_of::<Host>(), 216),
        ("Router", size_of::<Router>(), 216),
        ("RouteTable", size_of::<RouteTable>(), 32),
    ] {
        assert!(
            size <= budget,
            "{name} is {size} B, over its {budget} B budget (the per-host scale budget \
             pays for it once per node)"
        );
    }
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

/// What `churn_observed` leaves behind: 1 549 of a 10⁵-host world's
/// 100 371 nodes record. The registry holds what recorded, plus four bytes
/// an id up to the highest — a record per id up to the highest was 33.5 MB.
#[test]
fn sparse_metrics_footprint_follows_the_nodes_that_recorded() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    const NODES: usize = 100_371;
    const RECORDING: usize = 1_549;
    let pkt = Ipv4Packet::new(
        Ipv4Addr(1),
        Ipv4Addr(2),
        IpProtocol::Udp,
        Default::default(),
    );
    let footprint = |order: &mut dyn Iterator<Item = usize>| {
        let before = netsim::profile::live_bytes();
        let mut reg = MetricsRegistry::new(true);
        for i in order {
            let id = NodeId(i * NODES / RECORDING);
            reg.record_packet(id, TraceEventKind::Sent, &pkt);
        }
        let bytes = netsim::profile::live_bytes() - before;
        assert_eq!(reg.totals().packets_sent, RECORDING as u64);
        assert_eq!(
            reg.node_ids().count(),
            (RECORDING - 1) * NODES / RECORDING + 1
        );
        bytes
    };
    let ascending = footprint(&mut (0..RECORDING));
    let descending = footprint(&mut (0..RECORDING).rev());
    // 1 549 is prime: any stride is a full cycle.
    let strided = footprint(&mut (0..RECORDING).map(|i| i * 7919 % RECORDING));
    // The gauge is process-wide; see the slack above.
    let slack = 64 * 1024;
    assert!(
        ascending.abs_diff(descending) <= slack && ascending.abs_diff(strided) <= slack,
        "footprint depends on touch order: {ascending} / {descending} / {strided} B"
    );
    assert!(
        ascending <= 2 << 20,
        "{RECORDING} recording nodes of {NODES} cost {ascending} B"
    );
}

/// The storm's allocations follow the handoffs made, not the hosts built.
/// (Name pinned by the test floor; nothing here is sharded.)
#[test]
fn sharded_storm_cost_does_not_scale_with_the_world() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let storm = ChurnParams {
        handoffs: 64,
        flash_crowd: 0,
        rereg: 0,
        lifetime: 300,
        correspondents: 0,
    };
    // Allocations across the storm: 64 × (re-plug, re-address, announce)
    // and one run.
    let storm_allocs = |params: &ScaleParams| {
        let (mut w, ix) = build_world(params);
        w.trace.set_enabled(false);
        let before = netsim::profile::thread_allocations().0;
        let stats = run_churn(&mut w, &ix, &storm);
        let allocs = netsim::profile::thread_allocations().0 - before;
        assert_eq!(stats.handoffs, 64, "storm must actually run");
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

    // One more handoff on the built world touches the two LANs involved,
    // never a per-node or per-segment view of the rest.
    let (h, target) = (ix.hosts[5], ix.stubs[9].segment);
    let before = netsim::profile::thread_allocations().0;
    w.reattach(h, 0, target);
    w.host_do(h, |host, ctx| {
        host.send_gratuitous_arp(ctx, 0, Ipv4Addr(0x0a00_09f0))
    });
    let allocs = netsim::profile::thread_allocations().0 - before;
    assert!(allocs <= 64, "one handoff allocated {allocs} times");
}

/// Sustained unicast flows in every domain at once: 512 distinct
/// non-landmark senders, each pinging the landmark (first host) of a stub
/// in the other backbone, five rounds after an ARP warm-up. Returns what
/// two builds of one seed must agree on.
fn sustained_flows(seed: u64) -> (u64, netsim::SchedulerStats, usize) {
    const FLOWS: usize = 512;
    const ROUNDS: u16 = 5;
    // A NIC queues only a few packets per unresolved neighbour, so a cold
    // burst would shed most: warm-up echoes go out this many at a time.
    const WARM_UP_BATCH: usize = 16;
    const IDLE_LIMIT: usize = 2_000_000;

    let params = ScaleParams {
        seed,
        ..ScaleParams::with_hosts(5_000)
    };
    assert_eq!(params.backbones, 2, "flows cross between two domains");
    let (mut w, ix) = build_world(&params);
    w.enable_invariants();

    let mut rng = StdRng::seed_from_u64(seed);
    let per_stub = params.hosts_per_stub;
    let stubs_per_backbone = ix.stubs.len() / params.backbones;
    let mut senders: Vec<usize> = (0..ix.hosts.len()).filter(|h| h % per_stub != 0).collect();
    // The first FLOWS of a seeded Fisher–Yates shuffle.
    for i in 0..FLOWS {
        let j = rng.gen_range(i..senders.len());
        senders.swap(i, j);
    }
    senders.truncate(FLOWS);
    let addr_of = |w: &netsim::World, n: NodeId| w.host(n).iface_addr(0).expect("addressed").addr;
    let flows: Vec<(NodeId, Ipv4Addr, Ipv4Addr)> = senders
        .into_iter()
        .map(|h| {
            let away = 1 - ix.stub_of(h) / stubs_per_backbone;
            let stub = away * stubs_per_backbone + rng.gen_range(0..stubs_per_backbone);
            let (src, landmark) = (ix.hosts[h], ix.stubs[stub].first_host);
            (src, addr_of(&w, src), addr_of(&w, landmark))
        })
        .collect();

    for batch in flows.chunks(WARM_UP_BATCH) {
        for &(node, src, dst) in batch {
            w.host_do(node, |host, ctx| host.send_ping(ctx, src, dst, 0));
        }
        w.run_until_idle(IDLE_LIMIT);
    }
    for round in 1..=ROUNDS {
        for &(node, src, dst) in &flows {
            w.host_do(node, |host, ctx| host.send_ping(ctx, src, dst, round));
        }
        w.run_until_idle(IDLE_LIMIT);
    }

    let answered: usize = flows
        .iter()
        .map(|&(node, _, dst)| {
            let replies = w.host(node).icmp_log.iter().filter(|e| {
                matches!(e.message, IcmpMessage::EchoReply { seq, .. } if seq >= 1) && e.from == dst
            });
            replies.count()
        })
        .sum();
    assert_eq!(answered, FLOWS * usize::from(ROUNDS), "every echo answered");
    assert!(!w.has_invariant_violations(), "invariant monitor is clean");
    (w.now().0, w.scheduler_stats(), w.trace.events().len())
}

/// The traffic the removed sharded engine was measured on, and panicked on
/// at four shards (`border tx applied before replay`), on the engine that
/// remains.
#[test]
fn sustained_cross_backbone_flows_are_all_answered() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(sustained_flows(3), sustained_flows(3), "same seed twice");
}

/// A warmed echo between two full stubs costs its frames, not the LANs it
/// crosses: the request and the reply each cross the sender's stub LAN
/// and the landmark's (the transit router joins the two), one delivery
/// per frame to the MAC it is addressed to, however many of the 196
/// residents share each LAN. Delivering every frame to all 196 other
/// attachments of its LAN would dispatch 784.
#[test]
fn a_warmed_echo_between_full_stubs_dispatches_one_event_per_frame() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = ScaleParams {
        backbones: 1,
        transits_per_backbone: 1,
        stubs_per_transit: 2,
        hosts_per_stub: 196,
        seed: 1,
    };
    let (mut w, ix) = build_world(&params);
    assert_eq!(ix.stubs[0].hosts, 196);
    let addr_of = |w: &netsim::World, n: NodeId| w.host(n).iface_addr(0).expect("addressed").addr;
    let (src_node, dst_node) = (ix.hosts[1], ix.stubs[1].first_host);
    let (src, dst) = (addr_of(&w, src_node), addr_of(&w, dst_node));
    let echo = |w: &mut netsim::World, seq| {
        w.host_do(src_node, |h, ctx| h.send_ping(ctx, src, dst, seq));
        w.run_until_idle(100_000);
    };
    echo(&mut w, 1); // resolves ARP on both LANs, both ways
    let before = w.scheduler_stats().dispatched;
    echo(&mut w, 2);
    let dispatched = w.scheduler_stats().dispatched - before;
    let replies =
        w.host(src_node).icmp_log.iter().filter(|e| {
            matches!(e.message, IcmpMessage::EchoReply { seq: 2, .. }) && e.from == dst
        });
    assert_eq!(replies.count(), 1, "the warmed echo was answered");
    assert_eq!(dispatched, 4, "events dispatched for one warmed echo");
}

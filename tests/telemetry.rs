//! Integration tests for the scale-ready telemetry layer: bounded-memory
//! sketched metrics at 10⁵-node / 10⁶-flow scale, exact/sketched agreement
//! below the collapse threshold, deterministic sampled run reports, and
//! the guarantee that invariant monitoring never perturbs default report
//! bytes.

use bytes::Bytes;
use proptest::prelude::*;

use mobility4x4::netsim::{
    HostConfig, IpProtocol, Ipv4Addr, Ipv4Packet, LinkConfig, MetricsRegistry, NodeId,
    RouterConfig, SimDuration, SimTime, SketchConfig, TelemetryConfig, TraceEventKind, World,
};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// Two LANs joined by a WAN hop — the same topology the metrics-overhead
/// benchmarks drive, small enough for proptest to rebuild repeatedly.
fn ping_world() -> (World, NodeId) {
    let mut w = World::new(1);
    let lan_a = w.add_segment(LinkConfig::lan());
    let mid = w.add_segment(LinkConfig::wan(10));
    let lan_b = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    let r1 = w.add_router(RouterConfig::named("r1"));
    let r2 = w.add_router(RouterConfig::named("r2"));
    w.attach(a, lan_a, Some("10.0.1.10/24"));
    w.attach(r1, lan_a, Some("10.0.1.1/24"));
    w.attach(r1, mid, Some("192.168.0.1/30"));
    w.attach(r2, mid, Some("192.168.0.2/30"));
    w.attach(r2, lan_b, Some("10.0.2.1/24"));
    w.attach(b, lan_b, Some("10.0.2.10/24"));
    w.compute_routes();
    (w, a)
}

fn drive(w: &mut World, a: NodeId) {
    for seq in 0..32u16 {
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq)
        });
    }
    w.run_until_idle(10_000_000);
}

/// Splitmix-style generator so proptest shrinks over one seed, not a
/// vector of events.
fn next(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

/// The tentpole scale claim: with sketched mode armed, a registry fed by
/// 100 000 distinct nodes and 1 000 000 distinct flows holds only the
/// fixed-size sketch state — dense per-node storage is gone, aggregate
/// totals stay exact, and every sketch respects its configured capacity.
#[test]
fn sketched_registry_bounds_memory_at_100k_nodes_1m_flows() {
    const NODES: usize = 100_000;
    const EVENTS: usize = 1_000_000;
    let cfg = SketchConfig {
        node_threshold: 1_000,
        topk: 64,
        reservoir: 128,
        seed: 7,
    };
    let mut reg = MetricsRegistry::new(true);
    reg.arm_sketch(cfg);
    let payload = Bytes::from_static(b"stress");
    for i in 0..EVENTS {
        let node = NodeId(i % NODES);
        // (i % 2^16, i / 2^16) is a bijection on 0..2^20, so every event
        // carries a distinct (src, dst) pair: one million distinct flows.
        let src = Ipv4Addr(0x0a00_0000 | (i as u32 & 0xffff));
        let dst = Ipv4Addr(0x0b00_0000 | (i as u32 >> 16));
        let pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, payload.clone());
        reg.record_packet(node, TraceEventKind::Sent, &pkt);
        if i.is_multiple_of(997) {
            reg.record_tcp_rtt(node, SimDuration::from_micros(1 + (i as u64 % 50_000)));
        }
    }
    assert!(
        reg.is_sketched(),
        "threshold crossed, registry must collapse"
    );
    // Dense storage is released on collapse: bounded memory means no
    // per-node or per-segment vectors survive at this scale.
    assert_eq!(reg.node_ids().count(), 0);
    assert_eq!(reg.segment_ids().count(), 0);
    let sk = reg.sketched().unwrap();
    assert!(sk.node_hitters.len() <= cfg.topk);
    assert!(sk.flow_hitters.len() <= cfg.topk);
    assert!(sk.rtt_exemplars.items().len() <= cfg.reservoir);
    // Aggregate totals survive the collapse exactly.
    assert_eq!(sk.totals.packets_sent, EVENTS as u64);
    assert_eq!(reg.totals().packets_sent, EVENTS as u64);
    // With a million distinct flows no single flow is heavy, so the
    // sketch must admit it is over-approximating.
    assert!(!sk.flow_hitters.is_exact());
    // Every surviving heavy-hitter estimate stays within the Space-Saving
    // error bound: count ≤ true + error, and error ≤ stream/k.
    for e in sk.flow_hitters.top() {
        assert!(e.error <= EVENTS as u64 / cfg.topk as u64 + 1);
    }
}

/// Monitoring must observe, never perturb: the exact same scenario run
/// with and without the invariant monitor produces byte-identical report
/// snapshots (and the monitored run is clean).
#[test]
fn invariant_monitoring_leaves_default_report_bytes_untouched() {
    let (mut w1, a1) = ping_world();
    w1.enable_metrics();
    drive(&mut w1, a1);
    let plain = bench::report::world_snapshot(&w1);

    let (mut w2, a2) = ping_world();
    w2.enable_metrics();
    w2.enable_invariants();
    drive(&mut w2, a2);
    assert!(!w2.has_invariant_violations());
    let monitored = bench::report::world_snapshot(&w2);

    assert_eq!(plain, monitored);
    assert!(!monitored.contains("\"sampling\""));
    assert!(!monitored.contains("\"invariants\""));
}

/// One ping at a time, each completing before the next: a healthy run
/// with no drops, so nothing promotes the flow and sampling decisions
/// stand. `telemetry` is `(rate, seed)` when sampling.
fn paced_run(telemetry: Option<(u64, u64)>) -> World {
    let (mut w, a) = ping_world();
    w.enable_metrics();
    w.enable_invariants();
    if let Some((rate, seed)) = telemetry {
        w.apply_telemetry(&TelemetryConfig {
            sample_flows: Some(rate),
            seed,
            ..TelemetryConfig::default()
        });
    }
    for seq in 0..8u16 {
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq)
        });
        w.run_until_idle(10_000_000);
    }
    w
}

/// The sampling decision is a seeded hash per flow; scan for a seed whose
/// draw suppresses the scenario's ping flow. The claims under test are
/// about what suppression does and does not change, not which seed
/// suppresses.
fn suppressing_seed(rate: u64) -> u64 {
    (0..64)
        .find(|&seed| paced_run(Some((rate, seed))).trace.suppressed_events() > 0)
        .expect("some seed in 0..64 suppresses the ping flow")
}

/// Flow sampling drops trace events, never metrics: a sampled run's
/// counters match the full-fidelity run's exactly, and the report says
/// how much was suppressed.
#[test]
fn sampling_preserves_metrics_and_reports_suppression() {
    let full = paced_run(None);
    let sampled = paced_run(Some((4, suppressing_seed(4))));

    assert!(sampled.trace.suppressed_events() > 0);
    assert!(sampled.trace.events().len() < full.trace.events().len());
    let (f, s) = (full.metrics.totals(), sampled.metrics.totals());
    assert_eq!(f.packets_sent, s.packets_sent);
    assert_eq!(f.packets_delivered, s.packets_delivered);
    assert_eq!(f.packets_forwarded, s.packets_forwarded);
    assert!(!sampled.has_invariant_violations());
}

/// Anomalies override sampling: a burst of pings overflows the ARP
/// pending queue, the resulting drops promote the flow, and a seed that
/// would have suppressed it captures the anomaly in full anyway.
#[test]
fn anomalous_flows_are_promoted_past_sampling() {
    let seed = suppressing_seed(4);
    let (mut w, a) = ping_world();
    w.enable_metrics();
    w.enable_invariants();
    w.apply_telemetry(&TelemetryConfig {
        sample_flows: Some(4),
        seed,
        ..TelemetryConfig::default()
    });
    drive(&mut w, a); // burst: all 32 pings queued at once
    assert!(w.trace.promoted_flows() > 0, "drops must promote the flow");
    assert!(
        w.trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Dropped(_))),
        "the anomaly itself must be captured"
    );
}

fn sampled_snapshot(seed: u64, rate: u64) -> String {
    let (mut w, a) = ping_world();
    w.enable_metrics();
    w.enable_invariants();
    w.apply_telemetry(&TelemetryConfig {
        sample_flows: Some(rate),
        seed,
        ..TelemetryConfig::default()
    });
    drive(&mut w, a);
    bench::report::world_snapshot(&w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed, same world, same sampling knobs → byte-identical
    /// sampled run-report snapshots. Sampling decisions are pure
    /// functions of (seed, flow id), never of wall clock or allocation
    /// order.
    #[test]
    fn sampled_run_reports_are_deterministic(seed in any::<u64>(), rate in 1u64..8) {
        prop_assert_eq!(sampled_snapshot(seed, rate), sampled_snapshot(seed, rate));
    }

    /// Below the node threshold an armed registry never collapses, and
    /// its per-node counters and snapshot bytes agree with an exact
    /// (unarmed) registry fed the identical stream.
    #[test]
    fn exact_and_sketched_agree_below_threshold(seed in any::<u64>(), events in 1usize..256) {
        let mut exact = MetricsRegistry::new(true);
        let mut armed = MetricsRegistry::new(true);
        armed.arm_sketch(SketchConfig {
            node_threshold: 64,
            topk: 8,
            reservoir: 8,
            seed,
        });
        let mut x = seed | 1;
        let payload = Bytes::from_static(b"agree");
        for _ in 0..events {
            let r = next(&mut x);
            let node = NodeId((r >> 32) as usize % 32); // stays below threshold
            let pkt = Ipv4Packet::new(
                Ipv4Addr((r >> 16) as u32),
                Ipv4Addr(r as u32),
                IpProtocol::Udp,
                payload.clone(),
            );
            let kind = match r % 3 {
                0 => TraceEventKind::Sent,
                1 => TraceEventKind::Forwarded,
                _ => TraceEventKind::DeliveredLocal,
            };
            exact.record_packet(node, kind, &pkt);
            armed.record_packet(node, kind, &pkt);
            if r.is_multiple_of(5) {
                exact.record_tcp_rtt(node, SimDuration::from_micros(r % 10_000));
                armed.record_tcp_rtt(node, SimDuration::from_micros(r % 10_000));
            }
        }
        prop_assert!(!armed.is_sketched());
        for i in 0..32 {
            prop_assert_eq!(
                exact.node(NodeId(i)).packets_sent,
                armed.node(NodeId(i)).packets_sent
            );
            prop_assert_eq!(
                exact.node(NodeId(i)).packets_delivered,
                armed.node(NodeId(i)).packets_delivered
            );
        }
        let owned: Vec<String> = (0..32).map(|i| format!("n{i}")).collect();
        let names: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
        let ex = serde_json::to_string(&exact.snapshot(&names, SimTime::ZERO)).unwrap();
        let ar = serde_json::to_string(&armed.snapshot(&names, SimTime::ZERO)).unwrap();
        prop_assert_eq!(ex, ar);
    }
}

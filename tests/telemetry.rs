//! The invariant monitors (`netsim::telemetry`) observe a run and never
//! perturb it: a clean monitored world reports the bytes an unmonitored one
//! does.

use mobility4x4::netsim::{HostConfig, Ipv4Addr, LinkConfig, NodeId, RouterConfig, World};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// Two LANs joined by a WAN hop.
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
    assert!(!monitored.contains("\"invariants\""));
}

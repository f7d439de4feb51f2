//! netsim integration tests: whole-simulator behaviours that span modules —
//! path-MTU interactions, congestion/serialization, multicast scoping,
//! firewall hole-punching, and route computation on non-trivial graphs.

use bytes::Bytes;

use netsim::device::TxMeta;
use netsim::trace::PacketSummary;
use netsim::wire::icmp::{IcmpMessage, UnreachableCode};
use netsim::wire::ipv4::{IpProtocol, Ipv4Packet};
use netsim::{
    DropReason, FilterRule, FilterWhen, HostConfig, Ipv4Addr, Ipv4Cidr, LinkConfig, NodeId,
    RouterConfig, TraceEventKind, World,
};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}
fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

/// Where and why packets whose outer header satisfies `pred` died.
fn drops(w: &World, pred: impl Fn(&PacketSummary) -> bool) -> Vec<(NodeId, DropReason)> {
    let events = w.trace.events();
    let dropped = events.iter().filter_map(|e| match e.kind {
        TraceEventKind::Dropped(r) if pred(&e.packet) => Some((e.node, r)),
        _ => None,
    });
    dropped.collect()
}

/// Wire traversals of packets whose outer header satisfies `pred`.
fn hops(w: &World, pred: impl Fn(&PacketSummary) -> bool) -> usize {
    let events = w.trace.events();
    events
        .iter()
        .filter(|e| e.kind.is_wire() && pred(&e.packet))
        .count()
}

/// Two LANs (MTU 1500) joined across a narrow (MTU 576) middle link.
fn narrow_middle() -> (World, NodeId, NodeId) {
    let mut w = World::new(5);
    let lan_a = w.add_segment(LinkConfig::lan());
    let narrow = w.add_segment(LinkConfig {
        mtu: 576,
        ..LinkConfig::wan(10)
    });
    let lan_b = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    let r1 = w.add_router(RouterConfig::named("r1"));
    let r2 = w.add_router(RouterConfig::named("r2"));
    w.attach(a, lan_a, Some("10.0.1.10/24"));
    w.attach(r1, lan_a, Some("10.0.1.1/24"));
    w.attach(r1, narrow, Some("192.168.0.1/30"));
    w.attach(r2, narrow, Some("192.168.0.2/30"));
    w.attach(r2, lan_b, Some("10.0.2.1/24"));
    w.attach(b, lan_b, Some("10.0.2.10/24"));
    w.compute_routes();
    (w, a, b)
}

#[test]
fn large_packets_fragment_at_the_narrow_link_and_reassemble() {
    let (mut w, a, _b) = narrow_middle();
    // A 1400-byte ping fits the LANs but not the 576-byte middle.
    let payload = vec![0x5au8; 1400];
    w.host_do(a, |h, ctx| {
        let msg = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: Bytes::from(payload),
        };
        let mut p = Ipv4Packet::new(
            ip("10.0.1.10"),
            ip("10.0.2.10"),
            IpProtocol::Icmp,
            msg.emit(),
        );
        p.ident = h.alloc_ident();
        h.send_ip(ctx, p, TxMeta::default());
    });
    w.run_until_idle(100_000);
    // b reassembled and replied (the reply fragments too, and a
    // reassembles it).
    assert!(w
        .host(a)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 1, .. })));
    // Fragments actually crossed the middle: more Forwarded events than a
    // single-packet path would produce.
    let fwd = hops(&w, |p| {
        p.dst == ip("10.0.2.10") && p.protocol == IpProtocol::Icmp
    });
    assert!(fwd >= 5, "expected fragmented traversals, saw {fwd}");
}

#[test]
fn df_packets_get_fragmentation_needed_with_next_hop_mtu() {
    let (mut w, a, _b) = narrow_middle();
    w.host_do(a, |h, ctx| {
        let mut p = Ipv4Packet::new(
            ip("10.0.1.10"),
            ip("10.0.2.10"),
            IpProtocol::Udp,
            Bytes::from(vec![0u8; 1200]),
        );
        p.dont_fragment = true;
        p.ident = h.alloc_ident();
        h.send_ip(ctx, p, TxMeta::default());
    });
    w.run_until_idle(100_000);
    let drops = drops(&w, |p| p.dst == ip("10.0.2.10"));
    assert!(drops.iter().any(|(_, r)| *r == DropReason::MtuExceeded));
    // And the sender learned the bottleneck MTU (the RFC 1191 signal).
    let got_mtu = w.host(a).icmp_log.iter().find_map(|e| match e.message {
        IcmpMessage::DestUnreachable {
            code: UnreachableCode::FragmentationNeeded { mtu },
            ..
        } => Some(mtu),
        _ => None,
    });
    assert_eq!(got_mtu, Some(576));
}

#[test]
fn serialization_delay_shapes_bulk_traffic() {
    // 10 back-to-back full packets on a 10 Mb/s LAN take ~10 * 1.2 ms.
    let mut w = World::new(9);
    let lan = w.add_segment(LinkConfig::lan()); // 10 Mb/s
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    // Warm the ARP cache first so the burst measures pure serialization
    // (otherwise the burst queues behind an unresolved neighbour and the
    // pending cap drops part of it).
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 0)
    });
    w.run_until_idle(10_000);
    let t0 = w.now();
    w.host_do(a, |h, ctx| {
        for _ in 0..10 {
            let mut p = Ipv4Packet::new(
                ip("10.0.0.1"),
                ip("10.0.0.2"),
                IpProtocol::Udp,
                Bytes::from(vec![0u8; 1472]),
            );
            p.ident = h.alloc_ident();
            h.send_ip(ctx, p, TxMeta::default());
        }
    });
    w.run_until_idle(100_000);
    let elapsed = w.now().since(t0);
    // 10 * (1492+14 B) * 8 / 10 Mb/s ≈ 12 ms.
    assert!(
        elapsed.as_millis() >= 11 && elapsed.as_millis() <= 20,
        "bulk serialization took {elapsed}"
    );
}

#[test]
fn multicast_is_scoped_to_membership_and_segment() {
    let mut w = World::new(11);
    let lan = w.add_segment(LinkConfig::lan());
    let other_lan = w.add_segment(LinkConfig::lan());
    let src = w.add_host(HostConfig::conventional("src"));
    let member = w.add_host(HostConfig::conventional("member"));
    let bystander = w.add_host(HostConfig::conventional("bystander"));
    let elsewhere = w.add_host(HostConfig::conventional("elsewhere"));
    let r = w.add_router(RouterConfig::named("r"));
    w.attach(src, lan, Some("10.0.0.1/24"));
    w.attach(member, lan, Some("10.0.0.2/24"));
    w.attach(bystander, lan, Some("10.0.0.3/24"));
    w.attach(r, lan, Some("10.0.0.254/24"));
    w.attach(r, other_lan, Some("10.0.1.254/24"));
    w.attach(elsewhere, other_lan, Some("10.0.1.2/24"));
    w.compute_routes();

    let group = ip("224.1.2.3");
    w.host_mut(member).join_multicast(0, group);

    w.host_do(src, |h, ctx| {
        let mut p = Ipv4Packet::new(
            ip("10.0.0.1"),
            group,
            IpProtocol::Udp,
            Bytes::from_static(b"to the group"),
        );
        p.ident = h.alloc_ident();
        p.ttl = 1;
        h.send_ip(ctx, p, TxMeta::default());
    });
    w.run_until_idle(10_000);

    let delivered_at = |n: NodeId| {
        w.trace
            .events()
            .iter()
            .filter(|e| e.node == n && matches!(e.kind, netsim::TraceEventKind::DeliveredLocal))
            .count()
    };
    assert_eq!(delivered_at(member), 1, "member got the group packet");
    assert_eq!(delivered_at(bystander), 0, "non-member ignored it");
    assert_eq!(
        delivered_at(elsewhere),
        0,
        "no multicast routing off-segment"
    );
}

#[test]
fn firewall_hole_punching_end_to_end() {
    // The §3.1 firewall-home scenario: everything inbound to the home net
    // is denied except IP-in-IP tunnels addressed to the home agent's box.
    let mut w = World::new(13);
    let home = w.add_segment(LinkConfig::lan());
    let outside = w.add_segment(LinkConfig::lan());
    let fw = w.add_router(RouterConfig::named("firewall"));
    let agent = w.add_host(HostConfig::agent("agent"));
    let inner_srv = w.add_host(HostConfig::conventional("inner"));
    let visitor = w.add_host(HostConfig::conventional("visitor"));
    w.attach(agent, home, Some("171.64.15.1/24"));
    w.attach(inner_srv, home, Some("171.64.15.7/24"));
    w.attach(fw, home, Some("171.64.15.254/24"));
    w.attach(fw, outside, Some("36.186.0.254/24"));
    w.attach(visitor, outside, Some("36.186.0.99/24"));
    w.compute_routes();
    // Firewall: permit tunnels to the agent, deny all other inbound.
    let rules = &mut w.router_mut(fw).filters;
    rules.push(FilterRule::permit(
        FilterWhen::Ingress,
        None,
        Some(cidr("171.64.15.1/32")),
        Some(IpProtocol::IpInIp),
    ));
    rules.push(FilterRule {
        iface: Some(1), // arriving from outside
        ..FilterRule::firewall_deny(None, Some(cidr("171.64.15.0/24")))
    });

    // Plain packet to the inner server: eaten by the firewall.
    w.host_do(visitor, |h, ctx| {
        h.send_ping(ctx, ip("36.186.0.99"), ip("171.64.15.7"), 1)
    });
    w.run_until_idle(10_000);
    assert!(drops(&w, |p| p.dst == ip("171.64.15.7"))
        .iter()
        .any(|(_, r)| *r == DropReason::Firewall));
    assert!(w.host(inner_srv).icmp_log.is_empty());

    // A tunnel to the agent carrying the same inner ping: the agent
    // decapsulates and forwards it to the inner server.
    w.host_do(visitor, |h, ctx| {
        let msg = IcmpMessage::EchoRequest {
            ident: 9,
            seq: 2,
            payload: Bytes::from_static(b"via tunnel"),
        };
        let mut inner = Ipv4Packet::new(
            ip("36.186.0.99"),
            ip("171.64.15.7"),
            IpProtocol::Icmp,
            msg.emit(),
        );
        inner.ident = h.alloc_ident();
        let outer = netsim::wire::encap::encapsulate(
            netsim::EncapFormat::IpInIp,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &inner,
            h.alloc_ident(),
        )
        .unwrap();
        h.send_ip(ctx, outer, TxMeta::default());
    });
    w.run_until_idle(10_000);
    assert!(w
        .host(inner_srv)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoRequest { seq: 2, .. })));
}

#[test]
fn route_computation_prefers_low_latency_paths() {
    // A triangle: a — (fast) — m — (fast) — b, plus a direct a — (slow) — b.
    // Dijkstra must route a→b through m.
    let mut w = World::new(17);
    let lan_a = w.add_segment(LinkConfig::lan());
    let lan_b = w.add_segment(LinkConfig::lan());
    let fast1 = w.add_segment(LinkConfig::wan(5));
    let fast2 = w.add_segment(LinkConfig::wan(5));
    let slow = w.add_segment(LinkConfig::wan(100));
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    let ra = w.add_router(RouterConfig::named("ra"));
    let rm = w.add_router(RouterConfig::named("rm"));
    let rb = w.add_router(RouterConfig::named("rb"));
    w.attach(a, lan_a, Some("10.0.1.10/24"));
    w.attach(ra, lan_a, Some("10.0.1.1/24"));
    w.attach(ra, fast1, Some("192.168.1.1/30"));
    w.attach(rm, fast1, Some("192.168.1.2/30"));
    w.attach(rm, fast2, Some("192.168.2.1/30"));
    w.attach(rb, fast2, Some("192.168.2.2/30"));
    w.attach(ra, slow, Some("192.168.3.1/30"));
    w.attach(rb, slow, Some("192.168.3.2/30"));
    w.attach(rb, lan_b, Some("10.0.2.1/24"));
    w.attach(b, lan_b, Some("10.0.2.10/24"));
    w.compute_routes();

    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
    });
    w.run_until_idle(100_000);
    let request = (ip("10.0.1.10"), ip("10.0.2.10"), IpProtocol::Icmp);
    let latency = w.trace.conversations()[&request]
        .first_delivery_latency
        .unwrap();
    // Via rm: ~10 ms (+ per-hop ARP exchanges on first contact).
    // Via the slow link it would exceed 100 ms before ARP.
    assert!(latency.as_millis() < 60, "took the slow path: {latency}");
    // And the request transited rm (4 wire legs, not 3).
    assert_eq!(
        hops(&w, |p| p.dst == ip("10.0.2.10")
            && p.protocol == IpProtocol::Icmp),
        4
    );
}

#[test]
fn transit_policy_blocks_through_traffic_but_not_local() {
    // visitor → stub network that refuses transit → far destination.
    let mut w = World::new(19);
    let stub = w.add_segment(LinkConfig::lan());
    let left = w.add_segment(LinkConfig::wan(5));
    let right = w.add_segment(LinkConfig::wan(5));
    let src = w.add_host(HostConfig::conventional("src"));
    let dst = w.add_host(HostConfig::conventional("dst"));
    let local = w.add_host(HostConfig::conventional("local"));
    let r_in = w.add_router(RouterConfig::named("r-in"));
    let r_out = w.add_router(RouterConfig::named("r-out"));
    // src —left— r_in —stub— r_out —right— dst ; local on stub.
    w.attach(src, left, Some("10.9.0.10/24"));
    w.attach(r_in, left, Some("10.9.0.1/24"));
    w.attach(r_in, stub, Some("36.186.0.253/24"));
    w.attach(local, stub, Some("36.186.0.7/24"));
    w.attach(r_out, stub, Some("36.186.0.254/24"));
    w.attach(r_out, right, Some("10.8.0.1/24"));
    w.attach(dst, right, Some("10.8.0.10/24"));
    w.compute_routes();
    // The stub's entry router refuses to carry traffic not destined inside.
    w.router_mut(r_in)
        .filters
        .push(FilterRule::no_transit(0, cidr("36.186.0.0/24")));

    // Through-traffic dies at r_in...
    w.host_do(src, |h, ctx| {
        h.send_ping(ctx, ip("10.9.0.10"), ip("10.8.0.10"), 1)
    });
    w.run_until_idle(100_000);
    assert!(drops(&w, |p| p.dst == ip("10.8.0.10"))
        .iter()
        .any(|(_, r)| *r == DropReason::TransitPolicy));
    // ...but traffic into the stub is welcome.
    w.host_do(src, |h, ctx| {
        h.send_ping(ctx, ip("10.9.0.10"), ip("36.186.0.7"), 2)
    });
    w.run_until_idle(100_000);
    assert!(w
        .host(local)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoRequest { seq: 2, .. })));
}

#[test]
fn pcap_capture_of_simulated_traffic_is_wireshark_shaped() {
    // Drive a ping, then write the frames we can reconstruct from the
    // trace into a pcap and validate its structure.
    use netsim::wire::pcap::PcapWriter;
    let mut w = World::new(23);
    let lan = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 1)
    });
    w.run_until_idle(10_000);

    let mut pcap = PcapWriter::new(Vec::new()).unwrap();
    let mut frames = 0u64;
    for e in w.trace.events() {
        if matches!(e.kind, netsim::TraceEventKind::Sent) {
            // Reconstruct a representative frame for the record.
            let pkt = Ipv4Packet::new(
                e.packet.src,
                e.packet.dst,
                e.packet.protocol,
                Bytes::from(vec![0u8; e.packet.wire_len.saturating_sub(20)]),
            );
            let frame = netsim::wire::ethernet::EthernetFrame::new(
                netsim::wire::ethernet::MacAddr::from_index(1),
                netsim::wire::ethernet::MacAddr::from_index(2),
                netsim::wire::ethernet::EtherType::Ipv4,
                pkt.emit(),
            );
            pcap.write_frame(e.at, &frame.emit()).unwrap();
            frames += 1;
        }
    }
    assert!(frames >= 2, "request + reply");
    assert_eq!(pcap.frames_written(), frames);
    let buf = pcap.finish().unwrap();
    assert_eq!(&buf[0..4], &0xa1b2_c3d4u32.to_le_bytes());
    assert!(buf.len() > 24 + frames as usize * 16);
}

#[test]
fn world_pcap_capture_records_all_wire_frames() {
    let mut w = World::new(29);
    let lan = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    let sink: Box<dyn std::io::Write> = Box::new(std::io::Cursor::new(Vec::new()));
    w.capture_pcap(sink).unwrap();
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 1)
    });
    w.run_until_idle(10_000);
    let frames = w.finish_pcap().unwrap();
    // ARP request + reply + echo request + echo reply = 4 frames.
    assert_eq!(frames, 4, "tap saw every wire frame");
    // Capture is off afterwards; more traffic writes nothing.
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 2)
    });
    w.run_until_idle(10_000);
    assert_eq!(w.finish_pcap().unwrap(), 0);
}

#[test]
fn routers_answer_pings() {
    let (mut w, a, _b) = narrow_middle();
    // r1's lan_a-side address.
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.1.1"), 1)
    });
    w.run_until_idle(10_000);
    assert!(w.host(a).icmp_log.iter().any(|e| matches!(
        e.message,
        IcmpMessage::EchoReply { seq: 1, .. }
    ) && e.from == ip("10.0.1.1")));
    // And the far router across the topology.
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.1"), 2)
    });
    w.run_until_idle(10_000);
    assert!(w.host(a).icmp_log.iter().any(|e| matches!(
        e.message,
        IcmpMessage::EchoReply { seq: 2, .. }
    ) && e.from == ip("10.0.2.1")));
}

#[test]
fn ttl_protects_against_routing_loops() {
    // Two routers pointing a prefix at each other: packets ping-pong until
    // TTL runs out, then die with an attributed drop and an ICMP error.
    let mut w = World::new(31);
    let lan = w.add_segment(LinkConfig::lan());
    let middle = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let r1 = w.add_router(RouterConfig::named("r1"));
    let r2 = w.add_router(RouterConfig::named("r2"));
    w.attach(a, lan, Some("10.0.1.10/24"));
    w.attach(r1, lan, Some("10.0.1.1/24"));
    w.attach(r1, middle, Some("192.168.0.1/24"));
    w.attach(r2, middle, Some("192.168.0.2/24"));
    // Sane base routes first (so ICMP errors can come back), then the
    // poison: r1 sends 99.0.0.0/8 to r2, r2 sends it straight back.
    w.compute_routes();
    w.host_mut(a)
        .add_route("0.0.0.0/0".parse().unwrap(), 0, Some(ip("10.0.1.1")));
    w.router_mut(r1)
        .add_route("99.0.0.0/8".parse().unwrap(), 1, Some(ip("192.168.0.2")));
    w.router_mut(r2)
        .add_route("99.0.0.0/8".parse().unwrap(), 0, Some(ip("192.168.0.1")));

    w.host_do(a, |h, ctx| {
        let mut p = Ipv4Packet::new(
            ip("10.0.1.10"),
            ip("99.1.2.3"),
            IpProtocol::Udp,
            Bytes::from_static(b"looping"),
        );
        p.ttl = 16;
        p.ident = h.alloc_ident();
        h.send_ip(ctx, p, TxMeta::default());
    });
    w.run_until_idle(100_000);
    let drops = drops(&w, |p| p.dst == ip("99.1.2.3"));
    assert!(drops.iter().any(|(_, r)| *r == DropReason::TtlExpired));
    // The packet bounced TTL-1 times before dying, not forever.
    let hops = hops(&w, |p| p.dst == ip("99.1.2.3"));
    assert_eq!(hops, 16, "one traversal per TTL tick");
    // The sender heard about it.
    assert!(w
        .host(a)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::TimeExceeded { .. })));
}

#[test]
fn corrupted_frames_vanish_like_on_real_wires() {
    // 100% corruption: every frame has one flipped bit; ARP/IP checksums
    // catch everything and nothing is delivered upward.
    let mut w = World::new(37);
    let lan = w.add_segment(LinkConfig {
        fault: netsim::FaultInjector {
            corrupt_prob: 1.0,
            ..Default::default()
        },
        ..LinkConfig::lan()
    });
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    for seq in 0..5 {
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), seq)
        });
        w.run_for(SimDuration2::from_millis(100));
    }
    w.run_until_idle(100_000);
    assert!(w.host(b).icmp_log.is_empty(), "nothing valid got through");
    assert!(w.host(a).icmp_log.is_empty());
}

use netsim::SimDuration as SimDuration2;

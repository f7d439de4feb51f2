//! Property-based tests (proptest) on the wire formats and core
//! invariants: these are the data structures everything else stands on, so
//! they get adversarial random inputs, not just examples.

use bytes::Bytes;
use proptest::prelude::*;

use mobility4x4::mip_core::{classify, CellClass, Combination, InMode, OutMode};
use mobility4x4::netsim::trace::PacketSummary;
use mobility4x4::netsim::wire::arp::ArpPacket;
use mobility4x4::netsim::wire::checksum_valid;
use mobility4x4::netsim::wire::encap::{decapsulate, encapsulate, inner_endpoints, EncapFormat};
use mobility4x4::netsim::wire::ethernet::{EtherType, EthernetFrame, MacAddr};
use mobility4x4::netsim::wire::icmp::IcmpMessage;
use mobility4x4::netsim::wire::ipv4::{IpProtocol, Ipv4Packet, Reassembler};
use mobility4x4::netsim::wire::tcpseg::{TcpFlags, TcpSegment};
use mobility4x4::netsim::wire::udp::UdpDatagram;
use mobility4x4::netsim::{Ipv4Addr, Ipv4Cidr, SimTime};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr)
}

fn arb_proto() -> impl Strategy<Value = IpProtocol> {
    any::<u8>().prop_map(IpProtocol::from_number)
}

prop_compose! {
    fn arb_packet()(
        src in arb_addr(),
        dst in arb_addr(),
        proto in arb_proto(),
        tos in any::<u8>(),
        ident in any::<u16>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) -> Ipv4Packet {
        let mut p = Ipv4Packet::new(src, dst, proto, Bytes::from(payload));
        p.tos = tos;
        p.ident = ident;
        p.ttl = ttl;
        p
    }
}

/// What the trace reads of a tunnel packet — `(src, dst, protocol)` of the
/// packet inside — as `decapsulate` + `Ipv4Packet::parse_bytes` established
/// it before `encap::inner_endpoints` existed: a copy of those bodies, kept
/// as the reference now that `decapsulate` itself runs on the new validator.
fn reference_inner_endpoints(outer: &Ipv4Packet) -> Option<(Ipv4Addr, Ipv4Addr, IpProtocol)> {
    fn addr(b: &[u8]) -> Ipv4Addr {
        Ipv4Addr::from_octets([b[0], b[1], b[2], b[3]])
    }
    fn ipv4(d: &[u8]) -> Option<(Ipv4Addr, Ipv4Addr, IpProtocol)> {
        if d.len() < 20 || d[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(d[0] & 0x0f) * 4;
        if ihl < 20 || d.len() < ihl || !checksum_valid(&d[..ihl], 0) {
            return None;
        }
        let total_len = usize::from(u16::from_be_bytes([d[2], d[3]]));
        if total_len < ihl || d.len() < total_len {
            return None;
        }
        Some((
            addr(&d[12..]),
            addr(&d[16..]),
            IpProtocol::from_number(d[9]),
        ))
    }
    let p = &outer.payload[..];
    match outer.protocol {
        IpProtocol::IpInIp => ipv4(p),
        IpProtocol::MinimalEncap => {
            if p.len() < 4 {
                return None;
            }
            let has_src = p[1] & 0x80 != 0;
            let hdr_len = if has_src { 12 } else { 8 };
            if p.len() < hdr_len || !checksum_valid(&p[..hdr_len], 0) {
                return None;
            }
            let src = if has_src { addr(&p[8..]) } else { outer.src };
            Some((src, addr(&p[4..]), IpProtocol::from_number(p[0])))
        }
        IpProtocol::Gre => {
            if p.len() < 4 || u16::from_be_bytes([p[2], p[3]]) != 0x0800 {
                return None;
            }
            let has_cksum = p[0] & 0x80 != 0;
            let hdr_len = if has_cksum { 8 } else { 4 };
            if p.len() < hdr_len || (has_cksum && !checksum_valid(p, 0)) {
                return None;
            }
            ipv4(&p[hdr_len..])
        }
        _ => None,
    }
}

/// One adversarial edit of a wire image: keep it, cut it short, pad it,
/// flip one bit, or replace it with garbage (up to 2 KiB).
fn mutate(mut wire: Vec<u8>, kind: u8, at: usize, bit: u8, garbage: Vec<u8>) -> Vec<u8> {
    match kind {
        0 => {}
        1 => wire.truncate(at % (wire.len() + 1)),
        2 => wire.extend_from_slice(&garbage[..garbage.len().min(64)]),
        3 => {
            if let Some(ix) = at.checked_rem(wire.len()) {
                wire[ix] ^= 1 << bit;
            }
        }
        _ => wire = garbage,
    }
    wire
}

/// `wire` as the receive path sees it: a view into the middle of a larger
/// shared buffer, so a parser slicing at the wrong base offset is caught.
fn embedded(wire: &[u8]) -> Bytes {
    let mut frame = vec![0xa5u8; 14];
    frame.extend_from_slice(wire);
    frame.extend_from_slice(&[0x5a; 9]);
    Bytes::from(frame).slice(14..14 + wire.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The zero-copy parsers the receive path uses and the `&[u8]` wrappers
    /// tests and tools call give the same `Ok` value or the same
    /// `ParseError` on valid, truncated, padded, bit-flipped and random
    /// input — for every format on the frame → NIC → IP → decap →
    /// transport path.
    #[test]
    fn shared_and_borrowed_parsers_agree(
        inner in arb_packet(),
        opts in proptest::collection::vec(any::<u8>(), 0..41),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flag_bits in any::<u8>(),
        mss in proptest::option::of(any::<u16>()),
        fmt in 0usize..3,
        kind in 0u8..5,
        at in any::<usize>(),
        bit in 0u8..8,
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let edit = |wire: Vec<u8>| mutate(wire, kind, at, bit, garbage.clone());
        let (src, dst) = (inner.src, inner.dst);

        let mut with_opts = inner.clone();
        with_opts.set_options(&opts);
        let ip = edit(with_opts.emit().to_vec());
        prop_assert_eq!(Ipv4Packet::parse_bytes(&embedded(&ip)), Ipv4Packet::parse(&ip));

        let eth = edit(
            EthernetFrame::new(MacAddr::from_index(1), MacAddr::from_index(2), EtherType::Ipv4, with_opts.emit())
                .emit()
                .to_vec(),
        );
        prop_assert_eq!(EthernetFrame::parse_bytes(&embedded(&eth)), EthernetFrame::parse(&eth));

        let udp = edit(UdpDatagram::new(sp, dp, inner.payload.clone()).emit(src, dst).to_vec());
        prop_assert_eq!(
            UdpDatagram::parse_bytes(&embedded(&udp), src, dst),
            UdpDatagram::parse(&udp, src, dst)
        );

        let tcp = edit(
            TcpSegment {
                src_port: sp,
                dst_port: dp,
                seq,
                ack,
                flags: TcpFlags {
                    syn: flag_bits & 1 != 0,
                    ack: flag_bits & 2 != 0,
                    fin: flag_bits & 4 != 0,
                    rst: flag_bits & 8 != 0,
                    psh: flag_bits & 16 != 0,
                },
                window: dp,
                mss,
                payload: inner.payload.clone(),
            }
            .emit(src, dst)
            .to_vec(),
        );
        prop_assert_eq!(
            TcpSegment::parse_bytes(&embedded(&tcp), src, dst),
            TcpSegment::parse(&tcp, src, dst)
        );

        let icmp_msg = match flag_bits % 4 {
            0 => IcmpMessage::EchoRequest { ident: sp, seq: dp, payload: inner.payload.clone() },
            1 => IcmpMessage::EchoReply { ident: sp, seq: dp, payload: inner.payload.clone() },
            2 => IcmpMessage::TimeExceeded { original: inner.payload.clone() },
            _ => IcmpMessage::MobileHostRedirect { home: src, care_of: dst, lifetime_secs: sp },
        };
        let icmp = edit(icmp_msg.emit().to_vec());
        prop_assert_eq!(IcmpMessage::parse_bytes(&embedded(&icmp)), IcmpMessage::parse(&icmp));

        // Decapsulation: the same tunnel packet once as a view of a shared
        // frame and once on storage of its own must unwrap alike.
        let format = [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre][fmt];
        let outer = encapsulate(format, Ipv4Addr(seq), Ipv4Addr(ack), &with_opts, sp).unwrap();
        let tunnel = edit(outer.emit().to_vec());
        let shared = Ipv4Packet::parse_bytes(&embedded(&tunnel));
        let owned = Ipv4Packet::parse(&tunnel);
        prop_assert_eq!(&shared, &owned);
        if let (Ok(shared), Ok(owned)) = (shared, owned) {
            prop_assert_eq!(decapsulate(&shared), decapsulate(&owned));
        }
    }

    #[test]
    fn ipv4_emit_parse_roundtrip(p in arb_packet()) {
        let parsed = Ipv4Packet::parse(&p.emit()).unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn ipv4_single_bit_corruption_in_header_is_detected(
        p in arb_packet(),
        byte in 0usize..20,
        bit in 0u8..8,
    ) {
        let mut wire = p.emit().to_vec();
        wire[byte] ^= 1 << bit;
        // Either the parse fails (checksum/structure) or — when the flip
        // hits the checksum-compensating position pair — the packet parses
        // to something; it must never parse back to a DIFFERENT packet
        // silently claiming to be the original.
        if let Ok(q) = Ipv4Packet::parse(&wire) {
            // A successful parse after a header flip can only happen if the
            // flip landed in the checksum field itself in a way that still
            // verifies — impossible for a single bit — so:
            prop_assert_eq!(q, p, "corrupted header parsed as a different packet");
        }
    }

    #[test]
    fn fragmentation_reassembly_roundtrip(
        p in arb_packet(),
        mtu in 68usize..1600,
    ) {
        prop_assume!(!p.payload.is_empty());
        let frags = p.fragment(mtu).unwrap();
        for f in &frags {
            prop_assert!(f.wire_len() <= mtu);
        }
        let mut r = Reassembler::default();
        let mut out = None;
        for f in &frags {
            out = r.push(f.clone(), SimTime::ZERO);
        }
        prop_assert_eq!(out.unwrap(), p);
    }

    #[test]
    fn fragmentation_reassembly_out_of_order_with_duplicates(
        p in arb_packet(),
        mtu in 256usize..900,
        order in proptest::collection::vec(any::<u16>(), 1..32),
    ) {
        prop_assume!(p.payload.len() > 64);
        let frags = p.fragment(mtu).unwrap();
        let mut r = Reassembler::default();
        let mut done = None;
        // Feed fragments in a scrambled order with duplicates, then fill in
        // whatever is missing.
        for &ix in &order {
            let f = &frags[ix as usize % frags.len()];
            if let Some(d) = r.push(f.clone(), SimTime::ZERO) {
                done = Some(d);
            }
        }
        for f in &frags {
            if done.is_none() {
                done = r.push(f.clone(), SimTime::ZERO);
            }
        }
        prop_assert_eq!(done.unwrap(), p);
    }

    #[test]
    fn udp_roundtrip_and_checksum_binding(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        other in arb_addr(),
    ) {
        let d = UdpDatagram::new(sp, dp, Bytes::from(payload));
        let wire = d.emit(src, dst);
        prop_assert_eq!(UdpDatagram::parse(&wire, src, dst).unwrap(), d);
        if other != dst {
            prop_assert!(UdpDatagram::parse(&wire, src, other).is_err(),
                "datagram must be bound to its addresses");
        }
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        syn in any::<bool>(), ackf in any::<bool>(), fin in any::<bool>(),
        psh in any::<bool>(), window in any::<u16>(),
        mss in proptest::option::of(536u16..9000),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let seg = TcpSegment {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags { syn, ack: ackf, fin, rst: false, psh },
            window,
            mss: if syn { mss } else { None },
            payload: Bytes::from(payload),
        };
        let wire = seg.emit(src, dst);
        prop_assert_eq!(TcpSegment::parse(&wire, src, dst).unwrap(), seg);
    }

    #[test]
    fn encapsulation_roundtrip_every_format(
        p in arb_packet(),
        outer_src in arb_addr(),
        outer_dst in arb_addr(),
        ident in any::<u16>(),
    ) {
        for f in [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre] {
            prop_assume!(p.wire_len() + f.overhead() <= 65_535);
            let outer = encapsulate(f, outer_src, outer_dst, &p, ident).unwrap();
            prop_assert_eq!(outer.src, outer_src);
            prop_assert_eq!(outer.dst, outer_dst);
            prop_assert_eq!(outer.wire_len(), p.wire_len() + f.overhead());
            let inner = decapsulate(&outer).unwrap();
            // Minimal encapsulation reconstructs the header rather than
            // carrying it, so compare the semantically-preserved fields.
            prop_assert_eq!(inner.src, p.src);
            prop_assert_eq!(inner.dst, p.dst);
            prop_assert_eq!(inner.protocol, p.protocol);
            prop_assert_eq!(&inner.payload, &p.payload);
            if f != EncapFormat::Minimal {
                prop_assert_eq!(inner, p.clone());
            }
        }
    }

    #[test]
    fn inner_endpoints_reads_what_decapsulate_parsed(
        p in arb_packet(),
        outer_src in arb_addr(),
        outer_dst in arb_addr(),
        ident in any::<u16>(),
        mtu in 68usize..700,
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        // Whole, every fragment (the first ends before the inner header says
        // it does, the later ones start mid-packet), one corrupted byte in
        // the first 40 of the payload — tunnel header and inner IP header in
        // every format — and a payload cut short anywhere.
        let mut cases = vec![p.clone()];
        for f in [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre] {
            let outer = encapsulate(f, outer_src, outer_dst, &p, ident).unwrap();
            prop_assert_eq!(inner_endpoints(&outer).ok(), Some((p.src, p.dst, p.protocol)));
            cases.extend(outer.fragment(mtu).unwrap());
            let mut bytes = outer.payload.to_vec();
            let ix = at % bytes.len().min(40);
            bytes[ix] ^= flip;
            cases.push(Ipv4Packet { payload: Bytes::from(bytes), ..outer.clone() });
            let cut = outer.payload.slice(..at % outer.payload.len());
            cases.push(Ipv4Packet { payload: cut, ..outer.clone() });
            cases.push(outer);
        }
        for c in &cases {
            let expect = reference_inner_endpoints(c);
            prop_assert_eq!(inner_endpoints(c).ok(), expect);
            prop_assert_eq!(decapsulate(c).ok().map(|i| (i.src, i.dst, i.protocol)), expect);
            prop_assert_eq!(PacketSummary::of(c).inner, expect);
        }
    }

    #[test]
    fn ethernet_roundtrip(
        dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(),
        ethertype in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let f = EthernetFrame::new(
            MacAddr(dst), MacAddr(src),
            EtherType::from_number(ethertype),
            Bytes::from(payload),
        );
        prop_assert_eq!(EthernetFrame::parse(&f.emit()).unwrap(), f);
    }

    #[test]
    fn arp_roundtrip(
        sha in any::<[u8; 6]>(), spa in arb_addr(),
        tha in any::<[u8; 6]>(), tpa in arb_addr(),
        is_reply in any::<bool>(),
    ) {
        let p = if is_reply {
            ArpPacket::reply(MacAddr(sha), spa, MacAddr(tha), tpa)
        } else {
            ArpPacket::request(MacAddr(sha), spa, tpa)
        };
        prop_assert_eq!(ArpPacket::parse(&p.emit()).unwrap(), p);
    }

    #[test]
    fn icmp_echo_roundtrip(
        ident in any::<u16>(), seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let m = IcmpMessage::EchoRequest { ident, seq, payload: Bytes::from(payload) };
        prop_assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn cidr_contains_is_consistent_with_masking(
        addr in arb_addr(),
        len in 0u8..=32,
        probe in arb_addr(),
    ) {
        let c = Ipv4Cidr::new(addr, len);
        prop_assert!(c.contains(addr), "a prefix contains its seed address");
        prop_assert_eq!(
            c.contains(probe),
            Ipv4Cidr::new(probe, len).network() == c.network()
        );
        prop_assert!(c.contains(c.broadcast()));
    }

    #[test]
    fn parse_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Ipv4Packet::parse(&data);
        let _ = EthernetFrame::parse(&data);
        let _ = ArpPacket::parse(&data);
        let _ = IcmpMessage::parse(&data);
        let _ = UdpDatagram::parse(&data, Ipv4Addr(0), Ipv4Addr(1));
        let _ = TcpSegment::parse(&data, Ipv4Addr(0), Ipv4Addr(1));
        let _ = mobility4x4::mip_core::RegistrationRequest::parse(&data);
        let _ = mobility4x4::mip_core::RegistrationReply::parse(&data);
    }

    #[test]
    fn grid_classification_invariants(inm in 0usize..4, outm in 0usize..4) {
        let c = Combination::new(InMode::ALL[inm], OutMode::ALL[outm]);
        let class = classify(c);
        // §6.5: a temporary-address endpoint on one side mandates it on the
        // other.
        let in_dt = c.incoming == InMode::DT;
        let out_dt = c.outgoing == OutMode::DT;
        if in_dt != out_dt {
            prop_assert_eq!(class, CellClass::Broken);
        }
        if in_dt && out_dt {
            prop_assert_eq!(class, CellClass::Useful);
        }
        // Everything in rows A-C with a home-address column at least works.
        if !in_dt && !out_dt {
            prop_assert!(class != CellClass::Broken);
        }
    }

    #[test]
    fn demote_promote_stay_on_ladder(start in 0usize..4, steps in proptest::collection::vec(any::<bool>(), 0..16)) {
        let mut m = OutMode::ALL[start];
        for up in steps {
            m = if up { m.promote() } else { m.demote() };
            // DT never appears spontaneously; IE..DH stay on the ladder.
            if OutMode::ALL[start] != OutMode::DT {
                prop_assert!(m != OutMode::DT);
            } else {
                prop_assert_eq!(m, OutMode::DT);
            }
        }
    }
}

proptest! {
    #[test]
    fn ipv4_options_roundtrip(
        p in arb_packet(),
        hops in proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr), 1..9),
    ) {
        use mobility4x4::netsim::wire::srcroute::SourceRoute;
        let mut pkt = p;
        pkt.set_options(&SourceRoute::new(&hops).emit());
        prop_assume!(pkt.wire_len() <= 65_535);
        let parsed = Ipv4Packet::parse(&pkt.emit()).unwrap();
        prop_assert_eq!(&parsed, &pkt);
        let route = SourceRoute::parse(&parsed.options).unwrap();
        prop_assert_eq!(route.hops, hops);
    }

    #[test]
    fn source_route_walk_terminates_and_records(
        hops in proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr), 1..9),
    ) {
        use mobility4x4::netsim::wire::srcroute::SourceRoute;
        let mut r = SourceRoute::new(&hops);
        let mut visited = Vec::new();
        while let Some(next) = r.next_hop() {
            visited.push(next);
            r.advance(Ipv4Addr(0x7f00_0001));
        }
        prop_assert_eq!(visited, hops.clone());
        prop_assert!(r.next_hop().is_none());
        // Every slot now records the processing node.
        prop_assert!(r.hops.iter().all(|&h| h == Ipv4Addr(0x7f00_0001)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One packet, three observers: the trace, the metrics registry, and
    /// the links' own stats must tell the same byte-for-byte story for a
    /// random mix of packets — deliverable or not.
    #[test]
    fn trace_metrics_and_link_stats_agree_on_random_traffic(
        mix in proptest::collection::vec(
            (0usize..1200, any::<u8>(), any::<bool>(), any::<u16>()),
            1..24,
        ),
    ) {
        use mobility4x4::netsim::device::TxMeta;
        use mobility4x4::netsim::trace::TraceEventKind;
        use mobility4x4::netsim::{HostConfig, LinkConfig, World};

        let mut w = World::new(1);
        let lan = w.add_segment(LinkConfig::lan());
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        w.attach(a, lan, Some("10.0.0.1/24"));
        w.attach(b, lan, Some("10.0.0.2/24"));
        w.compute_routes();
        w.enable_metrics();

        let src = "10.0.0.1".parse::<Ipv4Addr>().unwrap();
        for &(len, proto, to_bob, ident) in &mix {
            let dst = if to_bob {
                "10.0.0.2".parse::<Ipv4Addr>().unwrap()
            } else {
                // Nobody answers ARP for this address.
                "10.0.0.77".parse::<Ipv4Addr>().unwrap()
            };
            let mut p = Ipv4Packet::new(
                src,
                dst,
                IpProtocol::from_number(proto),
                Bytes::from(vec![0u8; len]),
            );
            p.ident = ident;
            w.host_do(a, |h, ctx| h.send_ip(ctx, p.clone(), TxMeta::default()));
        }
        w.run_until_idle(5_000_000);

        // Segment view: registry mirrors the link's own stats exactly.
        let stats = w.segment_stats(lan);
        let seg_m = w.metrics.segment(lan);
        prop_assert_eq!(seg_m.frames, stats.frames);
        prop_assert_eq!(seg_m.bytes, stats.bytes);
        prop_assert_eq!(seg_m.wire_drops, stats.fault_drops + stats.oversize_drops);
        prop_assert_eq!(seg_m.crc_drops, stats.crc_drops);

        // Node view: registry totals equal what the packet trace recorded,
        // event for event and byte for byte.
        let count = |kind: TraceEventKind| {
            w.trace.events().iter().filter(|e| e.kind == kind).count() as u64
        };
        let bytes_of = |kind: TraceEventKind| {
            w.trace
                .events()
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.packet.wire_len as u64)
                .sum::<u64>()
        };
        let totals = w
            .metrics
            .node_ids()
            .map(|n| w.metrics.node(n).clone())
            .fold((0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64), |acc, m| {
                (
                    acc.0 + m.packets_sent,
                    acc.1 + m.bytes_sent,
                    acc.2 + m.packets_delivered,
                    acc.3 + m.bytes_delivered,
                    acc.4 + m.packets_forwarded,
                    acc.5 + m.bytes_forwarded,
                    acc.6 + m.total_drops(),
                )
            });
        prop_assert_eq!(totals.0, count(TraceEventKind::Sent));
        prop_assert_eq!(totals.1, bytes_of(TraceEventKind::Sent));
        prop_assert_eq!(totals.2, count(TraceEventKind::DeliveredLocal));
        prop_assert_eq!(totals.3, bytes_of(TraceEventKind::DeliveredLocal));
        prop_assert_eq!(totals.4, count(TraceEventKind::Forwarded));
        prop_assert_eq!(totals.5, bytes_of(TraceEventKind::Forwarded));
        let dropped = w
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Dropped(_)))
            .count() as u64;
        prop_assert_eq!(totals.6, dropped);
        // And bytes_on_wire (the measurement the figures use) is exactly
        // the sent+forwarded byte total.
        let conversations = w.trace.conversations();
        prop_assert_eq!(
            totals.1 + totals.5,
            conversations.values().map(|c| c.counts.bytes_on_wire).sum::<u64>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Causal-id propagation across arbitrary tunnel nestings: every
    /// encapsulation and decapsulation mints a fresh packet id linked to
    /// its parent, every event along the way shares the original flow id,
    /// and the parent chain from the final inner packet walks all the way
    /// back to the first send.
    #[test]
    fn ids_propagate_through_random_tunnel_nestings(
        p in arb_packet(),
        layers in proptest::collection::vec(
            (arb_addr(), arb_addr(), 0usize..3),
            1..4,
        ),
    ) {
        use mobility4x4::netsim::trace::{PacketTrace, TraceEventKind, TransformKind};
        use mobility4x4::netsim::NodeId;

        const FORMATS: [EncapFormat; 3] =
            [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre];

        let mut trace = PacketTrace::new(true);
        trace.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &p);
        let root = trace.events().back().unwrap().clone();

        // Wrap in every layer, recording the transform an agent would.
        let mut cur = p.clone();
        let mut t = 1u64;
        let mut formats = Vec::new();
        for (src, dst, fi) in layers {
            let fmt = FORMATS[fi];
            let Some(outer) = encapsulate(fmt, src, dst, &cur, t as u16) else {
                continue;
            };
            trace.record_transform(
                SimTime(t),
                NodeId(1),
                TransformKind::Encapsulated(fmt),
                Some(&cur),
                &outer,
            );
            formats.push(fmt);
            cur = outer;
            t += 1;
        }
        let depth = formats.len();
        // A wire event mid-path re-observes the outermost packet: same id.
        trace.record(SimTime(t), NodeId(2), TraceEventKind::Forwarded, &cur);
        let outer_event = trace.events().back().unwrap().clone();
        prop_assert_eq!(
            trace.events().iter().rev().nth(1).unwrap().packet_id,
            outer_event.packet_id,
            "forwarding does not mint a new id"
        );

        // Unwrap back down, recording each decapsulation.
        for fmt in formats.into_iter().rev() {
            t += 1;
            let inner = decapsulate(&cur).unwrap();
            trace.record_transform(
                SimTime(t),
                NodeId(3),
                TransformKind::Decapsulated(fmt),
                Some(&cur),
                &inner,
            );
            cur = inner;
        }
        t += 1;
        trace.record(SimTime(t), NodeId(4), TraceEventKind::DeliveredLocal, &cur);
        let last = trace.events().back().unwrap().clone();

        // Every event belongs to the root's flow.
        for e in trace.events() {
            prop_assert_eq!(e.flow_id, root.flow_id);
        }
        // The parent chain from the delivered packet reaches the root in
        // exactly one step per transform (encaps + decaps).
        let mut chain = vec![last.packet_id];
        while let Some(parent) = trace.parent_of(*chain.last().unwrap()) {
            chain.push(parent);
            prop_assert!(chain.len() <= 2 * depth + 1, "chain cycles");
        }
        prop_assert_eq!(chain.len(), 2 * depth + 1);
        prop_assert_eq!(*chain.last().unwrap(), root.packet_id);
        prop_assert_eq!(trace.packets_identified(), 2 * depth + 1);
    }

    /// An encap→decap round trip in a trace with no intermediate events
    /// still links child to parent and preserves the flow.
    #[test]
    fn encap_decap_round_trip_preserves_flow_and_parent(
        p in arb_packet(),
        outer_src in arb_addr(),
        outer_dst in arb_addr(),
        fi in 0usize..3,
    ) {
        use mobility4x4::netsim::trace::{PacketTrace, TraceEventKind, TransformKind};
        use mobility4x4::netsim::NodeId;

        let fmt = [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre][fi];
        let Some(outer) = encapsulate(fmt, outer_src, outer_dst, &p, 9) else {
            return Ok(());
        };
        let mut trace = PacketTrace::new(true);
        trace.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &p);
        trace.record_transform(
            SimTime(1), NodeId(1), TransformKind::Encapsulated(fmt), Some(&p), &outer,
        );
        let inner = decapsulate(&outer).unwrap();
        trace.record_transform(
            SimTime(2), NodeId(2), TransformKind::Decapsulated(fmt), Some(&outer), &inner,
        );
        let events: Vec<_> = trace.events().iter().collect();
        prop_assert_eq!(events.len(), 3);
        let (sent, enc, dec) = (&events[0], &events[1], &events[2]);
        prop_assert_eq!(enc.parent_id, Some(sent.packet_id));
        prop_assert_eq!(dec.parent_id, Some(enc.packet_id));
        prop_assert_eq!(enc.flow_id, sent.flow_id);
        prop_assert_eq!(dec.flow_id, sent.flow_id);
        prop_assert!(dec.packet_id != sent.packet_id, "transforms mint fresh ids");
    }
}

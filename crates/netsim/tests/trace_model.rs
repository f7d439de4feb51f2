//! `PacketTrace`'s identity bookkeeping and event log against a reference
//! model.
//!
//! The trace resolves every record through four tables (header identity →
//! packet id, packet id → causal bookkeeping, conversation → flow id, last
//! packet per flow endpoint) and stores an event as a 24-byte record whose
//! summary, flow and parent are looked up when it is read. How any of that
//! is stored is free to change as long as nothing observable does; the
//! model below is the plain four-`HashMap` formulation over a `Vec` of
//! whole [`TraceEvent`]s, and random `record` / `record_transform` /
//! `clear` sequences must leave trace and model in agreement — event for
//! event, every field.

use std::collections::HashMap;
use std::sync::Mutex;

use bytes::Bytes;
use netsim::trace::PacketSummary;
use netsim::wire::encap::encapsulate;
use netsim::wire::srcroute::{apply_route, process_at_hop};
use netsim::{
    DropReason, EncapFormat, FlowId, IpProtocol, Ipv4Addr, Ipv4Packet, NodeId, PacketId,
    PacketTrace, SimTime, TraceEvent, TraceEventKind, TransformKind,
};
use proptest::prelude::*;

type PacketKey = (Ipv4Addr, Ipv4Addr, IpProtocol, u16);
type Ids = (u64, u64, Option<u64>);

/// What the model needs of a packet, read off the trace's own public
/// summary so both sides parse tunnels and source routes the same way.
struct Seen {
    key: PacketKey,
    logical: (Ipv4Addr, Ipv4Addr),
    proto: IpProtocol,
    summary: PacketSummary,
}

fn seen(pkt: &Ipv4Packet) -> Seen {
    let s = PacketSummary::of(pkt);
    Seen {
        key: (s.src, s.sr_final.unwrap_or(s.dst), s.protocol, s.ident),
        logical: s.logical_endpoints(),
        proto: s.logical_protocol(),
        summary: s,
    }
}

/// When and where an op happens.
type Stamp = (SimTime, NodeId);

#[derive(Default)]
struct Model {
    ids: HashMap<PacketKey, u64>,
    /// id → (flow, parent, first wire length)
    meta: HashMap<u64, (u64, Option<u64>, usize)>,
    flows: HashMap<(Ipv4Addr, Ipv4Addr, IpProtocol), u64>,
    last_in_flow: HashMap<(u64, Ipv4Addr), u64>,
    next_packet: u64,
    next_flow: u64,
    events: Vec<TraceEvent>,
}

impl Model {
    fn flow_for(&mut self, s: &Seen) -> u64 {
        let (a, b) = s.logical;
        let key = if a <= b {
            (a, b, s.proto)
        } else {
            (b, a, s.proto)
        };
        *self.flows.entry(key).or_insert_with(|| {
            self.next_flow += 1;
            self.next_flow - 1
        })
    }

    fn alloc(&mut self, s: &Seen, flow: u64, parent: Option<u64>) -> u64 {
        let id = self.next_packet;
        self.next_packet += 1;
        self.ids.insert(s.key, id);
        self.meta.insert(id, (flow, parent, s.summary.wire_len));
        self.last_in_flow.insert((flow, s.logical.0), id);
        id
    }

    fn ids_for(&mut self, s: &Seen) -> Ids {
        if let Some(&id) = self.ids.get(&s.key) {
            let (flow, parent, _) = self.meta[&id];
            return (id, flow, parent);
        }
        let flow = self.flow_for(s);
        (self.alloc(s, flow, None), flow, None)
    }

    fn keep(&mut self, (at, node): Stamp, kind: TraceEventKind, ids: Ids, packet: PacketSummary) {
        self.events.push(TraceEvent {
            at,
            node,
            kind,
            packet,
            packet_id: PacketId(ids.0),
            flow_id: FlowId(ids.1),
            parent_id: ids.2.map(PacketId),
        });
    }

    fn record(&mut self, stamp: Stamp, kind: TraceEventKind, pkt: &Ipv4Packet) {
        let s = seen(pkt);
        let ids = self.ids_for(&s);
        self.keep(stamp, kind, ids, s.summary);
    }

    fn record_transform(
        &mut self,
        stamp: Stamp,
        kind: TransformKind,
        parent: Option<&Ipv4Packet>,
        child: &Ipv4Packet,
    ) {
        let c = seen(child);
        let parent = match parent {
            Some(p) => Some(self.ids_for(&seen(p)).0),
            None => {
                let flow = self.flow_for(&c);
                self.last_in_flow.get(&(flow, c.logical.0)).copied()
            }
        };
        let flow = match parent {
            Some(p) => self.meta[&p].0,
            None => self.flow_for(&c),
        };
        let id = self.alloc(&c, flow, parent);
        let kind = TraceEventKind::Transformed(kind);
        self.keep(stamp, kind, (id, flow, parent), c.summary);
    }

    fn clear(&mut self) {
        *self = Model::default();
    }
}

const FORMATS: [EncapFormat; 3] = [EncapFormat::IpInIp, EncapFormat::Gre, EncapFormat::Minimal];
const PROTOS: [IpProtocol; 3] = [IpProtocol::Udp, IpProtocol::Tcp, IpProtocol::Icmp];

fn host(ix: u8) -> Ipv4Addr {
    Ipv4Addr(0x0a00_0001 + u32::from(ix))
}

prop_compose! {
    /// A packet between a handful of hosts with a handful of idents, so
    /// header identities recur; plain, tunnelled in any format, or
    /// loose-source-routed through one or two waypoints.
    fn arb_packet()(
        ends in (0u8..5, 0u8..5),
        proto in 0usize..3,
        ident in 0u16..4,
        len in 0usize..24,
        shape in 0u8..7,
        via in (0u8..5, 0u8..5),
        outer_ident in 0u16..4,
    ) -> Ipv4Packet {
        let payload = Bytes::from(vec![0xa5; len]);
        let mut p = Ipv4Packet::new(host(ends.0), host(ends.1), PROTOS[proto], payload);
        p.ident = ident;
        match shape {
            3..=5 => {
                let format = FORMATS[usize::from(shape - 3)];
                encapsulate(format, host(via.0), host(via.1), &p, outer_ident)
                    .expect("an unfragmented packet encapsulates in every format")
            }
            6 => {
                let waypoints = [host(via.0), host(via.1)];
                let dst = p.dst;
                apply_route(&mut p, &waypoints[..1 + usize::from(outer_ident % 2)], dst);
                p
            }
            _ => p,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Record(TraceEventKind, Ipv4Packet),
    Transform(TransformKind, Option<Ipv4Packet>, Ipv4Packet),
    Clear,
}

/// The life of one packet that crosses a router: four events of one id.
const WALK: [TraceEventKind; 4] = [
    TraceEventKind::Sent,
    TraceEventKind::Forwarded,
    TraceEventKind::Forwarded,
    TraceEventKind::DeliveredLocal,
];

/// `pkt` grown past a 44-byte MTU and fragmented: one header identity, so
/// one `PacketId`, whose fragments differ in `wire_len` (and, for a tunnel
/// packet, in whether the inner header can be read). Each stage of the
/// walk records every fragment, so consecutive events of the id alternate
/// between summaries.
fn fragments_walk(mut pkt: Ipv4Packet, extra: usize) -> Vec<Op> {
    let mut payload = pkt.payload.to_vec();
    payload.resize(payload.len() + 30 + extra, 0x5a);
    pkt.payload = Bytes::from(payload);
    pkt.dont_fragment = false;
    let frags = pkt
        .fragment(44)
        .expect("DF is clear and the MTU holds a header");
    assert!(frags.len() >= 2);
    WALK.iter()
        .flat_map(|&kind| frags.iter().map(move |f| Op::Record(kind, f.clone())))
        .collect()
}

/// A loose-source-routed packet recorded on its way to a waypoint and
/// again after the waypoint rewrote `dst`: the header identity (keyed on
/// the route's final destination) and so the `PacketId` stay, the summary
/// does not.
fn rerouted_walk(mut pkt: Ipv4Packet, via: [Ipv4Addr; 2], legs: usize) -> Vec<Op> {
    pkt.set_options(&[]);
    let dst = pkt.dst;
    apply_route(&mut pkt, &via[..legs], dst);
    let mut ops = vec![Op::Record(TraceEventKind::Sent, pkt.clone())];
    for _ in 0..legs {
        let here = pkt.dst;
        ops.push(Op::Record(TraceEventKind::Forwarded, pkt.clone()));
        assert!(
            process_at_hop(&mut pkt, here),
            "an unexhausted route advances"
        );
        ops.push(Op::Record(TraceEventKind::Forwarded, pkt.clone()));
    }
    ops.push(Op::Record(TraceEventKind::DeliveredLocal, pkt));
    ops
}

prop_compose! {
    /// One primitive op, or a burst that gives one `PacketId` several
    /// events — with one summary (a plain walk) or several (fragments, a
    /// source route in progress) — optionally replayed after a `clear()`,
    /// when the same identities must start again from nothing.
    fn arb_ops()(
        what in 0u8..58,
        kind in 0usize..5,
        pkt in arb_packet(),
        parent in proptest::option::of(arb_packet()),
        extra in 0usize..40,
        replay in any::<bool>(),
    ) -> Vec<Op> {
        let burst = match what {
            0 => return vec![Op::Clear],
            1..=12 => {
                let kind = [
                    TransformKind::Encapsulated(EncapFormat::IpInIp),
                    TransformKind::Decapsulated(EncapFormat::Gre),
                    TransformKind::SourceRouteHop,
                    TransformKind::Relayed,
                    TransformKind::Retransmission,
                ][kind];
                return vec![Op::Transform(kind, parent, pkt)];
            }
            13..=39 => {
                let kind = [
                    TraceEventKind::Sent,
                    TraceEventKind::Forwarded,
                    TraceEventKind::DeliveredLocal,
                    TraceEventKind::Dropped(DropReason::LinkFault),
                    TraceEventKind::Dropped(DropReason::TtlExpired),
                ][kind];
                return vec![Op::Record(kind, pkt)];
            }
            40..=45 => WALK.iter().map(|&k| Op::Record(k, pkt.clone())).collect(),
            46..=51 => fragments_walk(pkt, extra),
            _ => rerouted_walk(pkt, [host(5), host(6)], 1 + extra % 2),
        };
        if !replay {
            return burst;
        }
        let mut ops = burst.clone();
        ops.push(Op::Clear);
        ops.extend(burst);
        ops
    }
}

/// `profile::live_bytes` is process-wide: the footprint pin must not see
/// the model test's allocations come and go.
static GAUGE: Mutex<()> = Mutex::new(());

/// What the default-on trace retains for a run the size of one
/// `grid_stream` cell: 24 bytes an event and 56 a packet, plus the identity
/// map — 5.5 MiB here (5 800 225 B). Storing whole 96-byte events took
/// 13.8 MiB (14 450 977 B).
#[test]
fn an_unbounded_trace_of_100k_events_retains_under_8_mib() {
    let _g = GAUGE.lock().unwrap_or_else(|e| e.into_inner());
    let before = netsim::profile::live_bytes();
    let mut trace = PacketTrace::new(true);
    let mut pkt = Ipv4Packet::new(host(0), host(1), IpProtocol::Udp, Bytes::from_static(b"x"));
    for ident in 0..20_000u16 {
        pkt.ident = ident;
        for (hop, kind) in [WALK[0], WALK[1], WALK[1], WALK[1], WALK[3]]
            .into_iter()
            .enumerate()
        {
            trace.record(SimTime(u64::from(ident)), NodeId(hop), kind, &pkt);
        }
    }
    let retained = netsim::profile::live_bytes() - before;
    assert_eq!(trace.events().len(), 100_000);
    assert_eq!(trace.packets_identified(), 20_000);
    assert!(
        retained <= 8 << 20,
        "100 000 events of 20 000 packets retain {retained} B"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn identity_tables_match_the_four_map_model(
        ops in proptest::collection::vec(arb_ops(), 0..60),
    ) {
        let _g = GAUGE.lock().unwrap_or_else(|e| e.into_inner());
        let mut trace = PacketTrace::new(true);
        let mut model = Model::default();

        for (t, op) in ops.iter().flatten().enumerate() {
            let (at, node) = (SimTime(t as u64), NodeId(t % 3));
            match op {
                Op::Record(kind, pkt) => {
                    trace.record(at, node, *kind, pkt);
                    model.record((at, node), *kind, pkt);
                }
                Op::Transform(kind, parent, child) => {
                    trace.record_transform(at, node, *kind, parent.as_ref(), child);
                    model.record_transform((at, node), *kind, parent.as_ref(), child);
                }
                Op::Clear => {
                    trace.clear();
                    model.clear();
                }
            }

            let events = trace.events();
            prop_assert!(events.iter().eq(model.events.iter().cloned()), "events after op {}", t);
            prop_assert_eq!(events.len(), model.events.len());
            prop_assert_eq!(events.front(), model.events.first().cloned());
            prop_assert_eq!(events.back(), model.events.last().cloned());
            prop_assert!(events.iter().rev().eq(model.events.iter().rev().cloned()));
            let matched: Vec<TraceEvent> = trace.matching(|s| s.wire_len % 2 == 0).collect();
            let expect = model.events.iter().filter(|e| e.packet.wire_len % 2 == 0);
            prop_assert!(matched.iter().eq(expect), "matching after op {}", t);
            prop_assert_eq!(trace.packets_identified(), model.meta.len());
            // Every id ever minted, and two that never were (stale ids from
            // before a clear look the same).
            for id in 0..model.next_packet + 2 {
                let m = model.meta.get(&id);
                let pid = PacketId(id);
                prop_assert_eq!(trace.flow_of(pid), m.map(|m| FlowId(m.0)));
                prop_assert_eq!(trace.parent_of(pid), m.and_then(|m| m.1).map(PacketId));
                prop_assert_eq!(trace.first_wire_len(pid), m.map(|m| m.2));
            }
        }
    }
}

//! `PacketTrace`'s identity bookkeeping against a reference model.
//!
//! The trace resolves every record through four tables (header identity →
//! packet id, packet id → causal bookkeeping, conversation → flow id, last
//! packet per flow endpoint). How those tables are stored is free to change
//! as long as nothing observable does; the model below is the plain
//! four-`HashMap` formulation, and random `record` / `record_transform` /
//! `clear` sequences must leave trace and model in agreement.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use netsim::wire::encap::encapsulate;
use netsim::wire::srcroute::apply_route;
use netsim::{
    DropReason, EncapFormat, FlowId, IpProtocol, Ipv4Addr, Ipv4Packet, NodeId, PacketId,
    PacketTrace, SimTime, TraceEventKind, TransformKind,
};
use proptest::prelude::*;

type PacketKey = (Ipv4Addr, Ipv4Addr, IpProtocol, u16);
type Ids = (u64, u64, Option<u64>);

/// SplitMix64's output function, as the trace's sampling decision uses it.
fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the model needs of a packet, read off the trace's own public
/// summary so both sides parse tunnels and source routes the same way.
struct Seen {
    key: PacketKey,
    logical: (Ipv4Addr, Ipv4Addr),
    proto: IpProtocol,
    wire_len: usize,
}

fn seen(pkt: &Ipv4Packet) -> Seen {
    let s = netsim::trace::PacketSummary::of(pkt);
    Seen {
        key: (s.src, s.sr_final.unwrap_or(s.dst), s.protocol, s.ident),
        logical: s.logical_endpoints(),
        proto: s.logical_protocol(),
        wire_len: s.wire_len,
    }
}

#[derive(Default)]
struct Model {
    ids: HashMap<PacketKey, u64>,
    /// id → (flow, parent, first wire length)
    meta: HashMap<u64, (u64, Option<u64>, usize)>,
    flows: HashMap<(Ipv4Addr, Ipv4Addr, IpProtocol), u64>,
    last_in_flow: HashMap<(u64, Ipv4Addr), u64>,
    next_packet: u64,
    next_flow: u64,
    sample: Option<(u64, u64)>,
    promoted: HashSet<u64>,
    suppressed: u64,
    capacity: Option<usize>,
    events: VecDeque<Ids>,
    shed: u64,
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
        self.meta.insert(id, (flow, parent, s.wire_len));
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

    fn keep(&mut self, anomaly: bool, ids: Ids) {
        if let Some((n, seed)) = self.sample {
            if anomaly {
                self.promoted.insert(ids.1);
            }
            if !hash64(ids.1 ^ seed).is_multiple_of(n) && !self.promoted.contains(&ids.1) {
                self.suppressed += 1;
                return;
            }
        }
        match self.capacity {
            Some(0) => self.shed += 1,
            Some(cap) if self.events.len() >= cap => {
                self.events.pop_front();
                self.shed += 1;
                self.events.push_back(ids);
            }
            _ => self.events.push_back(ids),
        }
    }

    fn record(&mut self, kind: TraceEventKind, pkt: &Ipv4Packet) {
        let ids = self.ids_for(&seen(pkt));
        self.keep(matches!(kind, TraceEventKind::Dropped(_)), ids);
    }

    fn record_transform(
        &mut self,
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
        self.keep(kind == TransformKind::Retransmission, (id, flow, parent));
    }

    fn clear(&mut self) {
        *self = Model {
            sample: self.sample,
            capacity: self.capacity,
            ..Model::default()
        };
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

prop_compose! {
    fn arb_op()(
        what in 0u8..40,
        kind in 0usize..5,
        pkt in arb_packet(),
        parent in proptest::option::of(arb_packet()),
    ) -> Op {
        match what {
            0 => Op::Clear,
            1..=12 => {
                let kind = [
                    TransformKind::Encapsulated(EncapFormat::IpInIp),
                    TransformKind::Decapsulated(EncapFormat::Gre),
                    TransformKind::SourceRouteHop,
                    TransformKind::Relayed,
                    TransformKind::Retransmission,
                ][kind];
                Op::Transform(kind, parent, pkt)
            }
            _ => {
                let kind = [
                    TraceEventKind::Sent,
                    TraceEventKind::Forwarded,
                    TraceEventKind::DeliveredLocal,
                    TraceEventKind::Dropped(DropReason::LinkFault),
                    TraceEventKind::Dropped(DropReason::TtlExpired),
                ][kind];
                Op::Record(kind, pkt)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn identity_tables_match_the_four_map_model(
        ring in 0u8..4,
        sampling in 0u8..4,
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 0..120),
    ) {
        let capacity = [None, Some(0), Some(3), Some(1000)][usize::from(ring)];
        let mut trace = match capacity {
            None => PacketTrace::new(true),
            Some(cap) => PacketTrace::with_capacity(cap),
        };
        let sample = [None, Some(2), Some(3), Some(u64::MAX)][usize::from(sampling)];
        if let Some(n) = sample {
            trace.enable_flow_sampling(n, seed);
        }
        let mut model = Model {
            capacity,
            sample: sample.map(|n| (n, seed)),
            ..Model::default()
        };

        for (t, op) in ops.iter().enumerate() {
            let (at, node) = (SimTime(t as u64), NodeId(t % 3));
            match op {
                Op::Record(kind, pkt) => {
                    trace.record(at, node, *kind, pkt);
                    model.record(*kind, pkt);
                }
                Op::Transform(kind, parent, child) => {
                    trace.record_transform(at, node, *kind, parent.as_ref(), child);
                    model.record_transform(*kind, parent.as_ref(), child);
                }
                Op::Clear => {
                    trace.clear();
                    model.clear();
                }
            }

            let events: Vec<Ids> = trace
                .events()
                .iter()
                .map(|e| (e.packet_id.0, e.flow_id.0, e.parent_id.map(|p| p.0)))
                .collect();
            prop_assert_eq!(&events, &Vec::from(model.events.clone()), "events after op {}", t);
            prop_assert_eq!(trace.dropped_events(), model.shed);
            prop_assert_eq!(trace.suppressed_events(), model.suppressed);
            prop_assert_eq!(trace.promoted_flows(), model.promoted.len());
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

//! Packet tracing and measurement.
//!
//! Experiments observe the network exclusively through this module: every
//! send, forward, local delivery and drop is recorded with a parsed summary
//! of the packet (including the inner header when the packet is a tunnel).
//! That is enough to measure everything the paper's figures illustrate —
//! path hop counts, per-direction latency, bytes on the wire, and exactly
//! *which router dropped which packet and why* (Figure 2).
//!
//! Beyond the flat event log, the trace assigns **causal identity**: every
//! packet injected into the world gets a stable [`PacketId`], every logical
//! conversation a [`FlowId`], and every transform (encapsulation,
//! decapsulation, source-route rewrite, agent relay, retransmission) links
//! the new packet to its parent — so the events form a causal tree a
//! [`crate::lifecycle`] reconstruction can walk, rather than a log that
//! needs heuristic pairing.
//!
//! # What is stored, what is assembled
//!
//! Readers get [`TraceEvent`]s (96 bytes); the trace stores none. A world
//! records every hop of every packet by default, so what one record keeps
//! is the simulator's largest per-event cost, and most of a `TraceEvent`
//! repeats what the packet's other events already said:
//!
//! * **per event, 24 bytes** — time, node, packet id, event kind, and which
//!   summary the event was recorded with: one slot of the `Vec` that is the
//!   whole log, kept until [`PacketTrace::clear`];
//! * **per packet, 56 bytes** — flow, parent and the summary the packet was
//!   first seen with, in a `Vec` indexed by [`PacketId`] that also answers
//!   [`PacketTrace::parent_of`] / [`PacketTrace::flow_of`] /
//!   [`PacketTrace::first_wire_len`] — plus the packet's entry in the
//!   header-identity map;
//! * **per change of summary, 40 bytes** — a packet's events share a
//!   summary for as long as each is recorded with one equal to the last;
//!   an event that differs (another fragment's `wire_len`, a `dst` a
//!   source-route waypoint rewrote, an ident that wrapped onto an old id)
//!   appends the new summary to a spill table. Nothing is assumed about
//!   which fields can vary, so what is read back is exactly what was
//!   recorded. Spilled summaries live until [`PacketTrace::clear`], like
//!   the rest.
//!
//! [`PacketTrace::events`] and [`PacketTrace::matching`] assemble each
//! `TraceEvent` by value when it is read: two indexed loads and a 40-byte
//! copy per event, paid by the reader instead of by every hop of the run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::event::NodeId;
use crate::time::SimTime;
use crate::wire::encap::{self, EncapFormat};
use crate::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use serde::{JsonWriter, Serialize};

/// Why a packet was dropped. The first three are the network policies the
/// paper names in §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A boundary router saw a packet arriving from outside whose source
    /// address claims to be inside (ingress filtering), or vice versa
    /// (egress filtering). The paper's Figure 2 failure.
    SourceAddressFilter,
    /// An end-user network refusing to carry transit traffic (§3.1).
    TransitPolicy,
    /// An explicit firewall rule.
    Firewall,
    /// TTL reached zero.
    TtlExpired,
    /// No route to the destination.
    NoRoute,
    /// Packet larger than link MTU with DF set.
    MtuExceeded,
    /// Fault injection on a link.
    LinkFault,
    /// ARP could not resolve the next hop on the final segment.
    ArpFailure,
    /// Arrived at a host with no protocol handler / listener.
    NoListener,
    /// Failed to parse (e.g. corrupted by fault injection).
    Malformed,
}

impl DropReason {
    /// Every reason, in stable [`DropReason::index`] order.
    pub const ALL: [DropReason; 10] = [
        DropReason::SourceAddressFilter,
        DropReason::TransitPolicy,
        DropReason::Firewall,
        DropReason::TtlExpired,
        DropReason::NoRoute,
        DropReason::MtuExceeded,
        DropReason::LinkFault,
        DropReason::ArpFailure,
        DropReason::NoListener,
        DropReason::Malformed,
    ];

    /// Dense index for counter arrays (`ALL[r.index()] == r`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable tag (run reports, trace files).
    pub fn tag(self) -> &'static str {
        match self {
            DropReason::SourceAddressFilter => "source-address-filter",
            DropReason::TransitPolicy => "transit-policy",
            DropReason::Firewall => "firewall",
            DropReason::TtlExpired => "ttl-expired",
            DropReason::NoRoute => "no-route",
            DropReason::MtuExceeded => "mtu-exceeded",
            DropReason::LinkFault => "link-fault",
            DropReason::ArpFailure => "arp-failure",
            DropReason::NoListener => "no-listener",
            DropReason::Malformed => "malformed",
        }
    }

    /// Inverse of [`DropReason::tag`].
    pub fn from_tag(s: &str) -> Option<DropReason> {
        DropReason::ALL.into_iter().find(|r| r.tag() == s)
    }
}

impl Serialize for DropReason {
    fn serialize(&self, w: &mut JsonWriter) {
        w.str(self.tag());
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropReason::SourceAddressFilter => "source-address filter",
            DropReason::TransitPolicy => "transit policy",
            DropReason::Firewall => "firewall",
            DropReason::TtlExpired => "ttl expired",
            DropReason::NoRoute => "no route",
            DropReason::MtuExceeded => "mtu exceeded (DF)",
            DropReason::LinkFault => "link fault",
            DropReason::ArpFailure => "arp failure",
            DropReason::NoListener => "no listener",
            DropReason::Malformed => "malformed",
        };
        f.write_str(s)
    }
}

/// Stable identity of one concrete packet for its whole life: assigned on
/// the first trace event that observes it and preserved across every hop.
/// Transforms (encapsulation, decapsulation, …) produce a **new** id whose
/// parent is the packet that went in, so ids form a causal tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl Serialize for PacketId {
    fn serialize(&self, w: &mut JsonWriter) {
        w.u64(self.0);
    }
}

/// Stable identity of one logical conversation: the pair of logical
/// endpoints (looking through tunnels and source routes) plus the innermost
/// protocol, direction-insensitive so both halves of an exchange share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl Serialize for FlowId {
    fn serialize(&self, w: &mut JsonWriter) {
        w.u64(self.0);
    }
}

/// How one packet begat another. Recorded as a
/// [`TraceEventKind::Transformed`] event on the *child* packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// The parent was wrapped in a tunnel header; the child is the outer
    /// packet (Figures 3–7's encapsulated modes).
    Encapsulated(EncapFormat),
    /// A tunnel layer was peeled; the child is the inner packet.
    Decapsulated(EncapFormat),
    /// A loose-source-route waypoint rewrote the destination (Out-DT's
    /// LSR variant).
    SourceRouteHop,
    /// An agent relayed the packet onward unchanged (foreign agent final
    /// hop).
    Relayed,
    /// A transport retransmitted the same data as a fresh packet.
    Retransmission,
}

impl TransformKind {
    /// Stable machine-readable tag (run reports, trace files).
    pub fn tag(self) -> &'static str {
        match self {
            TransformKind::Encapsulated(_) => "encapsulated",
            TransformKind::Decapsulated(_) => "decapsulated",
            TransformKind::SourceRouteHop => "source-route-hop",
            TransformKind::Relayed => "relayed",
            TransformKind::Retransmission => "retransmission",
        }
    }

    /// The encapsulation format involved, for the tunnel transforms.
    pub fn format(self) -> Option<EncapFormat> {
        match self {
            TransformKind::Encapsulated(f) | TransformKind::Decapsulated(f) => Some(f),
            _ => None,
        }
    }

    /// Inverse of [`TransformKind::tag`] + [`TransformKind::format`].
    pub fn from_tag(tag: &str, format: Option<&str>) -> Option<TransformKind> {
        let f = || format.and_then(EncapFormat::from_tag).unwrap_or_default();
        match tag {
            "encapsulated" => Some(TransformKind::Encapsulated(f())),
            "decapsulated" => Some(TransformKind::Decapsulated(f())),
            "source-route-hop" => Some(TransformKind::SourceRouteHop),
            "relayed" => Some(TransformKind::Relayed),
            "retransmission" => Some(TransformKind::Retransmission),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.format() {
            Some(fmt) => write!(f, "{} ({})", self.tag(), fmt.tag()),
            None => f.write_str(self.tag()),
        }
    }
}

impl Serialize for TransformKind {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("transform", self.tag());
            if let Some(fmt) = self.format() {
                w.field("format", fmt.tag());
            }
        });
    }
}

/// A compact, parsed view of one IP packet as seen at one point in the net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSummary {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// The IP protocol of the payload.
    pub protocol: IpProtocol,
    /// The IP identification field — stable across hops for one packet, so
    /// it lets measurements pair a delivery with the transmission that
    /// actually carried it (retransmissions get fresh idents).
    pub ident: u16,
    /// On-wire length of the packet, bytes.
    pub wire_len: usize,
    /// `(src, dst, protocol)` of the inner packet, when this is a tunnel.
    pub inner: Option<(Ipv4Addr, Ipv4Addr, IpProtocol)>,
    /// The remaining final destination of a loose source route, when the
    /// packet carries an unexhausted LSRR option. The wire `dst` of such a
    /// packet is rewritten at every waypoint; this field is the address the
    /// conversation is actually aimed at.
    pub sr_final: Option<Ipv4Addr>,
}

impl PacketSummary {
    /// Summarize a packet, looking through one tunnel layer if present.
    pub fn of(pkt: &Ipv4Packet) -> PacketSummary {
        let inner = encap::inner_endpoints(pkt).ok();
        let sr_final = if pkt.options.is_empty() {
            None
        } else {
            crate::wire::srcroute::SourceRoute::parse(&pkt.options)
                .and_then(|r| r.final_destination())
        };
        PacketSummary {
            src: pkt.src,
            dst: pkt.dst,
            protocol: pkt.protocol,
            ident: pkt.ident,
            wire_len: pkt.wire_len(),
            inner,
            sr_final,
        }
    }

    /// The addresses of the *logical* conversation: the inner header if
    /// encapsulated, the source route's final destination if source-routed,
    /// the outer header otherwise.
    pub fn logical_endpoints(&self) -> (Ipv4Addr, Ipv4Addr) {
        match (self.inner, self.sr_final) {
            (Some((s, d, _)), _) => (s, d),
            (None, Some(f)) => (self.src, f),
            (None, None) => (self.src, self.dst),
        }
    }

    /// Identity of the concrete packet: the header fields that survive
    /// forwarding unchanged. Source-routed packets get their dst rewritten
    /// at every waypoint, so the key uses the route's final destination.
    fn flow_key(&self) -> PacketKey {
        (
            self.src,
            self.sr_final.unwrap_or(self.dst),
            self.protocol,
            self.ident,
        )
    }

    /// The innermost protocol: the tunnelled payload's when encapsulated.
    pub fn logical_protocol(&self) -> IpProtocol {
        match self.inner {
            Some((_, _, p)) => p,
            None => self.protocol,
        }
    }
}

impl Serialize for PacketSummary {
    fn serialize(&self, w: &mut JsonWriter) {
        let endpoints = |w: &mut JsonWriter, (s, d, p): (Ipv4Addr, Ipv4Addr, IpProtocol)| {
            w.field("src", &s);
            w.field("dst", &d);
            w.field("protocol", &p.number());
        };
        w.object(|w| {
            endpoints(w, (self.src, self.dst, self.protocol));
            w.field("ident", &self.ident);
            w.field("wire_len", &self.wire_len);
            w.key("inner");
            match self.inner {
                Some(inner) => w.object(|w| endpoints(w, inner)),
                None => w.null(),
            }
            w.field("sr_final", &self.sr_final);
        });
    }
}

/// Header identity that survives forwarding: the registry key mapping a
/// packet observed anywhere in the net back to its [`PacketId`].
type PacketKey = (Ipv4Addr, Ipv4Addr, IpProtocol, u16);

/// The conversation key: direction-normalized logical endpoints plus the
/// innermost protocol.
type FlowKey = (Ipv4Addr, Ipv4Addr, IpProtocol);

/// Hasher of the identity tables: integer fields fold into one word and
/// [`crate::telemetry::hash64`] finalizes it. The keys come from packets
/// the simulation built itself, never from outside the program, so they
/// need no per-process random key — and a fixed one costs a few
/// multiplies where SipHash over a four-field tuple was the largest part
/// of a trace record. The tables are never iterated, so the hasher cannot
/// show in any output.
#[derive(Default)]
struct IdentityHasher(u64);

type IdentityMap<K, V> = HashMap<K, V, BuildHasherDefault<IdentityHasher>>;

impl Hasher for IdentityHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
    fn finish(&self) -> u64 {
        crate::telemetry::hash64(self.0)
    }
}

/// Per-packet bookkeeping: causal links, the overhead baseline, and
/// everything a [`TraceEvent`] says that is the same for all of a packet's
/// events.
#[derive(Debug)]
struct PacketMeta {
    flow: FlowId,
    /// The id this packet was derived from; [`NO_PARENT`] for none.
    parent: u32,
    /// Which summary the packet's latest event was recorded with,
    /// in [`Record::summary`]'s encoding.
    last: u32,
    /// The packet as first observed (pre-transform for parents): the
    /// summary its events share until one differs, and the wire length
    /// per-layer header-overhead deltas start from.
    first: PacketSummary,
}

/// [`PacketMeta::parent`] of a packet no transform produced. Ids are minted
/// below it ([`PacketTrace::alloc_packet`] checks).
const NO_PARENT: u32 = u32::MAX;

impl PacketMeta {
    fn parent(&self) -> Option<PacketId> {
        (self.parent != NO_PARENT).then_some(PacketId(u64::from(self.parent)))
    }
}

/// One observation as the log stores it; [`PacketTrace::assemble`]
/// makes the [`TraceEvent`] readers see.
#[derive(Debug)]
struct Record {
    at: SimTime,
    node: u32,
    /// The [`PacketId`], an index into `meta`.
    packet: u32,
    /// 0: the event saw `meta[packet].first`; `n`: it saw `spilled[n - 1]`.
    summary: u32,
    kind: TraceEventKind,
}

/// What happened to the packet at `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Originated here and handed to a link.
    Sent,
    /// Transited a router (or was re-tunnelled by an agent).
    Forwarded,
    /// Reached a host stack and was delivered to a local protocol.
    DeliveredLocal,
    /// Discarded.
    Dropped(DropReason),
    /// Became a new packet (the one this event describes) by the given
    /// transform; the new packet's `parent_id` names the packet that went
    /// in. Not a wire event: the transform happens inside a node.
    Transformed(TransformKind),
}

impl TraceEventKind {
    /// Stable machine-readable tag (run reports, trace files).
    pub fn tag(self) -> &'static str {
        match self {
            TraceEventKind::Sent => "sent",
            TraceEventKind::Forwarded => "forwarded",
            TraceEventKind::DeliveredLocal => "delivered",
            TraceEventKind::Dropped(_) => "dropped",
            TraceEventKind::Transformed(_) => "transformed",
        }
    }

    /// Whether this event put bytes on a wire.
    pub fn is_wire(self) -> bool {
        matches!(self, TraceEventKind::Sent | TraceEventKind::Forwarded)
    }
}

impl TraceEventKind {
    /// The members this kind contributes to an enclosing JSON object.
    fn write_fields(&self, w: &mut JsonWriter) {
        w.field("event", self.tag());
        match self {
            TraceEventKind::Dropped(r) => w.field("reason", r),
            TraceEventKind::Transformed(t) => {
                w.field("kind", t.tag());
                if let Some(f) = t.format() {
                    w.field("format", f.tag());
                }
            }
            _ => {}
        }
    }
}

impl Serialize for TraceEventKind {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| self.write_fields(w));
    }
}

/// One observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened, in simulated time.
    pub at: SimTime,
    /// The node concerned.
    pub node: NodeId,
    /// What happened to the packet.
    pub kind: TraceEventKind,
    /// Parsed view of the packet involved.
    pub packet: PacketSummary,
    /// Causal identity of the packet this event observes.
    pub packet_id: PacketId,
    /// The conversation the packet belongs to.
    pub flow_id: FlowId,
    /// The packet this one was derived from, if it was produced by a
    /// transform (set on every event of the derived packet).
    pub parent_id: Option<PacketId>,
}

impl Serialize for TraceEvent {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("t_us", &self.at.0);
            w.field("node", &self.node.0);
            w.field("packet_id", &self.packet_id);
            w.field("flow_id", &self.flow_id);
            w.field("parent_id", &self.parent_id);
            self.kind.write_fields(w);
            w.field("packet", &self.packet);
        });
    }
}

/// Collects [`TraceEvent`]s. Owned by the [`crate::world::World`].
#[derive(Debug, Default)]
pub struct PacketTrace {
    log: Vec<Record>,
    /// Summaries that differed from the one their packet's previous event
    /// was recorded with, in recording order.
    spilled: Vec<PacketSummary>,
    enabled: bool,
    /// Current id for each header identity seen in the world. A transform
    /// re-points the child's key at a fresh id, so the same wire identity
    /// observed after the transform belongs to the new causal node.
    ids: IdentityMap<PacketKey, PacketId>,
    /// Causal bookkeeping per id, indexed by it: ids are minted densely
    /// from `meta.len()`.
    meta: Vec<PacketMeta>,
    /// Conversation registry.
    flows: IdentityMap<FlowKey, FlowId>,
    /// Last packet each logical endpoint contributed to each flow — the
    /// presumed parent of a retransmission, which arrives with a fresh
    /// ident and no explicit parent packet.
    last_in_flow: IdentityMap<(FlowId, Ipv4Addr), PacketId>,
    next_flow: u64,
}

impl PacketTrace {
    /// An empty trace; records only while enabled.
    pub fn new(enabled: bool) -> PacketTrace {
        PacketTrace {
            enabled,
            ..PacketTrace::default()
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one observation (no-op while disabled).
    pub fn record(&mut self, at: SimTime, node: NodeId, kind: TraceEventKind, pkt: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        let _prof = crate::profile::scope("trace/record");
        let packet = PacketSummary::of(pkt);
        let packet_id = self.id_for(&packet);
        self.push(at, node, kind, packet_id, packet);
    }

    /// Record that `child` was produced from a parent packet by `kind` at
    /// `node` — the causal edges of the trace tree. The child gets a fresh
    /// [`PacketId`] (superseding whatever id its header identity held) and
    /// inherits the parent's [`FlowId`]. `parent` is `None` only for
    /// retransmissions, whose parent is inferred as the last packet this
    /// endpoint contributed to the flow. No-op while disabled.
    pub fn record_transform(
        &mut self,
        at: SimTime,
        node: NodeId,
        kind: TransformKind,
        parent: Option<&Ipv4Packet>,
        child: &Ipv4Packet,
    ) {
        if !self.enabled {
            return;
        }
        let _prof = crate::profile::scope("trace/record");
        let child_summary = PacketSummary::of(child);
        let parent_id = match parent {
            Some(p) => {
                let ps = PacketSummary::of(p);
                Some(self.id_for(&ps))
            }
            None => {
                let flow = self.flow_for(&child_summary);
                let (src, _) = child_summary.logical_endpoints();
                self.last_in_flow.get(&(flow, src)).copied()
            }
        };
        let flow_id = match parent_id {
            Some(p) => self.meta[p.0 as usize].flow,
            None => self.flow_for(&child_summary),
        };
        let packet_id = self.alloc_packet(&child_summary, flow_id, parent_id);
        let kind = TraceEventKind::Transformed(kind);
        self.push(at, node, kind, packet_id, child_summary);
    }

    /// The parent of `id` in the causal tree, if it was produced by a
    /// transform.
    pub fn parent_of(&self, id: PacketId) -> Option<PacketId> {
        self.meta_of(id).and_then(PacketMeta::parent)
    }

    /// The flow `id` belongs to.
    pub fn flow_of(&self, id: PacketId) -> Option<FlowId> {
        self.meta_of(id).map(|m| m.flow)
    }

    /// Wire length of `id` when it was first observed — the pre-transform
    /// size for packets that later served as a transform's parent, which
    /// makes `child.wire_len - first_wire_len(parent)` the header bytes a
    /// layer added.
    pub fn first_wire_len(&self, id: PacketId) -> Option<usize> {
        self.meta_of(id).map(|m| m.first.wire_len)
    }

    /// Distinct packets the trace has identified since the last clear.
    pub fn packets_identified(&self) -> usize {
        self.meta.len()
    }

    /// Bookkeeping of an id a caller hands back (possibly stale, from
    /// before a [`PacketTrace::clear`]).
    fn meta_of(&self, id: PacketId) -> Option<&PacketMeta> {
        self.meta.get(usize::try_from(id.0).ok()?)
    }

    /// Current id for the packet `summary` describes, allocated (with its
    /// flow) on first sight.
    fn id_for(&mut self, summary: &PacketSummary) -> PacketId {
        if let Some(&id) = self.ids.get(&summary.flow_key()) {
            return id;
        }
        let flow = self.flow_for(summary);
        self.alloc_packet(summary, flow, None)
    }

    /// The flow for `summary`'s logical conversation, allocated on first
    /// sight. Direction-normalized so requests and replies share it.
    fn flow_for(&mut self, summary: &PacketSummary) -> FlowId {
        let (s, d) = summary.logical_endpoints();
        let proto = summary.logical_protocol();
        let key = if s <= d { (s, d, proto) } else { (d, s, proto) };
        match self.flows.get(&key) {
            Some(&f) => f,
            None => {
                let f = FlowId(self.next_flow);
                self.next_flow += 1;
                self.flows.insert(key, f);
                f
            }
        }
    }

    /// Mint a fresh packet id for `summary`, repointing its header identity
    /// at the new id and remembering the causal link.
    fn alloc_packet(
        &mut self,
        summary: &PacketSummary,
        flow: FlowId,
        parent: Option<PacketId>,
    ) -> PacketId {
        // The log names packets by `u32`; 2^32 of them would be 224 GiB of
        // `meta` alone.
        assert!(
            self.meta.len() < NO_PARENT as usize,
            "trace: a trace identifies at most 2^32 - 1 packets between clears"
        );
        let id = PacketId(self.meta.len() as u64);
        self.ids.insert(summary.flow_key(), id);
        self.meta.push(PacketMeta {
            flow,
            // An id is below `meta.len()`, so the assert above bounds it.
            parent: parent.map_or(NO_PARENT, |p| p.0 as u32),
            last: 0,
            first: summary.clone(),
        });
        let (src, _) = summary.logical_endpoints();
        self.last_in_flow.insert((flow, src), id);
        id
    }

    /// Append one event of packet `id`.
    fn push(
        &mut self,
        at: SimTime,
        node: NodeId,
        kind: TraceEventKind,
        id: PacketId,
        summary: PacketSummary,
    ) {
        let m = &mut self.meta[id.0 as usize];
        let last = match m.last {
            0 => &m.first,
            n => &self.spilled[n as usize - 1],
        };
        if *last != summary {
            self.spilled.push(summary);
            m.last = u32::try_from(self.spilled.len())
                .expect("trace: at most 2^32 - 1 changed packet summaries between clears");
        }
        self.log.push(Record {
            at,
            node: u32::try_from(node.0).expect("trace: node ids above 2^32 - 1 are not recorded"),
            // `alloc_packet` minted `id` below `NO_PARENT`.
            packet: id.0 as u32,
            summary: m.last,
            kind,
        });
    }

    /// The summary `r` was recorded with.
    fn summary_of(&self, r: &Record) -> &PacketSummary {
        match r.summary {
            0 => &self.meta[r.packet as usize].first,
            n => &self.spilled[n as usize - 1],
        }
    }

    /// The event `r` stands for: what the record holds, what its packet's
    /// bookkeeping says of every event of that packet, and its summary.
    fn assemble(&self, r: &Record) -> TraceEvent {
        let m = &self.meta[r.packet as usize];
        TraceEvent {
            at: r.at,
            node: NodeId(r.node as usize),
            kind: r.kind,
            packet: self.summary_of(r).clone(),
            packet_id: PacketId(u64::from(r.packet)),
            flow_id: m.flow,
            parent_id: m.parent(),
        }
    }

    /// Forget everything recorded so far, packet and flow identities
    /// included.
    pub fn clear(&mut self) {
        self.log.clear();
        self.spilled.clear();
        self.ids.clear();
        self.meta.clear();
        self.flows.clear();
        self.last_in_flow.clear();
        self.next_flow = 0;
    }

    /// Every recorded event, in order: a view that assembles each
    /// [`TraceEvent`] from its 24-byte record, its packet's bookkeeping and
    /// the summary it was recorded with as it is read. `len` and `is_empty`
    /// read nothing; `front`, `back` and each step of `iter` cost two
    /// indexed loads and a 40-byte copy.
    pub fn events(&self) -> TraceEvents<'_> {
        TraceEvents(self)
    }

    /// Events whose packet summary satisfies `pred`; only those are
    /// assembled.
    pub fn matching<'a, F>(&'a self, pred: F) -> impl Iterator<Item = TraceEvent> + 'a
    where
        F: Fn(&PacketSummary) -> bool + 'a,
    {
        self.log
            .iter()
            .filter(move |r| pred(self.summary_of(r)))
            .map(|r| self.assemble(r))
    }

    /// Number of times matching packets were put on a wire (Sent+Forwarded):
    /// i.e. total link traversals, the "distance travelled" of §3.2.
    pub fn hops<F>(&self, pred: F) -> usize
    where
        F: Fn(&PacketSummary) -> bool,
    {
        self.matching(pred)
            .filter(|e| matches!(e.kind, TraceEventKind::Sent | TraceEventKind::Forwarded))
            .count()
    }

    /// Local deliveries of matching packets.
    pub fn deliveries<F>(&self, pred: F) -> usize
    where
        F: Fn(&PacketSummary) -> bool,
    {
        self.matching(pred)
            .filter(|e| matches!(e.kind, TraceEventKind::DeliveredLocal))
            .count()
    }

    /// Drops of matching packets, with reasons.
    pub fn drops<F>(&self, pred: F) -> Vec<(NodeId, DropReason)>
    where
        F: Fn(&PacketSummary) -> bool,
    {
        self.matching(pred)
            .filter_map(|e| match e.kind {
                TraceEventKind::Dropped(r) => Some((e.node, r)),
                _ => None,
            })
            .collect()
    }

    /// Total bytes put on wires by matching packets.
    pub fn bytes_on_wire<F>(&self, pred: F) -> usize
    where
        F: Fn(&PacketSummary) -> bool,
    {
        self.matching(pred)
            .filter(|e| matches!(e.kind, TraceEventKind::Sent | TraceEventKind::Forwarded))
            .map(|e| e.packet.wire_len)
            .sum()
    }

    /// One-way delivery latency of the first matching packet that arrived:
    /// time from the transmission that actually carried it to its local
    /// delivery.
    ///
    /// The delivery is paired with the `Sent` event whose header identity
    /// (src, dst, protocol, IP ident) matches — so when a first
    /// transmission is dropped and a retransmission (with a fresh ident)
    /// gets through, the measured latency is the successful attempt's
    /// one-way time, not the loss plus the retransmit timeout. When no
    /// identity match exists (e.g. the send was recorded pre-encapsulation
    /// under a different outer header), it falls back to the most recent
    /// matching `Sent` before the delivery, which still favours the
    /// retransmission over the lost original.
    pub fn first_delivery_latency<F>(&self, pred: F) -> Option<crate::time::SimDuration>
    where
        F: Fn(&PacketSummary) -> bool,
    {
        let mut last_sent: Option<SimTime> = None;
        let mut sent_at: HashMap<(Ipv4Addr, Ipv4Addr, IpProtocol, u16), SimTime> = HashMap::new();
        // Earliest transmission that carried each logical flow *inside a
        // tunnel*. When an agent decapsulates and re-originates the inner
        // packet (a `Sent` event at the agent), the delivery must still be
        // charged from the original sender, not from the agent's re-send.
        let mut tunnel_sent: HashMap<(Ipv4Addr, Ipv4Addr, IpProtocol), SimTime> = HashMap::new();
        for e in self.matching(pred) {
            match e.kind {
                TraceEventKind::Sent => {
                    last_sent = Some(e.at);
                    sent_at.entry(e.packet.flow_key()).or_insert(e.at);
                    if let Some(inner) = e.packet.inner {
                        tunnel_sent.entry(inner).or_insert(e.at);
                    }
                }
                TraceEventKind::DeliveredLocal => {
                    // A delivery may have two plausible origins: a Sent
                    // event with the same flow identity (possibly an
                    // agent's decapsulated re-send) and a Sent event that
                    // carried this flow inside a tunnel. Charge from the
                    // earliest — that is the transmission the sender made.
                    let logical = (e.packet.src, e.packet.dst, e.packet.protocol);
                    let paired = [
                        sent_at.get(&e.packet.flow_key()).copied(),
                        tunnel_sent.get(&logical).copied(),
                    ]
                    .into_iter()
                    .flatten()
                    .min()
                    .or(last_sent);
                    if let Some(s) = paired {
                        return Some(e.at.since(s));
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// The recorded events of a [`PacketTrace`], oldest first
/// ([`PacketTrace::events`]). Yields [`TraceEvent`]s by value: the trace
/// stores them apart (see the module header).
#[derive(Clone, Copy)]
pub struct TraceEvents<'a>(&'a PacketTrace);

impl<'a> TraceEvents<'a> {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.0.log.len()
    }

    /// Whether nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.0.log.is_empty()
    }

    /// The oldest event.
    pub fn front(&self) -> Option<TraceEvent> {
        self.iter().next()
    }

    /// The most recent event.
    pub fn back(&self) -> Option<TraceEvent> {
        self.iter().next_back()
    }

    /// The events in order, from either end.
    pub fn iter(&self) -> TraceEventsIter<'a> {
        TraceEventsIter {
            trace: self.0,
            records: self.0.log.iter(),
        }
    }
}

impl<'a> IntoIterator for TraceEvents<'a> {
    type Item = TraceEvent;
    type IntoIter = TraceEventsIter<'a>;
    fn into_iter(self) -> TraceEventsIter<'a> {
        self.iter()
    }
}

impl PartialEq for TraceEvents<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for TraceEvents<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator of [`TraceEvents::iter`].
#[derive(Clone)]
pub struct TraceEventsIter<'a> {
    trace: &'a PacketTrace,
    records: std::slice::Iter<'a, Record>,
}

impl Iterator for TraceEventsIter<'_> {
    type Item = TraceEvent;
    fn next(&mut self) -> Option<TraceEvent> {
        self.records.next().map(|r| self.trace.assemble(r))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl DoubleEndedIterator for TraceEventsIter<'_> {
    fn next_back(&mut self) -> Option<TraceEvent> {
        self.records.next_back().map(|r| self.trace.assemble(r))
    }
}

impl ExactSizeIterator for TraceEventsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::wire::encap::{encapsulate, EncapFormat};
    use bytes::Bytes;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn pkt(src: &str, dst: &str) -> Ipv4Packet {
        Ipv4Packet::new(ip(src), ip(dst), IpProtocol::Udp, Bytes::from_static(b"x"))
    }

    #[test]
    fn a_stored_event_is_24_bytes() {
        // What every hop of every packet costs the default-on trace; a
        // whole `TraceEvent` is four times that.
        assert!(std::mem::size_of::<Record>() <= 24);
        assert!(std::mem::size_of::<PacketMeta>() <= 56);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 96);
    }

    #[test]
    fn summary_sees_through_tunnels() {
        let inner = pkt("171.64.15.9", "18.26.0.1");
        let outer = encapsulate(
            EncapFormat::IpInIp,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &inner,
            0,
        )
        .unwrap();
        let s = PacketSummary::of(&outer);
        assert_eq!(s.src, ip("36.186.0.99"));
        assert_eq!(
            s.inner,
            Some((ip("171.64.15.9"), ip("18.26.0.1"), IpProtocol::Udp))
        );
        assert_eq!(s.logical_endpoints(), (ip("171.64.15.9"), ip("18.26.0.1")));
        let plain = PacketSummary::of(&inner);
        assert_eq!(plain.inner, None);
        assert_eq!(
            plain.logical_endpoints(),
            (ip("171.64.15.9"), ip("18.26.0.1"))
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = PacketTrace::new(false);
        t.record(
            SimTime::ZERO,
            NodeId(0),
            TraceEventKind::Sent,
            &pkt("1.1.1.1", "2.2.2.2"),
        );
        assert!(t.events().is_empty());
        t.set_enabled(true);
        t.record(
            SimTime::ZERO,
            NodeId(0),
            TraceEventKind::Sent,
            &pkt("1.1.1.1", "2.2.2.2"),
        );
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn hops_deliveries_drops_and_bytes() {
        let mut t = PacketTrace::new(true);
        let p = pkt("1.1.1.1", "2.2.2.2");
        let q = pkt("3.3.3.3", "4.4.4.4");
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &p);
        t.record(SimTime(10), NodeId(1), TraceEventKind::Forwarded, &p);
        t.record(SimTime(20), NodeId(2), TraceEventKind::DeliveredLocal, &p);
        t.record(
            SimTime(5),
            NodeId(1),
            TraceEventKind::Dropped(DropReason::SourceAddressFilter),
            &q,
        );
        let to2 = |s: &PacketSummary| s.dst == ip("2.2.2.2");
        assert_eq!(t.hops(to2), 2);
        assert_eq!(t.deliveries(to2), 1);
        assert_eq!(t.bytes_on_wire(to2), 2 * p.wire_len());
        assert_eq!(
            t.first_delivery_latency(to2),
            Some(SimDuration::from_micros(20))
        );
        let dropped = t.drops(|s| s.src == ip("3.3.3.3"));
        assert_eq!(dropped, vec![(NodeId(1), DropReason::SourceAddressFilter)]);
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn latency_pairs_delivery_with_the_transmission_that_carried_it() {
        // First copy (ident 1) sent at t=0 and lost; retransmission
        // (ident 2) sent at t=50_000, delivered at t=51_200. The one-way
        // latency is 1.2 ms — not 51.2 ms from the doomed first send.
        let mut t = PacketTrace::new(true);
        let mut first = pkt("1.1.1.1", "2.2.2.2");
        first.ident = 1;
        let mut retx = pkt("1.1.1.1", "2.2.2.2");
        retx.ident = 2;
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &first);
        t.record(
            SimTime(400),
            NodeId(1),
            TraceEventKind::Dropped(DropReason::LinkFault),
            &first,
        );
        t.record(SimTime(50_000), NodeId(0), TraceEventKind::Sent, &retx);
        t.record(
            SimTime(51_200),
            NodeId(2),
            TraceEventKind::DeliveredLocal,
            &retx,
        );
        let lat = t
            .first_delivery_latency(|s| s.dst == ip("2.2.2.2"))
            .unwrap();
        assert_eq!(lat, SimDuration::from_micros(1_200));
    }

    #[test]
    fn latency_pairs_by_ident_across_interleaved_packets() {
        // Pipelined sends: p1 (ident 1) at t=0, p2 (ident 2) at t=100.
        // p1 arrives at t=900 — after p2's send. Ident pairing still
        // charges p1's full 900 µs rather than 800 µs from p2's send.
        let mut t = PacketTrace::new(true);
        let mut p1 = pkt("1.1.1.1", "2.2.2.2");
        p1.ident = 1;
        let mut p2 = pkt("1.1.1.1", "2.2.2.2");
        p2.ident = 2;
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &p1);
        t.record(SimTime(100), NodeId(0), TraceEventKind::Sent, &p2);
        t.record(SimTime(900), NodeId(2), TraceEventKind::DeliveredLocal, &p1);
        let lat = t
            .first_delivery_latency(|s| s.dst == ip("2.2.2.2"))
            .unwrap();
        assert_eq!(lat, SimDuration::from_micros(900));
    }

    #[test]
    fn latency_charges_tunnel_deliveries_from_the_original_sender() {
        // Reverse tunnel: the mobile sends an encapsulated packet at t=0;
        // the home agent decapsulates and re-originates the inner packet
        // (a Sent event at the agent, t=600); the server receives it at
        // t=900. End-to-end latency is 900 µs, not the 300 µs final leg.
        let mut t = PacketTrace::new(true);
        let inner = pkt("171.64.15.9", "18.26.0.1");
        let outer = encapsulate(
            EncapFormat::IpInIp,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &inner,
            0,
        )
        .unwrap();
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &outer);
        t.record(SimTime(600), NodeId(1), TraceEventKind::Sent, &inner);
        t.record(
            SimTime(900),
            NodeId(2),
            TraceEventKind::DeliveredLocal,
            &inner,
        );
        let lat = t
            .first_delivery_latency(|s| s.logical_endpoints().1 == ip("18.26.0.1"))
            .unwrap();
        assert_eq!(lat, SimDuration::from_micros(900));
    }
}

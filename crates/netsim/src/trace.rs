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
//! * **per header shape, once** — every [`PacketSummary`] field but `ident`
//!   and `wire_len` (addresses, protocol, inner header, source-route final
//!   destination) is interned in one small table per trace. A world's
//!   packets come in a few dozen shapes, so a summary is stored as a
//!   12-byte *stamp*: shape, `wire_len` and `ident`;
//! * **per event, 16 bytes** — the time as an offset from the base of its
//!   run of records, node and event kind packed in one word, packet id,
//!   and which stamp the event was recorded with. A record whose time lies
//!   before its run's base, or 2³² µs or more after it, starts a new run;
//! * **per packet, 24 bytes** — flow, parent, latest stamp and the stamp
//!   the packet was first seen with, indexed by [`PacketId`], which also
//!   answers [`PacketTrace::parent_of`] / [`PacketTrace::flow_of`] /
//!   [`PacketTrace::first_wire_len`] — plus the packet's entry in the
//!   header-identity map;
//! * **per change of stamp, 12 bytes** — a packet's events share a stamp
//!   for as long as each is recorded with a summary equal to the last; an
//!   event that differs (another fragment's `wire_len`, a `dst` a
//!   source-route waypoint rewrote, an ident that wrapped onto an old id)
//!   appends the new stamp to a spill table. Nothing is assumed about which
//!   fields can vary, so what is read back is exactly what was recorded.
//!
//! The log, the packet table and the spill table are append-only chunks,
//! each allocated when the last one fills and never copied: a first chunk
//! of 1 024 entries, then chunks of 4 096, every one below glibc's 128 KiB
//! mmap threshold. All of it lives until [`PacketTrace::clear`], which
//! keeps the chunks for reuse.
//!
//! [`PacketTrace::events`] assembles each `TraceEvent` by value when it is
//! read: three indexed loads (packet, stamp, shape) and a 40-byte copy per
//! event, paid by the reader instead of by every hop of the run.
//!
//! [`PacketTrace::conversations`] reads the records in place, in one pass,
//! and rolls them up per direction of each logical conversation: what the
//! experiments' figures read. A record finds its conversation through its
//! shape, so a conversation key is hashed once per shape, not per record.

use crate::event::NodeId;
use crate::hash::FxHashMap;
use crate::time::{SimDuration, SimTime};
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

/// Every [`PacketSummary`] field but `ident` and `wire_len`: what the
/// packets of one conversation leg have in common, interned once per trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: IpProtocol,
    inner: Option<(Ipv4Addr, Ipv4Addr, IpProtocol)>,
    sr_final: Option<Ipv4Addr>,
}

impl Shape {
    fn of(s: &PacketSummary) -> Shape {
        Shape {
            src: s.src,
            dst: s.dst,
            protocol: s.protocol,
            inner: s.inner,
            sr_final: s.sr_final,
        }
    }

    /// The summary `stamp` (one of this shape's) stands for.
    fn summary(&self, stamp: Stamp) -> PacketSummary {
        PacketSummary {
            src: self.src,
            dst: self.dst,
            protocol: self.protocol,
            ident: stamp.ident,
            wire_len: stamp.wire_len as usize,
            inner: self.inner,
            sr_final: self.sr_final,
        }
    }
}

/// A [`PacketSummary`] as the trace stores it: its interned shape plus the
/// two fields that vary between a conversation's packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    /// Index into [`PacketTrace::shapes`].
    shape: u32,
    /// An IPv4 packet is at most 65 535 bytes; a longer summary saturates.
    wire_len: u32,
    ident: u16,
}

impl Stamp {
    /// `summary`, whose shape is `shape`, as the trace stores it.
    fn of(shape: u32, summary: &PacketSummary) -> Stamp {
        Stamp {
            shape,
            wire_len: u32::try_from(summary.wire_len).unwrap_or(u32::MAX),
            ident: summary.ident,
        }
    }
}

/// One interned [`Shape`] and the flow of its conversation.
#[derive(Debug)]
struct ShapeEntry {
    shape: Shape,
    /// The [`FlowId`], looked up the first time a packet of this shape
    /// asks for one; [`NO_FLOW`] until then.
    flow: u32,
}

/// Shapes a trace has room for before its tables grow.
const SHAPES: usize = 16;

/// [`ShapeEntry::flow`] before any packet of the shape asked for a flow.
const NO_FLOW: u32 = u32::MAX;

/// Per-packet bookkeeping: causal links, the overhead baseline, and
/// everything a [`TraceEvent`] says that is the same for all of a packet's
/// events.
#[derive(Debug)]
struct PacketMeta {
    flow: u32,
    /// The id this packet was derived from; [`NO_PARENT`] for none.
    parent: u32,
    /// Which stamp the packet's latest event was recorded with,
    /// in [`Record::summary`]'s encoding.
    last: u32,
    /// The packet as first observed (pre-transform for parents): the
    /// stamp its events share until one differs, and the wire length
    /// per-layer header-overhead deltas start from.
    first: Stamp,
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
    /// Microseconds after the base of the record's [`Run`].
    offset: u32,
    /// Node id above [`TraceEventKind::code`] in the low byte.
    node_kind: u32,
    /// The [`PacketId`], an index into `meta`.
    packet: u32,
    /// 0: the event saw `meta[packet].first`; `n`: it saw `spilled[n - 1]`.
    summary: u32,
}

/// Node ids a record can hold: the 24 bits above the kind's byte.
const NODE_LIMIT: usize = 1 << 24;

impl Record {
    fn node(&self) -> NodeId {
        NodeId((self.node_kind >> 8) as usize)
    }

    fn kind(&self) -> TraceEventKind {
        TraceEventKind::from_code(self.node_kind as u8)
    }
}

/// Consecutive records whose times are offsets from one base: the log's
/// first record starts one, and so does every record that lies before the
/// current base or 2³² µs or more after it.
#[derive(Debug)]
struct Run {
    /// Index of the run's first record in the log.
    start: usize,
    base: SimTime,
}

/// Entries per chunk of [`Chunks`] but the first. The largest entry, a
/// [`PacketMeta`], makes a 96 KiB chunk: below glibc's 128 KiB mmap
/// threshold, so a chunk is an ordinary heap block.
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 12;
/// Entries of the first chunk: a table of a thousand packets — a churned
/// 10⁵-host world's, where nearly every packet has a shape of its own —
/// holds a quarter of a full chunk.
const HEAD: usize = CHUNK / 4;

/// Append-only storage in chunks, each allocated when the last one fills
/// and never moved: a first chunk of [`HEAD`] entries, held in place so
/// that a small table costs one allocation, then chunks of [`CHUNK`].
/// [`Chunks::clear`] keeps the chunks for the entries that come after it.
#[derive(Debug)]
struct Chunks<T> {
    head: Vec<T>,
    /// Chunk `k + 1` is `tail[k]`.
    tail: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            head: Vec::new(),
            tail: Vec::new(),
            len: 0,
        }
    }
}

/// The chunk entry `i` is in, and its place there.
fn locate(i: usize) -> (usize, usize) {
    match i.checked_sub(HEAD) {
        None => (0, i),
        Some(j) => (1 + (j >> CHUNK_BITS), j & (CHUNK - 1)),
    }
}

impl<T> Chunks<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, v: T) {
        let chunk = match locate(self.len) {
            (0, _) => {
                if self.head.capacity() == 0 {
                    self.head = Vec::with_capacity(HEAD);
                }
                &mut self.head
            }
            (c, _) => {
                if c > self.tail.len() {
                    if self.tail.capacity() == 0 {
                        // Room to name 32 chunks (768 bytes) before the
                        // list grows: a `grid_stream` cell's log fills 28.
                        self.tail.reserve_exact(32);
                    }
                    self.tail.push(Vec::with_capacity(CHUNK));
                }
                &mut self.tail[c - 1]
            }
        };
        chunk.push(v);
        self.len += 1;
    }

    /// Every chunk before the one being filled is full and every one after
    /// it empty, so an index at or past `len` finds nothing.
    fn get(&self, i: usize) -> Option<&T> {
        match locate(i) {
            (0, k) => self.head.get(k),
            (c, k) => self.tail.get(c - 1)?.get(k),
        }
    }

    fn clear(&mut self) {
        self.head.clear();
        self.tail.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }
}

impl<T> std::ops::Index<usize> for Chunks<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        match locate(i) {
            (0, k) => &self.head[k],
            (c, k) => &self.tail[c - 1][k],
        }
    }
}

impl<T> std::ops::IndexMut<usize> for Chunks<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        match locate(i) {
            (0, k) => &mut self.head[k],
            (c, k) => &mut self.tail[c - 1][k],
        }
    }
}

/// The first [`TraceEventKind::code`] of a drop, and of a transform.
const DROPPED: u8 = 3;
const TRANSFORMED: u8 = DROPPED + DropReason::ALL.len() as u8;

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

    /// A dense code below 22 (three plain kinds, ten drop reasons, nine
    /// transforms): the byte a [`Record`] keeps.
    fn code(self) -> u8 {
        const FORMATS: u8 = crate::metrics::ENCAP_FORMATS.len() as u8;
        match self {
            TraceEventKind::Sent => 0,
            TraceEventKind::Forwarded => 1,
            TraceEventKind::DeliveredLocal => 2,
            TraceEventKind::Dropped(r) => DROPPED + r.index() as u8,
            TraceEventKind::Transformed(t) => {
                TRANSFORMED
                    + match t {
                        TransformKind::Encapsulated(f) => f as u8,
                        TransformKind::Decapsulated(f) => FORMATS + f as u8,
                        TransformKind::SourceRouteHop => 2 * FORMATS,
                        TransformKind::Relayed => 2 * FORMATS + 1,
                        TransformKind::Retransmission => 2 * FORMATS + 2,
                    }
            }
        }
    }

    /// Inverse of [`TraceEventKind::code`].
    fn from_code(code: u8) -> TraceEventKind {
        use crate::metrics::ENCAP_FORMATS as FORMATS;
        let n = FORMATS.len();
        match code {
            0 => TraceEventKind::Sent,
            1 => TraceEventKind::Forwarded,
            2 => TraceEventKind::DeliveredLocal,
            c if c < TRANSFORMED => {
                TraceEventKind::Dropped(DropReason::ALL[usize::from(c - DROPPED)])
            }
            c => TraceEventKind::Transformed(match usize::from(c - TRANSFORMED) {
                f if f < n => TransformKind::Encapsulated(FORMATS[f]),
                f if f < 2 * n => TransformKind::Decapsulated(FORMATS[f - n]),
                f if f == 2 * n => TransformKind::SourceRouteHop,
                f if f == 2 * n + 1 => TransformKind::Relayed,
                _ => TransformKind::Retransmission,
            }),
        }
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

/// One direction of a logical conversation: the logical source,
/// destination and protocol of [`PacketSummary::logical_endpoints`] and
/// [`PacketSummary::logical_protocol`].
pub type ConversationKey = (Ipv4Addr, Ipv4Addr, IpProtocol);

/// What a run of events adds up to. The one counting rule, shared by
/// [`PacketTrace::conversations`] and [`crate::lifecycle::FlowSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Times a packet was put on a wire (`Sent` and `Forwarded`): link
    /// traversals, the "distance travelled" of §3.2.
    pub wire_events: u64,
    /// Bytes those traversals put on wires.
    pub bytes_on_wire: u64,
    /// Local deliveries.
    pub deliveries: u64,
    /// Drops, indexed by [`DropReason::index`].
    pub drops: [u64; DropReason::ALL.len()],
}

impl EventCounts {
    /// Count one event of a packet `wire_len` bytes long.
    pub(crate) fn add(&mut self, kind: TraceEventKind, wire_len: usize) {
        if kind.is_wire() {
            self.wire_events += 1;
            self.bytes_on_wire += wire_len as u64;
        }
        match kind {
            TraceEventKind::DeliveredLocal => self.deliveries += 1,
            TraceEventKind::Dropped(r) => self.drops[r.index()] += 1,
            _ => {}
        }
    }
}

/// The events of one conversation's packets whose outer protocol is one
/// encapsulation format's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunnelCounts {
    /// Tunnel packets originated (`Sent`).
    pub sends: u64,
    /// Bytes of those sends.
    pub send_bytes: u64,
    /// Tunnelled wire legs (`Sent` and `Forwarded`).
    pub legs: u64,
}

/// One direction of one logical conversation, rolled up from the log by
/// [`PacketTrace::conversations`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Conversation {
    /// Wire events and bytes, deliveries, drops by reason.
    pub counts: EventCounts,
    /// One-way time of the first delivered packet, paired with the send
    /// that carried it; `None` when nothing was delivered.
    pub first_delivery_latency: Option<SimDuration>,
    /// Tunnel traffic per format, indexed by `EncapFormat as usize`
    /// ([`crate::metrics::ENCAP_FORMATS`] order).
    pub tunnels: [TunnelCounts; crate::metrics::ENCAP_FORMATS.len()],
}

/// Collects [`TraceEvent`]s. Owned by the [`crate::world::World`].
#[derive(Debug, Default)]
pub struct PacketTrace {
    log: Chunks<Record>,
    /// The base of the log's first run of record times.
    base: SimTime,
    /// The runs after the first, in log order.
    runs: Vec<Run>,
    /// Stamps that differed from the one their packet's previous event was
    /// recorded with, in recording order.
    spilled: Chunks<Stamp>,
    enabled: bool,
    /// Current id for each header identity seen in the world. A transform
    /// re-points the child's key at a fresh id, so the same wire identity
    /// observed after the transform belongs to the new causal node.
    ids: FxHashMap<PacketKey, u32>,
    /// Causal bookkeeping per id, indexed by it: ids are minted densely
    /// from `meta.len()`.
    meta: Chunks<PacketMeta>,
    /// Interned header shapes, indexed by [`Stamp::shape`].
    shapes: Vec<ShapeEntry>,
    shape_ids: FxHashMap<Shape, u32>,
    /// Flow registry, keyed by the direction-normalized
    /// [`ConversationKey`] so both directions share a flow; ids are minted
    /// densely from its length.
    flows: FxHashMap<ConversationKey, u32>,
    /// Last packet each logical endpoint contributed to each flow — the
    /// presumed parent of a retransmission, which arrives with a fresh
    /// ident and no explicit parent packet.
    last_in_flow: FxHashMap<(u32, Ipv4Addr), u32>,
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

    /// Record one observation (no-op while disabled).
    pub fn record(&mut self, at: SimTime, node: NodeId, kind: TraceEventKind, pkt: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        let _prof = crate::profile::scope("trace/record");
        let packet = PacketSummary::of(pkt);
        let packet_id = self.id_for(&packet);
        self.push(at, node, kind, packet_id, &packet);
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
        let shape = self.intern(&child_summary);
        let parent_id = match parent {
            Some(p) => self.id_for(&PacketSummary::of(p)),
            None => {
                let flow = self.flow_for(shape, &child_summary);
                let (src, _) = child_summary.logical_endpoints();
                self.last_in_flow
                    .get(&(flow, src))
                    .copied()
                    .unwrap_or(NO_PARENT)
            }
        };
        let flow = match parent_id {
            NO_PARENT => self.flow_for(shape, &child_summary),
            p => self.meta[p as usize].flow,
        };
        let packet_id = self.alloc_packet(&child_summary, shape, flow, parent_id);
        let kind = TraceEventKind::Transformed(kind);
        self.push(at, node, kind, packet_id, &child_summary);
    }

    /// The parent of `id` in the causal tree, if it was produced by a
    /// transform.
    pub fn parent_of(&self, id: PacketId) -> Option<PacketId> {
        self.meta_of(id).and_then(PacketMeta::parent)
    }

    /// The flow `id` belongs to.
    pub fn flow_of(&self, id: PacketId) -> Option<FlowId> {
        self.meta_of(id).map(|m| FlowId(u64::from(m.flow)))
    }

    /// Wire length of `id` when it was first observed — the pre-transform
    /// size for packets that later served as a transform's parent, which
    /// makes `child.wire_len - first_wire_len(parent)` the header bytes a
    /// layer added.
    pub fn first_wire_len(&self, id: PacketId) -> Option<usize> {
        self.meta_of(id).map(|m| m.first.wire_len as usize)
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
    fn id_for(&mut self, summary: &PacketSummary) -> u32 {
        if let Some(&id) = self.ids.get(&summary.flow_key()) {
            return id;
        }
        let shape = self.intern(summary);
        let flow = self.flow_for(shape, summary);
        self.alloc_packet(summary, shape, flow, NO_PARENT)
    }

    /// The index of `summary`'s shape, interned on first sight.
    fn intern(&mut self, summary: &PacketSummary) -> u32 {
        let shape = Shape::of(summary);
        if let Some(&ix) = self.shape_ids.get(&shape) {
            return ix;
        }
        if self.shapes.capacity() == 0 {
            // A world's packets come in a handful of shapes (6 to 11 in
            // each `grid_stream` cell): room for them all at once.
            self.shapes.reserve(SHAPES);
            self.shape_ids.reserve(SHAPES);
        }
        assert!(
            self.shapes.len() < u32::MAX as usize,
            "trace: a trace interns at most 2^32 - 1 header shapes between clears"
        );
        let ix = self.shapes.len() as u32;
        self.shapes.push(ShapeEntry {
            shape,
            flow: NO_FLOW,
        });
        self.shape_ids.insert(shape, ix);
        ix
    }

    /// The flow for the logical conversation of `summary`, whose shape is
    /// `shape`, allocated on first sight. Direction-normalized so requests
    /// and replies share it.
    fn flow_for(&mut self, shape: u32, summary: &PacketSummary) -> u32 {
        let entry = &mut self.shapes[shape as usize];
        if entry.flow == NO_FLOW {
            let (s, d) = summary.logical_endpoints();
            let proto = summary.logical_protocol();
            let key = if s <= d { (s, d, proto) } else { (d, s, proto) };
            // At most one flow per shape, and shapes are counted in `u32`.
            let fresh = self.flows.len() as u32;
            entry.flow = *self.flows.entry(key).or_insert(fresh);
        }
        entry.flow
    }

    /// Mint a fresh packet id for `summary`, repointing its header identity
    /// at the new id and remembering the causal link.
    fn alloc_packet(&mut self, summary: &PacketSummary, shape: u32, flow: u32, parent: u32) -> u32 {
        // The log names packets by `u32`; 2^32 of them would be 96 GiB of
        // `meta` alone.
        assert!(
            self.meta.len() < NO_PARENT as usize,
            "trace: a trace identifies at most 2^32 - 1 packets between clears"
        );
        let id = self.meta.len() as u32;
        self.ids.insert(summary.flow_key(), id);
        self.meta.push(PacketMeta {
            flow,
            parent,
            last: 0,
            first: Stamp::of(shape, summary),
        });
        let (src, _) = summary.logical_endpoints();
        self.last_in_flow.insert((flow, src), id);
        id
    }

    /// Whether `stamp` stands for `summary`.
    fn stands_for(&self, stamp: Stamp, summary: &PacketSummary) -> bool {
        stamp == Stamp::of(stamp.shape, summary)
            && self.shapes[stamp.shape as usize].shape == Shape::of(summary)
    }

    /// Append one event of packet `id`.
    fn push(
        &mut self,
        at: SimTime,
        node: NodeId,
        kind: TraceEventKind,
        id: u32,
        summary: &PacketSummary,
    ) {
        assert!(
            node.0 < NODE_LIMIT,
            "trace: node ids of 2^24 and above are not recorded"
        );
        let m = &self.meta[id as usize];
        let last = match m.last {
            0 => m.first,
            n => self.spilled[n as usize - 1],
        };
        if !self.stands_for(last, summary) {
            let shape = self.intern(summary);
            self.spilled.push(Stamp::of(shape, summary));
            self.meta[id as usize].last = u32::try_from(self.spilled.len())
                .expect("trace: at most 2^32 - 1 changed packet summaries between clears");
        }
        let base = self.base_for(at);
        self.log.push(Record {
            // `base_for` keeps the offset below 2^32.
            offset: (at.0 - base.0) as u32,
            // Both parts are checked: the node above, the kind by its type.
            node_kind: (node.0 as u32) << 8 | u32::from(kind.code()),
            packet: id,
            summary: self.meta[id as usize].last,
        });
    }

    /// The base a record at `at`, about to be appended, is an offset
    /// from: its run's, or `at` itself when it starts a new run.
    fn base_for(&mut self, at: SimTime) -> SimTime {
        let base = self.runs.last().map_or(self.base, |r| r.base);
        let fits = at >= base && at.0 - base.0 <= u64::from(u32::MAX);
        match self.log.len() {
            0 => self.base = at,
            _ if fits => return base,
            start => self.runs.push(Run { start, base: at }),
        }
        at
    }

    /// The stamp `r` was recorded with.
    fn stamp_of(&self, r: &Record) -> Stamp {
        match r.summary {
            0 => self.meta[r.packet as usize].first,
            n => self.spilled[n as usize - 1],
        }
    }

    /// The event `r`, recorded at `at`, stands for: what the record holds,
    /// what its packet's bookkeeping says of every event of that packet,
    /// and its summary.
    fn assemble(&self, at: SimTime, r: &Record) -> TraceEvent {
        let m = &self.meta[r.packet as usize];
        let stamp = self.stamp_of(r);
        TraceEvent {
            at,
            node: r.node(),
            kind: r.kind(),
            packet: self.shapes[stamp.shape as usize].shape.summary(stamp),
            packet_id: PacketId(u64::from(r.packet)),
            flow_id: FlowId(u64::from(m.flow)),
            parent_id: m.parent(),
        }
    }

    /// Forget everything recorded so far, packet and flow identities
    /// included. The storage chunks stay for what is recorded next.
    pub fn clear(&mut self) {
        self.log.clear();
        self.runs.clear();
        self.spilled.clear();
        self.ids.clear();
        self.meta.clear();
        self.shapes.clear();
        self.shape_ids.clear();
        self.flows.clear();
        self.last_in_flow.clear();
    }

    /// Every recorded event, in order: a view that assembles each
    /// [`TraceEvent`] from its 16-byte record, its packet's bookkeeping and
    /// the stamp and shape it was recorded with as it is read. `len` and
    /// `is_empty` read nothing; `front`, `back` and each step of `iter`
    /// cost three indexed loads and a 40-byte copy.
    pub fn events(&self) -> TraceEvents<'_> {
        TraceEvents(self)
    }

    /// The records in log order, each with its time.
    fn records(&self) -> Records<'_> {
        Records {
            trace: self,
            front: 0,
            back: self.log.len(),
            front_run: 0,
            back_run: self.runs.len(),
        }
    }

    /// What the events of each [`ConversationKey`] add up to, in one pass.
    ///
    /// A conversation's first delivery is paired with the `Sent` event whose
    /// header identity (src, dst, protocol, IP ident) matches — so when a
    /// first transmission is dropped and a retransmission (with a fresh
    /// ident) gets through, the measured latency is the successful
    /// attempt's one-way time, not the loss plus the retransmit timeout.
    /// When no identity match exists (e.g. the send was recorded
    /// pre-encapsulation under a different outer header), it falls back to
    /// the conversation's most recent `Sent` before the delivery, which
    /// still favours the retransmission over the lost original.
    pub fn conversations(&self) -> FxHashMap<ConversationKey, Conversation> {
        /// One conversation being rolled up, and the latest send of it.
        #[derive(Default)]
        struct Slot {
            c: Conversation,
            last_sent: Option<SimTime>,
        }
        // A record finds its conversation's slot through its shape, so a
        // key is hashed once per shape, not once per record.
        const UNSEEN: u32 = u32::MAX;
        let mut slot_of = vec![UNSEEN; self.shapes.len()];
        let mut slot_ids: FxHashMap<ConversationKey, u32> =
            FxHashMap::with_capacity_and_hasher(self.shapes.len(), Default::default());
        let mut slots: Vec<(ConversationKey, Slot)> = Vec::with_capacity(self.shapes.len());
        let mut sent_at: FxHashMap<(u32, PacketKey), SimTime> = FxHashMap::default();
        // Earliest transmission that carried each logical flow *inside a
        // tunnel*. When an agent decapsulates and re-originates the inner
        // packet (a `Sent` event at the agent), the delivery must still be
        // charged from the original sender, not from the agent's re-send.
        let mut tunnel_sent: FxHashMap<(u32, ConversationKey), SimTime> = FxHashMap::default();
        for (at, r) in self.records() {
            let stamp = self.stamp_of(r);
            let p = self.shapes[stamp.shape as usize].shape.summary(stamp);
            let kind = r.kind();
            let conv = &mut slot_of[stamp.shape as usize];
            if *conv == UNSEEN {
                let (src, dst) = p.logical_endpoints();
                let key = (src, dst, p.logical_protocol());
                let fresh = slots.len() as u32;
                *conv = *slot_ids.entry(key).or_insert(fresh);
                if *conv == fresh {
                    slots.push((key, Slot::default()));
                }
            }
            let conv = *conv;
            let slot = &mut slots[conv as usize].1;
            let c = &mut slot.c;
            c.counts.add(kind, p.wire_len);
            if let Some(format) = EncapFormat::from_protocol(p.protocol) {
                let t = &mut c.tunnels[format as usize];
                t.legs += u64::from(kind.is_wire());
                if kind == TraceEventKind::Sent {
                    t.sends += 1;
                    t.send_bytes += p.wire_len as u64;
                }
            }
            if c.first_delivery_latency.is_some() {
                // Only the first delivery is paired; the state below serves
                // nothing after it.
                continue;
            }
            match kind {
                TraceEventKind::Sent => {
                    slot.last_sent = Some(at);
                    sent_at.entry((conv, p.flow_key())).or_insert(at);
                    if let Some(inner) = p.inner {
                        tunnel_sent.entry((conv, inner)).or_insert(at);
                    }
                }
                TraceEventKind::DeliveredLocal => {
                    // A delivery may have two plausible origins: a Sent
                    // event with the same flow identity (possibly an
                    // agent's decapsulated re-send) and a Sent event that
                    // carried this flow inside a tunnel. Charge from the
                    // earliest — that is the transmission the sender made.
                    let logical = (p.src, p.dst, p.protocol);
                    let paired = [
                        sent_at.get(&(conv, p.flow_key())).copied(),
                        tunnel_sent.get(&(conv, logical)).copied(),
                    ]
                    .into_iter()
                    .flatten()
                    .min()
                    .or(slot.last_sent);
                    c.first_delivery_latency = paired.map(|s| at.since(s));
                }
                _ => {}
            }
        }
        slots.into_iter().map(|(key, slot)| (key, slot.c)).collect()
    }
}

/// The records of a [`PacketTrace`] with their times, from either end:
/// positions into the log plus the run each end is in.
#[derive(Clone)]
struct Records<'a> {
    trace: &'a PacketTrace,
    front: usize,
    back: usize,
    front_run: usize,
    back_run: usize,
}

impl Records<'_> {
    /// Where run `run` starts and its base: run 0 is the first run, run
    /// `k` is `runs[k - 1]`.
    fn run(&self, run: usize) -> (usize, SimTime) {
        match run {
            0 => (0, self.trace.base),
            k => {
                let r = &self.trace.runs[k - 1];
                (r.start, r.base)
            }
        }
    }

    /// The time of the record at `i`, which is in run `run`.
    fn at(&self, run: usize, i: usize) -> SimTime {
        SimTime(self.run(run).1 .0 + u64::from(self.trace.log[i].offset))
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (SimTime, &'a Record);
    fn next(&mut self) -> Option<Self::Item> {
        if self.front == self.back {
            return None;
        }
        let runs = &self.trace.runs;
        while runs
            .get(self.front_run)
            .is_some_and(|r| r.start <= self.front)
        {
            self.front_run += 1;
        }
        let i = self.front;
        self.front += 1;
        Some((self.at(self.front_run, i), &self.trace.log[i]))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.back - self.front, Some(self.back - self.front))
    }
}

impl DoubleEndedIterator for Records<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        while self.run(self.back_run).0 > self.back {
            self.back_run -= 1;
        }
        Some((
            self.at(self.back_run, self.back),
            &self.trace.log[self.back],
        ))
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
        self.len() == 0
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
        TraceEventsIter(self.0.records())
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
pub struct TraceEventsIter<'a>(Records<'a>);

impl Iterator for TraceEventsIter<'_> {
    type Item = TraceEvent;
    fn next(&mut self) -> Option<TraceEvent> {
        let (at, r) = self.0.next()?;
        Some(self.0.trace.assemble(at, r))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for TraceEventsIter<'_> {
    fn next_back(&mut self) -> Option<TraceEvent> {
        let (at, r) = self.0.next_back()?;
        Some(self.0.trace.assemble(at, r))
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
    fn a_stored_event_is_16_bytes_and_a_packet_24() {
        // What every hop of every packet, and every packet, costs the
        // default-on trace; a whole `TraceEvent` is six records.
        assert_eq!(std::mem::size_of::<Record>(), 16);
        assert_eq!(std::mem::size_of::<PacketMeta>(), 24);
        assert_eq!(std::mem::size_of::<Stamp>(), 12);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 96);
        // A chunk of the widest table stays an ordinary heap block.
        assert!(CHUNK * std::mem::size_of::<PacketMeta>() < 128 << 10);
    }

    #[test]
    fn every_event_kind_survives_its_code() {
        let formats = crate::metrics::ENCAP_FORMATS;
        let kinds = [
            TraceEventKind::Sent,
            TraceEventKind::Forwarded,
            TraceEventKind::DeliveredLocal,
        ]
        .into_iter()
        .chain(DropReason::ALL.map(TraceEventKind::Dropped))
        .chain(formats.map(|f| TraceEventKind::Transformed(TransformKind::Encapsulated(f))))
        .chain(formats.map(|f| TraceEventKind::Transformed(TransformKind::Decapsulated(f))))
        .chain(
            [
                TransformKind::SourceRouteHop,
                TransformKind::Relayed,
                TransformKind::Retransmission,
            ]
            .map(TraceEventKind::Transformed),
        );
        let kinds: Vec<_> = kinds.collect();
        assert_eq!(kinds.len(), 22);
        for (code, &kind) in kinds.iter().enumerate() {
            assert_eq!(usize::from(kind.code()), code, "{kind:?}");
            assert_eq!(TraceEventKind::from_code(kind.code()), kind);
        }
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
        let convs = t.conversations();
        let to2 = &convs[&(ip("1.1.1.1"), ip("2.2.2.2"), IpProtocol::Udp)];
        assert_eq!(to2.counts.wire_events, 2);
        assert_eq!(to2.counts.deliveries, 1);
        assert_eq!(to2.counts.bytes_on_wire, 2 * p.wire_len() as u64);
        assert_eq!(
            to2.first_delivery_latency,
            Some(SimDuration::from_micros(20))
        );
        let from3 = &convs[&(ip("3.3.3.3"), ip("4.4.4.4"), IpProtocol::Udp)];
        let dropped: Vec<_> = t
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Dropped(r) => Some((e.node, r)),
                _ => None,
            })
            .collect();
        assert_eq!(dropped, vec![(NodeId(1), DropReason::SourceAddressFilter)]);
        assert_eq!(
            from3.counts.drops[DropReason::SourceAddressFilter.index()],
            1
        );
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
        let lat = t.conversations()[&(ip("1.1.1.1"), ip("2.2.2.2"), IpProtocol::Udp)]
            .first_delivery_latency
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
        let lat = t.conversations()[&(ip("1.1.1.1"), ip("2.2.2.2"), IpProtocol::Udp)]
            .first_delivery_latency
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
        let key = (ip("171.64.15.9"), ip("18.26.0.1"), IpProtocol::Udp);
        let lat = t.conversations()[&key].first_delivery_latency.unwrap();
        assert_eq!(lat, SimDuration::from_micros(900));
    }
}

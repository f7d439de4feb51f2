//! Causal packet-lifecycle reconstruction.
//!
//! [`PacketTrace`] records a flat event log with causal identities; this
//! module folds that log into *spans*: one [`PacketLifecycle`] per packet
//! (send → hops → transform/drop/delivery, with per-hop latency), linked
//! into a tree by parent ids, plus one [`FlowSummary`] per conversation
//! aggregating deliveries, drops by reason, retransmissions and the header
//! bytes each encapsulation layer added.
//!
//! A [`Lifecycle`] is self-contained (it embeds the world's node names) and
//! round-trips through the run-report JSON: its [`Serialize`] impl (or the
//! capped [`Lifecycle::report`]) out, [`Lifecycle::from_value`] back in.
//! Two exporters read it:
//!
//! * [`Lifecycle::chrome_trace`] — Chrome trace-event JSON (load in
//!   `chrome://tracing` or Perfetto), one lane per node, spans over
//!   simulated time.
//! * [`Lifecycle::write_pcapng`] — a pcapng capture whose per-packet
//!   comments carry the packet/flow ids, event kinds and drop reasons.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Write};

use crate::event::NodeId;
use crate::time::SimDuration;
use crate::trace::{
    DropReason, FlowId, PacketId, PacketSummary, PacketTrace, TraceEvent, TraceEventKind,
    TransformKind,
};
use crate::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use crate::wire::pcap::PcapNgWriter;
use bytes::Bytes;
use serde::{JsonWriter, Serialize, Value};

/// How a packet's recorded life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Delivered to a local protocol at this node.
    Delivered(NodeId),
    /// Discarded at this node for this reason.
    Dropped(NodeId, DropReason),
    /// Turned into another packet (encapsulated, decapsulated, rewritten…);
    /// the story continues under the child's id.
    Became(PacketId),
    /// The trace ended with the packet still in flight: no drop or
    /// delivery was recorded for it and no transform made it another.
    InFlight,
}

impl Serialize for PacketOutcome {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| match self {
            PacketOutcome::Delivered(n) => {
                w.field("outcome", "delivered");
                w.field("node", &n.0);
            }
            PacketOutcome::Dropped(n, r) => {
                w.field("outcome", "dropped");
                w.field("node", &n.0);
                w.field("reason", r);
            }
            PacketOutcome::Became(c) => {
                w.field("outcome", "became");
                w.field("child", c);
            }
            PacketOutcome::InFlight => w.field("outcome", "in-flight"),
        });
    }
}

/// One link traversal in a packet's span: consecutive trace events at
/// different nodes, the first of which put the packet on a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The node that transmitted.
    pub from: NodeId,
    /// The node that next observed the packet.
    pub to: NodeId,
    /// Simulated time between the two observations.
    pub latency: SimDuration,
}

impl Serialize for Hop {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("from", &self.from.0);
            w.field("to", &self.to.0);
            w.field("us", &self.latency.as_micros());
        });
    }
}

/// The reconstructed span of one packet: everything the trace saw happen to
/// it, in order, with its causal links.
#[derive(Debug, Clone)]
pub struct PacketLifecycle {
    /// The packet's stable id.
    pub id: PacketId,
    /// The conversation it belongs to.
    pub flow: FlowId,
    /// The packet it was derived from, when a transform produced it.
    pub parent: Option<PacketId>,
    /// Every trace event of this packet, in time order.
    pub events: Vec<TraceEvent>,
    /// How the recorded life ended.
    pub outcome: PacketOutcome,
    /// Link traversals with per-hop latency.
    pub hops: Vec<Hop>,
    /// True when the span's beginning is missing — its first recorded event
    /// is not the send or transform that created it, because recording
    /// started (or the trace was cleared) while the packet was in flight.
    pub truncated: bool,
    /// Header bytes the encapsulation added, for packets created by an
    /// `Encapsulated` transform: this packet's wire length minus the
    /// parent's original wire length.
    pub encap_overhead: Option<u64>,
}

impl PacketLifecycle {
    /// When the span starts (first recorded event).
    pub fn start_us(&self) -> u64 {
        self.events.first().map(|e| e.at.0).unwrap_or(0)
    }

    /// The packet header as first observed.
    pub fn summary(&self) -> Option<&PacketSummary> {
        self.events.first().map(|e| &e.packet)
    }
}

serde::impl_serialize!(PacketLifecycle {
    id,
    flow,
    parent,
    truncated,
    encap_overhead,
    outcome,
    hops,
    events,
});

/// Aggregate view of one conversation.
#[derive(Debug, Clone)]
pub struct FlowSummary {
    /// The flow's stable id.
    pub flow: FlowId,
    /// Logical source as first observed (flow ids themselves are
    /// direction-insensitive; this records the first-seen direction).
    pub src: Ipv4Addr,
    /// Logical destination as first observed.
    pub dst: Ipv4Addr,
    /// The innermost protocol of the conversation.
    pub protocol: IpProtocol,
    /// Distinct packets (including every transform product).
    pub packets: u64,
    /// Link traversals across all the flow's packets.
    pub wire_events: u64,
    /// Total bytes those traversals put on wires.
    pub bytes_on_wire: u64,
    /// Local deliveries.
    pub deliveries: u64,
    /// Drops by reason, in stable [`DropReason::index`] order; reasons that
    /// never occurred are omitted.
    pub drops: Vec<(DropReason, u64)>,
    /// Packets that were transport retransmissions.
    pub retransmissions: u64,
    /// Total header bytes encapsulation layers added across the flow.
    pub encap_overhead_bytes: u64,
    /// First activity, µs of simulated time.
    pub first_us: u64,
    /// Last activity, µs of simulated time.
    pub last_us: u64,
}

impl Serialize for FlowSummary {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("flow", &self.flow);
            w.field("src", &self.src);
            w.field("dst", &self.dst);
            w.field("protocol", &self.protocol.number());
            w.field("packets", &self.packets);
            w.field("wire_events", &self.wire_events);
            w.field("bytes_on_wire", &self.bytes_on_wire);
            w.field("deliveries", &self.deliveries);
            w.key("drops");
            w.object(|w| self.drops.iter().for_each(|(r, n)| w.field(r.tag(), n)));
            w.field("retransmissions", &self.retransmissions);
            w.field("encap_overhead_bytes", &self.encap_overhead_bytes);
            w.field("first_us", &self.first_us);
            w.field("last_us", &self.last_us);
        });
    }
}

/// The reconstructed lifecycles of every packet a trace recorded, plus
/// per-flow rollups. Self-contained: carries the node names, so a lifecycle
/// loaded back from a run report can render without the world.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    /// Node names by [`NodeId`] index.
    pub node_names: Vec<String>,
    /// Per-packet spans, ordered by [`PacketId`].
    pub packets: Vec<PacketLifecycle>,
    /// Per-flow rollups, ordered by [`FlowId`].
    pub flows: Vec<FlowSummary>,
}

impl Lifecycle {
    /// Fold a trace's event log into per-packet spans and per-flow
    /// summaries. Works purely from the recorded events: a packet whose
    /// beginning was not recorded yields a truncated span, never a panic.
    pub fn reconstruct(trace: &PacketTrace, node_names: &[&str]) -> Lifecycle {
        let mut by_packet: BTreeMap<PacketId, Vec<TraceEvent>> = BTreeMap::new();
        let mut child_of: HashMap<PacketId, PacketId> = HashMap::new();
        for e in trace.events() {
            if matches!(e.kind, TraceEventKind::Transformed(_)) {
                if let Some(p) = e.parent_id {
                    child_of.insert(p, e.packet_id);
                }
            }
            by_packet.entry(e.packet_id).or_default().push(e);
        }

        let mut packets = Vec::with_capacity(by_packet.len());
        for (id, events) in by_packet {
            let first = &events[0];
            let parent = first.parent_id;
            let truncated = !matches!(
                first.kind,
                TraceEventKind::Sent | TraceEventKind::Transformed(_)
            );
            let mut outcome = PacketOutcome::InFlight;
            for e in events.iter().rev() {
                match e.kind {
                    TraceEventKind::Dropped(r) => {
                        outcome = PacketOutcome::Dropped(e.node, r);
                        break;
                    }
                    TraceEventKind::DeliveredLocal => {
                        outcome = PacketOutcome::Delivered(e.node);
                        break;
                    }
                    _ => {}
                }
            }
            if matches!(outcome, PacketOutcome::InFlight) {
                if let Some(&c) = child_of.get(&id) {
                    outcome = PacketOutcome::Became(c);
                }
            }
            let hops = events
                .windows(2)
                .filter(|w| w[0].kind.is_wire() && w[1].node != w[0].node)
                .map(|w| Hop {
                    from: w[0].node,
                    to: w[1].node,
                    latency: w[1].at.since(w[0].at),
                })
                .collect();
            let encap_overhead = match first.kind {
                TraceEventKind::Transformed(TransformKind::Encapsulated(_)) => parent
                    .and_then(|p| trace.first_wire_len(p))
                    .map(|plen| first.packet.wire_len.saturating_sub(plen) as u64),
                _ => None,
            };
            packets.push(PacketLifecycle {
                id,
                flow: first.flow_id,
                parent,
                outcome,
                hops,
                truncated,
                encap_overhead,
                events,
            });
        }

        let mut flows: BTreeMap<FlowId, FlowSummary> = BTreeMap::new();
        let mut drop_counts: BTreeMap<FlowId, [u64; DropReason::ALL.len()]> = BTreeMap::new();
        for p in &packets {
            let first = &p.events[0];
            let f = flows.entry(p.flow).or_insert_with(|| {
                let (s, d) = first.packet.logical_endpoints();
                FlowSummary {
                    flow: p.flow,
                    src: s,
                    dst: d,
                    protocol: first.packet.logical_protocol(),
                    packets: 0,
                    wire_events: 0,
                    bytes_on_wire: 0,
                    deliveries: 0,
                    drops: Vec::new(),
                    retransmissions: 0,
                    encap_overhead_bytes: 0,
                    first_us: first.at.0,
                    last_us: first.at.0,
                }
            });
            f.packets += 1;
            f.encap_overhead_bytes += p.encap_overhead.unwrap_or(0);
            if matches!(
                first.kind,
                TraceEventKind::Transformed(TransformKind::Retransmission)
            ) {
                f.retransmissions += 1;
            }
            for e in &p.events {
                f.first_us = f.first_us.min(e.at.0);
                f.last_us = f.last_us.max(e.at.0);
                if e.kind.is_wire() {
                    f.wire_events += 1;
                    f.bytes_on_wire += e.packet.wire_len as u64;
                }
                match e.kind {
                    TraceEventKind::DeliveredLocal => f.deliveries += 1,
                    TraceEventKind::Dropped(r) => {
                        drop_counts
                            .entry(p.flow)
                            .or_insert([0; DropReason::ALL.len()])[r.index()] += 1;
                    }
                    _ => {}
                }
            }
        }
        for (flow, counts) in drop_counts {
            if let Some(f) = flows.get_mut(&flow) {
                f.drops = DropReason::ALL
                    .into_iter()
                    .filter(|r| counts[r.index()] > 0)
                    .map(|r| (r, counts[r.index()]))
                    .collect();
            }
        }

        Lifecycle {
            node_names: node_names.iter().map(|s| (*s).to_string()).collect(),
            packets,
            flows: flows.into_values().collect(),
        }
    }

    /// The span for `id`, if recorded.
    pub fn packet(&self, id: PacketId) -> Option<&PacketLifecycle> {
        self.packets
            .binary_search_by_key(&id, |p| p.id)
            .ok()
            .map(|i| &self.packets[i])
    }

    /// The rollup for `flow`, if any of its packets were recorded.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowSummary> {
        self.flows
            .binary_search_by_key(&flow, |f| f.flow)
            .ok()
            .map(|i| &self.flows[i])
    }

    /// Spans that ended in a drop.
    pub fn dropped(&self) -> impl Iterator<Item = &PacketLifecycle> {
        self.packets
            .iter()
            .filter(|p| matches!(p.outcome, PacketOutcome::Dropped(..)))
    }

    /// The causal chain ending at `id`, root first. The chain follows
    /// parent links through the spans; an ancestor with no span (a parent
    /// the trace identified but recorded no event of, or one a capped
    /// report omitted) still appears as the chain's first element, but the
    /// walk cannot continue past it.
    pub fn chain(&self, id: PacketId) -> Vec<PacketId> {
        let mut rev = vec![id];
        let mut cur = id;
        while let Some(parent) = self.packet(cur).and_then(|p| p.parent) {
            if rev.contains(&parent) {
                break; // defensive: never loop on malformed input
            }
            rev.push(parent);
            cur = parent;
        }
        rev.reverse();
        rev
    }

    /// Display name for a node, falling back to `node<N>`.
    pub fn node_name(&self, n: NodeId) -> String {
        self.node_names
            .get(n.0)
            .cloned()
            .unwrap_or_else(|| format!("node{}", n.0))
    }

    /// Writes the document [`Lifecycle::from_value`] reads: every span
    /// when `keep` is `None`, else the spans in it plus a count of the rest.
    fn write_with(&self, keep: Option<&BTreeSet<PacketId>>, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("nodes", &self.node_names);
            let kept = |p: &&PacketLifecycle| keep.is_none_or(|k| k.contains(&p.id));
            if keep.is_some() {
                let omitted = self.packets.len() - self.packets.iter().filter(kept).count();
                w.field("packets_omitted", &omitted);
            }
            w.key("packets");
            w.seq(self.packets.iter().filter(kept));
            w.field("flows", &self.flows);
        });
    }

    /// A bounded rendition for run reports: every span participating in a
    /// drop chain is kept (those are what post-mortems need), the rest fill
    /// up to `cap` spans in id order, and `packets_omitted` counts the
    /// remainder. Flow rollups are always complete.
    pub fn report(&self, cap: usize) -> impl Serialize + '_ {
        let mut keep: BTreeSet<PacketId> = BTreeSet::new();
        for p in self.dropped().map(|p| p.id).collect::<Vec<_>>() {
            keep.extend(self.chain(p));
        }
        for p in &self.packets {
            if keep.len() >= cap {
                break;
            }
            keep.insert(p.id);
        }
        serde::from_fn(move |w| self.write_with(Some(&keep), w))
    }

    /// Rebuild a lifecycle from its parsed serialized form (the
    /// [`Serialize`] impl's or [`Lifecycle::report`]'s). Returns `None` on
    /// any shape mismatch rather than panicking.
    pub fn from_value(v: &Value) -> Option<Lifecycle> {
        Some(Lifecycle {
            node_names: parse_list(v, "nodes", |n| n.as_str().map(str::to_string))?,
            packets: parse_list(v, "packets", parse_packet)?,
            flows: parse_list(v, "flows", parse_flow)?,
        })
    }

    /// Export as Chrome trace-event JSON (the object form with a
    /// `traceEvents` array): load in `chrome://tracing` or Perfetto. Each
    /// node is a lane; link traversals become complete ("X") spans on the
    /// transmitting node's lane, and transforms, drops and deliveries
    /// become instant events, all over simulated time (µs).
    pub fn chrome_trace(&self) -> impl Serialize + '_ {
        let meta = |w: &mut JsonWriter, tid: usize, what: &str, name: &str| {
            w.object(|w| {
                w.field("ph", "M");
                w.field("pid", &0u64);
                w.field("tid", &tid);
                w.field("name", what);
                w.key("args");
                w.object(|w| w.field("name", name));
            });
        };
        serde::from_fn(move |w| {
            w.object(|w| {
                w.key("traceEvents");
                w.array(|w| {
                    meta(w, 0, "process_name", "netsim");
                    for (i, name) in self.node_names.iter().enumerate() {
                        meta(w, i, "thread_name", name);
                    }
                    for p in &self.packets {
                        self.write_chrome_packet(p, w);
                    }
                });
                w.field("displayTimeUnit", "ms");
            });
        })
    }

    /// One packet's [`Lifecycle::chrome_trace`] events: a span per hop,
    /// an instant per transform, drop and delivery.
    fn write_chrome_packet(&self, p: &PacketLifecycle, w: &mut JsonWriter) {
        let ids = |w: &mut JsonWriter| {
            w.key("packet");
            w.display(&p.id);
            w.key("flow");
            w.display(&p.flow);
            if let Some(parent) = p.parent {
                w.key("parent");
                w.display(&parent);
            }
        };
        for h in &p.hops {
            w.object(|w| {
                w.key("name");
                w.display(&format_args!("{} {}", p.id, p.flow));
                w.field("cat", "hop");
                w.field("ph", "X");
                w.field("ts", &hop_start(p, h).unwrap_or_else(|| p.start_us()));
                w.field("dur", &h.latency.as_micros());
                w.field("pid", &0u64);
                w.field("tid", &h.from.0);
                w.key("args");
                w.object(|w| {
                    ids(w);
                    w.field("to", &self.node_name(h.to));
                });
            });
        }
        for e in &p.events {
            let name = match e.kind {
                TraceEventKind::Transformed(t) => format!("{} {}", p.id, t),
                TraceEventKind::Dropped(r) => format!("{} dropped: {}", p.id, r.tag()),
                TraceEventKind::DeliveredLocal => format!("{} delivered", p.id),
                _ => continue,
            };
            w.object(|w| {
                w.field("name", &name);
                w.field("cat", e.kind.tag());
                w.field("ph", "i");
                w.field("s", "t");
                w.field("ts", &e.at.0);
                w.field("pid", &0u64);
                w.field("tid", &e.node.0);
                w.key("args");
                w.object(ids);
            });
        }
    }

    /// Export as a pcapng capture: one enhanced packet block per trace
    /// event, in time order, each carrying a comment with the packet and
    /// flow ids, the event, the node, and the drop reason when there is
    /// one. Packet bytes are re-synthesized from the recorded header
    /// summary (real IPv4 headers, zeroed payload), so any pcap tool can
    /// dissect them. Returns the number of packet blocks written.
    pub fn write_pcapng<W: Write>(&self, out: W) -> io::Result<u64> {
        let mut ordered: Vec<(&PacketLifecycle, &TraceEvent)> = self
            .packets
            .iter()
            .flat_map(|p| p.events.iter().map(move |e| (p, e)))
            .collect();
        ordered.sort_by_key(|(p, e)| (e.at, p.id));
        let mut w = PcapNgWriter::new(out)?;
        for (p, e) in ordered {
            let mut comment = format!(
                "{} {} {} @ {}",
                p.id,
                p.flow,
                e.kind.tag(),
                self.node_name(e.node)
            );
            if let Some(parent) = p.parent {
                comment.push_str(&format!(" parent={parent}"));
            }
            match e.kind {
                TraceEventKind::Dropped(r) => comment.push_str(&format!(" reason={}", r.tag())),
                TraceEventKind::Transformed(t) => comment.push_str(&format!(" via={t}")),
                _ => {}
            }
            w.write_packet(e.at.0, &synthesize(&e.packet), Some(&comment))?;
        }
        let n = w.packets_written();
        w.finish()?;
        Ok(n)
    }
}

impl Serialize for Lifecycle {
    fn serialize(&self, w: &mut JsonWriter) {
        self.write_with(None, w);
    }
}

/// Start time of a hop: the wire event at `h.from` immediately preceding
/// the observation at `h.to`.
fn hop_start(p: &PacketLifecycle, h: &Hop) -> Option<u64> {
    p.events
        .windows(2)
        .find(|w| {
            w[0].kind.is_wire()
                && w[0].node == h.from
                && w[1].node == h.to
                && w[1].at.since(w[0].at) == h.latency
        })
        .map(|w| w[0].at.0)
}

/// Rebuild wire bytes approximating the recorded packet: the real header
/// fields from the summary over a zeroed payload of the recorded length.
fn synthesize(s: &PacketSummary) -> Bytes {
    let payload_len = s.wire_len.saturating_sub(20);
    let mut p = Ipv4Packet::new(
        s.src,
        s.dst,
        s.protocol,
        Bytes::from(vec![0u8; payload_len]),
    );
    p.ident = s.ident;
    p.emit()
}

// ---- Value parsing (inverse of the Serialize impls) ----

/// Every element of the array `v.key`, each through `parse`.
fn parse_list<T>(v: &Value, key: &str, parse: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    v.get(key)?.as_array()?.iter().map(parse).collect()
}

fn as_addr(v: &Value) -> Option<Ipv4Addr> {
    v.as_str()?.parse().ok()
}

fn opt_u64(v: Option<&Value>) -> Option<Option<u64>> {
    match v {
        None | Some(Value::Null) => Some(None),
        Some(v) => Some(Some(v.as_u64()?)),
    }
}

fn parse_kind(v: &Value) -> Option<TraceEventKind> {
    Some(match v.get("event")?.as_str()? {
        "sent" => TraceEventKind::Sent,
        "forwarded" => TraceEventKind::Forwarded,
        "delivered" => TraceEventKind::DeliveredLocal,
        "dropped" => TraceEventKind::Dropped(DropReason::from_tag(v.get("reason")?.as_str()?)?),
        "transformed" => TraceEventKind::Transformed(TransformKind::from_tag(
            v.get("kind")?.as_str()?,
            v.get("format").and_then(Value::as_str),
        )?),
        _ => return None,
    })
}

fn parse_summary(v: &Value) -> Option<PacketSummary> {
    let inner = match v.get("inner") {
        None | Some(Value::Null) => None,
        Some(i) => Some((
            as_addr(i.get("src")?)?,
            as_addr(i.get("dst")?)?,
            IpProtocol::from_number(i.get("protocol")?.as_u64()? as u8),
        )),
    };
    let sr_final = match v.get("sr_final") {
        None | Some(Value::Null) => None,
        Some(a) => Some(as_addr(a)?),
    };
    Some(PacketSummary {
        src: as_addr(v.get("src")?)?,
        dst: as_addr(v.get("dst")?)?,
        protocol: IpProtocol::from_number(v.get("protocol")?.as_u64()? as u8),
        ident: v.get("ident")?.as_u64()? as u16,
        wire_len: v.get("wire_len")?.as_u64()? as usize,
        inner,
        sr_final,
    })
}

fn parse_event(v: &Value) -> Option<TraceEvent> {
    Some(TraceEvent {
        at: crate::time::SimTime(v.get("t_us")?.as_u64()?),
        node: NodeId(v.get("node")?.as_u64()? as usize),
        kind: parse_kind(v)?,
        packet: parse_summary(v.get("packet")?)?,
        packet_id: PacketId(v.get("packet_id")?.as_u64()?),
        flow_id: FlowId(v.get("flow_id")?.as_u64()?),
        parent_id: opt_u64(v.get("parent_id"))?.map(PacketId),
    })
}

fn parse_outcome(v: &Value) -> Option<PacketOutcome> {
    Some(match v.get("outcome")?.as_str()? {
        "delivered" => PacketOutcome::Delivered(NodeId(v.get("node")?.as_u64()? as usize)),
        "dropped" => PacketOutcome::Dropped(
            NodeId(v.get("node")?.as_u64()? as usize),
            DropReason::from_tag(v.get("reason")?.as_str()?)?,
        ),
        "became" => PacketOutcome::Became(PacketId(v.get("child")?.as_u64()?)),
        "in-flight" => PacketOutcome::InFlight,
        _ => return None,
    })
}

fn parse_hop(v: &Value) -> Option<Hop> {
    Some(Hop {
        from: NodeId(v.get("from")?.as_u64()? as usize),
        to: NodeId(v.get("to")?.as_u64()? as usize),
        latency: SimDuration::from_micros(v.get("us")?.as_u64()?),
    })
}

fn parse_packet(v: &Value) -> Option<PacketLifecycle> {
    Some(PacketLifecycle {
        id: PacketId(v.get("id")?.as_u64()?),
        flow: FlowId(v.get("flow")?.as_u64()?),
        parent: opt_u64(v.get("parent"))?.map(PacketId),
        truncated: v.get("truncated")?.as_bool()?,
        encap_overhead: opt_u64(v.get("encap_overhead"))?,
        outcome: parse_outcome(v.get("outcome")?)?,
        hops: parse_list(v, "hops", parse_hop)?,
        events: parse_list(v, "events", parse_event)?,
    })
}

fn parse_flow(v: &Value) -> Option<FlowSummary> {
    let drops = v
        .get("drops")?
        .as_object()?
        .iter()
        .map(|(k, n)| Some((DropReason::from_tag(k)?, n.as_u64()?)))
        .collect::<Option<Vec<_>>>()?;
    Some(FlowSummary {
        flow: FlowId(v.get("flow")?.as_u64()?),
        src: as_addr(v.get("src")?)?,
        dst: as_addr(v.get("dst")?)?,
        protocol: IpProtocol::from_number(v.get("protocol")?.as_u64()? as u8),
        packets: v.get("packets")?.as_u64()?,
        wire_events: v.get("wire_events")?.as_u64()?,
        bytes_on_wire: v.get("bytes_on_wire")?.as_u64()?,
        deliveries: v.get("deliveries")?.as_u64()?,
        drops,
        retransmissions: v.get("retransmissions")?.as_u64()?,
        encap_overhead_bytes: v.get("encap_overhead_bytes")?.as_u64()?,
        first_us: v.get("first_us")?.as_u64()?,
        last_us: v.get("last_us")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::wire::encap::{encapsulate, EncapFormat};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn pkt(src: &str, dst: &str) -> Ipv4Packet {
        Ipv4Packet::new(
            ip(src),
            ip(dst),
            IpProtocol::Udp,
            Bytes::from_static(b"payload"),
        )
    }

    fn names() -> Vec<&'static str> {
        vec!["mh", "r1", "server"]
    }

    /// `v` as a run-report reader sees it: rendered, then parsed.
    fn parsed(v: &impl Serialize) -> Value {
        serde_json::from_str(&serde_json::to_string(v).unwrap()).unwrap()
    }

    /// A three-node story: mh sends, r1 forwards, server delivers; a second
    /// packet is dropped at r1.
    fn sample_trace() -> PacketTrace {
        let mut t = PacketTrace::new(true);
        let p = pkt("1.1.1.1", "2.2.2.2");
        let mut q = pkt("1.1.1.1", "2.2.2.2");
        q.ident = 77;
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &p);
        t.record(SimTime(150), NodeId(1), TraceEventKind::Forwarded, &p);
        t.record(SimTime(400), NodeId(2), TraceEventKind::DeliveredLocal, &p);
        t.record(SimTime(500), NodeId(0), TraceEventKind::Sent, &q);
        t.record(
            SimTime(650),
            NodeId(1),
            TraceEventKind::Dropped(DropReason::SourceAddressFilter),
            &q,
        );
        t
    }

    #[test]
    fn reconstructs_spans_hops_and_outcomes() {
        let t = sample_trace();
        let lc = Lifecycle::reconstruct(&t, &names());
        assert_eq!(lc.packets.len(), 2);
        assert_eq!(lc.flows.len(), 1);

        let p0 = &lc.packets[0];
        assert_eq!(p0.outcome, PacketOutcome::Delivered(NodeId(2)));
        assert!(!p0.truncated);
        assert_eq!(
            p0.hops,
            vec![
                Hop {
                    from: NodeId(0),
                    to: NodeId(1),
                    latency: SimDuration::from_micros(150)
                },
                Hop {
                    from: NodeId(1),
                    to: NodeId(2),
                    latency: SimDuration::from_micros(250)
                },
            ]
        );

        let p1 = &lc.packets[1];
        assert_eq!(
            p1.outcome,
            PacketOutcome::Dropped(NodeId(1), DropReason::SourceAddressFilter)
        );

        let f = &lc.flows[0];
        assert_eq!((f.src, f.dst), (ip("1.1.1.1"), ip("2.2.2.2")));
        assert_eq!(f.packets, 2);
        assert_eq!(f.deliveries, 1);
        assert_eq!(f.drops, vec![(DropReason::SourceAddressFilter, 1)]);
        assert_eq!(f.wire_events, 3, "p's Sent+Forwarded and q's Sent");
        assert_eq!(f.first_us, 0);
        assert_eq!(f.last_us, 650);
    }

    #[test]
    fn transform_links_form_a_chain_with_overhead() {
        let mut t = PacketTrace::new(true);
        let inner = pkt("1.1.1.1", "2.2.2.2");
        let outer =
            encapsulate(EncapFormat::IpInIp, ip("9.9.9.9"), ip("8.8.8.8"), &inner, 5).unwrap();
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &inner);
        t.record_transform(
            SimTime(10),
            NodeId(1),
            TransformKind::Encapsulated(EncapFormat::IpInIp),
            Some(&inner),
            &outer,
        );
        t.record(SimTime(10), NodeId(1), TraceEventKind::Forwarded, &outer);
        t.record(
            SimTime(300),
            NodeId(2),
            TraceEventKind::DeliveredLocal,
            &outer,
        );

        let lc = Lifecycle::reconstruct(&t, &names());
        assert_eq!(lc.packets.len(), 2);
        let child = &lc.packets[1];
        assert_eq!(child.parent, Some(lc.packets[0].id));
        assert_eq!(child.encap_overhead, Some(20), "IP-in-IP adds one header");
        assert_eq!(
            lc.packets[0].outcome,
            PacketOutcome::Became(child.id),
            "parent's story continues under the child"
        );
        assert_eq!(lc.chain(child.id), vec![lc.packets[0].id, child.id]);
        // Same conversation throughout.
        assert_eq!(child.flow, lc.packets[0].flow);
    }

    #[test]
    fn a_trace_cleared_mid_flight_yields_truncated_spans_not_panics() {
        let mut t = PacketTrace::new(true);
        let p = pkt("1.1.1.1", "2.2.2.2");
        t.record(SimTime(0), NodeId(0), TraceEventKind::Sent, &p);
        t.record(SimTime(100), NodeId(1), TraceEventKind::Forwarded, &p);
        // The packet is on the wire when the trace forgets its send.
        t.clear();
        t.record(SimTime(150), NodeId(1), TraceEventKind::Forwarded, &p);
        t.record(SimTime(200), NodeId(2), TraceEventKind::DeliveredLocal, &p);

        let lc = Lifecycle::reconstruct(&t, &names());
        assert_eq!(lc.packets.len(), 1);
        let span = &lc.packets[0];
        assert!(span.truncated, "first recorded event is a Forwarded");
        assert_eq!(span.outcome, PacketOutcome::Delivered(NodeId(2)));
        assert_eq!(span.hops.len(), 1, "only the recorded hop is measurable");
        let back = Lifecycle::from_value(&parsed(&lc)).expect("parses");
        assert!(back.packets[0].truncated);
        assert_eq!(back.packets[0].outcome, span.outcome);
    }

    #[test]
    fn value_round_trip_preserves_everything() {
        let t = sample_trace();
        let lc = Lifecycle::reconstruct(&t, &names());
        let back = Lifecycle::from_value(&parsed(&lc)).expect("parses");
        assert_eq!(back.node_names, lc.node_names);
        assert_eq!(back.packets.len(), lc.packets.len());
        for (a, b) in lc.packets.iter().zip(&back.packets) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.hops, b.hops);
            assert_eq!(a.truncated, b.truncated);
            assert_eq!(a.events, b.events);
        }
        assert_eq!(back.flows.len(), lc.flows.len());
        assert_eq!(back.flows[0].drops, lc.flows[0].drops);
        assert_eq!(back.flows[0].bytes_on_wire, lc.flows[0].bytes_on_wire);
        // Reports of older schemas carry keys this one no longer writes.
        let mut old = parsed(&lc);
        if let Value::Object(fields) = &mut old {
            fields.insert(1, ("a_retired_counter".into(), Value::U64(0)));
        }
        let back = Lifecycle::from_value(&old).expect("extra keys are ignored");
        assert_eq!(back.packets.len(), lc.packets.len());
    }

    #[test]
    fn report_keeps_drop_chains_under_cap() {
        let mut t = PacketTrace::new(true);
        // Ten delivered packets...
        for i in 0..10u16 {
            let mut p = pkt("1.1.1.1", "2.2.2.2");
            p.ident = i;
            t.record(SimTime(u64::from(i)), NodeId(0), TraceEventKind::Sent, &p);
            t.record(
                SimTime(u64::from(i) + 100),
                NodeId(2),
                TraceEventKind::DeliveredLocal,
                &p,
            );
        }
        // ...and one dropped one, allocated last.
        let mut q = pkt("3.3.3.3", "4.4.4.4");
        q.ident = 99;
        t.record(SimTime(1000), NodeId(0), TraceEventKind::Sent, &q);
        t.record(
            SimTime(1100),
            NodeId(1),
            TraceEventKind::Dropped(DropReason::Firewall),
            &q,
        );
        let lc = Lifecycle::reconstruct(&t, &names());
        let v = parsed(&lc.report(3));
        let back = Lifecycle::from_value(&v).unwrap();
        assert!(
            back.packets
                .iter()
                .any(|p| matches!(p.outcome, PacketOutcome::Dropped(_, DropReason::Firewall))),
            "the dropped packet survives the cap"
        );
        assert!(back.packets.len() <= 4);
        let omitted = match v.get("packets_omitted") {
            Some(Value::U64(n)) => *n,
            other => panic!("packets_omitted missing: {other:?}"),
        };
        assert_eq!(omitted as usize + back.packets.len(), lc.packets.len());
        assert_eq!(back.flows.len(), lc.flows.len(), "flow rollups stay whole");
    }

    #[test]
    fn chrome_trace_has_a_lane_per_node_and_spans() {
        let t = sample_trace();
        let lc = Lifecycle::reconstruct(&t, &names());
        let v = parsed(&lc.chrome_trace());
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let lanes = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .count();
        assert_eq!(lanes, 3);
        let spans = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .count();
        assert_eq!(spans, 3, "two hops for the delivery, one for the drop");
        let drops = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("dropped"))
            .count();
        assert_eq!(drops, 1);
    }

    #[test]
    fn pcapng_export_writes_every_event() {
        let t = sample_trace();
        let lc = Lifecycle::reconstruct(&t, &names());
        let mut buf = Vec::new();
        let n = lc.write_pcapng(&mut buf).unwrap();
        assert_eq!(n, 5, "one packet block per trace event");
        // Section header magic at the very start…
        assert_eq!(&buf[0..4], &0x0A0D_0D0Au32.to_le_bytes());
        // …and the comments carry the causal ids.
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("reason=source-address-filter"));
        assert!(text.contains("p0 f0 sent @ mh"));
    }
}

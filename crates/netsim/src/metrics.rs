//! Simulator-wide metrics registry.
//!
//! Where [`crate::trace`] records *every packet event* for forensic queries,
//! this module keeps cheap running *aggregates*: per-node packet and byte
//! counters (sent / forwarded / delivered, drops broken down by
//! [`DropReason`], tunnel bytes broken down by [`EncapFormat`]), per-segment
//! link utilization and queueing, and transport-layer counters (TCP RTT
//! samples and retransmissions, UDP datagram counts) that the transport
//! crate feeds in through [`crate::world::NetCtx::metrics`].
//!
//! The registry is owned by the [`crate::world::World`] and is **disabled by
//! default**: every record method starts with one branch on `enabled` and
//! returns immediately, so a simulation that never calls
//! [`crate::world::World::enable_metrics`] pays only that branch per event.
//! Experiments enable it and read the aggregates at the end of a run —
//! that is what the bench crate's structured `RunReport` JSON is built from.

use serde::{JsonWriter, Serialize};

use crate::event::NodeId;
use crate::link::{FaultOutcome, SegmentId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, TraceEventKind};
use crate::wire::encap::EncapFormat;
use crate::wire::ipv4::Ipv4Packet;

/// All encapsulation formats, in stable index order: a format's index is
/// its position here.
pub const ENCAP_FORMATS: [EncapFormat; 3] =
    [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre];

/// Stable array index for an encapsulation format.
fn encap_index(f: EncapFormat) -> usize {
    match f {
        EncapFormat::IpInIp => 0,
        EncapFormat::Minimal => 1,
        EncapFormat::Gre => 2,
    }
}

/// The encapsulation format of a tunnel packet, judged by its outer
/// protocol number; `None` for plain (non-tunnel) packets.
fn encap_format_of(pkt: &Ipv4Packet) -> Option<EncapFormat> {
    ENCAP_FORMATS
        .into_iter()
        .find(|f| f.protocol() == pkt.protocol)
}

/// Apply one packet event to a node's counter block.
#[inline]
fn apply_packet(
    m: &mut NodeMetrics,
    kind: TraceEventKind,
    wire_len: u64,
    tunnel: Option<EncapFormat>,
) {
    match kind {
        TraceEventKind::Sent => {
            m.packets_sent += 1;
            m.bytes_sent += wire_len;
        }
        TraceEventKind::Forwarded => {
            m.packets_forwarded += 1;
            m.bytes_forwarded += wire_len;
        }
        TraceEventKind::DeliveredLocal => {
            m.packets_delivered += 1;
            m.bytes_delivered += wire_len;
        }
        TraceEventKind::Dropped(reason) => {
            m.drops[reason.index()] += 1;
        }
        // Not a wire event: the packet changed shape inside the node.
        TraceEventKind::Transformed(_) => {
            m.transforms += 1;
        }
    }
    if matches!(kind, TraceEventKind::Sent | TraceEventKind::Forwarded) {
        if let Some(f) = tunnel {
            m.encap_bytes[encap_index(f)] += wire_len;
        }
    }
}

/// Sub-buckets per octave: each power-of-two range splits into 16 linear
/// sub-buckets, bounding relative quantile error at 1/16 (6.25%).
const HDR_SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const HDR_SUBS: usize = 1 << HDR_SUB_BITS;
/// Values below this are recorded exactly (one bucket per value).
const HDR_PRECISE: u64 = HDR_SUBS as u64;
/// Octaves above the precise range: msb positions 4..=63.
const HDR_OCTAVES: usize = 64 - HDR_SUB_BITS as usize;
/// Total bucket count (976).
const HDR_BUCKETS: usize = HDR_SUBS + HDR_OCTAVES * HDR_SUBS;

/// An HDR-style histogram of `u64` samples (microseconds, in every current
/// use). Values below 16 get exact buckets; above that, each power-of-two
/// range splits into 16 linear sub-buckets keyed by the value's top 4 bits
/// below its msb, so quantiles carry at most 6.25% relative error across
/// the full `u64` range. The 976 buckets are one boxed array allocated by
/// the first `record` (or by merging in a non-empty histogram): a
/// histogram nobody records into is 40 bytes, and one that has recorded is
/// **constant memory regardless of sample count** — `record` is O(1) and,
/// after that first allocation, allocation-free (a regression test records
/// 10⁶ samples and counts exactly one).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `None` until the first sample; never `Some` of all zeros.
    counts: Option<Box<[u64; HDR_BUCKETS]>>,
    sum: u64,
    n: u64,
    min: u64,
    max: u64,
}

/// What an unallocated histogram's buckets read as.
static ZERO_BUCKETS: [u64; HDR_BUCKETS] = [0; HDR_BUCKETS];

impl Default for Histogram {
    fn default() -> Self {
        Histogram::EMPTY
    }
}

/// Field-for-field what `#[derive(Debug)]` printed when the buckets were an
/// inline array, so digests over `{:?}` output do not move.
impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("counts", self.buckets())
            .field("sum", &self.sum)
            .field("n", &self.n)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// Bucket index for value `v`.
fn hdr_bucket(v: u64) -> usize {
    if v < HDR_PRECISE {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - HDR_SUB_BITS as usize)) & (HDR_SUBS as u64 - 1)) as usize;
        (msb - (HDR_SUB_BITS as usize - 1)) * HDR_SUBS + sub
    }
}

/// Inclusive upper bound of bucket `ix` — what quantiles report.
fn hdr_bucket_hi(ix: usize) -> u64 {
    if ix < HDR_SUBS {
        ix as u64
    } else {
        let msb = ix / HDR_SUBS + (HDR_SUB_BITS as usize - 1);
        let sub = (ix % HDR_SUBS) as u64;
        let step = 1u64 << (msb - HDR_SUB_BITS as usize);
        (1u64 << msb) + (sub + 1) * step - 1
    }
}

impl Histogram {
    /// A histogram with no samples.
    pub const EMPTY: Histogram = Histogram {
        counts: None,
        sum: 0,
        n: 0,
        min: u64::MAX,
        max: 0,
    };

    fn buckets(&self) -> &[u64; HDR_BUCKETS] {
        self.counts.as_deref().unwrap_or(&ZERO_BUCKETS)
    }

    fn buckets_mut(&mut self) -> &mut [u64; HDR_BUCKETS] {
        self.counts
            .get_or_insert_with(|| Box::new([0; HDR_BUCKETS]))
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets_mut()[hdr_bucket(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }

    /// Fold another histogram into this one. Bucket layouts are
    /// identical by construction, so the merge is elementwise and the
    /// result is exactly the histogram that would have recorded both
    /// sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        if let Some(theirs) = other.counts.as_deref() {
            for (c, o) in self.buckets_mut().iter_mut().zip(theirs.iter()) {
                *c += o;
            }
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate percentile (`p` in 0..=100): the upper bound of the
    /// sub-bucket containing the `p`-th sample (≤ 6.25% high). `None`
    /// when empty.
    pub fn percentile(&self, p: u8) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = (self.n - 1) * u64::from(p.min(100)) / 100;
        let mut seen = 0u64;
        for (i, &c) in self.buckets().iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                // Upper bound of bucket i, clamped to the observed range.
                return Some(hdr_bucket_hi(i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }
}

impl Serialize for Histogram {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("count", &self.n);
            w.field("sum", &self.sum);
            w.field("mean", &self.mean());
            w.field("min", &self.min().unwrap_or(0));
            w.field("max", &self.max().unwrap_or(0));
            w.field("p50", &self.percentile(50).unwrap_or(0));
            w.field("p99", &self.percentile(99).unwrap_or(0));
        });
    }
}

/// TCP counters for one node (fed by the transport crate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcpMetrics {
    /// Data/control segments handed to IP, including retransmissions.
    pub segments_sent: u64,
    /// Of those, how many were retransmissions.
    pub retransmissions: u64,
    /// Segments received and accepted by a connection.
    pub segments_received: u64,
    /// Smoothed-RTT inputs: one sample per measured round trip, in µs.
    pub rtt_us: Histogram,
}

/// UDP counters for one node (fed by the transport crate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpMetrics {
    /// Datagrams sent.
    pub datagrams_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Datagrams delivered to a bound socket.
    pub datagrams_received: u64,
    /// Payload bytes delivered to a bound socket.
    pub bytes_received: u64,
}

/// Running counters for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMetrics {
    /// Packets originated here and handed to a link.
    pub packets_sent: u64,
    /// Packets transited (router forwarding or agent re-tunnelling).
    pub packets_forwarded: u64,
    /// Packets delivered to a local protocol here.
    pub packets_delivered: u64,
    /// Wire bytes of sent packets.
    pub bytes_sent: u64,
    /// Wire bytes of forwarded packets.
    pub bytes_forwarded: u64,
    /// Wire bytes of locally delivered packets.
    pub bytes_delivered: u64,
    /// Drops at this node, indexed by [`DropReason::index`].
    drops: [u64; DropReason::ALL.len()],
    /// Transform events at this node (encapsulations, decapsulations,
    /// source-route rewrites, relays, retransmission clones).
    pub transforms: u64,
    /// Wire bytes of sent/forwarded *tunnel* packets, by encap format
    /// (indexed per [`ENCAP_FORMATS`] order).
    encap_bytes: [u64; ENCAP_FORMATS.len()],
    /// TCP counters (zero unless the transport crate runs on this node).
    pub tcp: TcpMetrics,
    /// UDP counters (zero unless the transport crate runs on this node).
    pub udp: UdpMetrics,
}

const EMPTY_NODE: NodeMetrics = NodeMetrics {
    packets_sent: 0,
    packets_forwarded: 0,
    packets_delivered: 0,
    bytes_sent: 0,
    bytes_forwarded: 0,
    bytes_delivered: 0,
    drops: [0; DropReason::ALL.len()],
    transforms: 0,
    encap_bytes: [0; ENCAP_FORMATS.len()],
    tcp: TcpMetrics {
        segments_sent: 0,
        retransmissions: 0,
        segments_received: 0,
        rtt_us: Histogram::EMPTY,
    },
    udp: UdpMetrics {
        datagrams_sent: 0,
        bytes_sent: 0,
        datagrams_received: 0,
        bytes_received: 0,
    },
};

impl Default for NodeMetrics {
    fn default() -> Self {
        EMPTY_NODE
    }
}

impl NodeMetrics {
    /// Drops at this node for one reason.
    pub fn drop_count(&self, reason: DropReason) -> u64 {
        self.drops[reason.index()]
    }

    /// Total drops at this node, all reasons.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Every (reason, count) pair with a nonzero count.
    pub fn drops_by_reason(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL
            .into_iter()
            .map(|r| (r, self.drops[r.index()]))
            .filter(|&(_, n)| n > 0)
    }

    /// Sent/forwarded tunnel-packet wire bytes for one encap format.
    pub fn encap_bytes(&self, format: EncapFormat) -> u64 {
        self.encap_bytes[encap_index(format)]
    }

    /// Fold another node's counters into this one (all counters add;
    /// histograms merge elementwise).
    pub fn merge(&mut self, other: &NodeMetrics) {
        self.packets_sent += other.packets_sent;
        self.packets_forwarded += other.packets_forwarded;
        self.packets_delivered += other.packets_delivered;
        self.bytes_sent += other.bytes_sent;
        self.bytes_forwarded += other.bytes_forwarded;
        self.bytes_delivered += other.bytes_delivered;
        for (d, o) in self.drops.iter_mut().zip(other.drops.iter()) {
            *d += o;
        }
        self.transforms += other.transforms;
        for (e, o) in self.encap_bytes.iter_mut().zip(other.encap_bytes.iter()) {
            *e += o;
        }
        self.tcp.segments_sent += other.tcp.segments_sent;
        self.tcp.retransmissions += other.tcp.retransmissions;
        self.tcp.segments_received += other.tcp.segments_received;
        self.tcp.rtt_us.merge(&other.tcp.rtt_us);
        self.udp.datagrams_sent += other.udp.datagrams_sent;
        self.udp.bytes_sent += other.udp.bytes_sent;
        self.udp.datagrams_received += other.udp.datagrams_received;
        self.udp.bytes_received += other.udp.bytes_received;
    }
}

impl Serialize for NodeMetrics {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("packets_sent", &self.packets_sent);
            w.field("packets_forwarded", &self.packets_forwarded);
            w.field("packets_delivered", &self.packets_delivered);
            w.field("bytes_sent", &self.bytes_sent);
            w.field("bytes_forwarded", &self.bytes_forwarded);
            w.field("bytes_delivered", &self.bytes_delivered);
            w.key("drops");
            w.object(|w| {
                self.drops_by_reason()
                    .for_each(|(r, n)| w.field(r.tag(), &n))
            });
            w.field("transforms", &self.transforms);
            w.key("encap_bytes");
            w.object(|w| {
                for f in ENCAP_FORMATS {
                    let bytes = self.encap_bytes(f);
                    if bytes != 0 {
                        w.field(&format!("{f:?}"), &bytes);
                    }
                }
            });
            w.key("tcp");
            w.object(|w| {
                w.field("segments_sent", &self.tcp.segments_sent);
                w.field("retransmissions", &self.tcp.retransmissions);
                w.field("segments_received", &self.tcp.segments_received);
                w.field("rtt_us", &self.tcp.rtt_us);
            });
            w.key("udp");
            w.object(|w| {
                w.field("datagrams_sent", &self.udp.datagrams_sent);
                w.field("bytes_sent", &self.udp.bytes_sent);
                w.field("datagrams_received", &self.udp.datagrams_received);
                w.field("bytes_received", &self.udp.bytes_received);
            });
        });
    }
}

/// Running counters for one segment (link).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentMetrics {
    /// Frames that occupied the wire (including corrupted ones).
    pub frames: u64,
    /// Bytes that occupied the wire.
    pub bytes: u64,
    /// Frames that never made it onto the wire (fault drop or oversize).
    pub wire_drops: u64,
    /// Frames corrupted in flight and rejected by the receivers' FCS.
    pub crc_drops: u64,
    /// Cumulative time the medium spent serializing frames — divide by
    /// elapsed simulated time for utilization.
    pub busy: SimDuration,
    /// Sender-side queueing delay seen by each frame (µs): how long the
    /// medium was already committed when the frame was offered.
    pub queue_wait_us: Histogram,
}

impl SegmentMetrics {
    /// Fraction of `elapsed` the medium spent busy (0 when `elapsed` is 0).
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.as_micros() == 0 {
            0.0
        } else {
            self.busy.as_micros() as f64 / elapsed.as_micros() as f64
        }
    }
}

impl SegmentMetrics {
    /// The members of a snapshot's segment object: the counters plus the
    /// utilization they imply at `now`.
    fn write_fields(&self, now: SimTime, w: &mut JsonWriter) {
        w.field("frames", &self.frames);
        w.field("bytes", &self.bytes);
        w.field("wire_drops", &self.wire_drops);
        w.field("crc_drops", &self.crc_drops);
        w.field("busy_us", &self.busy.as_micros());
        w.field("queue_wait_us", &self.queue_wait_us);
        w.field("utilization", &self.utilization(now.since(SimTime::ZERO)));
    }
}

/// Extend a dense per-id vector to at least `len` zeroed records. Capacity
/// goes to the next power of two, so it depends only on the highest id ever
/// touched — not on which id came first, as amortised doubling from an
/// arbitrary starting point would — while growth stays O(1) amortised.
fn grow_dense<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.reserve_exact(len.next_power_of_two() - v.len());
        v.resize(len, T::default());
    }
}

/// The registry: one [`NodeMetrics`] per node that recorded and one
/// [`SegmentMetrics`] per segment id. Readers see every node id up to the
/// highest one touched, the untouched ones as zeros; what is stored is one
/// `u32` per id up to that one — a slot number, capacity the next power of
/// two above the highest id touched — and the records themselves in
/// first-touch order. A world of 10⁵ nodes of which 273 record holds 273
/// records, and neither the capacity nor the record count depends on the
/// order ids recorded in. A record holds only counters inline (a
/// [`NodeMetrics`] is ~260 bytes); its histogram's buckets exist only once
/// something was recorded into it. Segments are few and nearly all carry
/// frames, so theirs is a plain vector indexed by id.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    /// Per node id: 0 = never recorded, else 1 + its index in `nodes`.
    slots: Vec<u32>,
    /// The records, in first-touch order.
    nodes: Vec<NodeMetrics>,
    segments: Vec<SegmentMetrics>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            ..MetricsRegistry::default()
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (already-recorded counts are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Zero every counter.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.nodes.clear();
        self.segments.clear();
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeMetrics {
        grow_dense(&mut self.slots, id.0 + 1);
        let slot = &mut self.slots[id.0];
        if *slot == 0 {
            self.nodes.push(NodeMetrics::default());
            *slot = u32::try_from(self.nodes.len())
                .expect("metrics: at most 2^32 - 1 nodes record between clears");
        }
        &mut self.nodes[*slot as usize - 1]
    }

    fn segment_mut(&mut self, id: SegmentId) -> &mut SegmentMetrics {
        grow_dense(&mut self.segments, id.0 + 1);
        &mut self.segments[id.0]
    }

    /// Counters for one node (zeros if it never recorded anything).
    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        match self.slots.get(id.0) {
            Some(&slot) if slot != 0 => &self.nodes[slot as usize - 1],
            _ => &EMPTY_NODE,
        }
    }

    /// Counters for one segment (zeros if it never recorded anything).
    pub fn segment(&self, id: SegmentId) -> &SegmentMetrics {
        static EMPTY_SEGMENT: SegmentMetrics = SegmentMetrics {
            frames: 0,
            bytes: 0,
            wire_drops: 0,
            crc_drops: 0,
            busy: SimDuration::ZERO,
            queue_wait_us: Histogram::EMPTY,
        };
        self.segments.get(id.0).unwrap_or(&EMPTY_SEGMENT)
    }

    /// Every node id up to the highest one that has recorded an event, in
    /// id order — ids below it that never recorded are included and read
    /// as zeros (reports iterate this and rely on it).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len()).map(NodeId)
    }

    /// Drops across all nodes, summed by reason (nonzero reasons only).
    pub fn total_drops_by_reason(&self) -> Vec<(DropReason, u64)> {
        let mut totals = [0u64; DropReason::ALL.len()];
        for n in &self.nodes {
            for r in DropReason::ALL {
                totals[r.index()] += n.drop_count(r);
            }
        }
        DropReason::ALL
            .into_iter()
            .map(|r| (r, totals[r.index()]))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Aggregate of every node's counters, which is what the invariant
    /// monitor reconciles against.
    pub fn totals(&self) -> NodeMetrics {
        let mut t = NodeMetrics::default();
        for n in &self.nodes {
            t.merge(n);
        }
        t
    }

    // ---- recording (each entry point starts with the enabled check) -------

    /// Record one packet event at `node`. Called from
    /// [`crate::world::NetCtx::trace_packet`], the choke point every
    /// send / forward / delivery / drop already flows through.
    #[inline]
    pub fn record_packet(&mut self, node: NodeId, kind: TraceEventKind, pkt: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        let wire_len = pkt.wire_len() as u64;
        let tunnel = encap_format_of(pkt);
        apply_packet(self.node_mut(node), kind, wire_len, tunnel);
    }

    /// Record one frame offered to `seg`. Called from
    /// [`crate::world::NetCtx::transmit`]; `queue_wait` is how long the
    /// medium was already committed when the frame arrived, and
    /// `serialize` the time the frame will hold it.
    #[inline]
    pub fn record_transmit(
        &mut self,
        seg: SegmentId,
        wire_len: usize,
        queue_wait: SimDuration,
        serialize: SimDuration,
        outcome: FaultOutcome,
    ) {
        if !self.enabled {
            return;
        }
        let m = self.segment_mut(seg);
        match outcome {
            FaultOutcome::Drop => {
                m.wire_drops += 1;
                return;
            }
            FaultOutcome::Corrupt => m.crc_drops += 1,
            FaultOutcome::Deliver | FaultOutcome::Duplicate => {}
        }
        m.frames += 1;
        m.bytes += wire_len as u64;
        m.busy = m.busy + serialize;
        m.queue_wait_us.record(queue_wait.as_micros());
    }

    /// Record a TCP segment transmission at `node`.
    #[inline]
    pub fn record_tcp_segment_sent(&mut self, node: NodeId, retransmission: bool) {
        if !self.enabled {
            return;
        }
        let m = &mut self.node_mut(node).tcp;
        m.segments_sent += 1;
        if retransmission {
            m.retransmissions += 1;
        }
    }

    /// Record a TCP segment accepted by a connection at `node`.
    #[inline]
    pub fn record_tcp_segment_received(&mut self, node: NodeId) {
        if !self.enabled {
            return;
        }
        self.node_mut(node).tcp.segments_received += 1;
    }

    /// Record one measured TCP round-trip time at `node`.
    #[inline]
    pub fn record_tcp_rtt(&mut self, node: NodeId, rtt: SimDuration) {
        if !self.enabled {
            return;
        }
        self.node_mut(node).tcp.rtt_us.record(rtt.as_micros());
    }

    /// Record a UDP datagram sent from `node`.
    #[inline]
    pub fn record_udp_sent(&mut self, node: NodeId, payload_bytes: usize) {
        if !self.enabled {
            return;
        }
        let m = &mut self.node_mut(node).udp;
        m.datagrams_sent += 1;
        m.bytes_sent += payload_bytes as u64;
    }

    /// Record a UDP datagram delivered to a bound socket at `node`.
    #[inline]
    pub fn record_udp_received(&mut self, node: NodeId, payload_bytes: usize) {
        if !self.enabled {
            return;
        }
        let m = &mut self.node_mut(node).udp;
        m.datagrams_received += 1;
        m.bytes_received += payload_bytes as u64;
    }

    /// A serializable snapshot of every counter, labelling nodes with
    /// `names` (by `NodeId` index) where provided and taking `now` so
    /// segment utilization can be derived by consumers.
    pub fn snapshot<'a>(&'a self, names: &'a [&'a str], now: SimTime) -> impl Serialize + 'a {
        serde::from_fn(move |w| {
            w.object(|w| {
                w.field("sim_time_us", &now.as_micros());
                w.key("nodes");
                w.object(|w| {
                    for id in self.node_ids() {
                        w.field(&node_label(names, id.0), self.node(id));
                    }
                });
                w.key("segments");
                w.object(|w| {
                    for (i, m) in self.segments.iter().enumerate() {
                        w.key(&format!("segment{i}"));
                        w.object(|w| m.write_fields(now, w));
                    }
                });
                w.key("total_drops");
                w.object(|w| {
                    for (r, n) in self.total_drops_by_reason() {
                        w.field(&r.to_string(), &n);
                    }
                });
            });
        })
    }
}

/// A node's snapshot label: its name where `names` has one, else `node<i>`.
fn node_label<'a>(names: &[&'a str], i: usize) -> std::borrow::Cow<'a, str> {
    match names.get(i) {
        Some(name) => (*name).into(),
        None => format!("node{i}").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encap::encapsulate;
    use crate::wire::ipv4::IpProtocol;
    use bytes::Bytes;

    fn ip(s: &str) -> crate::wire::ipv4::Ipv4Addr {
        s.parse().unwrap()
    }

    fn pkt() -> Ipv4Packet {
        Ipv4Packet::new(
            ip("1.1.1.1"),
            ip("2.2.2.2"),
            IpProtocol::Udp,
            Bytes::from_static(b"hi"),
        )
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = MetricsRegistry::new(false);
        reg.record_packet(NodeId(3), TraceEventKind::Sent, &pkt());
        reg.record_udp_sent(NodeId(3), 100);
        assert_eq!(reg.node(NodeId(3)).packets_sent, 0);
        assert_eq!(reg.node(NodeId(3)).udp.datagrams_sent, 0);
        assert_eq!(reg.node_ids().count(), 0, "no allocation while disabled");
    }

    #[test]
    fn packet_counters_by_kind_and_reason() {
        let mut reg = MetricsRegistry::new(true);
        let p = pkt();
        reg.record_packet(NodeId(0), TraceEventKind::Sent, &p);
        reg.record_packet(NodeId(1), TraceEventKind::Forwarded, &p);
        reg.record_packet(NodeId(2), TraceEventKind::DeliveredLocal, &p);
        reg.record_packet(NodeId(1), TraceEventKind::Dropped(DropReason::NoRoute), &p);
        reg.record_packet(NodeId(1), TraceEventKind::Dropped(DropReason::NoRoute), &p);
        assert_eq!(reg.node(NodeId(0)).packets_sent, 1);
        assert_eq!(reg.node(NodeId(0)).bytes_sent, p.wire_len() as u64);
        assert_eq!(reg.node(NodeId(1)).packets_forwarded, 1);
        assert_eq!(reg.node(NodeId(2)).packets_delivered, 1);
        assert_eq!(reg.node(NodeId(1)).drop_count(DropReason::NoRoute), 2);
        assert_eq!(reg.node(NodeId(1)).total_drops(), 2);
        assert_eq!(reg.total_drops_by_reason(), vec![(DropReason::NoRoute, 2)]);
    }

    #[test]
    fn tunnel_bytes_split_by_format() {
        let mut reg = MetricsRegistry::new(true);
        let inner = pkt();
        for f in ENCAP_FORMATS {
            let outer = encapsulate(f, ip("9.9.9.9"), ip("8.8.8.8"), &inner, 0).unwrap();
            reg.record_packet(NodeId(0), TraceEventKind::Sent, &outer);
            assert_eq!(reg.node(NodeId(0)).encap_bytes(f), outer.wire_len() as u64);
        }
        // Plain packets count toward no format.
        reg.record_packet(NodeId(0), TraceEventKind::Sent, &inner);
        let total: u64 = ENCAP_FORMATS
            .iter()
            .map(|&f| reg.node(NodeId(0)).encap_bytes(f))
            .sum();
        assert!(total < reg.node(NodeId(0)).bytes_sent);
    }

    #[test]
    fn transmit_counters_follow_outcomes() {
        let mut reg = MetricsRegistry::new(true);
        let seg = SegmentId(0);
        let us = SimDuration::from_micros;
        reg.record_transmit(seg, 100, us(0), us(80), FaultOutcome::Deliver);
        reg.record_transmit(seg, 100, us(80), us(80), FaultOutcome::Corrupt);
        reg.record_transmit(seg, 100, us(0), us(80), FaultOutcome::Drop);
        let m = reg.segment(seg);
        assert_eq!(m.frames, 2, "dropped frame never occupied the wire");
        assert_eq!(m.bytes, 200);
        assert_eq!(m.crc_drops, 1);
        assert_eq!(m.wire_drops, 1);
        assert_eq!(m.busy, us(160));
        assert_eq!(m.queue_wait_us.count(), 2);
        assert_eq!(m.queue_wait_us.max(), Some(80));
        assert!((m.utilization(us(1600)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn transport_counters() {
        let mut reg = MetricsRegistry::new(true);
        reg.record_tcp_segment_sent(NodeId(0), false);
        reg.record_tcp_segment_sent(NodeId(0), true);
        reg.record_tcp_segment_received(NodeId(0));
        reg.record_tcp_rtt(NodeId(0), SimDuration::from_millis(30));
        reg.record_udp_sent(NodeId(1), 512);
        reg.record_udp_received(NodeId(2), 512);
        let t = &reg.node(NodeId(0)).tcp;
        assert_eq!(
            (t.segments_sent, t.retransmissions, t.segments_received),
            (2, 1, 1)
        );
        assert_eq!(t.rtt_us.count(), 1);
        assert_eq!(t.rtt_us.mean(), 30_000.0);
        assert_eq!(reg.node(NodeId(1)).udp.datagrams_sent, 1);
        assert_eq!(reg.node(NodeId(2)).udp.bytes_received, 512);
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50), None);
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.percentile(50).unwrap();
        assert!(p50 <= 100, "p50 was {p50}");
        assert!(h.percentile(100).unwrap() >= 512);
        // Degenerate distribution: every percentile is the single value.
        let mut one = Histogram::default();
        one.record(42);
        assert_eq!(one.percentile(0), Some(42));
        assert_eq!(one.percentile(100), Some(42));
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let mut reg = MetricsRegistry::new(true);
        reg.record_packet(NodeId(0), TraceEventKind::Sent, &pkt());
        reg.record_transmit(
            SegmentId(0),
            64,
            SimDuration::ZERO,
            SimDuration::from_micros(51),
            FaultOutcome::Deliver,
        );
        let v = reg.snapshot(&["alice"], SimTime(1_000));
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("\"alice\""));
        assert!(json.contains("\"packets_sent\":1"));
        assert!(json.contains("\"segment0\""));
        assert!(json.contains("\"utilization\""));
        assert!(json.contains("\"sim_time_us\":1000"));
    }

    #[test]
    fn clear_resets_everything() {
        let mut reg = MetricsRegistry::new(true);
        reg.record_packet(NodeId(0), TraceEventKind::Sent, &pkt());
        reg.clear();
        assert_eq!(reg.node(NodeId(0)).packets_sent, 0);
        assert!(reg.enabled(), "clear keeps the enabled flag");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [1u64, 7, 300, 90_000] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 12, 4_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both, "merge equals recording the union stream");
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
    }

    #[test]
    fn empty_histograms_stay_unallocated_and_equal() {
        let mut h = Histogram::default();
        h.merge(&Histogram::EMPTY);
        assert_eq!(h, Histogram::EMPTY);
        assert!(h.counts.is_none(), "merging nothing allocates nothing");
        assert_eq!(h.percentile(99), None);
        // Merging into an empty one adopts the samples exactly.
        let mut one = Histogram::default();
        one.record(42);
        h.merge(&one);
        assert_eq!(h, one);
        // What an untouched-by-TCP node costs the dense registry.
        assert!(std::mem::size_of::<NodeMetrics>() <= 320);
    }

    #[test]
    fn histogram_debug_matches_the_inline_array_derive() {
        // Run digests hash `format!("{totals:?}")`: the lazily allocated
        // buckets must print exactly as the derived impl printed the
        // inline array they replaced.
        mod inline {
            #[derive(Debug)]
            #[allow(dead_code)]
            pub struct Histogram {
                pub counts: [u64; super::HDR_BUCKETS],
                pub sum: u64,
                pub n: u64,
                pub min: u64,
                pub max: u64,
            }
        }
        let mut recorded = Histogram::default();
        for v in [0u64, 3, 17, 90_000, u64::MAX] {
            recorded.record(v);
        }
        for h in [Histogram::EMPTY, recorded] {
            let reference = inline::Histogram {
                counts: *h.buckets(),
                sum: h.sum,
                n: h.n,
                min: h.min,
                max: h.max,
            };
            assert_eq!(format!("{h:?}"), format!("{reference:?}"));
            assert_eq!(format!("{h:#?}"), format!("{reference:#?}"));
        }
    }

    /// Three ids: node 2 records first, then node 0; node 1 never does.
    fn gapped() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new(true);
        let p = pkt();
        reg.record_packet(NodeId(2), TraceEventKind::Sent, &p);
        reg.record_packet(NodeId(0), TraceEventKind::Dropped(DropReason::NoRoute), &p);
        reg
    }

    #[test]
    fn untouched_ids_below_the_highest_read_as_zeros() {
        let reg = gapped();
        assert_eq!(reg.node_ids().count(), 3, "the highest id + 1");
        assert_eq!(reg.node(NodeId(0)).total_drops(), 1);
        assert_eq!(reg.node(NodeId(1)), &EMPTY_NODE);
        assert_eq!(reg.node(NodeId(2)).packets_sent, 1);
        assert_eq!(reg.node(NodeId(3)), &EMPTY_NODE, "past the highest too");
        assert_eq!(reg.nodes.len(), 2, "one record per node that recorded");
    }

    #[test]
    fn totals_ignore_touch_order() {
        let record = |order: &[usize]| {
            let mut reg = MetricsRegistry::new(true);
            let p = pkt();
            for &i in order {
                reg.record_packet(NodeId(i), TraceEventKind::Sent, &p);
                reg.record_tcp_rtt(NodeId(i), SimDuration::from_micros(10 * i as u64));
                if i % 2 == 0 {
                    reg.record_packet(NodeId(i), TraceEventKind::Dropped(DropReason::NoRoute), &p);
                }
            }
            let json = serde_json::to_string(&reg.snapshot(&[], SimTime(9))).unwrap();
            (reg.totals(), reg.total_drops_by_reason(), json)
        };
        let ascending = record(&[1, 4, 6, 40]);
        assert_eq!(ascending.0.packets_sent, 4);
        assert_eq!(ascending.1, vec![(DropReason::NoRoute, 3)]);
        assert_eq!(ascending, record(&[40, 6, 4, 1]));
        assert_eq!(ascending, record(&[6, 40, 1, 4]));
    }

    #[test]
    fn snapshot_with_a_gap_keeps_its_bytes() {
        // Printed by the registry that stored a record per id (2abe784).
        const QUIET: &str = r#""transforms":0,"encap_bytes":{},"tcp":{"segments_sent":0,"retransmissions":0,"segments_received":0,"rtt_us":{"count":0,"sum":0,"mean":0,"min":0,"max":0,"p50":0,"p99":0}},"udp":{"datagrams_sent":0,"bytes_sent":0,"datagrams_received":0,"bytes_received":0}}"#;
        let pinned = [
            r#"{"sim_time_us":7,"nodes":{"#,
            r#""a":{"packets_sent":0,"packets_forwarded":0,"packets_delivered":0,"bytes_sent":0,"bytes_forwarded":0,"bytes_delivered":0,"drops":{"no-route":1},"#,
            QUIET,
            r#","node1":{"packets_sent":0,"packets_forwarded":0,"packets_delivered":0,"bytes_sent":0,"bytes_forwarded":0,"bytes_delivered":0,"drops":{},"#,
            QUIET,
            r#","node2":{"packets_sent":1,"packets_forwarded":0,"packets_delivered":0,"bytes_sent":22,"bytes_forwarded":0,"bytes_delivered":0,"drops":{},"#,
            QUIET,
            r#"},"segments":{},"total_drops":{"no route":1}}"#,
        ]
        .concat();
        let json = serde_json::to_string(&gapped().snapshot(&["a"], SimTime(7))).unwrap();
        assert_eq!(json, pinned);
    }
}

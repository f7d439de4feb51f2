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

/// All encapsulation formats, in stable index order (see
/// [`encap_index`]).
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

/// Apply one packet event to a counter block — shared by the dense
/// per-node path and the sketched global-totals path so both count
/// identically (the exact/sketched agreement tests depend on this).
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

    /// Fold another segment's counters into this one.
    pub fn merge(&mut self, other: &SegmentMetrics) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.wire_drops += other.wire_drops;
        self.crc_drops += other.crc_drops;
        self.busy = self.busy + other.busy;
        self.queue_wait_us.merge(&other.queue_wait_us);
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

/// Parameters for the registry's sketched (collapsed) mode — see
/// [`MetricsRegistry::arm_sketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// Distinct-node count above which dense per-node storage collapses.
    pub node_threshold: usize,
    /// Slots in each heavy-hitter sketch.
    pub topk: usize,
    /// RTT exemplar reservoir capacity.
    pub reservoir: usize,
    /// Seed for the exemplar reservoir.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> SketchConfig {
        let t = crate::telemetry::TelemetryConfig::default();
        SketchConfig {
            node_threshold: t.sketch_node_threshold,
            topk: t.topk,
            reservoir: t.reservoir,
            seed: t.seed,
        }
    }
}

/// Collapsed storage: global totals plus fixed-size sketches. Memory is
/// O(topk + reservoir) regardless of node, segment or flow count.
#[derive(Debug)]
pub struct SketchedMetrics {
    /// The parameters this collapse was armed with.
    pub cfg: SketchConfig,
    /// Aggregate of every node's counters (what dense mode would sum to).
    pub totals: NodeMetrics,
    /// Aggregate of every segment's counters.
    pub seg_totals: SegmentMetrics,
    /// Heavy-hitter nodes, weighted by packet events (sent + forwarded +
    /// delivered + dropped + transformed).
    pub node_hitters: crate::telemetry::SpaceSaving<NodeId>,
    /// Heavy-hitter flows by normalized outer header (wire events only),
    /// see [`crate::telemetry::flow_label`].
    pub flow_hitters: crate::telemetry::SpaceSaving<crate::telemetry::FlowLabel>,
    /// Seeded uniform sample of measured TCP RTTs (µs) — exact exemplars
    /// that survive even though per-node histograms are gone.
    pub rtt_exemplars: crate::telemetry::Reservoir<u64>,
}

impl SketchedMetrics {
    fn new(cfg: SketchConfig) -> SketchedMetrics {
        SketchedMetrics {
            cfg,
            totals: NodeMetrics::default(),
            seg_totals: SegmentMetrics::default(),
            node_hitters: crate::telemetry::SpaceSaving::new(cfg.topk),
            flow_hitters: crate::telemetry::SpaceSaving::new(cfg.topk),
            rtt_exemplars: crate::telemetry::Reservoir::new(cfg.reservoir, cfg.seed),
        }
    }

    /// Fold dense per-id records in: totals add exactly, and every node
    /// that recorded anything is offered to the heavy-hitter sketch.
    fn absorb_dense(&mut self, nodes: &[NodeMetrics], segments: &[SegmentMetrics]) {
        for (i, n) in nodes.iter().enumerate() {
            self.totals.merge(n);
            let events = n.packets_sent
                + n.packets_forwarded
                + n.packets_delivered
                + n.total_drops()
                + n.transforms;
            if events > 0 {
                self.node_hitters.offer(NodeId(i), events);
            }
        }
        for s in segments {
            self.seg_totals.merge(s);
        }
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

/// The registry: one [`NodeMetrics`] per node and one [`SegmentMetrics`]
/// per segment, in dense vectors indexed by id and lazily grown as ids are
/// first seen: touching id `n` creates zeroed records for every id up to
/// `n`, and capacity is the next power of two above the highest id touched
/// — a function of which ids recorded, never of the order they did. A
/// record holds only counters inline (a [`NodeMetrics`] is ~260 bytes); its
/// histogram's buckets exist only once something was recorded into it.
///
/// **Sketched mode.** Dense per-node/per-segment vectors are exact but
/// O(nodes) — unaffordable at the 10⁵⁺-node scale on the ROADMAP. When a
/// [`SketchConfig`] is armed (see [`MetricsRegistry::arm_sketch`]) and
/// the distinct-node count crosses its threshold, the registry collapses:
/// dense vectors fold into global totals plus Space-Saving top-k sketches
/// (per node and per flow) and a seeded RTT exemplar reservoir, and all
/// further recording goes to those fixed-size structures. Aggregate
/// totals are preserved exactly across the collapse; only per-node
/// attribution degrades (to top-k with explicit error bounds). Below the
/// threshold nothing changes — exact and sketched-armed registries agree
/// bit-for-bit, which the tests assert.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    nodes: Vec<NodeMetrics>,
    segments: Vec<SegmentMetrics>,
    sketch: Option<SketchConfig>,
    sketched: Option<Box<SketchedMetrics>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            nodes: Vec::new(),
            segments: Vec::new(),
            sketch: None,
            sketched: None,
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

    /// Zero every counter (sketches reset too; the armed config is kept).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.segments.clear();
        self.sketched = None;
    }

    /// Arm sketched mode: once more than `cfg.node_threshold` distinct
    /// nodes have recorded, the registry collapses (see type docs). If
    /// the threshold is already exceeded the collapse happens now.
    pub fn arm_sketch(&mut self, cfg: SketchConfig) {
        self.sketch = Some(cfg);
        if self.nodes.len() > cfg.node_threshold {
            self.collapse_now();
        }
    }

    /// Is the registry currently collapsed?
    pub fn is_sketched(&self) -> bool {
        self.sketched.is_some()
    }

    /// The collapsed storage, when in sketched mode.
    pub fn sketched(&self) -> Option<&SketchedMetrics> {
        self.sketched.as_deref()
    }

    /// Collapse dense storage into sketches immediately (normally driven
    /// by the armed threshold; public for tests).
    pub fn collapse_now(&mut self) {
        if self.sketched.is_some() {
            return;
        }
        let cfg = self.sketch.unwrap_or_default();
        let mut sk = Box::new(SketchedMetrics::new(cfg));
        sk.absorb_dense(&self.nodes, &self.segments);
        // Per-flow history and raw RTT exemplars cannot be reconstructed
        // from dense counters; their sketches fill from here on.
        self.nodes = Vec::new();
        self.segments = Vec::new();
        self.sketched = Some(sk);
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeMetrics {
        grow_dense(&mut self.nodes, id.0 + 1);
        &mut self.nodes[id.0]
    }

    fn segment_mut(&mut self, id: SegmentId) -> &mut SegmentMetrics {
        grow_dense(&mut self.segments, id.0 + 1);
        &mut self.segments[id.0]
    }

    /// Counters for one node (zeros if it never recorded anything).
    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        self.nodes.get(id.0).unwrap_or(&EMPTY_NODE)
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
    /// as zeros (reports iterate this and rely on it). Empty once sketched.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Every segment id up to the highest one that has recorded an event,
    /// in id order; untouched ids below it read as zeros. Empty once
    /// sketched.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        (0..self.segments.len()).map(SegmentId)
    }

    /// Drops across all nodes, summed by reason (nonzero reasons only).
    pub fn total_drops_by_reason(&self) -> Vec<(DropReason, u64)> {
        if let Some(sk) = &self.sketched {
            return sk.totals.drops_by_reason().collect();
        }
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

    /// Aggregate of every node's counters — identical whether the
    /// registry is dense or sketched (the collapse preserves totals
    /// exactly), which is what the invariant monitor reconciles against.
    pub fn totals(&self) -> NodeMetrics {
        if let Some(sk) = &self.sketched {
            return sk.totals.clone();
        }
        let mut t = NodeMetrics::default();
        for n in &self.nodes {
            t.merge(n);
        }
        t
    }

    /// Aggregate of every segment's counters (dense or sketched).
    pub fn segment_totals(&self) -> SegmentMetrics {
        if let Some(sk) = &self.sketched {
            return sk.seg_totals.clone();
        }
        let mut t = SegmentMetrics::default();
        for s in &self.segments {
            t.merge(s);
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
        if let Some(sk) = self.sketched.as_deref_mut() {
            apply_packet(&mut sk.totals, kind, wire_len, tunnel);
            sk.node_hitters.offer(node, 1);
            if matches!(
                kind,
                TraceEventKind::Sent | TraceEventKind::Forwarded | TraceEventKind::DeliveredLocal
            ) {
                sk.flow_hitters.offer(crate::telemetry::flow_label(pkt), 1);
            }
            return;
        }
        apply_packet(self.node_mut(node), kind, wire_len, tunnel);
        if let Some(cfg) = self.sketch {
            if self.nodes.len() > cfg.node_threshold {
                self.collapse_now();
            }
        }
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
        let m = if self.sketched.is_some() {
            &mut self.sketched.as_deref_mut().expect("checked").seg_totals
        } else {
            self.segment_mut(seg)
        };
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

    /// The block transport counters land in: the node's own in dense
    /// mode, the global totals once sketched.
    fn node_or_totals(&mut self, node: NodeId) -> &mut NodeMetrics {
        if self.sketched.is_some() {
            &mut self.sketched.as_deref_mut().expect("checked").totals
        } else {
            self.node_mut(node)
        }
    }

    /// Record a TCP segment transmission at `node`.
    #[inline]
    pub fn record_tcp_segment_sent(&mut self, node: NodeId, retransmission: bool) {
        if !self.enabled {
            return;
        }
        let m = &mut self.node_or_totals(node).tcp;
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
        self.node_or_totals(node).tcp.segments_received += 1;
    }

    /// Record one measured TCP round-trip time at `node`.
    #[inline]
    pub fn record_tcp_rtt(&mut self, node: NodeId, rtt: SimDuration) {
        if !self.enabled {
            return;
        }
        let us = rtt.as_micros();
        if let Some(sk) = self.sketched.as_deref_mut() {
            sk.totals.tcp.rtt_us.record(us);
            sk.rtt_exemplars.offer(us);
            return;
        }
        self.node_mut(node).tcp.rtt_us.record(us);
    }

    /// Record a UDP datagram sent from `node`.
    #[inline]
    pub fn record_udp_sent(&mut self, node: NodeId, payload_bytes: usize) {
        if !self.enabled {
            return;
        }
        let m = &mut self.node_or_totals(node).udp;
        m.datagrams_sent += 1;
        m.bytes_sent += payload_bytes as u64;
    }

    /// Record a UDP datagram delivered to a bound socket at `node`.
    #[inline]
    pub fn record_udp_received(&mut self, node: NodeId, payload_bytes: usize) {
        if !self.enabled {
            return;
        }
        let m = &mut self.node_or_totals(node).udp;
        m.datagrams_received += 1;
        m.bytes_received += payload_bytes as u64;
    }

    /// A serializable snapshot of every counter, labelling nodes with
    /// `names` (by `NodeId` index) where provided and taking `now` so
    /// segment utilization can be derived by consumers.
    ///
    /// Dense (exact) snapshots keep their historical shape byte-for-byte;
    /// sketched snapshots emit totals + heavy hitters + exemplars instead
    /// of per-node sections.
    pub fn snapshot<'a>(&'a self, names: &'a [&'a str], now: SimTime) -> impl Serialize + 'a {
        serde::from_fn(move |w| match &self.sketched {
            Some(sk) => self.write_sketched(sk, names, now, w),
            None => self.write_dense(names, now, w),
        })
    }

    fn write_total_drops(&self, w: &mut JsonWriter) {
        w.key("total_drops");
        w.object(|w| {
            for (r, n) in self.total_drops_by_reason() {
                w.field(&r.to_string(), &n);
            }
        });
    }

    fn write_dense(&self, names: &[&str], now: SimTime, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("sim_time_us", &now.as_micros());
            w.key("nodes");
            w.object(|w| {
                for (i, m) in self.nodes.iter().enumerate() {
                    w.field(&node_label(names, i), m);
                }
            });
            w.key("segments");
            w.object(|w| {
                for (i, m) in self.segments.iter().enumerate() {
                    w.key(&format!("segment{i}"));
                    w.object(|w| m.write_fields(now, w));
                }
            });
            self.write_total_drops(w);
        });
    }

    /// Snapshot shape for the collapsed registry: exact global totals,
    /// top-k heavy hitters with their error bounds, and RTT exemplars.
    fn write_sketched(
        &self,
        sk: &SketchedMetrics,
        names: &[&str],
        now: SimTime,
        w: &mut JsonWriter,
    ) {
        w.object(|w| {
            w.field("sim_time_us", &now.as_micros());
            w.field("mode", "sketched");
            w.field("totals", &sk.totals);
            w.key("segments_total");
            w.object(|w| sk.seg_totals.write_fields(now, w));
            w.key("node_hitters");
            w.object(|w| {
                w.field("k", &sk.node_hitters.capacity());
                w.field("exact", &sk.node_hitters.is_exact());
                w.key("top");
                w.array(|w| {
                    for e in sk.node_hitters.top() {
                        w.object(|w| {
                            w.field("node", &*node_label(names, e.key.0));
                            w.field("events", &e.count);
                            w.field("error", &e.error);
                        });
                    }
                });
            });
            w.key("flow_hitters");
            w.object(|w| {
                w.field("k", &sk.flow_hitters.capacity());
                w.field("exact", &sk.flow_hitters.is_exact());
                w.key("top");
                w.array(|w| {
                    for e in sk.flow_hitters.top() {
                        let (a, b, proto) = e.key;
                        w.object(|w| {
                            w.key("flow");
                            w.display(&format_args!("{a}<->{b}/{proto}"));
                            w.field("wire_events", &e.count);
                            w.field("error", &e.error);
                        });
                    }
                });
            });
            w.key("rtt_exemplars_us");
            w.object(|w| {
                w.field("seen", &sk.rtt_exemplars.seen());
                w.field("samples", sk.rtt_exemplars.items());
            });
            self.write_total_drops(w);
        });
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

    #[test]
    fn armed_registry_below_threshold_is_bit_identical_to_exact() {
        let build = |arm: bool| {
            let mut reg = MetricsRegistry::new(true);
            if arm {
                reg.arm_sketch(SketchConfig {
                    node_threshold: 100,
                    ..SketchConfig::default()
                });
            }
            let p = pkt();
            for i in 0..10 {
                reg.record_packet(NodeId(i), TraceEventKind::Sent, &p);
                reg.record_packet(NodeId(i), TraceEventKind::DeliveredLocal, &p);
            }
            reg.record_tcp_rtt(NodeId(3), SimDuration::from_millis(20));
            let json = serde_json::to_string(&reg.snapshot(&[], SimTime(1_000))).unwrap();
            json
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn collapse_preserves_totals_and_caps_memory() {
        let mut exact = MetricsRegistry::new(true);
        let mut armed = MetricsRegistry::new(true);
        armed.arm_sketch(SketchConfig {
            node_threshold: 16,
            topk: 8,
            reservoir: 4,
            seed: 1,
        });
        let p = pkt();
        for i in 0..1000 {
            for reg in [&mut exact, &mut armed] {
                reg.record_packet(NodeId(i), TraceEventKind::Sent, &p);
                if i % 3 == 0 {
                    reg.record_packet(NodeId(i), TraceEventKind::Dropped(DropReason::NoRoute), &p);
                }
            }
        }
        assert!(armed.is_sketched());
        let sk = armed.sketched().unwrap();
        assert_eq!(sk.node_hitters.len(), 8, "sketch memory capped at k");
        // Aggregate totals survive the collapse exactly.
        let (e, s) = (exact.totals(), armed.totals());
        assert_eq!(e.packets_sent, s.packets_sent);
        assert_eq!(e.bytes_sent, s.bytes_sent);
        assert_eq!(e.total_drops(), s.total_drops());
        assert_eq!(exact.total_drops_by_reason(), armed.total_drops_by_reason());
    }

    #[test]
    fn sketched_snapshot_shape() {
        let mut reg = MetricsRegistry::new(true);
        reg.arm_sketch(SketchConfig {
            node_threshold: 0,
            topk: 4,
            reservoir: 4,
            seed: 3,
        });
        reg.record_packet(NodeId(0), TraceEventKind::Sent, &pkt());
        reg.record_tcp_rtt(NodeId(0), SimDuration::from_millis(1));
        let json = serde_json::to_string(&reg.snapshot(&["alice"], SimTime(1_000))).unwrap();
        assert!(json.contains("\"mode\":\"sketched\""));
        assert!(json.contains("\"totals\""));
        assert!(json.contains("\"node_hitters\""));
        assert!(json.contains("\"flow_hitters\""));
        assert!(json.contains("\"alice\""));
        assert!(json.contains("\"rtt_exemplars_us\""));
    }
}

//! The simulation world: nodes, segments, the two event loops — inline,
//! and the conservative parallel barrier loop whose output is
//! byte-identical to it (see [`crate::shard`]) — and automatic
//! shortest-path route computation for static topologies.

use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::host::{Host, HostConfig};
use crate::device::nic::IfaceAddr;
use crate::device::router::{Router, RouterConfig};
use crate::device::{token, NS_APPS};
use crate::event::{
    lane_key, node_lane, Event, EventKind, EventQueue, EventSink, IfaceNo, NodeId, SchedulerKind,
    SchedulerStats, SchedulerTelemetry, Timer, TimerHandle, TimerToken,
};
use crate::link::{FaultOutcome, LinkConfig, LinkStats, SegState, Segment, SegmentId};
use crate::metrics::{MetricsRegistry, SketchConfig};
use crate::shard::{
    event_node, Borders, Group, Op, PendingTx, QueueSet, RoundLog, Runtime, Sched, ShardStats,
    TxRecord,
};
use crate::telemetry::{hash64, InvariantMonitor, TelemetryConfig};
use crate::time::{SimDuration, SimTime};
use crate::trace::{PacketTrace, TraceEventKind, TransformKind};
use crate::wire::ethernet::{EthernetFrame, MacAddr};
use crate::wire::ipv4::{Ipv4Addr, Ipv4Cidr, Ipv4Packet};

/// A node is either an end system or a router.
#[allow(clippy::large_enum_variant)] // hosts dominate and are not copied
pub enum Node {
    /// An end system.
    Host(Host),
    /// A packet forwarder.
    Router(Router),
}

impl Node {
    fn on_frame(&mut self, ctx: &mut NetCtx, iface: IfaceNo, frame: &Bytes) {
        match self {
            Node::Host(h) => h.on_frame(ctx, iface, frame),
            Node::Router(r) => r.on_frame(ctx, iface, frame),
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx, t: TimerToken) {
        match self {
            Node::Host(h) => h.on_timer(ctx, t),
            Node::Router(r) => r.on_timer(ctx, t),
        }
    }

    fn nic(&self) -> &crate::device::nic::Nic {
        match self {
            Node::Host(h) => h.nic(),
            Node::Router(r) => r.nic(),
        }
    }

    fn nic_mut(&mut self) -> &mut crate::device::nic::Nic {
        match self {
            Node::Host(h) => h.nic_mut(),
            Node::Router(r) => r.nic_mut(),
        }
    }

    fn is_router(&self) -> bool {
        matches!(self, Node::Router(_))
    }

    /// Drop the node's memoized route lookups — called whenever an
    /// interface moves between segments, since the usable routes change
    /// even though the table entries do not.
    fn invalidate_route_cache(&self) {
        match self {
            Node::Host(h) => h.invalidate_route_cache(),
            Node::Router(r) => r.invalidate_route_cache(),
        }
    }

    fn add_route(&mut self, prefix: Ipv4Cidr, iface: IfaceNo, gateway: Option<Ipv4Addr>) {
        match self {
            Node::Host(h) => h.add_route(prefix, iface, gateway),
            Node::Router(r) => r.add_route(prefix, iface, gateway),
        }
    }

    fn clear_routes(&mut self) {
        match self {
            Node::Host(h) => h.clear_routes(),
            Node::Router(r) => r.clear_routes(),
        }
    }

    /// The node's human-readable name.
    pub fn name(&self) -> &str {
        match self {
            Node::Host(h) => &h.name,
            Node::Router(r) => &r.name,
        }
    }
}

// ---------------------------------------------------------------------------
// Event routing plumbing
// ---------------------------------------------------------------------------

/// Deterministic per-node RNG seed: a hash of the world seed and the node
/// id, so every node's stream is independent of dispatch interleaving.
fn node_seed(world_seed: u64, n: usize) -> u64 {
    hash64(world_seed ^ (0x4e4f_4445u64 << 32) ^ n as u64)
}

/// Deterministic per-segment fault-RNG seed.
fn segment_seed(world_seed: u64, s: usize) -> u64 {
    hash64(world_seed ^ (0x5345_474du64 << 32) ^ s as u64)
}

/// Sink used when the coordinator applies a buffered border transmission:
/// deliveries route to each receiver's shard, `msgs_in` counts the crossing
/// per receiving shard, and the push total is recorded for the matching
/// [`TxRecord`] (ledger pushes land at the `Op::BorderTx` replay point).
struct BorderApplySink<'a, 'w> {
    runs: &'a mut [Option<ShardRun<'w>>],
    owner_node: &'a [u32],
    pushed: u64,
}

impl EventSink for BorderApplySink<'_, '_> {
    fn push_keyed(&mut self, at: SimTime, key: u64, kind: EventKind) {
        let run = parked(&mut self.runs[self.owner_node[event_node(&kind).0] as usize]);
        run.queue.push_keyed(at, key, kind);
        run.stats.msgs_in += 1;
        self.pushed += 1;
    }
}

// ---------------------------------------------------------------------------
// NetCtx
// ---------------------------------------------------------------------------

/// `&mut` views of one node's state: what an event fired at it may touch of
/// the node vectors, whole-world or partitioned to the node's shard.
struct NodeView<'a> {
    node: &'a mut Option<Node>,
    seq: &'a mut u64,
    rng: &'a mut StdRng,
}

/// Everything beyond its own node an event handler can reach, as the
/// running engine lends it. The inline loop lends the whole world: the
/// queue set, every medium, the observers themselves. A barrier worker
/// lends its shard: its own queue (counting into the event's [`Group`]),
/// its private media, and a journal in place of the order-sensitive
/// observers. `sched`, `media` and `obs` are the only places that know
/// which.
struct Engine<'a, 'w> {
    segments: &'w [Segment],
    /// Commutative counters: the world's registry inline, the shard's own
    /// (merged at run end) on a worker.
    metrics: &'a mut MetricsRegistry,
    sched: Sched<'a>,
    media: Media<'a, 'w>,
    obs: Observers<'a>,
}

/// Where a transmit finds a segment's mutable link state.
enum Media<'a, 'w> {
    /// Every segment's, indexed by segment id.
    World(&'a mut [SegState]),
    /// A shard's private segments', indexed by slot.
    Shard {
        states: &'a mut [&'w mut SegState],
        slot: &'w [u32],
        borders: &'w Borders,
    },
}

impl Media<'_, '_> {
    /// `seg`'s state, or `None` on a shard border: that medium evolves in
    /// global time order under the coordinator, not here.
    fn state(&mut self, seg: SegmentId) -> Option<&mut SegState> {
        match self {
            Media::World(states) => Some(&mut states[seg.0]),
            Media::Shard {
                states,
                slot,
                borders,
            } => (!borders.is_border(seg.0)).then(|| &mut *states[slot[seg.0] as usize]),
        }
    }
}

/// The order-sensitive observers — packet trace, invariant monitors, pcap
/// — acting at once. The inline loop hands these to every event; the
/// barrier coordinator replays its workers' journals through the same
/// methods, so each effect is implemented here and nowhere else.
struct Inline<'a> {
    trace: &'a mut PacketTrace,
    invariants: &'a mut InvariantMonitor,
    pcap: &'a mut Option<crate::wire::pcap::PcapWriter<Box<dyn std::io::Write>>>,
}

impl Inline<'_> {
    /// A trace record plus its conservation-monitor echo.
    fn packet(&mut self, now: SimTime, node: NodeId, kind: TraceEventKind, pkt: &Ipv4Packet) {
        self.trace.record(now, node, kind, pkt);
        self.invariants.record_packet(kind, pkt);
    }

    /// A causal edge between parent and child packets.
    fn transform(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TransformKind,
        parent: Option<&Ipv4Packet>,
        child: &Ipv4Packet,
    ) {
        self.trace.record_transform(now, node, kind, parent, child);
        self.invariants.record_transform(parent, child);
    }

    /// What the wire's observers make of one transmission on `segment`,
    /// once the medium has taken or refused it.
    fn transmitted(
        &mut self,
        now: SimTime,
        segment: &Segment,
        outcome: FaultOutcome,
        frame: &Bytes,
    ) {
        if matches!(outcome, FaultOutcome::Drop | FaultOutcome::Corrupt) {
            // Whatever packet the frame carried is attributably lost on
            // the wire, not leaked — the conservation monitor's ledger.
            self.invariants.note_wire_loss();
        } else if self.invariants.enabled() && frame.len() >= 6 {
            // A frame unicast to a MAC no longer on this wire (stale ARP
            // after a handoff, a vanished care-of address) is ignored by
            // every NIC and dies here — attributable, not leaked.
            let dst = MacAddr([frame[0], frame[1], frame[2], frame[3], frame[4], frame[5]]);
            if !dst.is_broadcast() && !dst.is_multicast() && !segment.mac_attached(dst) {
                self.invariants.note_unclaimed_frame();
            }
        }
        if outcome != FaultOutcome::Drop {
            if let Some(pcap) = self.pcap.as_mut() {
                // Capture what was put on the wire (post fault injection
                // is not observable here; the sender's view is what
                // tcpdump on the sender would show).
                let _ = pcap.write_frame(now, frame);
            }
        }
    }
}

/// Which of the order-sensitive observers are on — a journal records no
/// effect that none of them would look at.
#[derive(Clone, Copy)]
struct Watching {
    invariants: bool,
    trace: bool,
    pcap: bool,
}

/// Where an event's order-sensitive observer effects go: straight to the
/// observers, or — on a barrier worker, which runs ahead of and behind its
/// peers — into the event's journal, for the coordinator to replay through
/// [`Inline`] in canonical `(time, round, key)` order. The inline arms take
/// their arguments borrowed; only a journal clones.
enum Observers<'a> {
    Inline(Inline<'a>),
    Journal { ops: &'a mut Vec<Op>, on: Watching },
}

impl Observers<'_> {
    fn packet(&mut self, now: SimTime, node: NodeId, kind: TraceEventKind, pkt: &Ipv4Packet) {
        match self {
            Observers::Inline(o) => o.packet(now, node, kind, pkt),
            Observers::Journal { ops, on } => {
                if on.trace || on.invariants {
                    ops.push(Op::Trace {
                        kind,
                        pkt: pkt.clone(),
                    });
                }
            }
        }
    }

    fn transform(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TransformKind,
        parent: Option<&Ipv4Packet>,
        child: &Ipv4Packet,
    ) {
        match self {
            Observers::Inline(o) => o.transform(now, node, kind, parent, child),
            Observers::Journal { ops, on } => {
                if on.trace || on.invariants {
                    ops.push(Op::Transform {
                        kind,
                        parent: parent.cloned(),
                        child: child.clone(),
                    });
                }
            }
        }
    }

    fn promote(&mut self, a: Ipv4Addr, b: Ipv4Addr, proto: crate::wire::ipv4::IpProtocol) {
        match self {
            Observers::Inline(o) => o.trace.promote_endpoints(a, b, proto),
            Observers::Journal { ops, on } => {
                if on.trace {
                    ops.push(Op::Promote { a, b, proto });
                }
            }
        }
    }

    fn transmitted(
        &mut self,
        now: SimTime,
        seg: SegmentId,
        segment: &Segment,
        outcome: FaultOutcome,
        frame: &Bytes,
    ) {
        match self {
            Observers::Inline(o) => o.transmitted(now, segment, outcome, frame),
            Observers::Journal { ops, on } => {
                if on.invariants || on.pcap {
                    ops.push(Op::Transmitted {
                        seg: seg.0,
                        outcome,
                        frame: frame.clone(),
                    });
                }
            }
        }
    }

    /// The scheduling half of a transmission on a shard border. Only a
    /// journal is ever handed one: only a barrier worker's media have
    /// borders.
    fn border_tx(&mut self, seg: SegmentId, iface: IfaceNo, frame: Bytes) {
        if let Observers::Journal { ops, .. } = self {
            ops.push(Op::BorderTx {
                seg: seg.0,
                iface,
                frame,
            });
        }
    }

    /// A conservation-ledger note with no trace event of its own: `tell`
    /// the monitor now, or journal `op` for it.
    fn note(&mut self, tell: impl FnOnce(&mut InvariantMonitor), op: impl FnOnce() -> Op) {
        match self {
            Observers::Inline(o) => tell(o.invariants),
            Observers::Journal { ops, on } => {
                if on.invariants {
                    ops.push(op());
                }
            }
        }
    }

    fn invariants_enabled(&self) -> bool {
        match self {
            Observers::Inline(o) => o.invariants.enabled(),
            Observers::Journal { on, .. } => on.invariants,
        }
    }
}

/// The per-event context handed to devices: the only way they can touch the
/// world (transmit frames, set timers, draw randomness, write traces).
pub struct NetCtx<'a, 'w> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node being dispatched.
    pub node: NodeId,
    rng: &'a mut StdRng,
    seq: &'a mut u64,
    eng: Engine<'a, 'w>,
}

/// Run `f` on a node with a live context — the one place a [`NetCtx`] is
/// built, whichever engine is running and whether an event or a caller of
/// [`World::host_do`] is at the door.
fn with_ctx<R>(
    now: SimTime,
    node: NodeId,
    view: &mut NodeView<'_>,
    eng: Engine<'_, '_>,
    f: impl FnOnce(Option<&mut Node>, &mut NetCtx) -> R,
) -> R {
    let mut ctx = NetCtx {
        now,
        node,
        rng: view.rng,
        seq: view.seq,
        eng,
    };
    f(view.node.as_mut(), &mut ctx)
}

/// Fire one popped event at its node: every dispatch of both event loops.
fn fire(now: SimTime, kind: EventKind, view: &mut NodeView<'_>, eng: Engine<'_, '_>) {
    with_ctx(now, event_node(&kind), view, eng, |n, ctx| {
        match (n, kind) {
            (Some(n), EventKind::Timer(t)) => n.on_timer(ctx, t.token),
            (Some(n), EventKind::Deliver { iface, frame, .. })
                if n.nic().segment(iface).is_some() =>
            {
                n.on_frame(ctx, iface, &frame)
            }
            // A node or its interface may have been detached between
            // scheduling and delivery (mid-flight frames to a departed mobile
            // host are lost, as in reality).
            (_, EventKind::Deliver { .. }) => ctx
                .eng
                .obs
                .note(InvariantMonitor::note_detached_frame, || Op::DetachedFrame),
            (None, EventKind::Timer(_)) => {}
        }
    })
}

impl NetCtx<'_, '_> {
    /// Put a frame on a segment from this node's `iface`.
    pub fn transmit(
        &mut self,
        seg: SegmentId,
        iface: IfaceNo,
        frame: &EthernetFrame,
    ) -> FaultOutcome {
        let bytes = {
            let _prof = crate::profile::scope("frame/emit");
            frame.emit()
        };
        self.transmit_raw(seg, iface, bytes)
    }

    /// Put already-serialized wire bytes on a segment from this node's
    /// `iface`. The single emitted buffer is shared — `Bytes` clones are
    /// O(1) — between the segment's delivery events and the pcap capture;
    /// nothing on this path copies the frame.
    pub fn transmit_raw(&mut self, seg: SegmentId, iface: IfaceNo, frame: Bytes) -> FaultOutcome {
        let _prof = crate::profile::scope("link/transmit");
        let (now, node) = (self.now, self.node);
        let Engine {
            segments,
            metrics,
            sched,
            media,
            obs,
        } = &mut self.eng;
        let segment = &segments[seg.0];
        let Some(st) = media.state(seg) else {
            // Cross-shard wire: buffer the transmission for the
            // coordinator. The outcome is predictable without touching the
            // medium — border segments are fault-free by construction (the
            // partitioner collapses faulty segments into one shard), so
            // only oversize frames drop.
            let max_frame = segment.config.mtu + crate::wire::ethernet::ETHERNET_HEADER_LEN;
            let oversize = frame.len() > max_frame;
            obs.border_tx(seg, iface, frame);
            return if oversize {
                FaultOutcome::Drop
            } else {
                FaultOutcome::Deliver
            };
        };
        // Snapshot link-metric inputs before the transmit mutates the
        // segment's committed-until time.
        let (queue_wait, serialize) = if metrics.enabled() {
            (st.backlog(now), segment.config.serialize_time(frame.len()))
        } else {
            (SimDuration::ZERO, SimDuration::ZERO)
        };
        let wire_len = frame.len();
        let outcome = segment.transmit(st, (node, iface), frame.clone(), now, sched);
        metrics.record_transmit(seg, wire_len, queue_wait, serialize, outcome);
        obs.transmitted(now, seg, segment, outcome, &frame);
        outcome
    }

    /// Schedule a timer for this node. The returned handle cancels it in
    /// O(1) via [`NetCtx::cancel_timer`]; callers that never cancel can
    /// drop the handle freely. Timer events carry `(node lane, seq)` keys,
    /// so equal-timestamp ordering is identical however the world is
    /// sharded.
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) -> TimerHandle {
        let node = self.node;
        let key = lane_key(node_lane(node), *self.seq);
        *self.seq += 1;
        let kind = EventKind::Timer(Timer { node, token });
        self.eng
            .sched
            .push_cancellable_keyed(self.now + after, key, kind)
    }

    /// Cancel a timer set with [`NetCtx::set_timer`]. Returns `false`
    /// (harmlessly) if it already fired or was already cancelled. A timer
    /// scheduled for the *current* instant may already sit in the event
    /// loop's in-flight batch, in which case it still fires — so handlers
    /// keep their stale-timer guards as a second line of defence.
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        self.eng.sched.cancel(self.node, h)
    }

    /// MTU of a segment (IP bytes per frame).
    pub fn segment_mtu(&self, seg: SegmentId) -> usize {
        self.eng.segments[seg.0].config.mtu
    }

    /// This node's deterministic RNG (fault injection, workloads). Streams
    /// are per-node, so draws are independent of dispatch interleaving.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Record a trace event for `pkt` at this node. Also feeds the metrics
    /// registry: this is the one choke point every send / forward /
    /// delivery / drop flows through.
    pub fn trace_packet(&mut self, kind: TraceEventKind, pkt: &Ipv4Packet) {
        self.eng.metrics.record_packet(self.node, kind, pkt);
        self.eng.obs.packet(self.now, self.node, kind, pkt);
    }

    /// Record that `child` was produced from `parent` by `kind` at this
    /// node — called by every transform site (encapsulation, decapsulation,
    /// source-route rewrite, agent relay, retransmission) so the trace can
    /// link the derived packet to its origin. `parent` is `None` only for
    /// retransmissions, where the trace infers the predecessor from the
    /// flow. The single choke point for causal edges, as
    /// [`NetCtx::trace_packet`] is for observations.
    pub fn trace_transform(
        &mut self,
        kind: TransformKind,
        parent: Option<&Ipv4Packet>,
        child: &Ipv4Packet,
    ) {
        let seen = TraceEventKind::Transformed(kind);
        self.eng.metrics.record_packet(self.node, seen, child);
        self.eng
            .obs
            .transform(self.now, self.node, kind, parent, child);
    }

    /// The metrics registry — how the transport layer records TCP and UDP
    /// counters against the node being dispatched. On a worker this is the
    /// shard's registry; counters are commutative and merge at run end.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.eng.metrics
    }

    /// Flag an anomaly on the conversation between `a` and `b` over
    /// `proto` — protocol layers call this for failures the trace cannot
    /// see in the packet stream itself (e.g. a mobile host's registration
    /// denial or retry exhaustion), promoting the flow to full capture
    /// under flow sampling. No-op when sampling is off.
    pub fn flag_anomaly(&mut self, a: Ipv4Addr, b: Ipv4Addr, proto: crate::wire::ipv4::IpProtocol) {
        self.eng.obs.promote(a, b, proto);
    }

    /// Tell the conservation monitor a packet was parked in a link-layer
    /// pending queue (awaiting ARP); see [`InvariantMonitor::note_parked`].
    #[inline]
    pub fn note_parked(&mut self) {
        self.eng
            .obs
            .note(InvariantMonitor::note_parked, || Op::Parked);
    }

    /// Tell the conservation monitor a parked packet left its pending
    /// queue (flushed or evicted).
    #[inline]
    pub fn note_unparked(&mut self) {
        self.eng
            .obs
            .note(InvariantMonitor::note_unparked, || Op::Unparked);
    }

    /// Whether the invariant monitors are on — lets hot paths skip the
    /// bookkeeping (e.g. a packet clone) feeding them.
    #[inline]
    pub fn invariants_enabled(&self) -> bool {
        self.eng.obs.invariants_enabled()
    }

    /// Tell the conservation monitor a packet was consumed by a mobility
    /// hook before local delivery (no trace event fires for it).
    #[inline]
    pub fn note_consumed(&mut self, pkt: &Ipv4Packet) {
        self.eng.obs.note(
            |inv| inv.note_consumed(pkt),
            || Op::Consumed { pkt: pkt.clone() },
        );
    }

    /// Tell the conservation monitor a hook rewrote a packet's identity.
    #[inline]
    pub fn note_rewrite(&mut self, before: &Ipv4Packet, after: &Ipv4Packet) {
        self.eng.obs.note(
            |inv| inv.note_rewrite(before, after),
            || Op::Rewrite {
                before: before.clone(),
                after: after.clone(),
            },
        );
    }
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

/// The simulated internetwork.
pub struct World {
    nodes: Vec<Option<Node>>,
    /// Interned node labels, following `nodes` index-for-index: metrics,
    /// trace and report labelling read these 4-byte symbols instead of
    /// cloning each node's heap `String` per snapshot.
    node_syms: Vec<crate::arena::Sym>,
    /// Per-node lane sequence counters: the seq half of every timer's
    /// `(node lane, seq)` key. Follows `nodes` index-for-index.
    node_seq: Vec<u64>,
    /// Per-node deterministic RNGs, seeded from the world seed and the node
    /// id — streams are independent of dispatch interleaving, so sharded
    /// and serial runs draw identically.
    node_rng: Vec<StdRng>,
    segments: Vec<Segment>,
    /// Mutable link state (medium occupancy, stats, fault RNG), parallel
    /// to `segments`; split out so shards can own their private media.
    seg_states: Vec<SegState>,
    /// Every event queue — one, or one per shard — and the scheduler
    /// ledger.
    queues: QueueSet,
    now: SimTime,
    seed: u64,
    sched_kind: SchedulerKind,
    /// The packet trace; enabled by default.
    pub trace: PacketTrace,
    /// Aggregate counters; disabled by default (near-zero cost), enabled
    /// with [`World::enable_metrics`].
    pub metrics: MetricsRegistry,
    /// Online invariant monitors; disabled by default (one branch per
    /// event), enabled with [`World::enable_invariants`] or
    /// [`World::apply_telemetry`].
    pub invariants: InvariantMonitor,
    next_mac: u32,
    pcap: Option<crate::wire::pcap::PcapWriter<Box<dyn std::io::Write>>>,
    /// The canonical same-timestamp batch being fired, popped whole so
    /// round precedence is the same however the world is driven: drained
    /// by a run, served one event a call by [`World::step`]. Reused, so
    /// the allocation is made once per world.
    batch: Vec<Event>,
    /// Periodic gauge sampler; absent (one branch per batch) until
    /// [`World::enable_sampling`].
    sampler: Option<Box<crate::profile::TimeSeries>>,
    /// How many shards the caller asked for; the runtime clamps to the
    /// segment count. 1 = serial.
    shards_requested: usize,
    /// Permanently degraded to serial: set when the sharded runtime would
    /// have to be created while cancellable timer handles minted by the
    /// single queue are still live (their slab identity cannot survive the
    /// migration).
    serial_locked: bool,
    /// Whether the degradation warning has been printed.
    warned: bool,
    /// The sharded runtime; `None` until first needed (or never, when
    /// `shards_requested <= 1`).
    rt: Option<Runtime>,
}

impl World {
    /// Create a world with a deterministic RNG seed, using the process-wide
    /// default scheduler (see [`crate::event::set_default_scheduler`]) and
    /// the process-wide default shard count (see
    /// [`crate::shard::set_default_shards`]).
    pub fn new(seed: u64) -> World {
        World::with_shards(seed, crate::shard::default_shards())
    }

    /// Create a world that runs its event loop on `shards` shards
    /// (clamped to the segment count; 1 = serial). Sharded runs are
    /// byte-identical to serial runs — reports, metrics, traces and pcaps
    /// included — so the only observable difference is wall-clock time.
    pub fn with_shards(seed: u64, shards: usize) -> World {
        let kind = crate::event::default_scheduler();
        World {
            nodes: Vec::new(),
            node_syms: Vec::new(),
            node_seq: Vec::new(),
            node_rng: Vec::new(),
            segments: Vec::new(),
            seg_states: Vec::new(),
            queues: QueueSet::new(kind),
            now: SimTime::ZERO,
            seed,
            sched_kind: kind,
            trace: PacketTrace::new(true),
            metrics: MetricsRegistry::new(false),
            invariants: InvariantMonitor::new(),
            next_mac: 1,
            pcap: None,
            batch: Vec::new(),
            sampler: None,
            shards_requested: shards.max(1),
            serial_locked: false,
            warned: false,
            rt: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Start recording aggregate metrics (packet/byte counters per node,
    /// drops by reason, link utilization, transport counters). Reading them
    /// back goes through [`World::metrics`].
    pub fn enable_metrics(&mut self) {
        self.metrics.set_enabled(true);
        if let Some(rt) = &mut self.rt {
            for m in &mut rt.shard_metrics {
                m.set_enabled(true);
            }
        }
    }

    /// Start the online invariant monitors (packet conservation,
    /// metrics/scheduler reconciliation). Violations are reported through
    /// [`World::invariant_report`], never panicked on.
    pub fn enable_invariants(&mut self) {
        self.invariants.set_enabled(true);
    }

    /// Fan a [`TelemetryConfig`] out to every observability layer: arm
    /// the metrics registry's sketched mode, enable head-based flow
    /// sampling on the trace (when configured), and turn the invariant
    /// monitors on. The scale-ready telemetry entry point.
    pub fn apply_telemetry(&mut self, cfg: &TelemetryConfig) {
        if let Some(n) = cfg.sample_flows {
            self.trace.enable_flow_sampling(n, cfg.seed);
        }
        self.metrics.arm_sketch(SketchConfig {
            node_threshold: cfg.sketch_node_threshold,
            topk: cfg.topk,
            reservoir: cfg.reservoir,
            seed: cfg.seed,
        });
        self.invariants.set_enabled(true);
    }

    /// What the invariant monitors reconcile: the scheduler ledger against
    /// the queues' own count of what they still hold.
    fn sched_ledger(&self) -> (SchedulerStats, u64) {
        (self.queues.stats(), self.queues.len() as u64)
    }

    /// The invariant monitors' run-report section: counters plus every
    /// violation (incrementally recorded and final-check). Conservation
    /// is only judged when the world is quiescent — mid-run, in-flight
    /// packets are legitimate.
    pub fn invariant_report(&self) -> impl serde::Serialize + '_ {
        let (stats, pending) = self.sched_ledger();
        let quiescent = self.pending_events() == 0;
        let totals = self.metrics.enabled().then(|| self.metrics.totals());
        self.invariants
            .report(self.now, &stats, pending, quiescent, totals.as_ref())
    }

    /// Whether any invariant violation has been detected (incremental or
    /// final-check) — what CI smoke jobs assert on.
    pub fn has_invariant_violations(&self) -> bool {
        if self.invariants.violated() {
            return true;
        }
        let (stats, pending) = self.sched_ledger();
        let quiescent = self.pending_events() == 0;
        let totals = self.metrics.enabled().then(|| self.metrics.totals());
        !self
            .invariants
            .final_violations(self.now, &stats, pending, quiescent, totals.as_ref())
            .is_empty()
    }

    /// Human-readable node names indexed by `NodeId`, for labelling
    /// metrics snapshots and reports. Resolved from the interned symbols
    /// recorded at node creation — no per-snapshot `String` cloning, and
    /// the returned `&'static str`s are valid for the process lifetime.
    pub fn node_names(&self) -> Vec<&'static str> {
        crate::arena::resolve_all(&self.node_syms)
    }

    /// The interned label symbols, indexed by `NodeId`.
    pub fn node_syms(&self) -> &[crate::arena::Sym] {
        &self.node_syms
    }

    /// Capture every transmitted frame into a pcap stream (e.g. a
    /// `std::fs::File`) readable by Wireshark/tcpdump. Frames from all
    /// segments are interleaved in time order, like a tap on every wire.
    pub fn capture_pcap(&mut self, out: Box<dyn std::io::Write>) -> std::io::Result<()> {
        self.pcap = Some(crate::wire::pcap::PcapWriter::new(out)?);
        Ok(())
    }

    /// Stop capturing and flush; returns the number of frames written.
    pub fn finish_pcap(&mut self) -> std::io::Result<u64> {
        match self.pcap.take() {
            Some(w) => {
                let n = w.frames_written();
                w.finish()?;
                Ok(n)
            }
            None => Ok(0),
        }
    }

    // ---- construction -----------------------------------------------------

    /// Reserve capacity for `nodes` further nodes and `segments` further
    /// segments, exactly. Bulk builders (the hierarchical topology
    /// generator) call this so the node vectors are sized once instead of
    /// doubling their way up — at 10⁵ hosts, growth-doubling overshoot
    /// alone is worth hundreds of bytes per host.
    pub fn reserve(&mut self, nodes: usize, segments: usize) {
        self.nodes.reserve_exact(nodes);
        self.node_syms.reserve_exact(nodes);
        self.node_seq.reserve_exact(nodes);
        self.node_rng.reserve_exact(nodes);
        self.segments.reserve_exact(segments);
        self.seg_states.reserve_exact(segments);
    }

    /// Create a broadcast segment; attach nodes with [`World::attach`].
    pub fn add_segment(&mut self, config: LinkConfig) -> SegmentId {
        let s = self.segments.len();
        let mut seg = Segment::new(config);
        seg.lane = crate::event::segment_lane(s);
        seg.rng_seed = segment_seed(self.seed, s);
        self.segments.push(seg);
        self.seg_states.push(SegState::default());
        self.touch_segment(SegmentId(s));
        SegmentId(s)
    }

    /// Create a host node.
    pub fn add_host(&mut self, config: HostConfig) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.node_syms.push(crate::arena::intern(&config.name));
        self.nodes.push(Some(Node::Host(Host::new(id, config))));
        self.node_seq.push(0);
        self.node_rng
            .push(StdRng::seed_from_u64(node_seed(self.seed, id.0)));
        id
    }

    /// Create a router node.
    pub fn add_router(&mut self, config: RouterConfig) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.node_syms.push(crate::arena::intern(&config.name));
        self.nodes.push(Some(Node::Router(Router::new(id, config))));
        self.node_seq.push(0);
        self.node_rng
            .push(StdRng::seed_from_u64(node_seed(self.seed, id.0)));
        id
    }

    fn fresh_mac(&mut self) -> MacAddr {
        let m = MacAddr::from_index(self.next_mac);
        self.next_mac += 1;
        m
    }

    /// Tell the sharded runtime (if any) that `seg`'s attachments or
    /// configuration changed; see [`Runtime::touch`].
    fn touch_segment(&mut self, seg: SegmentId) {
        if let Some(rt) = &mut self.rt {
            rt.touch(seg.0);
        }
    }

    /// Create a new interface on `node`, attach it to `seg`, and optionally
    /// configure an address ("171.64.15.9/24"-style).
    pub fn attach(&mut self, node: NodeId, seg: SegmentId, addr: Option<&str>) -> IfaceNo {
        let mac = self.fresh_mac();
        let mtu = self.segments[seg.0].config.mtu;
        let n = self.nodes[node.0].as_mut().expect("node exists");
        let iface = n.nic_mut().add_iface(mac);
        n.nic_mut().set_segment(iface, Some(seg), mtu);
        if let Some(a) = addr {
            n.nic_mut().set_addr(iface, Some(IfaceAddr::parse(a)));
        }
        n.invalidate_route_cache();
        self.segments[seg.0].attach(node, iface);
        self.segments[seg.0].register_mac(node, iface, mac);
        self.touch_segment(seg);
        iface
    }

    /// Re-plug an existing interface into a different segment (mobility!).
    /// The address is left unchanged; callers configure it for the new net.
    pub fn reattach(&mut self, node: NodeId, iface: IfaceNo, seg: SegmentId) {
        self.detach(node, iface);
        let mtu = self.segments[seg.0].config.mtu;
        let n = self.nodes[node.0].as_mut().expect("node exists");
        n.nic_mut().set_segment(iface, Some(seg), mtu);
        let mac = n.nic().mac(iface);
        n.invalidate_route_cache();
        self.segments[seg.0].attach(node, iface);
        self.segments[seg.0].register_mac(node, iface, mac);
        self.touch_segment(seg);
    }

    /// Unplug an interface from whatever segment it is on.
    pub fn detach(&mut self, node: NodeId, iface: IfaceNo) {
        let n = self.nodes[node.0].as_mut().expect("node exists");
        if let Some(old) = n.nic().segment(iface) {
            self.segments[old.0].detach(node, iface);
            n.nic_mut().set_segment(iface, None, 1500);
            n.invalidate_route_cache();
            self.touch_segment(old);
        }
    }

    // ---- access -------------------------------------------------------------

    /// Number of nodes ever created.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow a host (panics if `id` is a router).
    pub fn host(&self, id: NodeId) -> &Host {
        match self.nodes[id.0].as_ref().expect("node present") {
            Node::Host(h) => h,
            Node::Router(_) => panic!("node {} is a router", id.0),
        }
    }

    /// Mutably borrow a host (panics if `id` is a router).
    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match self.nodes[id.0].as_mut().expect("node present") {
            Node::Host(h) => h,
            Node::Router(_) => panic!("node {} is a router", id.0),
        }
    }

    /// Mutably borrow a router (panics if `id` is a host).
    pub fn router_mut(&mut self, id: NodeId) -> &mut Router {
        match self.nodes[id.0].as_mut().expect("node present") {
            Node::Router(r) => r,
            Node::Host(_) => panic!("node {} is a host", id.0),
        }
    }

    /// A segment's traffic counters.
    pub fn segment_stats(&self, seg: SegmentId) -> LinkStats {
        self.seg_states[seg.0].stats
    }

    /// Mutably borrow a segment's parameters (tests change fault rates).
    /// Marks the segment for shard re-classification: a fault config can
    /// legalize or outlaw a shard border.
    pub fn segment_config_mut(&mut self, seg: SegmentId) -> &mut LinkConfig {
        self.touch_segment(seg);
        &mut self.segments[seg.0].config
    }

    /// Split the world into what firing an event at `id` takes: the node's
    /// own slots, and everything else as the inline engine lends it.
    fn parts(&mut self, id: NodeId) -> (NodeView<'_>, Engine<'_, '_>) {
        let view = NodeView {
            node: &mut self.nodes[id.0],
            seq: &mut self.node_seq[id.0],
            rng: &mut self.node_rng[id.0],
        };
        let owner_node = self.rt.as_ref().map_or(&[][..], |rt| &rt.owner_node);
        let eng = Engine {
            segments: &self.segments,
            metrics: &mut self.metrics,
            sched: self.queues.sched(owner_node),
            media: Media::World(&mut self.seg_states),
            obs: Observers::Inline(Inline {
                trace: &mut self.trace,
                invariants: &mut self.invariants,
                pcap: &mut self.pcap,
            }),
        };
        (view, eng)
    }

    /// Run `f` against a host with a live [`NetCtx`] — how tests, examples
    /// and the mobility layer inject work into the simulation.
    pub fn host_do<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Host, &mut NetCtx) -> R) -> R {
        self.ensure_runtime();
        let now = self.now;
        let (mut view, eng) = self.parts(id);
        with_ctx(now, id, &mut view, eng, |node, ctx| {
            match node.expect("node present") {
                Node::Host(h) => f(h, ctx),
                Node::Router(_) => panic!("node {} is a router", id.0),
            }
        })
    }

    /// Schedule an immediate application poll on `node` (bootstraps apps).
    pub fn poll_soon(&mut self, node: NodeId) {
        self.ensure_runtime();
        let now = self.now;
        let (view, mut eng) = self.parts(node);
        let key = lane_key(node_lane(node), *view.seq);
        *view.seq += 1;
        let kind = EventKind::Timer(Timer {
            node,
            token: token(NS_APPS, 0),
        });
        eng.sched.push_keyed(now, key, kind);
    }

    // ---- sharded runtime --------------------------------------------------

    /// Topology views the shard partitioner consumes: per-segment attached
    /// node ids (deduplicated, ascending) and the inverse per-node segment
    /// lists. O(world); built once, when the runtime is created.
    fn topo_views(&self) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let seg_nodes: Vec<Vec<usize>> = self
            .segments
            .iter()
            .map(|s| {
                let mut v: Vec<usize> = s.attachments().iter().map(|&(n, _)| n.0).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let mut node_segs: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (s, nodes) in seg_nodes.iter().enumerate() {
            for &n in nodes {
                node_segs[n].push(s);
            }
        }
        (seg_nodes, node_segs)
    }

    /// Create the sharded runtime, or bring it up to date with the
    /// segments touched since it last ran. A no-op when sharding is off
    /// (one shard requested, fewer than two segments, or permanently
    /// locked serial). On creation the queue set spreads over one queue
    /// per shard — refused (and reported by [`World::shard_degradation`])
    /// if cancellable timer handles are still live, since their slab
    /// identity cannot survive the migration.
    fn ensure_runtime(&mut self) {
        if self.shards_requested <= 1 || self.serial_locked {
            return;
        }
        if let Some(rt) = &mut self.rt {
            rt.refresh(&self.segments, self.nodes.len());
            return;
        }
        if self.segments.len() < 2 {
            return;
        }
        if self.queues.live_cancellable() > 0 {
            self.serial_locked = true;
            return;
        }
        let (seg_nodes, node_segs) = self.topo_views();
        let rt = Runtime::partition(
            self.shards_requested,
            self.metrics.enabled(),
            &self.segments,
            &seg_nodes,
            &node_segs,
        );
        self.queues
            .partition(rt.nshards, self.sched_kind, &rt.owner_node);
        self.rt = Some(rt);
    }

    /// Test hook for the incremental ≡ from-scratch property: bring the
    /// runtime up to date the way every run does, then check new nodes'
    /// sticky owners and every derived placement against the whole-world
    /// derivation over [`World::topo_views`].
    #[cfg(test)]
    pub(crate) fn check_shard_upkeep(&mut self) {
        let known = self.rt.as_ref().map_or(0, |rt| rt.owner_node.len());
        self.ensure_runtime();
        let (seg_nodes, node_segs) = self.topo_views();
        let rt = self.rt.as_mut().expect("sharded world with two segments");
        for (n, segs) in node_segs.iter().enumerate().skip(known) {
            let want = match segs.first() {
                Some(&s) => rt.owner_seg[s],
                None => (n % rt.nshards) as u32,
            };
            assert_eq!(rt.owner_node[n], want, "owner of new node {n}");
        }
        let incremental = rt.derived();
        rt.rebuild(&self.segments, &seg_nodes);
        assert_eq!(incremental, rt.derived());
    }

    // ---- event loop -----------------------------------------------------------

    /// Fire one already-popped event inline.
    fn dispatch(&mut self, kind: EventKind) {
        let now = self.now;
        let (mut view, eng) = self.parts(event_node(&kind));
        fire(now, kind, &mut view, eng);
    }

    /// Pop the next canonical batch due by `deadline` into the (empty)
    /// batch buffer, advance the clock to it and show the per-batch
    /// observers — gauge sampler, scheduler reconciliation — the ledger as
    /// it stands. `false` when nothing is due.
    fn load_batch(&mut self, deadline: SimTime) -> bool {
        let t = {
            let _prof = crate::profile::scope("sched/pop_batch");
            self.queues.pop_batch_until(deadline, &mut self.batch)
        };
        let Some(t) = t else { return false };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.maybe_sample();
        if self.invariants.enabled() {
            // The just-popped batch is dispatched-but-not-yet-run; the
            // ledger already counts it as dispatched and the queues no
            // longer hold it, so the two balance here.
            let (stats, pending) = self.sched_ledger();
            self.invariants.check_scheduler(self.now, &stats, pending);
        }
        true
    }

    /// Process one event. Returns `false` when the queue is empty. Events
    /// come off the same canonical batches a run fires, so stepping, a run,
    /// or any mix of the two walk one history. O(batch) per call.
    pub fn step(&mut self) -> bool {
        let _prof = crate::profile::scope("world/step");
        self.ensure_runtime();
        if self.batch.is_empty() && !self.load_batch(SimTime(u64::MAX)) {
            return false;
        }
        let Event { kind, .. } = self.batch.remove(0);
        self.dispatch(kind);
        true
    }

    /// Run until the queue is empty or simulated time reaches `deadline`.
    ///
    /// Events are drained in same-timestamp batches: one queue probe pulls
    /// everything scheduled for the next instant (and decides the deadline
    /// check), instead of a peek *and* a pop per event. Events a batch
    /// schedules at the same instant get sequence numbers after the batch
    /// and are picked up by the next probe, so dispatch order is exactly
    /// the (time, seq) order of the one-at-a-time path — and, with more
    /// than one shard, exactly the serial order (see [`World::with_shards`]).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_driven(deadline, None);
        self.now = self.now.max(deadline);
    }

    /// Run for a further `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Run until no events remain (bounded by `limit` events as a runaway
    /// guard). Panics if the limit is hit — a quiescing network should
    /// always drain.
    pub fn run_until_idle(&mut self, limit: usize) {
        self.run_driven(SimTime(u64::MAX), Some(limit as u64));
    }

    /// The shared driver behind [`World::run_until`] and
    /// [`World::run_until_idle`]: the barrier loop for a sharded world
    /// whose borders and telemetry allow deferred replay, the inline loop
    /// for every other — serial worlds over their one queue, degraded
    /// sharded ones over their shards' queues.
    fn run_driven(&mut self, deadline: SimTime, limit: Option<u64>) {
        let _prof = crate::profile::scope("world/run");
        self.ensure_runtime();
        let why = self.shard_degradation();
        if let Some(why) = why {
            if !std::mem::replace(&mut self.warned, true) {
                eprintln!("netsim: sharded run degraded to in-order dispatch on one thread: {why}");
            }
        }
        if self.rt.is_some() && why.is_none() {
            // What `step` left of a batch is fired inline first.
            self.fire_batch(limit, &mut 0);
            self.run_sharded(deadline, limit);
        } else {
            self.run_inline(deadline, limit);
        }
        // Fold the shards' commutative counters into the world registry so
        // readers see one coherent view between runs.
        if let Some(rt) = &mut self.rt {
            let enabled = self.metrics.enabled();
            for m in &mut rt.shard_metrics {
                self.metrics.merge(m);
                *m = MetricsRegistry::new(enabled);
            }
        }
        self.shrink_after_run();
    }

    /// Give back burst capacity once a run has drained: scheduler bucket
    /// vectors (and the dispatch batch buffer) grow to the largest
    /// same-instant fan-out they ever carried — a broadcast storm on one
    /// big LAN — and would otherwise hold that high-water mark forever.
    fn shrink_after_run(&mut self) {
        self.queues.shrink();
        if self.batch.is_empty() && self.batch.capacity() > 32 {
            self.batch = Vec::new();
        }
    }

    /// Fire everything in the batch buffer, in order.
    fn fire_batch(&mut self, limit: Option<u64>, fired: &mut u64) {
        if self.batch.is_empty() {
            return;
        }
        let _prof = crate::profile::scope("world/dispatch");
        let mut batch = std::mem::take(&mut self.batch);
        for Event { kind, .. } in batch.drain(..) {
            check_event_limit(limit, *fired, self.now);
            *fired += 1;
            self.dispatch(kind);
        }
        self.batch = batch;
    }

    /// The inline loop: every canonical batch due by `deadline`, popped
    /// from the queue set and fired on this thread with the observers
    /// running inline. Over one queue this is serial execution; over N it
    /// is the exact serial order all the same, since a batch is the
    /// key-sorted union of the queues' batches at the globally earliest
    /// timestamp.
    fn run_inline(&mut self, deadline: SimTime, limit: Option<u64>) {
        let mut fired = 0u64;
        loop {
            self.fire_batch(limit, &mut fired);
            if !self.load_batch(deadline) {
                break;
            }
        }
    }

    /// The conservative parallel protocol. Repeats a barrier loop:
    ///
    /// 1. probe every shard's next-activity time;
    /// 2. relax the probes through the border graph (link latency is the
    ///    lookahead) into per-shard *effective* lower bounds;
    /// 3. apply buffered cross-shard transmissions whose send time every
    ///    adjacent shard has provably passed;
    /// 4. replay finished rounds below the global frontier in canonical
    ///    `(time, round, key)` order — trace, pcap, invariants and the
    ///    scheduler ledger observe exactly the serial history;
    /// 5. run every shard that can advance for one window, dispatching
    ///    only events strictly below its horizon.
    ///
    /// Exits when every queue is drained past `deadline` with nothing left
    /// to apply or replay.
    ///
    /// The world is split once, before the loop, into disjoint borrows:
    /// each shard's [`ShardRun`] holds its queue, its nodes and its private
    /// media for the whole run; the [`Coordinator`] holds the observers,
    /// the clock and the border media. The `nshards - 1` workers are
    /// spawned once and park on a channel between windows; a window's
    /// first participant runs on the calling thread, so a window only one
    /// shard can advance in costs no hand-off.
    fn run_sharded(&mut self, deadline: SimTime, limit: Option<u64>) {
        let mut rt = self.rt.take().expect("runtime present");
        let nshards = rt.nshards;
        let mut nodes_p: Vec<Vec<NodeView>> = rt
            .members
            .iter()
            .map(|m| Vec::with_capacity(m.len()))
            .collect();
        let per_node = self.nodes.iter_mut().zip(&mut self.node_seq);
        for (((node, seq), rng), &owner) in per_node.zip(&mut self.node_rng).zip(&rt.owner_node) {
            nodes_p[owner as usize].push(NodeView { node, seq, rng });
        }
        // Private segment state goes to its home shard's slot; border
        // state stays with the coordinator, parallel to `borders.adj`.
        let mut border_states: Vec<Option<&mut SegState>> =
            rt.borders.adj.iter().map(|_| None).collect();
        let mut segst_p: Vec<Vec<Option<&mut SegState>>> = rt
            .seg_members
            .iter()
            .map(|m| m.iter().map(|_| None).collect())
            .collect();
        for (s, st) in self.seg_states.iter_mut().enumerate() {
            match border_states.get_mut(rt.borders.ix[s] as usize) {
                Some(b) => *b = Some(st),
                None => segst_p[rt.seg_home[s] as usize][rt.seg_slot[s] as usize] = Some(st),
            }
        }
        let shared = ShardShared {
            segments: &self.segments,
            node_slot: &rt.node_slot,
            seg_slot: &rt.seg_slot,
            borders: &rt.borders,
            on: Watching {
                invariants: self.invariants.enabled(),
                trace: self.trace.is_enabled(),
                pcap: self.pcap.is_some(),
            },
        };
        // Each shard takes its queue; the coordinator keeps the ledger.
        let Sched {
            queues,
            owner_node,
            ledger: sim_stats,
        } = self.queues.sched(&rt.owner_node);
        let per_shard = queues.iter_mut().zip(&mut rt.shard_metrics);
        let mut runs: Vec<Option<ShardRun>> = per_shard
            .zip(&mut rt.stats)
            .zip(nodes_p.into_iter().zip(segst_p))
            .map(|(((queue, metrics), stats), (nodes, seg_states))| {
                Some(ShardRun {
                    horizon: SimTime::ZERO,
                    budget: u64::MAX,
                    queue,
                    metrics,
                    stats,
                    nodes,
                    seg_states: seg_states.into_iter().flatten().collect(),
                    rounds: Vec::new(),
                    buf: Vec::new(),
                    events: 0,
                })
            })
            .collect();
        let mut coord = Coordinator {
            now: &mut self.now,
            node_count: self.node_syms.len(),
            segments: &self.segments,
            border_states: border_states.into_iter().flatten().collect(),
            obs: Inline {
                trace: &mut self.trace,
                invariants: &mut self.invariants,
                pcap: &mut self.pcap,
            },
            metrics: &mut self.metrics,
            sampler: &mut self.sampler,
            borders: &rt.borders,
            owner_node,
            sim_stats,
            pending_rounds: &mut rt.pending_rounds,
            pending_txs: &mut rt.pending_txs,
            tx_records: &mut rt.tx_records,
        };
        std::thread::scope(|scope| {
            // Shard `r > 0` always runs on worker `r - 1`, so its nodes
            // stay warm in one core's cache. A `ShardRun` travels to its
            // worker and back by value: ownership is the synchronisation.
            let nworkers = if rt.parallel { nshards - 1 } else { 0 };
            let workers: Vec<(Sender<ShardRun>, Receiver<ShardRun>)> = (0..nworkers)
                .map(|_| {
                    let (job_tx, job_rx) = channel::<ShardRun>();
                    let (done_tx, done_rx) = channel();
                    let sh = &shared;
                    scope.spawn(move || {
                        for mut run in job_rx {
                            run_shard_window(sh, &mut run);
                            if done_tx.send(run).is_err() {
                                break;
                            }
                        }
                    });
                    (job_tx, done_rx)
                })
                .collect();
            let (mut t_next, mut floors, mut eff) = (Vec::new(), Vec::new(), Vec::new());
            let (mut horizons, mut participants) = (Vec::new(), Vec::<usize>::new());
            let mut replayed_events: u64 = 0;
            // One event past the limit, so the overrun is seen and replayed
            // into the canonical limit panic.
            let allowance = limit.map_or(u64::MAX, |l| l.saturating_add(1));
            loop {
                coord.probe(&runs, &mut t_next, &mut floors, &mut eff);
                let applied = coord.apply_border_txs(&mut runs, &eff);
                if applied > 0 {
                    coord.probe(&runs, &mut t_next, &mut floors, &mut eff);
                }
                let frontier = eff.iter().copied().min().unwrap_or(u64::MAX);
                let replayed = coord.replay_rounds(&runs, frontier, limit, &mut replayed_events);
                coord.borders.horizons(&eff, deadline, &mut horizons);
                participants.clear();
                for r in 0..nshards {
                    let run = parked(&mut runs[r]);
                    let Some(t) = t_next[r] else { continue };
                    if t > deadline {
                        continue;
                    }
                    if limit.is_some_and(|l| run.events > l) {
                        // Locally over the event limit: excluded so the forced
                        // replay below fires the canonical limit panic.
                        continue;
                    }
                    if t < horizons[r] {
                        run.horizon = horizons[r];
                        run.budget = allowance.saturating_sub(run.events);
                        participants.push(r);
                    } else {
                        run.stats.stalls += 1;
                    }
                }
                let Some((&first, rest)) = participants.split_first() else {
                    if applied > 0 || replayed > 0 {
                        continue;
                    }
                    if limit.is_some_and(|l| runs.iter().flatten().any(|run| run.events > l)) {
                        coord.replay_rounds(&runs, u64::MAX, limit, &mut replayed_events);
                        unreachable!("forced replay past the event limit must panic");
                    }
                    if t_next.iter().all(|t| t.is_none_or(|t| t > deadline)) {
                        break;
                    }
                    panic!("netsim: sharded scheduler stalled with runnable events");
                };
                let _prof = crate::profile::scope("world/shard_window");
                for &r in rest {
                    if let Some((job, _)) = workers.get(r - 1) {
                        let run = runs[r].take().expect("shard parked between windows");
                        job.send(run).expect("shard worker alive");
                    }
                }
                run_shard_window(&shared, parked(&mut runs[first]));
                for &r in rest {
                    match workers.get(r - 1) {
                        Some((_, done)) => {
                            runs[r] = Some(done.recv().expect("shard worker panicked"));
                        }
                        None => run_shard_window(&shared, parked(&mut runs[r])),
                    }
                }
                for &r in &participants {
                    coord.collect(parked(&mut runs[r]));
                }
            }
        });
        debug_assert!(
            rt.pending_txs.is_empty(),
            "undelivered border transmissions"
        );
        debug_assert!(rt.pending_rounds.is_empty(), "unreplayed rounds");
        self.rt = Some(rt);
    }

    // ---- scheduler introspection -------------------------------------------

    /// Events not yet fired (cancelled timers excluded).
    pub fn pending_events(&self) -> usize {
        self.queues.len() + self.batch.len()
    }

    /// Scheduler activity counters: events pushed, dispatched, and
    /// cancelled before firing. Cancelled events are never dispatched and
    /// therefore never reach the trace or metrics. One ledger whatever the
    /// shard count, byte-identical with the serial counters.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.queues.stats()
    }

    /// Timing-wheel gauges (cascades, occupancy, overflow pressure)
    /// recorded while the flight recorder was enabled; all zeros
    /// otherwise and on the reference-heap backend. In sharded mode the
    /// per-shard wheels' gauges are merged (counters summed, peaks maxed).
    pub fn scheduler_telemetry(&self) -> SchedulerTelemetry {
        self.queues.telemetry()
    }

    /// Per-shard utilization counters (events dispatched, windows run,
    /// horizon stalls, border messages in/out); `None` until the sharded
    /// runtime exists (serial worlds never create one).
    pub fn shard_stats(&self) -> Option<&[ShardStats]> {
        self.rt.as_ref().map(|rt| rt.stats.as_slice())
    }

    /// Why this world, asked for more than one shard, runs the inline loop
    /// on one thread instead of the parallel protocol, if it does:
    /// cancellable timers that predate the sharded runtime (which was
    /// then never created), a faulty or zero-latency segment on a shard
    /// border, or armed sketched metrics. `None` for serial worlds and for
    /// sharded worlds running the parallel protocol.
    pub fn shard_degradation(&self) -> Option<&'static str> {
        let Some(rt) = &self.rt else {
            return self
                .serial_locked
                .then_some("cancellable timers predate the sharded runtime");
        };
        rt.degraded().or(self
            .metrics
            .sketch_armed()
            .then_some("sketched metrics are dispatch-order-sensitive"))
    }

    /// How many shards the event loop actually runs on (1 = serial).
    pub fn shard_count(&self) -> usize {
        self.rt.as_ref().map_or(1, |rt| rt.nshards)
    }

    // ---- gauge sampling --------------------------------------------------------

    /// Start sampling runtime gauges (dispatch rates, live timers, wheel
    /// occupancy, route-cache counters, a heap-footprint estimate) every
    /// `interval` of *simulated* time, keeping at most `cap` samples: when
    /// the buffer fills, every other sample is dropped and the interval
    /// doubles, so arbitrarily long runs stay bounded and evenly covered.
    pub fn enable_sampling(&mut self, interval: SimDuration, cap: usize) {
        self.sampler = Some(Box::new(crate::profile::TimeSeries::new(interval.0, cap)));
    }

    /// The gauge sampler — its samples so far, oldest first, and the
    /// section run reports embed; `None` until [`World::enable_sampling`].
    pub fn sampler(&self) -> Option<&crate::profile::TimeSeries> {
        self.sampler.as_deref()
    }

    /// Record a gauge sample if sampling is on and one is due at the
    /// current sim time.
    fn maybe_sample(&mut self) {
        if let Some(sampler) = self.sampler.as_deref_mut() {
            let (nodes, traced) = (self.nodes.len(), self.trace.events().len());
            let (stats, live) = (self.queues.stats(), self.queues.len() as u64);
            sample(
                sampler,
                self.now,
                nodes,
                traced,
                stats,
                live,
                self.queues.iter(),
            );
        }
    }

    // ---- automatic routing ----------------------------------------------------

    /// Compute shortest-path routes (by cumulative link latency) from every
    /// node to every addressed prefix in the topology and install them,
    /// replacing existing route tables. Only routers forward, so paths only
    /// transit router nodes. Call once after building a static topology.
    pub fn compute_routes(&mut self) {
        let _prof = crate::profile::scope("world/compute_routes");
        let seg_count = self.segments.len();

        // Which prefixes live on which segment. Order preserved (it decides
        // route-table order); the HashSet makes dedup O(1) per interface
        // instead of a linear rescan of everything seen so far.
        let mut prefix_home: Vec<(Ipv4Cidr, SegmentId)> = Vec::new();
        let mut prefix_seen: HashSet<(Ipv4Cidr, SegmentId)> = HashSet::new();
        for (_, node) in self.nodes_iter() {
            let nic = node.nic();
            for i in 0..nic.iface_count() {
                if let (Some(a), Some(seg)) = (nic.addr(i), nic.segment(i)) {
                    if prefix_seen.insert((a.prefix, seg)) {
                        prefix_home.push((a.prefix, seg));
                    }
                }
            }
        }

        // Router adjacency: router R with ifaces on segments A and B links
        // A↔B. Also remember each router's address on each segment.
        // Indexed by segment number directly — segment ids are dense.
        let mut seg_routers: Vec<Vec<(NodeId, IfaceNo, Ipv4Addr)>> = vec![Vec::new(); seg_count];
        for (id, node) in self.nodes_iter() {
            if !node.is_router() {
                continue;
            }
            let nic = node.nic();
            for i in 0..nic.iface_count() {
                if let (Some(a), Some(seg)) = (nic.addr(i), nic.segment(i)) {
                    seg_routers[seg.0].push((id, i, a.addr));
                }
            }
        }

        let node_ids: Vec<NodeId> = (0..self.nodes.len())
            .filter(|i| self.nodes[*i].is_some())
            .map(NodeId)
            .collect();

        // Dijkstra scratch arrays, allocated once and reset per node (flat
        // vectors indexed by segment instead of per-node HashMaps).
        let mut dist: Vec<Option<u64>> = vec![None; seg_count];
        let mut pred: Vec<Option<(Ipv4Addr, usize)>> = vec![None; seg_count];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();

        for me in node_ids {
            let (starts, my_segs): (Vec<(usize, IfaceNo)>, Vec<usize>) = {
                let node = self.nodes[me.0].as_ref().unwrap();
                let nic = node.nic();
                let mut starts = Vec::new();
                for i in 0..nic.iface_count() {
                    if let Some(seg) = nic.segment(i) {
                        if nic.addr(i).is_some() {
                            starts.push((seg.0, i));
                        }
                    }
                }
                let segs = starts.iter().map(|&(s, _)| s).collect();
                (starts, segs)
            };
            if starts.is_empty() {
                continue;
            }

            // Dijkstra over segments. dist[s], pred[s] = (via_router_addr,
            // prev_segment).
            dist.fill(None);
            pred.fill(None);
            heap.clear();
            for &(s, _) in &starts {
                let w = self.segments[s].config.latency.as_micros() + 1;
                if dist[s].is_none_or(|d| w < d) {
                    dist[s] = Some(w);
                    heap.push(std::cmp::Reverse((w, s)));
                }
            }
            while let Some(std::cmp::Reverse((d, s))) = heap.pop() {
                if dist[s] != Some(d) {
                    continue;
                }
                // Expand via every router on segment s.
                for &(rid, _, raddr) in &seg_routers[s] {
                    if rid == me {
                        continue;
                    }
                    let rnic = self.nodes[rid.0].as_ref().unwrap().nic();
                    for j in 0..rnic.iface_count() {
                        let Some(next) = rnic.segment(j) else {
                            continue;
                        };
                        if next.0 == s || rnic.addr(j).is_none() {
                            continue;
                        }
                        let w = d + self.segments[next.0].config.latency.as_micros() + 1;
                        if dist[next.0].is_none_or(|cur| w < cur) {
                            dist[next.0] = Some(w);
                            pred[next.0] = Some((raddr, s));
                            heap.push(std::cmp::Reverse((w, next.0)));
                        }
                    }
                }
            }

            // Install routes.
            let mut new_routes: Vec<(Ipv4Cidr, IfaceNo, Option<Ipv4Addr>)> = Vec::new();
            for &(prefix, home_seg) in &prefix_home {
                if my_segs.contains(&home_seg.0) {
                    // On-link: routers need an explicit connected route;
                    // hosts resolve on-link destinations directly but the
                    // route is harmless for them too.
                    let iface = starts.iter().find(|&&(s, _)| s == home_seg.0).unwrap().1;
                    new_routes.push((prefix, iface, None));
                    continue;
                }
                if dist[home_seg.0].is_none() {
                    continue; // unreachable
                }
                // Walk predecessors back to one of our start segments to
                // find the first-hop gateway.
                let mut seg = home_seg.0;
                let gateway;
                loop {
                    let (raddr, prev) = pred[seg].expect("pred chain");
                    if my_segs.contains(&prev) {
                        gateway = (raddr, prev);
                        break;
                    }
                    seg = prev;
                }
                let iface = starts.iter().find(|&&(s, _)| s == gateway.1).unwrap().1;
                new_routes.push((prefix, iface, Some(gateway.0)));
            }

            let node = self.nodes[me.0].as_mut().unwrap();
            node.clear_routes();
            for (p, i, g) in new_routes {
                node.add_route(p, i, g);
            }
        }
    }

    fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (NodeId(i), n)))
    }
}

// ---------------------------------------------------------------------------
// Per-batch helpers of both loops
// ---------------------------------------------------------------------------

/// The runaway guard of [`World::run_until_idle`]: a quiescing network
/// always drains, so firing event number `limit + 1` is a bug to stop at.
fn check_event_limit(limit: Option<u64>, fired: u64, now: SimTime) {
    if let Some(limit) = limit {
        if fired >= limit {
            panic!("run_until_idle: event limit {limit} exceeded at t={now}");
        }
    }
}

/// Record a gauge sample, if one is due, of the scheduler ledger `s`, the
/// `live` events behind it and the instantaneous state of the wheels.
/// Profile-gauge-grade: under the barrier loop the wheels are an
/// instantaneous parallel snapshot, outside the byte-identity guarantee
/// (which covers reports, metrics, traces and pcaps, not the profiler's
/// own sampling of wheel internals). The heap-footprint gauge is a crude
/// estimate: node, trace-event and queued-event counts times
/// representative per-entry sizes.
fn sample<'q>(
    sampler: &mut crate::profile::TimeSeries,
    now: SimTime,
    nodes: usize,
    traced: usize,
    s: SchedulerStats,
    live: u64,
    queues: impl Iterator<Item = &'q EventQueue>,
) {
    if !sampler.due(now.0) {
        return;
    }
    let mut occ_sum = 0u64;
    let mut overflow = 0usize;
    for q in queues {
        let (occ, of) = q.wheel_occupancy();
        occ_sum += occ.iter().sum::<u64>();
        overflow += of;
    }
    sampler.push(crate::profile::RawGauges {
        sim_us: now.0,
        dispatched: s.dispatched,
        live_timers: live,
        wheel_occupancy: occ_sum,
        overflow_len: overflow as u64,
        mem_est_bytes: nodes as u64 * 768 + traced as u64 * 160 + live * 112,
    });
}

// ---------------------------------------------------------------------------
// Sharded run: coordinator
// ---------------------------------------------------------------------------

/// The coordinator's slice of the world for one sharded run: the clock,
/// every order-sensitive observer, the border media and the barrier
/// protocol's buffers — everything no worker may touch. Shard queues and
/// stats are reached through the parked [`ShardRun`]s.
struct Coordinator<'w> {
    now: &'w mut SimTime,
    node_count: usize,
    segments: &'w [Segment],
    /// Border segment state, parallel to `borders.adj`.
    border_states: Vec<&'w mut SegState>,
    obs: Inline<'w>,
    metrics: &'w mut MetricsRegistry,
    sampler: &'w mut Option<Box<crate::profile::TimeSeries>>,
    borders: &'w Borders,
    owner_node: &'w [u32],
    sim_stats: &'w mut SchedulerStats,
    pending_rounds: &'w mut Vec<RoundLog>,
    pending_txs: &'w mut Vec<PendingTx>,
    tx_records: &'w mut [VecDeque<TxRecord>],
}

/// A shard's run state while the coordinator holds it — always, except
/// between a window's hand-off to a worker and its return.
fn parked<'a, 'w>(run: &'a mut Option<ShardRun<'w>>) -> &'a mut ShardRun<'w> {
    run.as_mut().expect("shard parked between windows")
}

impl<'w> Coordinator<'w> {
    /// Steps 1–2 of the barrier: every shard's next-activity time, relaxed
    /// through the border graph into effective lower bounds.
    fn probe(
        &self,
        runs: &[Option<ShardRun<'w>>],
        t_next: &mut Vec<Option<SimTime>>,
        floors: &mut Vec<u64>,
        eff: &mut Vec<u64>,
    ) {
        t_next.clear();
        t_next.extend(runs.iter().flatten().map(|run| run.queue.min_time()));
        self.borders.tx_floors(self.pending_txs, floors);
        self.borders.effective(t_next, floors, eff);
    }

    /// Take in what a shard logged during the window it just ran: its
    /// cross-shard transmissions join the pending buffer, its rounds await
    /// replay.
    fn collect(&mut self, run: &mut ShardRun<'w>) {
        for round in run.rounds.drain(..) {
            for g in &round.groups {
                for (i, op) in g.ops.iter().enumerate() {
                    if let Op::BorderTx { seg, iface, frame } = op {
                        run.stats.msgs_out += 1;
                        self.pending_txs.push(PendingTx {
                            seg: *seg,
                            t: round.t,
                            round: round.round,
                            key: g.key,
                            op: i as u32,
                            node: g.node,
                            iface: *iface,
                            frame: frame.clone(),
                        });
                    }
                }
            }
            self.pending_rounds.push(round);
        }
    }

    /// Apply every buffered cross-shard transmission whose send time is
    /// provably in every adjacent shard's past, in canonical order. The
    /// medium (occupancy, stats, delivery scheduling) evolves exactly as
    /// under serial dispatch; the observer half is recorded as a
    /// [`TxRecord`] consumed by the matching `Op::BorderTx` replay.
    fn apply_border_txs(&mut self, runs: &mut [Option<ShardRun<'w>>], eff: &[u64]) -> usize {
        if self.pending_txs.is_empty() {
            return 0;
        }
        // Canonical order: per segment the safe set is always a
        // time-prefix, so applying in this order under per-segment
        // thresholds evolves each medium exactly as the serial run would.
        self.pending_txs.sort_by_key(PendingTx::order);
        let mut applied = 0usize;
        let txs = std::mem::take(self.pending_txs);
        for tx in txs {
            if tx.t.0 >= self.borders.threshold(eff, tx.seg) {
                self.pending_txs.push(tx);
                continue;
            }
            let st = &mut *self.border_states[self.borders.ix[tx.seg] as usize];
            let (queue_wait, serialize) = if self.metrics.enabled() {
                (
                    st.backlog(tx.t),
                    self.segments[tx.seg].config.serialize_time(tx.frame.len()),
                )
            } else {
                (SimDuration::ZERO, SimDuration::ZERO)
            };
            let wire_len = tx.frame.len();
            let mut sink = BorderApplySink {
                runs: &mut *runs,
                owner_node: self.owner_node,
                pushed: 0,
            };
            let outcome =
                self.segments[tx.seg].transmit(st, (tx.node, tx.iface), tx.frame, tx.t, &mut sink);
            let pushed = sink.pushed;
            self.tx_records[tx.seg].push_back(TxRecord {
                wire_len,
                queue_wait,
                serialize,
                outcome,
                pushed,
            });
            applied += 1;
        }
        applied
    }

    /// Replay every logged round strictly below `frontier`: merge rounds
    /// with equal `(time, round)` across shards, order their event groups
    /// by lane key, and run each group's deferred observer effects. This
    /// is where the trace, the pcap stream, the conservation monitors and
    /// the scheduler ledger observe the run — in exactly the serial order.
    fn replay_rounds(
        &mut self,
        runs: &[Option<ShardRun<'w>>],
        frontier: u64,
        limit: Option<u64>,
        replayed_events: &mut u64,
    ) -> usize {
        if self.pending_rounds.is_empty() {
            return 0;
        }
        let all = std::mem::take(self.pending_rounds);
        let mut ready: Vec<RoundLog> = Vec::new();
        for r in all {
            if r.t.0 < frontier {
                ready.push(r);
            } else {
                self.pending_rounds.push(r);
            }
        }
        if ready.is_empty() {
            return 0;
        }
        let _prof = crate::profile::scope("world/replay");
        ready.sort_by_key(|r| (r.t, r.round));
        let mut count = 0usize;
        let mut i = 0usize;
        while i < ready.len() {
            let (t, round) = (ready[i].t, ready[i].round);
            let mut batch_total = 0u64;
            let mut groups: Vec<Group> = Vec::new();
            while i < ready.len() && ready[i].t == t && ready[i].round == round {
                batch_total += ready[i].batch_len;
                groups.append(&mut ready[i].groups);
                i += 1;
            }
            groups.sort_by_key(|g| g.key);
            debug_assert!(t >= *self.now, "time went backwards");
            *self.now = t;
            // As `World::load_batch` does: count the batch dispatched, then
            // show the per-batch observers the ledger.
            self.sim_stats.dispatched += batch_total;
            let s = *self.sim_stats;
            let live = s.pushed - s.dispatched - s.cancelled;
            if let Some(sampler) = self.sampler.as_deref_mut() {
                let queues = runs.iter().flatten().map(|run| &*run.queue);
                let traced = self.obs.trace.events().len();
                sample(sampler, t, self.node_count, traced, s, live, queues);
            }
            if self.obs.invariants.enabled() {
                self.obs.invariants.check_scheduler(t, &s, live);
            }
            for g in groups {
                check_event_limit(limit, *replayed_events, t);
                *replayed_events += 1;
                count += 1;
                self.sim_stats.pushed += g.counts.pushed;
                self.sim_stats.cancelled += g.counts.cancelled;
                for op in g.ops {
                    self.replay_op(g.node, op);
                }
            }
        }
        count
    }

    /// Replay one deferred observer effect at the current (replayed) time,
    /// through the inline observers.
    fn replay_op(&mut self, node: NodeId, op: Op) {
        let now = *self.now;
        match op {
            Op::Trace { kind, pkt } => self.obs.packet(now, node, kind, &pkt),
            Op::Transform {
                kind,
                parent,
                child,
            } => self.obs.transform(now, node, kind, parent.as_ref(), &child),
            Op::Promote { a, b, proto } => self.obs.trace.promote_endpoints(a, b, proto),
            Op::Transmitted {
                seg,
                outcome,
                frame,
            } => self
                .obs
                .transmitted(now, &self.segments[seg], outcome, &frame),
            Op::DetachedFrame => self.obs.invariants.note_detached_frame(),
            Op::Parked => self.obs.invariants.note_parked(),
            Op::Unparked => self.obs.invariants.note_unparked(),
            Op::Consumed { pkt } => self.obs.invariants.note_consumed(&pkt),
            Op::Rewrite { before, after } => self.obs.invariants.note_rewrite(&before, &after),
            Op::BorderTx {
                seg,
                iface: _,
                frame,
            } => {
                let rec = self.tx_records[seg]
                    .pop_front()
                    .expect("border tx applied before replay");
                self.metrics.record_transmit(
                    SegmentId(seg),
                    rec.wire_len,
                    rec.queue_wait,
                    rec.serialize,
                    rec.outcome,
                );
                self.obs
                    .transmitted(now, &self.segments[seg], rec.outcome, &frame);
                self.sim_stats.pushed += rec.pushed;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded run: shard worker
// ---------------------------------------------------------------------------

/// Read-only state shared by every shard worker during one run.
struct ShardShared<'w> {
    segments: &'w [Segment],
    node_slot: &'w [u32],
    seg_slot: &'w [u32],
    borders: &'w Borders,
    on: Watching,
}

/// One shard's mutable slice of the world for one run: its queue, metrics
/// registry, stats, and `&mut` views of its member nodes and private
/// segment states (indexed by slot). The coordinator sets `horizon` and
/// `budget` before each window the shard takes part in and drains `rounds`
/// after it.
struct ShardRun<'w> {
    horizon: SimTime,
    /// Remaining event allowance under `run_until_idle`'s limit: checked
    /// at batch boundaries only (a batch always completes), so it bounds
    /// runaway shards without ever splitting a canonical round.
    budget: u64,
    queue: &'w mut EventQueue,
    metrics: &'w mut MetricsRegistry,
    stats: &'w mut ShardStats,
    nodes: Vec<NodeView<'w>>,
    seg_states: Vec<&'w mut SegState>,
    rounds: Vec<RoundLog>,
    /// Same-timestamp batch buffer, drained every batch.
    buf: Vec<Event>,
    /// Events dispatched so far this run.
    events: u64,
}

/// Drain one shard's queue up to (strictly below) its horizon, dispatching
/// events against its own nodes and private media and logging every round
/// for canonical replay. Runs on a worker thread; everything it touches is
/// owned by or partitioned to this shard.
fn run_shard_window<'w>(shared: &ShardShared<'w>, run: &mut ShardRun<'w>) {
    let _prof = crate::profile::scope("world/shard_run");
    let hcap = SimTime(run.horizon.0 - 1);
    let mut cur_t: Option<SimTime> = None;
    let mut round: u32 = 0;
    run.stats.windows += 1;
    loop {
        if run.budget == 0 {
            break;
        }
        let Some(t) = run.queue.pop_batch_until(hcap, &mut run.buf) else {
            break;
        };
        // Shard-local round numbering at `t` coincides with the serial
        // scheduler's batch numbering at `t`: border latency is strictly
        // positive, so same-timestamp causality never crosses shards, and
        // a window never resumes another window's timestamp (a capped
        // shard is excluded from further windows entirely).
        round = match cur_t {
            Some(ct) if ct == t => round + 1,
            _ => 0,
        };
        cur_t = Some(t);
        let batch_len = run.buf.len() as u64;
        let mut groups: Vec<Group> = Vec::with_capacity(run.buf.len());
        for ev in run.buf.drain(..) {
            run.budget = run.budget.saturating_sub(1);
            let node = event_node(&ev.kind);
            let mut group = Group {
                key: ev.seq,
                node,
                counts: SchedulerStats::default(),
                ops: Vec::new(),
            };
            let view = &mut run.nodes[shared.node_slot[node.0] as usize];
            let eng = Engine {
                segments: shared.segments,
                metrics: &mut *run.metrics,
                sched: Sched {
                    queues: std::slice::from_mut(&mut *run.queue),
                    owner_node: &[],
                    ledger: &mut group.counts,
                },
                media: Media::Shard {
                    states: &mut run.seg_states,
                    slot: shared.seg_slot,
                    borders: shared.borders,
                },
                obs: Observers::Journal {
                    ops: &mut group.ops,
                    on: shared.on,
                },
            };
            fire(t, ev.kind, view, eng);
            groups.push(group);
        }
        run.events += batch_len;
        run.stats.events += batch_len;
        run.rounds.push(RoundLog {
            t,
            round,
            batch_len,
            groups,
        });
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::router::FilterRule;
    use crate::device::TxMeta;
    use crate::trace::DropReason;
    use crate::wire::icmp::IcmpMessage;
    use crate::wire::ipv4::IpProtocol;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn invariants_json(w: &World) -> String {
        serde_json::to_string(&w.invariant_report()).unwrap()
    }

    /// Two LANs joined by one router.
    ///   lanA(10.0.1.0/24): alice(.10) -- r(.1)
    ///   lanB(10.0.2.0/24): r(.1) -- bob(.10)
    fn two_lan_world() -> (World, NodeId, NodeId, NodeId) {
        let mut w = World::new(7);
        let lan_a = w.add_segment(LinkConfig::lan());
        let lan_b = w.add_segment(LinkConfig::lan());
        let alice = w.add_host(HostConfig::conventional("alice"));
        let bob = w.add_host(HostConfig::conventional("bob"));
        let r = w.add_router(RouterConfig::named("r"));
        w.attach(alice, lan_a, Some("10.0.1.10/24"));
        w.attach(bob, lan_b, Some("10.0.2.10/24"));
        w.attach(r, lan_a, Some("10.0.1.1/24"));
        w.attach(r, lan_b, Some("10.0.2.1/24"));
        w.compute_routes();
        (w, alice, bob, r)
    }

    #[test]
    fn ping_across_router() {
        let (mut w, alice, bob, _) = two_lan_world();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);
        // Bob logged the request, alice the reply.
        assert!(w
            .host(bob)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoRequest { seq: 1, .. })));
        assert!(w.host(alice).icmp_log.iter().any(|e| matches!(
            e.message,
            IcmpMessage::EchoReply { seq: 1, .. }
        ) && e.from == ip("10.0.2.10")));
    }

    #[test]
    fn ping_on_same_segment_needs_no_router() {
        let mut w = World::new(7);
        let lan = w.add_segment(LinkConfig::lan());
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        w.attach(a, lan, Some("10.0.1.1/24"));
        w.attach(b, lan, Some("10.0.1.2/24"));
        // No compute_routes: on-link resolution needs no routes at all.
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.1"), ip("10.0.1.2"), 5)
        });
        w.run_until_idle(1_000);
        assert!(w
            .host(a)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 5, .. })));
    }

    #[test]
    fn router_decrements_ttl_and_reports_expiry() {
        let (mut w, alice, _bob, _r) = two_lan_world();
        w.host_do(alice, |h, ctx| {
            let msg = IcmpMessage::EchoRequest {
                ident: 1,
                seq: 1,
                payload: Bytes::from_static(b"x"),
            };
            let mut p = Ipv4Packet::new(
                ip("10.0.1.10"),
                ip("10.0.2.10"),
                IpProtocol::Icmp,
                Bytes::from(msg.emit()),
            );
            p.ttl = 1; // dies at the router
            h.send_ip(ctx, p, TxMeta::default());
        });
        w.run_until_idle(1_000);
        let drops = w.trace.drops(|s| s.dst == ip("10.0.2.10"));
        assert!(drops.iter().any(|(_, r)| *r == DropReason::TtlExpired));
        // ICMP errors about ICMP are suppressed, so use UDP to see one.
        w.host_do(alice, |h, ctx| {
            let mut p = Ipv4Packet::new(
                ip("10.0.1.10"),
                ip("10.0.2.10"),
                IpProtocol::Udp,
                Bytes::from_static(b"payload!"),
            );
            p.ttl = 1;
            h.send_ip(ctx, p, TxMeta::default());
        });
        w.run_until_idle(1_000);
        assert!(w
            .host(alice)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::TimeExceeded { .. })));
    }

    #[test]
    fn no_route_is_dropped_and_reported() {
        let (mut w, alice, _, _) = two_lan_world();
        // Give alice a default route so the packet reaches the router,
        // which has no route for the destination and reports back.
        w.host_mut(alice)
            .add_route(Ipv4Cidr::default_route(), 0, Some(ip("10.0.1.1")));
        w.host_do(alice, |h, ctx| {
            let p = Ipv4Packet::new(
                ip("10.0.1.10"),
                ip("99.99.99.99"),
                IpProtocol::Udp,
                Bytes::from_static(b"nowhere"),
            );
            h.send_ip(ctx, p, TxMeta::default());
        });
        w.run_until_idle(1_000);
        let drops = w.trace.drops(|s| s.dst == ip("99.99.99.99"));
        assert!(drops.iter().any(|(_, r)| *r == DropReason::NoRoute));
        assert!(w.host(alice).icmp_log.iter().any(|e| matches!(
            e.message,
            IcmpMessage::DestUnreachable {
                code: crate::wire::icmp::UnreachableCode::Net,
                ..
            }
        )));
    }

    #[test]
    fn ingress_filter_blocks_spoofed_source_end_to_end() {
        let (mut w, alice, bob, r) = two_lan_world();
        // Boundary filter: packets arriving on lanA's router iface (0) with
        // sources claiming lanB are spoofed.
        let inside: Ipv4Cidr = "10.0.2.0/24".parse().unwrap();
        w.router_mut(r)
            .filters
            .push(FilterRule::ingress_source_filter(0, inside));
        // Alice spoofs bob's network as source (the Figure 2 situation).
        w.host_do(alice, |h, ctx| {
            let p = Ipv4Packet::new(
                ip("10.0.2.99"),
                ip("10.0.2.10"),
                IpProtocol::Udp,
                Bytes::from_static(b"spoof"),
            );
            h.send_ip(ctx, p, TxMeta::default());
        });
        w.run_until_idle(1_000);
        let drops = w.trace.drops(|s| s.src == ip("10.0.2.99"));
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].1, DropReason::SourceAddressFilter);
        assert_eq!(w.trace.deliveries(|s| s.dst == ip("10.0.2.10")), 0);
        // Honest traffic still flows.
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 9)
        });
        w.run_until_idle(10_000);
        assert!(w
            .host(bob)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoRequest { seq: 9, .. })));
    }

    #[test]
    fn detached_interface_receives_nothing() {
        let mut w = World::new(7);
        let lan = w.add_segment(LinkConfig::lan());
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        w.attach(a, lan, Some("10.0.1.1/24"));
        let b_if = w.attach(b, lan, Some("10.0.1.2/24"));
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.1"), ip("10.0.1.2"), 1)
        });
        w.detach(b, b_if); // unplug before the frame arrives
        w.run_until_idle(1_000);
        assert!(w.host(b).icmp_log.is_empty());
    }

    #[test]
    fn reattach_moves_host_between_segments() {
        let mut w = World::new(7);
        let lan_a = w.add_segment(LinkConfig::lan());
        let lan_b = w.add_segment(LinkConfig::lan());
        let fixed_a = w.add_host(HostConfig::conventional("fa"));
        let fixed_b = w.add_host(HostConfig::conventional("fb"));
        let roamer = w.add_host(HostConfig::conventional("roamer"));
        w.attach(fixed_a, lan_a, Some("10.0.1.1/24"));
        w.attach(fixed_b, lan_b, Some("10.0.2.1/24"));
        let r_if = w.attach(roamer, lan_a, Some("10.0.1.99/24"));

        w.host_do(roamer, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.99"), ip("10.0.1.1"), 1)
        });
        w.run_until_idle(1_000);
        assert_eq!(w.host(roamer).icmp_log.len(), 1);

        // Move to lanB and renumber.
        w.reattach(roamer, r_if, lan_b);
        w.host_mut(roamer)
            .set_iface_addr(r_if, Some(IfaceAddr::parse("10.0.2.99/24")));
        w.host_do(roamer, |h, ctx| {
            h.send_ping(ctx, ip("10.0.2.99"), ip("10.0.2.1"), 2)
        });
        w.run_until_idle(1_000);
        assert!(w.host(roamer).icmp_log.iter().any(|e| matches!(
            e.message,
            IcmpMessage::EchoReply { seq: 2, .. }
        ) && e.from == ip("10.0.2.1")));
    }

    #[test]
    fn trace_hop_counts_measure_path_length() {
        let (mut w, alice, _, _) = two_lan_world();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 3)
        });
        w.run_until_idle(10_000);
        // Request: alice Sent + router Forwarded = 2 wire traversals.
        let hops = w
            .trace
            .hops(|s| s.dst == ip("10.0.2.10") && s.protocol == IpProtocol::Icmp);
        assert_eq!(hops, 2);
    }

    #[test]
    fn metrics_registry_agrees_with_link_stats_and_trace() {
        let (mut w, alice, bob, r) = two_lan_world();
        w.enable_metrics();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);

        // Per-segment frames/bytes must match the LinkStats the segments
        // themselves keep (ARP included).
        for seg in [SegmentId(0), SegmentId(1)] {
            let stats = w.segment_stats(seg);
            let m = w.metrics.segment(seg);
            assert_eq!(m.frames, stats.frames, "segment {} frames", seg.0);
            assert_eq!(m.bytes, stats.bytes, "segment {} bytes", seg.0);
            assert_eq!(m.wire_drops, stats.fault_drops + stats.oversize_drops);
            assert_eq!(m.crc_drops, stats.crc_drops);
            assert!(m.frames > 0);
            assert!(m.busy.as_micros() > 0);
        }

        // Per-node counters must match what the trace derived.
        let icmp = |s: &crate::trace::PacketSummary| s.protocol == IpProtocol::Icmp;
        let sent_per_trace = w
            .trace
            .matching(icmp)
            .filter(|e| matches!(e.kind, TraceEventKind::Sent))
            .count() as u64;
        let alice_m = w.metrics.node(alice);
        let bob_m = w.metrics.node(bob);
        assert_eq!(alice_m.packets_sent + bob_m.packets_sent, sent_per_trace);
        assert_eq!(alice_m.packets_delivered, 1, "the echo reply");
        assert_eq!(bob_m.packets_delivered, 1, "the echo request");
        // The router forwarded request + reply and dropped nothing.
        let r_m = w.metrics.node(r);
        assert_eq!(r_m.packets_forwarded, 2);
        assert_eq!(r_m.total_drops(), 0);
        assert!(w.metrics.total_drops_by_reason().is_empty());
    }

    #[test]
    fn disabled_metrics_stay_empty() {
        let (mut w, alice, _, _) = two_lan_world();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);
        assert_eq!(w.metrics.node(alice).packets_sent, 0);
        assert_eq!(w.metrics.node_ids().count(), 0, "no allocations either");
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let (mut w, alice, _, _) = two_lan_world();
            let _ = seed;
            w.host_do(alice, |h, ctx| {
                h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
            });
            w.run_until_idle(10_000);
            (w.now(), w.trace.events().len())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn multi_hop_route_computation() {
        // lanA — r1 — mid — r2 — lanB, distinct latencies.
        let mut w = World::new(1);
        let lan_a = w.add_segment(LinkConfig::lan());
        let mid = w.add_segment(LinkConfig::wan(30));
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

        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
        });
        w.run_until_idle(10_000);
        assert!(w
            .host(a)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { .. })));
        // 3 traversals each way.
        assert_eq!(
            w.trace
                .hops(|s| s.dst == ip("10.0.2.10") && s.protocol == IpProtocol::Icmp),
            3
        );
        // One-way latency dominated by the 30 ms WAN hop.
        let lat = w
            .trace
            .first_delivery_latency(|s| s.dst == ip("10.0.2.10"))
            .unwrap();
        assert!(lat.as_millis() >= 30, "latency was {lat}");
    }

    #[test]
    fn invariant_monitor_clean_on_healthy_run() {
        let (mut w, alice, _, _) = two_lan_world();
        w.enable_metrics();
        w.enable_invariants();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);
        assert!(!w.has_invariant_violations(), "{}", invariants_json(&w));
        assert_eq!(w.invariants.in_flight(), 0);
    }

    #[test]
    fn invariant_monitor_tolerates_wire_loss() {
        let (mut w, alice, _, _) = {
            let mut w = World::new(7);
            let mut lossy = LinkConfig::lan();
            lossy.fault.drop_prob = 1.0;
            let lan_a = w.add_segment(lossy);
            let lan_b = w.add_segment(LinkConfig::lan());
            let alice = w.add_host(HostConfig::conventional("alice"));
            let bob = w.add_host(HostConfig::conventional("bob"));
            let r = w.add_router(RouterConfig::named("r"));
            w.attach(alice, lan_a, Some("10.0.1.10/24"));
            w.attach(bob, lan_b, Some("10.0.2.10/24"));
            w.attach(r, lan_a, Some("10.0.1.1/24"));
            w.attach(r, lan_b, Some("10.0.2.1/24"));
            w.compute_routes();
            (w, alice, bob, r)
        };
        w.enable_metrics();
        w.enable_invariants();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);
        // Every frame is lost on the wire; the conservation monitor must
        // attribute the leaked packets to wire losses, not flag them.
        assert!(!w.has_invariant_violations(), "{}", invariants_json(&w));
    }

    #[test]
    fn apply_telemetry_arms_every_layer() {
        let (mut w, alice, _, _) = two_lan_world();
        w.enable_metrics();
        let cfg = TelemetryConfig {
            sample_flows: Some(4),
            sketch_node_threshold: 1,
            ..TelemetryConfig::default()
        };
        w.apply_telemetry(&cfg);
        assert_eq!(w.trace.flow_sample_rate(), Some(4));
        assert!(w.invariants.enabled());
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);
        assert!(!w.has_invariant_violations(), "{}", invariants_json(&w));
        // Three nodes saw traffic, threshold is 1 — the registry must
        // have collapsed into sketched mode mid-run.
        assert!(w.metrics.is_sketched());
        let sk = w.metrics.sketched().expect("sketched");
        assert!(sk.totals.packets_sent >= 1);
    }

    #[test]
    fn invariant_report_shape() {
        let (mut w, alice, _, _) = two_lan_world();
        w.enable_invariants();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1);
        });
        w.run_until_idle(10_000);
        let s = invariants_json(&w);
        assert!(s.contains("\"ok\":true"), "{s}");
        assert!(s.contains("\"violations\":[]"), "{s}");
    }

    // ---- sharded execution ------------------------------------------------

    /// How a fingerprint world is driven to quiescence.
    #[derive(Debug, Clone, Copy)]
    enum Drive {
        /// One `run_until_idle`.
        Run,
        /// `step()` to exhaustion.
        Step,
        /// That many `step()`s, then `run_until_idle`.
        StepsThenRun(usize),
        /// 1 ms `run_for` slices.
        Slices,
    }

    /// Build the two-LAN topology at a given shard count — `degraded`:
    /// with the metrics sketch armed, so a sharded world runs the inline
    /// loop over its shards' queues — drive a fixed ping workload across
    /// the router, and return everything observable (time, trace length,
    /// scheduler counters, metrics snapshot JSON, link stats, and the
    /// invariant report, where batch boundaries show).
    fn sharded_fingerprint(
        shards: usize,
        drive: Drive,
        degraded: bool,
    ) -> (SimTime, usize, SchedulerStats, String, LinkStats, String) {
        let (mut w, a, b, _r) = two_lan_world_sharded(shards);
        w.enable_metrics();
        w.enable_invariants();
        if degraded {
            w.apply_telemetry(&TelemetryConfig::default());
        }
        // Both ends at once: the two LANs carry frames at the same instants,
        // so batches hold several events, from more than one shard.
        for (host, src, dst) in [(a, "10.0.1.10", "10.0.2.10"), (b, "10.0.2.10", "10.0.1.10")] {
            w.host_do(host, |h, ctx| {
                for seq in 1..=3 {
                    h.send_ping(ctx, ip(src), ip(dst), seq);
                }
            });
        }
        match drive {
            Drive::Run => w.run_until_idle(100_000),
            Drive::Step => while w.step() {},
            Drive::StepsThenRun(k) => {
                for _ in 0..k {
                    assert!(w.step(), "the workload outlasts {k} steps");
                }
                w.run_until_idle(100_000);
            }
            Drive::Slices => {
                while w.pending_events() > 0 {
                    w.run_for(SimDuration::from_millis(1));
                }
            }
        }
        // Settle every cell's clock on the same millisecond boundary.
        w.run_until(SimTime(w.now().0.div_ceil(1000) * 1000));
        let cell = format!("shards={shards} {drive:?} degraded={degraded}");
        assert_eq!(w.pending_events(), 0, "{cell}");
        assert_eq!(w.shard_degradation().is_some(), degraded && shards > 1);
        assert!(!w.has_invariant_violations(), "{cell}");
        let names = w.node_names();
        let now = w.now();
        let snap = serde_json::to_string_pretty(&w.metrics.snapshot(&names, now)).unwrap();
        let invariants = invariants_json(&w);
        (
            w.now(),
            w.trace.events().len(),
            w.scheduler_stats(),
            snap,
            w.segment_stats(SegmentId(0)),
            invariants,
        )
    }

    fn two_lan_world_sharded(shards: usize) -> (World, NodeId, NodeId, NodeId) {
        let mut w = World::with_shards(7, shards);
        let lan_a = w.add_segment(LinkConfig::lan());
        let lan_b = w.add_segment(LinkConfig::lan());
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        let r = w.add_router(RouterConfig::named("r1"));
        w.attach(a, lan_a, Some("10.0.1.10/24"));
        w.attach(b, lan_b, Some("10.0.2.10/24"));
        w.attach(r, lan_a, Some("10.0.1.1/24"));
        w.attach(r, lan_b, Some("10.0.2.1/24"));
        w.compute_routes();
        (w, a, b, r)
    }

    /// Every way of driving a world — both loops, the inline one over one
    /// queue and over N, stepped, run, mixed and sliced — walks the history
    /// of one serial `run_until_idle`.
    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let drives = [
            Drive::Run,
            Drive::Step,
            Drive::StepsThenRun(1),
            Drive::StepsThenRun(7),
            Drive::Slices,
        ];
        for degraded in [false, true] {
            let serial = sharded_fingerprint(1, Drive::Run, degraded);
            for shards in [1, 2, 4] {
                for drive in drives {
                    let cell = format!("shards={shards} {drive:?} degraded={degraded}");
                    let sharded = sharded_fingerprint(shards, drive, degraded);
                    assert_eq!(serial.0, sharded.0, "now, {cell}");
                    assert_eq!(serial.1, sharded.1, "trace len, {cell}");
                    assert_eq!(serial.2, sharded.2, "scheduler stats, {cell}");
                    assert_eq!(serial.3, sharded.3, "metrics snapshot, {cell}");
                    assert_eq!(serial.4, sharded.4, "link stats, {cell}");
                    assert_eq!(serial.5, sharded.5, "invariant report, {cell}");
                }
            }
        }
    }

    #[test]
    fn sharded_pcap_is_byte_identical_to_serial() {
        use std::sync::{Arc, Mutex};
        struct Tap(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Tap {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let capture = |shards: usize| {
            let bytes = Arc::new(Mutex::new(Vec::new()));
            let (mut w, a, _b, _r) = two_lan_world_sharded(shards);
            w.capture_pcap(Box::new(Tap(bytes.clone()))).unwrap();
            w.host_do(a, |h, ctx| {
                for seq in 1..=2 {
                    h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq);
                }
            });
            w.run_until_idle(100_000);
            let frames = w.finish_pcap().unwrap();
            assert!(frames > 0, "shards={shards}");
            Arc::try_unwrap(bytes).unwrap().into_inner().unwrap()
        };
        let serial = capture(1);
        for shards in [2, 4] {
            assert_eq!(serial, capture(shards), "pcap bytes, shards={shards}");
        }
    }

    #[test]
    fn mid_run_fault_change_repartitions_and_stays_identical() {
        // Flipping a fault on after the first run makes segment 0
        // constrained: the next partition refresh must pin its endpoints
        // to one shard (faults need the segment RNG, which cannot be
        // replayed across a border) and stay byte-identical to serial.
        let run = |shards: usize| {
            let (mut w, a, _b, _r) = two_lan_world_sharded(shards);
            w.enable_metrics();
            w.enable_invariants();
            w.host_do(a, |h, ctx| {
                h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
            });
            w.run_until_idle(100_000);
            // Mid-life fault config change on what was a border wire.
            w.segment_config_mut(SegmentId(0)).fault.drop_prob = 1.0;
            w.host_do(a, |h, ctx| {
                h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 2)
            });
            w.run_until_idle(100_000);
            assert!(!w.has_invariant_violations(), "shards={shards}");
            (w.now(), w.trace.events().len(), w.scheduler_stats())
        };
        let serial = run(1);
        let sharded = run(4);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn shard_degradation_names_the_fallback() {
        let ping = |w: &mut World, a: NodeId| {
            w.host_do(a, |h, ctx| {
                h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
            });
            w.run_until_idle(100_000);
        };
        let (mut w, a, _b, _r) = two_lan_world_sharded(1);
        ping(&mut w, a);
        assert_eq!(w.shard_degradation(), None, "serial worlds never degrade");

        let (mut w, a, _b, _r) = two_lan_world_sharded(2);
        ping(&mut w, a);
        assert_eq!(w.shard_degradation(), None, "healthy borders run parallel");
        // The router joins both LANs, so one of them is the border.
        for s in 0..2 {
            w.segment_config_mut(SegmentId(s)).fault.drop_prob = 0.5;
        }
        ping(&mut w, a);
        assert_eq!(
            w.shard_degradation(),
            Some("faulty or zero-latency segment on a shard border")
        );

        let (mut w, a, _b, _r) = two_lan_world_sharded(2);
        w.apply_telemetry(&TelemetryConfig::default());
        ping(&mut w, a);
        assert_eq!(
            w.shard_degradation(),
            Some("sketched metrics are dispatch-order-sensitive")
        );

        // A cancellable timer set while the world had one segment (and so
        // one queue) is still live when the second segment makes it
        // shardable: its handle pins the world to that queue.
        let mut w = World::with_shards(7, 2);
        let lan = w.add_segment(LinkConfig::lan());
        let a = w.add_host(HostConfig::conventional("a"));
        w.attach(a, lan, Some("10.0.1.10/24"));
        w.host_do(a, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(1), token(NS_APPS, 0));
        });
        w.add_segment(LinkConfig::lan());
        w.run_until_idle(100);
        assert_eq!(w.shard_count(), 1);
        assert_eq!(
            w.shard_degradation(),
            Some("cancellable timers predate the sharded runtime")
        );
    }

    /// A window's later participants run on parked workers, or inline where
    /// the machine has one core and none are spawned: same run either way.
    #[test]
    fn inline_and_worker_windows_agree() {
        let run = |parallel: bool| {
            let (mut w, a, _b, _r) = two_lan_world_sharded(2);
            w.enable_invariants();
            w.host_do(a, |h, ctx| {
                for seq in 1..=3 {
                    h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq);
                }
            });
            w.rt.as_mut().expect("sharded").parallel = parallel;
            w.run_until_idle(100_000);
            assert!(!w.has_invariant_violations(), "parallel={parallel}");
            let shards = w.shard_stats().expect("sharded").to_vec();
            (w.now(), w.trace.events().len(), w.scheduler_stats(), shards)
        };
        assert_eq!(run(false), run(true));
    }

    /// The limit panic unwinds out of the run's thread scope: the parked
    /// workers must see their channels close and exit, not hold the join.
    #[test]
    #[should_panic(expected = "event limit 3 exceeded")]
    fn sharded_event_limit_panics_and_releases_the_workers() {
        let (mut w, a, _b, _r) = two_lan_world_sharded(2);
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
        });
        // Spawn the workers even on a one-core machine.
        w.rt.as_mut().expect("sharded").parallel = true;
        w.run_until_idle(3);
    }

    #[test]
    fn shard_stats_show_horizon_bounded_progress() {
        let (mut w, a, _b, _r) = two_lan_world_sharded(2);
        w.host_do(a, |h, ctx| {
            for seq in 1..=5 {
                h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq);
            }
        });
        w.run_until_idle(100_000);
        let stats = w.shard_stats().expect("sharded runtime exists");
        assert_eq!(stats.len(), 2);
        let events: u64 = stats.iter().map(|s| s.events).sum();
        let windows: u64 = stats.iter().map(|s| s.windows).sum();
        let out: u64 = stats.iter().map(|s| s.msgs_out).sum();
        let inn: u64 = stats.iter().map(|s| s.msgs_in).sum();
        assert_eq!(events, w.scheduler_stats().dispatched);
        assert!(windows > 0, "shards ran windows");
        assert!(out > 0, "pings crossed the router's shard border");
        // Every border transmit here delivers to exactly one peer.
        assert_eq!(inn, out);
    }

    #[test]
    fn sharded_step_matches_serial_step() {
        let run = |shards: usize| {
            let (mut w, a, _b, _r) = two_lan_world_sharded(shards);
            w.host_do(a, |h, ctx| {
                for seq in 1..=2 {
                    h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq);
                }
            });
            let mut steps = 0usize;
            for _ in 0..10 {
                if !w.step() {
                    break;
                }
                steps += 1;
            }
            // Finish with a batch run to exercise the step-batch flush.
            w.run_until_idle(100_000);
            (steps, w.now(), w.trace.events().len(), w.scheduler_stats())
        };
        assert_eq!(run(1), run(2));
    }
}

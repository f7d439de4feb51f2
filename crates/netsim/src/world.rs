//! The simulation world: nodes, segments, the event loop, and automatic
//! shortest-path route computation for static topologies.

use std::collections::{BinaryHeap, HashSet};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::host::{Host, HostConfig};
use crate::device::nic::IfaceAddr;
use crate::device::router::{Router, RouterConfig};
use crate::device::{token, NS_APPS};
use crate::event::{
    lane_key, node_lane, Event, EventKind, EventQueue, IfaceNo, NodeId, SchedulerStats,
    SchedulerTelemetry, Timer, TimerHandle, TimerToken,
};
use crate::link::{FaultOutcome, LinkConfig, LinkStats, SegState, Segment, SegmentId};
use crate::metrics::MetricsRegistry;
use crate::telemetry::{hash64, InvariantMonitor};
use crate::time::{SimDuration, SimTime};
use crate::trace::{PacketTrace, TraceEventKind, TransformKind};
use crate::wire::ethernet::{EthernetFrame, MacAddr};
use crate::wire::ipv4::{Ipv4Addr, Ipv4Cidr, Ipv4Packet};
use crate::wire::pcap::PcapWriter;

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

/// The node an event is addressed to.
fn event_node(kind: &EventKind) -> NodeId {
    match kind {
        EventKind::Deliver { node, .. } => *node,
        EventKind::Timer(t) => t.node,
    }
}

// ---------------------------------------------------------------------------
// NetCtx
// ---------------------------------------------------------------------------

type Pcap = Option<PcapWriter<Box<dyn std::io::Write>>>;

/// The per-event context handed to devices: the only way they can touch the
/// world (transmit frames, set timers, draw randomness, write traces). It
/// borrows, for one event, the dispatched node's own lane counter and RNG
/// and everything of the world that is not a node: the media, the event
/// queue and the observers.
pub struct NetCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node being dispatched.
    pub node: NodeId,
    rng: &'a mut StdRng,
    seq: &'a mut u64,
    segments: &'a [Segment],
    seg_states: &'a mut [SegState],
    queue: &'a mut EventQueue,
    metrics: &'a mut MetricsRegistry,
    trace: &'a mut PacketTrace,
    invariants: &'a mut InvariantMonitor,
    pcap: &'a mut Pcap,
}

impl NetCtx<'_> {
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
        let segment = &self.segments[seg.0];
        let st = &mut self.seg_states[seg.0];
        // Snapshot link-metric inputs before the transmit mutates the
        // segment's committed-until time.
        let (queue_wait, serialize) = if self.metrics.enabled() {
            (
                st.backlog(self.now),
                segment.config.serialize_time(frame.len()),
            )
        } else {
            (SimDuration::ZERO, SimDuration::ZERO)
        };
        let from = (self.node, iface);
        let outcome = segment.transmit(st, from, frame.clone(), self.now, self.queue);
        self.metrics
            .record_transmit(seg, frame.len(), queue_wait, serialize, outcome);
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
                let _ = pcap.write_frame(self.now, &frame);
            }
        }
        outcome
    }

    /// Schedule a timer for this node. The returned handle cancels it in
    /// O(1) via [`NetCtx::cancel_timer`]; callers that never cancel can
    /// drop the handle freely. Timer events carry `(node lane, seq)` keys,
    /// so equal-timestamp ordering depends on who set the timer, not on
    /// the order the pushes happened to be made in.
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) -> TimerHandle {
        let node = self.node;
        let key = lane_key(node_lane(node), *self.seq);
        *self.seq += 1;
        let kind = EventKind::Timer(Timer { node, token });
        self.queue
            .push_cancellable_keyed(self.now + after, key, kind)
    }

    /// Cancel a timer set with [`NetCtx::set_timer`]. Returns `false`
    /// (harmlessly) if it already fired or was already cancelled. A timer
    /// scheduled for the *current* instant may already sit in the event
    /// loop's in-flight batch, in which case it still fires — so handlers
    /// keep their stale-timer guards as a second line of defence.
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        self.queue.cancel(h)
    }

    /// MTU of a segment (IP bytes per frame).
    pub fn segment_mtu(&self, seg: SegmentId) -> usize {
        self.segments[seg.0].config.mtu
    }

    /// This node's deterministic RNG (fault injection, workloads). Streams
    /// are per-node, so draws are independent of dispatch interleaving.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Record a trace event for `pkt` at this node. Also feeds the metrics
    /// registry and the conservation monitor: this is the one choke point
    /// every send / forward / delivery / drop flows through.
    pub fn trace_packet(&mut self, kind: TraceEventKind, pkt: &Ipv4Packet) {
        self.metrics.record_packet(self.node, kind, pkt);
        self.trace.record(self.now, self.node, kind, pkt);
        self.invariants.record_packet(kind, pkt);
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
        self.metrics.record_packet(self.node, seen, child);
        self.trace
            .record_transform(self.now, self.node, kind, parent, child);
        self.invariants.record_transform(parent, child);
    }

    /// The metrics registry — how the transport layer records TCP and UDP
    /// counters against the node being dispatched.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }

    /// Tell the conservation monitor a packet was parked in a link-layer
    /// pending queue (awaiting ARP); see [`InvariantMonitor::note_parked`].
    #[inline]
    pub fn note_parked(&mut self) {
        self.invariants.note_parked();
    }

    /// Tell the conservation monitor a parked packet left its pending
    /// queue (flushed or evicted).
    #[inline]
    pub fn note_unparked(&mut self) {
        self.invariants.note_unparked();
    }

    /// Whether the invariant monitors are on — lets hot paths skip the
    /// bookkeeping (e.g. a packet clone) feeding them.
    #[inline]
    pub fn invariants_enabled(&self) -> bool {
        self.invariants.enabled()
    }

    /// Tell the conservation monitor a packet was consumed by a mobility
    /// hook before local delivery (no trace event fires for it).
    #[inline]
    pub fn note_consumed(&mut self, pkt: &Ipv4Packet) {
        self.invariants.note_consumed(pkt);
    }

    /// Tell the conservation monitor a hook rewrote a packet's identity.
    #[inline]
    pub fn note_rewrite(&mut self, before: &Ipv4Packet, after: &Ipv4Packet) {
        self.invariants.note_rewrite(before, after);
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
    /// id — streams are independent of dispatch interleaving.
    node_rng: Vec<StdRng>,
    segments: Vec<Segment>,
    /// Mutable link state (medium occupancy, stats, fault RNG), parallel
    /// to `segments`.
    seg_states: Vec<SegState>,
    /// The event queue, and with it the scheduler ledger.
    queue: EventQueue,
    now: SimTime,
    seed: u64,
    /// The packet trace; enabled by default.
    pub trace: PacketTrace,
    /// Aggregate counters; disabled by default (near-zero cost), enabled
    /// with [`World::enable_metrics`].
    pub metrics: MetricsRegistry,
    /// Online invariant monitors; disabled by default (one branch per
    /// event), enabled with [`World::enable_invariants`].
    pub invariants: InvariantMonitor,
    next_mac: u32,
    pcap: Pcap,
    /// The canonical same-timestamp batch being fired, popped whole so
    /// round precedence is the same however the world is driven: drained
    /// by a run, served one event a call by [`World::step`]. Reused, so
    /// the allocation is made once per world.
    batch: Vec<Event>,
    /// Periodic gauge sampler; absent (one branch per batch) until
    /// [`World::enable_sampling`].
    sampler: Option<Box<crate::profile::TimeSeries>>,
}

impl World {
    /// Create a world with a deterministic RNG seed.
    pub fn new(seed: u64) -> World {
        World {
            nodes: Vec::new(),
            node_syms: Vec::new(),
            node_seq: Vec::new(),
            node_rng: Vec::new(),
            segments: Vec::new(),
            seg_states: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seed,
            trace: PacketTrace::new(true),
            metrics: MetricsRegistry::new(false),
            invariants: InvariantMonitor::new(),
            next_mac: 1,
            pcap: None,
            batch: Vec::new(),
            sampler: None,
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
    }

    /// Start the online invariant monitors (packet conservation,
    /// metrics/scheduler reconciliation). Violations are reported through
    /// [`World::invariant_report`], never panicked on.
    pub fn enable_invariants(&mut self) {
        self.invariants.set_enabled(true);
    }

    /// What the invariant monitors reconcile: the scheduler ledger against
    /// the queue's own count of what it still holds.
    fn sched_ledger(&self) -> (SchedulerStats, u64) {
        (self.queue.stats(), self.queue.len() as u64)
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
    }

    /// Unplug an interface from whatever segment it is on.
    pub fn detach(&mut self, node: NodeId, iface: IfaceNo) {
        let n = self.nodes[node.0].as_mut().expect("node exists");
        if let Some(old) = n.nic().segment(iface) {
            self.segments[old.0].detach(node, iface);
            n.nic_mut().set_segment(iface, None, 1500);
            n.invalidate_route_cache();
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
    pub fn segment_config_mut(&mut self, seg: SegmentId) -> &mut LinkConfig {
        &mut self.segments[seg.0].config
    }

    /// Split the world into what firing an event at `id` takes: the node
    /// itself, and a [`NetCtx`] over everything else.
    fn node_and_ctx(&mut self, id: NodeId) -> (&mut Option<Node>, NetCtx<'_>) {
        let ctx = NetCtx {
            now: self.now,
            node: id,
            rng: &mut self.node_rng[id.0],
            seq: &mut self.node_seq[id.0],
            segments: &self.segments,
            seg_states: &mut self.seg_states,
            queue: &mut self.queue,
            metrics: &mut self.metrics,
            trace: &mut self.trace,
            invariants: &mut self.invariants,
            pcap: &mut self.pcap,
        };
        (&mut self.nodes[id.0], ctx)
    }

    /// Run `f` against a host with a live [`NetCtx`] — how tests, examples
    /// and the mobility layer inject work into the simulation.
    pub fn host_do<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Host, &mut NetCtx) -> R) -> R {
        let (node, mut ctx) = self.node_and_ctx(id);
        match node.as_mut().expect("node present") {
            Node::Host(h) => f(h, &mut ctx),
            Node::Router(_) => panic!("node {} is a router", id.0),
        }
    }

    /// Schedule an immediate application poll on `node` (bootstraps apps).
    pub fn poll_soon(&mut self, node: NodeId) {
        let seq = &mut self.node_seq[node.0];
        let key = lane_key(node_lane(node), *seq);
        *seq += 1;
        let kind = EventKind::Timer(Timer {
            node,
            token: token(NS_APPS, 0),
        });
        self.queue.push_keyed(self.now, key, kind);
    }

    // ---- event loop -----------------------------------------------------------

    /// Fire one popped event at its node: every dispatch of the event loop.
    fn dispatch(&mut self, kind: EventKind) {
        let (node, mut ctx) = self.node_and_ctx(event_node(&kind));
        match (node.as_mut(), kind) {
            (Some(n), EventKind::Timer(t)) => n.on_timer(&mut ctx, t.token),
            (Some(n), EventKind::Deliver { iface, frame, .. })
                if n.nic().segment(iface).is_some() =>
            {
                n.on_frame(&mut ctx, iface, &frame)
            }
            // A node or its interface may have been detached between
            // scheduling and delivery (mid-flight frames to a departed mobile
            // host are lost, as in reality).
            (_, EventKind::Deliver { .. }) => ctx.invariants.note_detached_frame(),
            (None, EventKind::Timer(_)) => {}
        }
    }

    /// Pop the next canonical batch due by `deadline` into the (empty)
    /// batch buffer, advance the clock to it and show the per-batch
    /// observers — gauge sampler, scheduler reconciliation — the ledger as
    /// it stands. `false` when nothing is due.
    fn load_batch(&mut self, deadline: SimTime) -> bool {
        let t = {
            let _prof = crate::profile::scope("sched/pop_batch");
            self.queue.pop_batch_until(deadline, &mut self.batch)
        };
        let Some(t) = t else { return false };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.maybe_sample();
        if self.invariants.enabled() {
            // The just-popped batch is dispatched-but-not-yet-run; the
            // ledger already counts it as dispatched and the queue no
            // longer holds it, so the two balance here.
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
    /// the (time, seq) order of the one-at-a-time path.
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
    /// [`World::run_until_idle`], and the one event loop: what `step` left
    /// of a batch, then every canonical batch due by `deadline`, popped
    /// from the queue and fired in key order.
    fn run_driven(&mut self, deadline: SimTime, limit: Option<u64>) {
        let _prof = crate::profile::scope("world/run");
        let mut fired = 0u64;
        loop {
            self.fire_batch(limit, &mut fired);
            if !self.load_batch(deadline) {
                break;
            }
        }
        self.shrink_after_run();
    }

    /// Give back burst capacity once a run has drained: scheduler bucket
    /// vectors (and the dispatch batch buffer) grow to the largest
    /// same-instant fan-out they ever carried — a broadcast storm on one
    /// big LAN — and would otherwise hold that high-water mark forever.
    fn shrink_after_run(&mut self) {
        self.queue.shrink();
        if self.batch.is_empty() && self.batch.capacity() > 32 {
            self.batch = Vec::new();
        }
    }

    /// Fire everything in the batch buffer, in order. `limit` is the
    /// runaway guard of [`World::run_until_idle`]: a quiescing network
    /// always drains, so firing event number `limit + 1` is a bug to stop
    /// at.
    fn fire_batch(&mut self, limit: Option<u64>, fired: &mut u64) {
        if self.batch.is_empty() {
            return;
        }
        let _prof = crate::profile::scope("world/dispatch");
        let mut batch = std::mem::take(&mut self.batch);
        for Event { kind, .. } in batch.drain(..) {
            if let Some(limit) = limit {
                assert!(
                    *fired < limit,
                    "run_until_idle: event limit {limit} exceeded at t={}",
                    self.now
                );
            }
            *fired += 1;
            self.dispatch(kind);
        }
        self.batch = batch;
    }

    // ---- scheduler introspection -------------------------------------------

    /// Events not yet fired (cancelled timers excluded).
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.batch.len()
    }

    /// Scheduler activity counters: events pushed, dispatched, and
    /// cancelled before firing. Cancelled events are never dispatched and
    /// therefore never reach the trace or metrics.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.queue.stats()
    }

    /// Timing-wheel gauges (cascades, occupancy, overflow pressure)
    /// recorded while the flight recorder was enabled; all zeros
    /// otherwise and on the reference-heap backend.
    pub fn scheduler_telemetry(&self) -> SchedulerTelemetry {
        self.queue.telemetry()
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
    /// current sim time. The heap-footprint gauge is a crude estimate:
    /// node, trace-event and queued-event counts times representative
    /// per-entry sizes.
    fn maybe_sample(&mut self) {
        let Some(sampler) = self.sampler.as_deref_mut() else {
            return;
        };
        if !sampler.due(self.now.0) {
            return;
        }
        let (nodes, traced) = (self.nodes.len() as u64, self.trace.events().len() as u64);
        let live = self.queue.len() as u64;
        let (occupancy, overflow) = self.queue.wheel_occupancy();
        sampler.push(crate::profile::RawGauges {
            sim_us: self.now.0,
            dispatched: self.queue.stats().dispatched,
            live_timers: live,
            wheel_occupancy: occupancy.iter().sum(),
            overflow_len: overflow as u64,
            mem_est_bytes: nodes * 768 + traced * 160 + live * 112,
        });
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

    // ---- one history, however the world is driven --------------------------

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

    /// Build the two-LAN topology with metrics and the invariant monitors
    /// on, drive a fixed ping workload across the router, and return
    /// everything observable (time, trace length, scheduler counters,
    /// metrics snapshot JSON, link stats, and the invariant report, where
    /// batch boundaries show).
    fn drive_fingerprint(
        drive: Drive,
    ) -> (SimTime, usize, SchedulerStats, String, LinkStats, String) {
        let (mut w, a, b, _r) = two_lan_world();
        w.enable_metrics();
        w.enable_invariants();
        // Both ends at once: the two LANs carry frames at the same instants,
        // so batches hold several events.
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
        assert_eq!(w.pending_events(), 0, "{drive:?}");
        assert!(!w.has_invariant_violations(), "{drive:?}");
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

    /// Every way of driving a world — stepped, run, mixed and sliced —
    /// walks the history of one `run_until_idle`. `step()` once diverged
    /// from a run in its batch boundaries; this pins that it cannot.
    #[test]
    fn every_drive_walks_the_history_of_one_run() {
        let drives = [
            Drive::Step,
            Drive::StepsThenRun(1),
            Drive::StepsThenRun(7),
            Drive::Slices,
        ];
        let run = drive_fingerprint(Drive::Run);
        for drive in drives {
            let driven = drive_fingerprint(drive);
            assert_eq!(run.0, driven.0, "now, {drive:?}");
            assert_eq!(run.1, driven.1, "trace len, {drive:?}");
            assert_eq!(run.2, driven.2, "scheduler stats, {drive:?}");
            assert_eq!(run.3, driven.3, "metrics snapshot, {drive:?}");
            assert_eq!(run.4, driven.4, "link stats, {drive:?}");
            assert_eq!(run.5, driven.5, "invariant report, {drive:?}");
        }
    }

    #[test]
    #[should_panic(expected = "event limit 3 exceeded")]
    fn event_limit_overrun_panics() {
        let (mut w, alice, _, _) = two_lan_world();
        w.host_do(alice, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), 1)
        });
        w.run_until_idle(3);
    }
}

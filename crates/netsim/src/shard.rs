//! Sharded (conservative parallel) execution of one world.
//!
//! A world can be partitioned into *shards* — groups of segments and the
//! nodes attached to them — each with its own timing wheel. Shards advance
//! in lock-stepped *windows* under the classic conservative (CMB-style)
//! protocol: a shard may dispatch every event strictly below its *horizon*,
//! the earliest instant at which traffic from another shard could still
//! reach it. Link latency on border segments supplies the lookahead, so
//! horizons always advance and the protocol cannot deadlock.
//!
//! Determinism is the design center, not an afterthought:
//!
//! * Every event carries a *lane key* derived from the entity that
//!   scheduled it (`(segment lane, per-segment seq)` for deliveries,
//!   `(node lane, per-node seq)` for timers — see [`crate::event::lane_key`]),
//!   so equal-timestamp ordering is a pure function of the topology and
//!   traffic, identical for any shard count including one.
//! * Order-sensitive observers (packet trace, invariant monitors, pcap)
//!   are never touched from worker dispatch. Workers append deferred
//!   [`Op`]s grouped per dispatched event; the coordinator replays all
//!   shards' groups in canonical `(time, round, key)` order into the
//!   world-level observers once the global progress frontier guarantees
//!   no shard can still contribute earlier work.
//! * A transmission on a *border* segment (one whose attachments span
//!   shards) is deferred as an [`Op::BorderTx`] intent. The shared
//!   medium's serialization state must evolve in global time order, and
//!   shards' clocks are allowed to drift past each other's *send* times
//!   (only *arrival* times are horizon-protected), so intents are buffered
//!   and applied per segment in canonical order once every adjacent
//!   shard's effective clock has passed the send time. Applying an intent
//!   schedules the delivery events into the receiving shards' wheels;
//!   its observer side (link metrics, pcap, conservation notes) replays
//!   later with the rest of the round's ops.
//!
//! The result is byte-identical reports, metrics, traces and pcaps for
//! `--shards N` versus serial execution — asserted over all of the repo's
//! experiments by `tests/shard_equivalence.rs`.
//!
//! A world therefore has two event loops and no more (both in
//! [`crate::world`]): the *inline* loop, which pops canonical
//! same-timestamp batches from the world's [`QueueSet`] and fires them in
//! key order on the calling thread with the observers running inline, and
//! the *barrier* loop described above. The inline loop over one queue is
//! serial execution; over one queue per shard it is what a sharded world
//! falls back to when its topology defeats the protocol (fault injection
//! or zero latency on a border segment — post-partition mobility can
//! create either) or its metrics sketch is armed (the collapse is
//! order-sensitive) — always correct, never parallel, reported once per
//! world and in `World::shard_degradation`. Both loops fire events through
//! one function and hand devices one [`crate::world::NetCtx`]; which engine
//! is running shows only in where that context's [`Sched`] counts, where
//! its media live, and whether its observers act now or journal [`Op`]s.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;

use crate::event::{
    Event, EventKind, EventQueue, EventSink, IfaceNo, NodeId, SchedulerKind, SchedulerStats,
    SchedulerTelemetry, TimerHandle,
};
use crate::link::{FaultOutcome, LinkConfig, Segment};
use crate::metrics::MetricsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEventKind, TransformKind};
use crate::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};

// ---------------------------------------------------------------------------
// Process-wide default (mirrors `set_default_scheduler`)
// ---------------------------------------------------------------------------

static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Set the shard count newly created [`crate::world::World`]s use
/// (`--shards` / `NETSIM_SHARDS` plumb through here). `0` and `1` both
/// mean serial execution.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide default shard count.
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed).max(1)
}

// ---------------------------------------------------------------------------
// Per-shard statistics
// ---------------------------------------------------------------------------

/// Per-shard execution counters, surfaced through
/// [`crate::world::World::shard_stats`] and (under profiling) the
/// run-report `shards` section — how utilization imbalance, horizon
/// stalls and cross-shard chatter are diagnosed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events dispatched by this shard's worker.
    pub events: u64,
    /// Synchronization windows this shard actively dispatched in.
    pub windows: u64,
    /// Windows in which the shard had pending events but its horizon
    /// forbade dispatching any of them.
    pub stalls: u64,
    /// Cross-shard delivery events routed into this shard at barriers.
    pub msgs_in: u64,
    /// Border transmissions this shard's nodes originated.
    pub msgs_out: u64,
}

serde::impl_serialize!(ShardStats {
    events,
    windows,
    stalls,
    msgs_in,
    msgs_out
});

// ---------------------------------------------------------------------------
// Deferred operations
// ---------------------------------------------------------------------------

/// One observer side effect recorded during worker dispatch, replayed by
/// the coordinator in canonical order through the same inline observers a
/// serial run calls directly. Metrics are *not* deferred (their counters
/// are commutative and recorded into per-shard registries that merge at
/// the end of the run).
#[derive(Debug)]
pub(crate) enum Op {
    /// `trace_packet`: a trace record plus its conservation-monitor echo.
    Trace {
        kind: TraceEventKind,
        pkt: Ipv4Packet,
    },
    /// `trace_transform`: a causal edge between parent and child packets.
    Transform {
        kind: TransformKind,
        parent: Option<Ipv4Packet>,
        child: Ipv4Packet,
    },
    /// `flag_anomaly`: promote a conversation under flow sampling.
    Promote {
        a: Ipv4Addr,
        b: Ipv4Addr,
        proto: IpProtocol,
    },
    /// A transmission on a shard-private segment, for the wire's observers
    /// (conservation notes, pcap capture) — recorded only when one is on.
    Transmitted {
        seg: usize,
        outcome: FaultOutcome,
        frame: Bytes,
    },
    /// Conservation-ledger notes (see `InvariantMonitor`).
    DetachedFrame,
    Parked,
    Unparked,
    Consumed {
        pkt: Ipv4Packet,
    },
    Rewrite {
        before: Ipv4Packet,
        after: Ipv4Packet,
    },
    /// A transmission on a border segment. Scheduling (medium occupancy,
    /// delivery events) is applied from the buffered [`PendingTx`] copy;
    /// this op marks where the transmission's observer effects — link
    /// metrics, the wire's observers, scheduler-ledger pushes — land in
    /// canonical order, consuming the matching [`TxRecord`].
    BorderTx {
        seg: usize,
        iface: IfaceNo,
        frame: Bytes,
    },
}

/// Everything one dispatched event did, keyed for the canonical merge.
#[derive(Debug)]
pub(crate) struct Group {
    pub key: u64,
    pub node: NodeId,
    /// Queue activity the event performed (`pushed`, `cancelled`) — the
    /// per-group delta feeding the scheduler-ledger reconstruction that
    /// keeps `check_scheduler` byte-identical with serial runs.
    pub counts: SchedulerStats,
    pub ops: Vec<Op>,
}

/// One same-timestamp batch a shard dispatched.
///
/// Border latency is strictly positive, so same-timestamp causality never
/// crosses shards; shard-local round numbering at a time `t` therefore
/// coincides with the serial scheduler's batch numbering at `t`, and
/// merging rounds by `(t, round)` reconstructs the serial batches exactly.
#[derive(Debug)]
pub(crate) struct RoundLog {
    pub t: SimTime,
    pub round: u32,
    pub batch_len: u64,
    pub groups: Vec<Group>,
}

/// A buffered border transmission: the scheduling half of an
/// [`Op::BorderTx`], applied once every shard adjacent to the segment has
/// provably advanced past the send time.
#[derive(Debug)]
pub(crate) struct PendingTx {
    pub seg: usize,
    pub t: SimTime,
    pub round: u32,
    pub key: u64,
    pub op: u32,
    pub node: NodeId,
    pub iface: IfaceNo,
    pub frame: Bytes,
}

impl PendingTx {
    /// The canonical application order of buffered transmissions.
    pub fn order(&self) -> (SimTime, u32, u64, u32) {
        (self.t, self.round, self.key, self.op)
    }
}

/// What applying a border transmission produced — consumed in the same
/// canonical order by the matching [`Op::BorderTx`] replay, which records
/// the link metrics / pcap / conservation effects the serial transmit
/// path would have produced inline.
#[derive(Debug)]
pub(crate) struct TxRecord {
    pub wire_len: usize,
    pub queue_wait: SimDuration,
    pub serialize: SimDuration,
    pub outcome: FaultOutcome,
    pub pushed: u64,
}

// ---------------------------------------------------------------------------
// The queue set
// ---------------------------------------------------------------------------

/// The node an event is addressed to — the routing function of the queue
/// set (every event waits in, and is dispatched from, its target node's
/// queue).
pub(crate) fn event_node(kind: &EventKind) -> NodeId {
    match kind {
        EventKind::Deliver { node, .. } => *node,
        EventKind::Timer(t) => t.node,
    }
}

/// A world's event queues — one until the world is partitioned, one per
/// shard after — and the scheduler ledger of everything that went through
/// them. Serial execution is the one-queue case of every method here, not
/// a separate code path.
pub(crate) struct QueueSet {
    queues: Queues,
    /// The global scheduler ledger: pushes and cancels counted as they
    /// happen (or, for a barrier worker's, when its [`Group`] replays),
    /// dispatches as batches are popped (or replayed) — in canonical order
    /// either way, so `check_scheduler` and the run report read the same
    /// history whatever the queue count.
    stats: SchedulerStats,
}

/// One queue held inline, so a world that is never partitioned allocates
/// nothing for its set.
enum Queues {
    One(EventQueue),
    Many(Vec<EventQueue>),
}

impl Queues {
    fn as_slice(&self) -> &[EventQueue] {
        match self {
            Queues::One(q) => std::slice::from_ref(q),
            Queues::Many(qs) => qs,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [EventQueue] {
        match self {
            Queues::One(q) => std::slice::from_mut(q),
            Queues::Many(qs) => qs,
        }
    }
}

impl QueueSet {
    /// A set of one empty queue.
    pub fn new(kind: SchedulerKind) -> QueueSet {
        QueueSet {
            queues: Queues::One(EventQueue::with_kind(kind)),
            stats: SchedulerStats::default(),
        }
    }

    /// The queues, in shard order.
    pub fn iter(&self) -> std::slice::Iter<'_, EventQueue> {
        self.queues.as_slice().iter()
    }

    /// The way in: pushes and cancels routed by `owner_node` (empty while
    /// there is one queue) and counted into the ledger.
    pub fn sched<'a>(&'a mut self, owner_node: &'a [u32]) -> Sched<'a> {
        Sched {
            queues: self.queues.as_mut_slice(),
            owner_node,
            ledger: &mut self.stats,
        }
    }

    /// Spread the set over `n` fresh queues, every queued event moving to
    /// its target node's owner. The ledger carries over untouched: it
    /// already counts these events as pushed.
    pub fn partition(&mut self, n: usize, kind: SchedulerKind, owner_node: &[u32]) {
        let mut many: Vec<EventQueue> = (0..n).map(|_| EventQueue::with_kind(kind)).collect();
        for q in self.queues.as_mut_slice() {
            while let Some(ev) = q.pop() {
                let shard = owner_node[event_node(&ev.kind).0] as usize;
                many[shard].push_keyed(ev.at, ev.seq, ev.kind);
            }
        }
        self.queues = Queues::Many(many);
    }

    /// Append the next canonical same-timestamp batch to `buf` — every
    /// event queued anywhere at the globally earliest timestamp, in key
    /// order — **if** that timestamp is `<= deadline`, and return it. The
    /// batch is counted as dispatched.
    pub fn pop_batch_until(&mut self, deadline: SimTime, buf: &mut Vec<Event>) -> Option<SimTime> {
        let start = buf.len();
        let t = match self.queues.as_mut_slice() {
            [q] => q.pop_batch_until(deadline, buf)?,
            queues => loop {
                let tmin = queues.iter().filter_map(|q| q.min_time()).min()?;
                if tmin > deadline {
                    return None;
                }
                for q in queues.iter_mut() {
                    let _ = q.pop_batch_until(tmin, buf);
                }
                if buf.len() > start {
                    buf[start..].sort_by_key(|e| e.seq);
                    break tmin;
                }
                // `tmin` was a tombstone-only bound; the probes reaped it.
            },
        };
        self.stats.dispatched += (buf.len() - start) as u64;
        Some(t)
    }

    /// The scheduler ledger.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Events queued (cancelled timers excluded), by the queues' own count
    /// — independent of the ledger, which is what lets `check_scheduler`
    /// reconcile one against the other.
    pub fn len(&self) -> usize {
        self.iter().map(EventQueue::len).sum()
    }

    /// Cancellable-timer slab slots allocated across the set; see
    /// [`EventQueue::live_cancellable`].
    pub fn live_cancellable(&self) -> usize {
        self.iter().map(EventQueue::live_cancellable).sum()
    }

    /// The wheels' gauges merged: counters summed, peaks maxed.
    pub fn telemetry(&self) -> SchedulerTelemetry {
        let mut out = SchedulerTelemetry::default();
        for t in self.iter().map(EventQueue::telemetry) {
            out.cascades += t.cascades;
            out.cascade_entries += t.cascade_entries;
            out.overflow_promotions += t.overflow_promotions;
            out.overflow_peak = out.overflow_peak.max(t.overflow_peak);
            out.samples += t.samples;
            for (a, b) in out.occupancy_sum.iter_mut().zip(t.occupancy_sum) {
                *a += b;
            }
            for (a, b) in out.occupancy_peak.iter_mut().zip(t.occupancy_peak) {
                *a = (*a).max(b);
            }
        }
        out
    }

    /// Give back burst capacity; see [`EventQueue::shrink`].
    pub fn shrink(&mut self) {
        for q in self.queues.as_mut_slice() {
            q.shrink();
        }
    }
}

/// A routed, counted way into event queues: what a
/// [`crate::world::NetCtx`] schedules and cancels through. Inline it spans
/// the world's whole [`QueueSet`] and counts into its ledger as things
/// happen; a barrier worker's spans the shard's own queue and counts into
/// the dispatching event's [`Group`], which the coordinator adds to the
/// ledger at the canonical replay point.
pub(crate) struct Sched<'a> {
    pub queues: &'a mut [EventQueue],
    /// Node → index into `queues`; nodes it does not cover (all of them,
    /// when it is empty) use queue 0.
    pub owner_node: &'a [u32],
    pub ledger: &'a mut SchedulerStats,
}

impl Sched<'_> {
    fn queue(&mut self, node: NodeId) -> &mut EventQueue {
        let shard = self.owner_node.get(node.0).map_or(0, |&s| s as usize);
        &mut self.queues[shard]
    }

    /// [`EventQueue::push_cancellable_keyed`] on the target node's queue.
    pub fn push_cancellable_keyed(
        &mut self,
        at: SimTime,
        key: u64,
        kind: EventKind,
    ) -> TimerHandle {
        self.ledger.pushed += 1;
        self.queue(event_node(&kind))
            .push_cancellable_keyed(at, key, kind)
    }

    /// Cancel a timer owned by `node`. Ownership is sticky, so the handle
    /// always refers to the same queue's slab it was allocated from.
    pub fn cancel(&mut self, node: NodeId, h: TimerHandle) -> bool {
        let ok = self.queue(node).cancel(h);
        if ok {
            self.ledger.cancelled += 1;
        }
        ok
    }
}

impl EventSink for Sched<'_> {
    fn push_keyed(&mut self, at: SimTime, key: u64, kind: EventKind) {
        self.ledger.pushed += 1;
        self.queue(event_node(&kind)).push_keyed(at, key, kind);
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// The sharded-execution state a [`crate::world::World`] carries once more
/// than one shard is configured and traffic starts: the partition, the
/// border graph and the barrier protocol's buffers. The queues themselves
/// stay with the world, in its [`QueueSet`].
pub(crate) struct Runtime {
    /// Shard count (≥ 1 after clamping to the segment count).
    pub nshards: usize,
    /// Sticky node → shard assignment, and so the queue set's routing
    /// table. Never reassigned: lane keys make the simulation output
    /// independent of ownership, so stickiness costs nothing and keeps
    /// timer handles and in-flight events valid forever.
    pub owner_node: Vec<u32>,
    /// Node ids owned by each shard, in assignment order.
    pub members: Vec<Vec<usize>>,
    /// Global node id → index within its owner's `members` list.
    pub node_slot: Vec<u32>,
    /// Sticky segment → shard assignment from partitioning: what a new
    /// node's owner is taken from, and the home of an unattached segment.
    pub owner_seg: Vec<u32>,
    /// Segment ids whose state each shard carries during a run (private
    /// segments only; border states stay with the coordinator).
    pub seg_members: Vec<Vec<usize>>,
    /// Private segment → the shard carrying its state: its attachments'
    /// common owner, or the partition owner when nothing is attached.
    pub seg_home: Vec<u32>,
    /// Private segment → index within its home shard's `seg_members`.
    pub seg_slot: Vec<u32>,
    /// The border graph: segments attached to nodes of more than one shard.
    pub borders: Borders,
    /// One metrics registry per shard, merged into the world registry at
    /// the end of every run (counters are commutative).
    pub shard_metrics: Vec<MetricsRegistry>,
    /// Per-shard execution counters.
    pub stats: Vec<ShardStats>,
    /// Dispatched-but-not-yet-replayed rounds, across windows. A round at
    /// time `t` replays once the global progress frontier passes `t`.
    pub pending_rounds: Vec<RoundLog>,
    /// Buffered border transmissions awaiting their segment's safety
    /// threshold.
    pub pending_txs: Vec<PendingTx>,
    /// Per-segment FIFO of applied-transmission records awaiting their
    /// observer replay.
    pub tx_records: Vec<VecDeque<TxRecord>>,
    /// Segments whose attachments or configuration changed since borders
    /// were last derived (see [`Runtime::touch`]).
    dirty: Vec<usize>,
    /// Cached `available_parallelism() > 1`; otherwise no workers are spawned
    /// and every window runs inline.
    pub parallel: bool,
}

/// Does this segment's configuration disqualify it from being a shard
/// border? Fault outcomes draw from a private RNG whose stream must follow
/// global transmit order, and zero latency yields zero lookahead.
fn constrained(cfg: &LinkConfig) -> bool {
    cfg.fault.is_active() || cfg.latency.0 == 0
}

struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind((0..n).collect())
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi] = lo;
        }
    }
}

impl Runtime {
    /// Partition the topology into `nshards` shards.
    ///
    /// * `segments` — the media, for their configs and (through the
    ///   closing [`Runtime::refresh`]) their attachments.
    /// * `seg_nodes[s]` — node ids attached to segment `s` (deduplicated).
    /// * `node_segs[n]` — segment ids node `n` is attached to.
    ///
    /// Segments that must not become borders (fault injection, zero
    /// latency) are union-found with every segment reachable through their
    /// attached nodes, forcing those clusters onto one shard. The
    /// resulting components are distributed by a deterministic
    /// weight-balanced multi-seed BFS over the component adjacency graph,
    /// so adjacent LANs tend to land on the same shard (fewer borders,
    /// longer windows). The choice only affects load balance: lane keys
    /// make the simulation output identical under *any* assignment.
    pub fn partition(
        nshards: usize,
        metrics_enabled: bool,
        segments: &[Segment],
        seg_nodes: &[Vec<usize>],
        node_segs: &[Vec<usize>],
    ) -> Runtime {
        let seg_count = segments.len();
        let nshards = nshards.clamp(1, seg_count.max(1));

        // 1. Constrained segments pull their whole neighbourhood together.
        let mut uf = UnionFind::new(seg_count);
        for (s, seg) in segments.iter().enumerate() {
            if !constrained(&seg.config) {
                continue;
            }
            for &n in &seg_nodes[s] {
                for &s2 in &node_segs[n] {
                    uf.union(s, s2);
                }
            }
        }

        // 2. Components, weighted by attachment count (a proxy for the
        //    traffic a segment generates).
        let mut comp_of = vec![0usize; seg_count];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut root_comp: Vec<Option<usize>> = vec![None; seg_count];
        for (s, slot) in comp_of.iter_mut().enumerate() {
            let r = uf.find(s);
            let c = *root_comp[r].get_or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            *slot = c;
            comps[c].push(s);
        }
        let weight: Vec<u64> = comps
            .iter()
            .map(|segs| {
                segs.iter()
                    .map(|&s| seg_nodes[s].len() as u64 + 1)
                    .sum::<u64>()
            })
            .collect();

        // Component adjacency via shared nodes.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); comps.len()];
        for segs in node_segs {
            for i in 0..segs.len() {
                for j in (i + 1)..segs.len() {
                    let (a, b) = (comp_of[segs[i]], comp_of[segs[j]]);
                    if a != b {
                        adj[a].push(b);
                        adj[b].push(a);
                    }
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }

        // 3. Weight-balanced multi-seed BFS. Repeatedly give the lightest
        //    shard the best next component: an unassigned neighbour of
        //    what it already owns if one exists, else the heaviest
        //    unassigned component (a fresh domain).
        let mut comp_shard: Vec<Option<u32>> = vec![None; comps.len()];
        let mut load = vec![0u64; nshards];
        let mut frontier: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(weight[c]), comps[c][0]));
        let mut remaining = comps.len();
        while remaining > 0 {
            let shard = (0..nshards).min_by_key(|&r| (load[r], r)).unwrap();
            let mut pick = None;
            'search: for &owned in &frontier[shard] {
                for &nb in &adj[owned] {
                    if comp_shard[nb].is_none() {
                        pick = Some(nb);
                        break 'search;
                    }
                }
            }
            let pick =
                pick.unwrap_or_else(|| *order.iter().find(|&&c| comp_shard[c].is_none()).unwrap());
            comp_shard[pick] = Some(shard as u32);
            load[shard] += weight[pick];
            frontier[shard].push(pick);
            remaining -= 1;
        }

        let mut owner_seg = vec![u32::MAX; seg_count];
        for s in 0..seg_count {
            owner_seg[s] = comp_shard[comp_of[s]].unwrap_or(0);
        }

        let mut rt = Runtime {
            nshards,
            owner_node: Vec::new(),
            members: vec![Vec::new(); nshards],
            node_slot: Vec::new(),
            owner_seg,
            seg_members: vec![Vec::new(); nshards],
            seg_home: Vec::new(),
            seg_slot: Vec::new(),
            borders: Borders::default(),
            shard_metrics: (0..nshards)
                .map(|_| MetricsRegistry::new(metrics_enabled))
                .collect(),
            stats: vec![ShardStats::default(); nshards],
            pending_rounds: Vec::new(),
            pending_txs: Vec::new(),
            tx_records: Vec::new(),
            dirty: (0..seg_count).collect(),
            parallel: std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
        };
        rt.refresh(segments, node_segs.len());
        rt
    }

    /// Record that segment `seg`'s attachments or configuration changed:
    /// the next [`Runtime::refresh`] re-derives its classification. Every
    /// topology mutation of the world lands here, so upkeep costs the
    /// segments that changed, not the world.
    pub fn touch(&mut self, seg: usize) {
        if self.dirty.last() != Some(&seg) {
            self.dirty.push(seg);
        }
    }

    /// Why the world's runs must use the inline loop, if they must.
    pub fn degraded(&self) -> Option<&'static str> {
        (self.borders.constrained > 0).then_some("faulty or zero-latency segment on a shard border")
    }

    /// Bring ownership, borders and lookahead up to date with the topology
    /// changes recorded since the last call. New segments and nodes get
    /// sticky owners (a node takes its lowest-numbered segment's owner);
    /// each touched segment is re-classified as private or border from its
    /// attachments' owners. Called before anything is scheduled or run
    /// (mobility happens between runs, never mid-run).
    pub fn refresh(&mut self, segments: &[Segment], node_count: usize) {
        for s in self.owner_seg.len()..segments.len() {
            self.owner_seg.push((s % self.nshards) as u32);
        }
        self.seg_home.resize(segments.len(), u32::MAX);
        self.seg_slot.resize(segments.len(), u32::MAX);
        self.borders.ix.resize(segments.len(), u32::MAX);
        self.tx_records.resize_with(segments.len(), VecDeque::new);

        // A node created since the last refresh can only be attached to
        // segments touched since, so the dirty list finds its first one.
        let known = self.owner_node.len();
        if node_count > known {
            let mut first = vec![usize::MAX; node_count - known];
            for &s in &self.dirty {
                for &(n, _) in segments[s].attachments() {
                    if let Some(f) = n.0.checked_sub(known) {
                        first[f] = first[f].min(s);
                    }
                }
            }
            for (n, s) in (known..).zip(first) {
                let shard = self
                    .owner_seg
                    .get(s)
                    .copied()
                    .unwrap_or((n % self.nshards) as u32);
                self.owner_node.push(shard);
                self.node_slot
                    .push(self.members[shard as usize].len() as u32);
                self.members[shard as usize].push(n);
            }
        }

        let mut dirty = std::mem::take(&mut self.dirty);
        for s in dirty.drain(..) {
            self.reclassify(s, &segments[s]);
        }
        self.dirty = dirty;
    }

    /// Re-derive one segment's place — private to a shard, or a border —
    /// from the owners of its current attachments.
    fn reclassify(&mut self, s: usize, seg: &Segment) {
        let mut shards = self.unplace(s);
        for &(n, _) in seg.attachments() {
            let owner = self.owner_node[n.0];
            if !shards.contains(&owner) {
                shards.push(owner);
            }
        }
        shards.sort_unstable();
        if shards.len() > 1 {
            let constrained = constrained(&seg.config);
            self.borders.constrained += usize::from(constrained);
            self.borders.ix[s] = self.borders.adj.len() as u32;
            self.borders.adj.push(Border {
                seg: s,
                latency: seg.config.latency.0,
                shards,
                constrained,
            });
        } else {
            // Unattached segments go to their partition owner so
            // `segment_stats` keeps working; they carry no traffic.
            let home = shards.first().copied().unwrap_or(self.owner_seg[s]);
            self.seg_home[s] = home;
            self.seg_slot[s] = self.seg_members[home as usize].len() as u32;
            self.seg_members[home as usize].push(s);
        }
    }

    /// Remove segment `s` from wherever it is placed (swap-remove, fixing
    /// the displaced entry's index). Returns a border's emptied shard list
    /// for reuse.
    fn unplace(&mut self, s: usize) -> Vec<u32> {
        let ix = std::mem::replace(&mut self.borders.ix[s], u32::MAX) as usize;
        if ix < self.borders.adj.len() {
            let mut old = self.borders.adj.swap_remove(ix);
            self.borders.constrained -= usize::from(old.constrained);
            if let Some(moved) = self.borders.adj.get(ix) {
                self.borders.ix[moved.seg] = ix as u32;
            }
            old.shards.clear();
            return old.shards;
        }
        let slot = std::mem::replace(&mut self.seg_slot[s], u32::MAX) as usize;
        let home = std::mem::replace(&mut self.seg_home[s], u32::MAX) as usize;
        // Neither a border nor private: a segment not placed yet.
        if let Some(members) = self.seg_members.get_mut(home) {
            members.swap_remove(slot);
            if let Some(&moved) = members.get(slot) {
                self.seg_slot[moved] = slot as u32;
            }
        }
        Vec::new()
    }
}

/// One border segment: a medium whose attachments span shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Border {
    pub seg: usize,
    /// Latency ticks — the lookahead this segment contributes.
    pub latency: u64,
    /// Shards owning an attached node, ascending.
    pub shards: Vec<u32>,
    /// Faulty or zero-latency: deferred replay is unsound while this holds.
    pub constrained: bool,
}

/// The border graph the barrier protocol derives every bound from. Fixed
/// for the length of a run, so the coordinator reads it while the shards
/// hold their queues.
#[derive(Debug, Default)]
pub(crate) struct Borders {
    /// Border segments, in no particular order.
    pub adj: Vec<Border>,
    /// Segment id → index in `adj`; `u32::MAX` when the segment is private.
    pub ix: Vec<u32>,
    /// How many of `adj` are constrained.
    constrained: usize,
}

impl Borders {
    /// Is this segment attached to nodes of more than one shard?
    pub fn is_border(&self, seg: usize) -> bool {
        self.ix[seg] != u32::MAX
    }

    /// Per-border minimum send time among *buffered, not yet applied*
    /// transmissions, indexed parallel to `adj`. These floors feed
    /// [`Borders::effective`]: a buffered send at an old timestamp still
    /// produces deliveries (send + latency), so it caps what adjacent
    /// shards may be assumed to have passed.
    pub fn tx_floors(&self, pending: &[PendingTx], floors: &mut Vec<u64>) {
        floors.clear();
        floors.resize(self.adj.len(), u64::MAX);
        for tx in pending {
            if let Some(f) = floors.get_mut(self.ix[tx.seg] as usize) {
                *f = (*f).min(tx.t.0);
            }
        }
    }

    /// Effective next-activity times, one per shard: a lower bound on the
    /// time of anything shard `r` will dispatch (and hence transmit) in
    /// the future, given that every buffered border transmission will
    /// eventually be applied.
    ///
    /// Queue minima alone are not lower bounds — an idle shard can be
    /// woken by a border arrival and transmit again — so they are relaxed
    /// through the border graph to a fixpoint (Bellman-style; strictly
    /// positive border latency guarantees convergence). Each border's
    /// send floor is the minimum of its adjacent shards' effective times
    /// and the send times of transmissions already buffered on it
    /// (`floors`, from [`Borders::tx_floors`]); deliveries land at floor +
    /// latency or later. Including the buffered sends is what makes the
    /// fixpoint self-consistent: an applied old send can wake a neighbour
    /// to transmit again *before* other already-buffered sends on the same
    /// medium, and the resulting thresholds hold those later sends back
    /// until the chain resolves.
    pub fn effective(&self, t_next: &[Option<SimTime>], floors: &[u64], eff: &mut Vec<u64>) {
        let inf = u64::MAX;
        eff.clear();
        eff.extend(t_next.iter().map(|t| t.map_or(inf, |t| t.0)));
        loop {
            let mut changed = false;
            for (b, floor) in self.adj.iter().zip(floors) {
                let bound = b.threshold(eff).min(*floor).saturating_add(b.latency);
                for &r in &b.shards {
                    if bound < eff[r as usize] {
                        eff[r as usize] = bound;
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Per-shard dispatch horizons for one window: shard `r` may dispatch
    /// every event strictly below `H[r]`, capped at `deadline + 1` so a
    /// window never overruns the caller's deadline. The global-minimum
    /// shard always gets `H > t_next` (border latency is positive), so
    /// windows always make progress.
    pub fn horizons(&self, eff: &[u64], deadline: SimTime, h: &mut Vec<SimTime>) {
        h.clear();
        h.resize(eff.len(), SimTime(deadline.0.saturating_add(1)));
        for b in &self.adj {
            let bound = SimTime(b.threshold(eff).saturating_add(b.latency));
            for &r in &b.shards {
                if bound < h[r as usize] {
                    h[r as usize] = bound;
                }
            }
        }
    }

    /// Per-border-segment application threshold: a buffered transmission
    /// on segment `B` at send time `t` may be applied once `t <
    /// threshold(B)` — no adjacent shard can still transmit on `B` at or
    /// before `t`.
    pub fn threshold(&self, eff: &[u64], seg: usize) -> u64 {
        self.adj
            .get(self.ix[seg] as usize)
            .map_or(u64::MAX, |b| b.threshold(eff))
    }
}

impl Border {
    /// The earliest effective time among the shards on this border.
    fn threshold(&self, eff: &[u64]) -> u64 {
        self.shards
            .iter()
            .map(|&s| eff[s as usize])
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
impl Runtime {
    /// Test oracle: derive every segment's placement from scratch — the
    /// whole-world pass the incremental [`Runtime::refresh`] replaced.
    /// `seg_nodes` is [`crate::world::World`]'s `topo_views` half.
    pub(crate) fn rebuild(&mut self, segments: &[Segment], seg_nodes: &[Vec<usize>]) {
        for m in &mut self.seg_members {
            m.clear();
        }
        self.seg_home = vec![u32::MAX; segments.len()];
        self.seg_slot = vec![u32::MAX; segments.len()];
        self.borders = Borders {
            ix: vec![u32::MAX; segments.len()],
            ..Borders::default()
        };
        for (s, seg) in segments.iter().enumerate() {
            let mut shards: Vec<u32> = seg_nodes[s].iter().map(|&n| self.owner_node[n]).collect();
            shards.sort_unstable();
            shards.dedup();
            if shards.len() > 1 {
                let constrained = constrained(&seg.config);
                self.borders.constrained += usize::from(constrained);
                self.borders.ix[s] = self.borders.adj.len() as u32;
                self.borders.adj.push(Border {
                    seg: s,
                    latency: seg.config.latency.0,
                    shards,
                    constrained,
                });
            } else {
                let home = shards.first().copied().unwrap_or(self.owner_seg[s]);
                self.seg_home[s] = home;
                self.seg_slot[s] = self.seg_members[home as usize].len() as u32;
                self.seg_members[home as usize].push(s);
            }
        }
    }

    /// Everything derived from the topology, in a form two runtimes can be
    /// compared by: per-segment home shard (`u32::MAX` on borders), the
    /// border set ordered by segment, and the degradation verdict. Panics
    /// if the index arrays disagree with the lists they index.
    pub(crate) fn derived(&self) -> (Vec<u32>, Vec<Border>, Option<&'static str>) {
        for (s, (&ix, &slot)) in self.borders.ix.iter().zip(&self.seg_slot).enumerate() {
            match self.borders.adj.get(ix as usize) {
                Some(b) => assert_eq!((b.seg, slot), (s, u32::MAX), "border_ix[{s}]"),
                None => {
                    assert_eq!(ix, u32::MAX, "border_ix[{s}] out of range");
                    let home = self.seg_home[s] as usize;
                    assert_eq!(self.seg_members[home][slot as usize], s, "seg_slot[{s}]");
                }
            }
        }
        let placed: usize = self.seg_members.iter().map(Vec::len).sum();
        assert_eq!(placed + self.borders.adj.len(), self.seg_slot.len());
        let mut adj = self.borders.adj.clone();
        adj.sort_by_key(|b| b.seg);
        (self.seg_home.clone(), adj, self.degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::host::HostConfig;
    use crate::link::SegmentId;
    use crate::time::SimDuration;
    use crate::world::World;
    use proptest::prelude::*;

    fn cfg(lat_us: u64) -> LinkConfig {
        LinkConfig {
            latency: SimDuration::from_micros(lat_us),
            ..LinkConfig::lan()
        }
    }

    /// Two LANs joined by a router node 2: segment 0 {0,2}, segment 1 {1,2}.
    fn two_lan_views() -> (Vec<Segment>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let seg_nodes = vec![vec![0, 2], vec![1, 2]];
        let segments = seg_nodes
            .iter()
            .map(|nodes| {
                let mut seg = Segment::new(cfg(100));
                for &n in nodes {
                    seg.attach(NodeId(n), 0);
                }
                seg
            })
            .collect();
        (segments, seg_nodes, vec![vec![0], vec![1], vec![0, 1]])
    }

    #[test]
    fn partition_splits_two_lans_and_finds_the_border() {
        let (segments, seg_nodes, node_segs) = two_lan_views();
        let rt = Runtime::partition(2, false, &segments, &seg_nodes, &node_segs);
        assert_eq!(rt.nshards, 2);
        // Each segment on its own shard; the router's segment-ownership
        // makes one of them a border (the router's owner differs from one
        // LAN's other members).
        assert_eq!(rt.owner_node.len(), 3);
        assert!(
            !rt.borders.adj.is_empty(),
            "a two-shard split must expose a border"
        );
        for b in &rt.borders.adj {
            assert!(rt.borders.is_border(b.seg));
            assert!(b.latency > 0);
            assert!(b.shards.len() >= 2);
        }
    }

    #[test]
    fn constrained_segments_collapse_onto_one_shard() {
        let (mut segments, seg_nodes, node_segs) = two_lan_views();
        // Faulty segment 0 must pull segment 1 (shared node 2) with it.
        segments[0].config.fault.drop_prob = 0.5;
        let rt = Runtime::partition(2, false, &segments, &seg_nodes, &node_segs);
        assert_eq!(rt.owner_seg[0], rt.owner_seg[1]);
        assert!(rt.borders.adj.is_empty(), "no borders, no degradation");
        assert!(rt.degraded().is_none());
    }

    #[test]
    fn effective_times_relax_through_borders_and_horizons_progress() {
        let (segments, seg_nodes, node_segs) = two_lan_views();
        let rt = Runtime::partition(2, false, &segments, &seg_nodes, &node_segs);
        if rt.borders.adj.is_empty() {
            return; // partition kept everything private; nothing to check
        }
        // Shard A at t=50, shard B idle: B's effective time is bounded by
        // A's next send + latency, not infinity.
        let (mut floors, mut eff, mut h) = (Vec::new(), Vec::new(), Vec::new());
        rt.borders.tx_floors(&rt.pending_txs, &mut floors);
        rt.borders
            .effective(&[Some(SimTime(50)), None], &floors, &mut eff);
        assert_eq!(eff[0], 50);
        assert_eq!(eff[1], 150);
        // The global-minimum shard's horizon strictly exceeds its own next
        // event: windows always dispatch something.
        rt.borders.horizons(&eff, SimTime(1_000_000), &mut h);
        assert!(h[0] > SimTime(50), "horizon {:?} must pass t_next", h[0]);
        // A buffered tx on the border at t=50 is not yet safe (A itself
        // could still transmit at 50), but one at t=49 is.
        let seg = rt.borders.adj[0].seg;
        let thr = rt.borders.threshold(&eff, seg);
        assert_eq!(thr, 50);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Incremental ≡ from-scratch: after every topology mutation the
        /// world API offers, the touched-segments upkeep leaves the same
        /// placements, border set (latencies, adjacent shards), index
        /// arrays and degradation verdict as a whole-world rebuild.
        #[test]
        fn incremental_border_upkeep_matches_a_full_rebuild(
            shards in 2usize..5,
            ops in proptest::collection::vec((0u8..7, any::<u16>(), any::<u16>()), 1..48),
        ) {
            let mut w = World::with_shards(3, shards);
            let mut ifaces: Vec<(NodeId, IfaceNo)> = Vec::new();
            let mut nsegs = 0usize;
            for _ in 0..3 {
                let seg = w.add_segment(cfg(100));
                let h = w.add_host(HostConfig::conventional("h"));
                ifaces.push((h, w.attach(h, seg, None)));
                nsegs += 1;
            }
            w.check_shard_upkeep();
            for (op, a, b) in ops {
                let (a, b) = (usize::from(a), usize::from(b));
                let seg = SegmentId(b % nsegs);
                match op {
                    0 => {
                        w.add_segment(cfg(100 + b as u64 % 3));
                        nsegs += 1;
                    }
                    1 => {
                        // A new node, attached to up to two segments.
                        let h = w.add_host(HostConfig::conventional("h"));
                        for k in 0..a % 3 {
                            ifaces.push((h, w.attach(h, SegmentId((b + k * 7) % nsegs), None)));
                        }
                    }
                    2 => {
                        let node = NodeId(a % w.node_count());
                        ifaces.push((node, w.attach(node, seg, None)));
                    }
                    3 => {
                        let (node, iface) = ifaces[a % ifaces.len()];
                        w.reattach(node, iface, seg);
                    }
                    4 => {
                        let (node, iface) = ifaces[a % ifaces.len()];
                        w.detach(node, iface);
                    }
                    5 => {
                        let fault = &mut w.segment_config_mut(seg).fault;
                        fault.drop_prob = if fault.drop_prob > 0.0 { 0.0 } else { 0.25 };
                    }
                    _ => {
                        w.segment_config_mut(seg).latency = SimDuration::from_micros(a as u64 % 3 * 50);
                    }
                }
                w.check_shard_upkeep();
            }
        }
    }

    #[test]
    fn default_shards_round_trip() {
        assert_eq!(default_shards(), 1);
        set_default_shards(4);
        assert_eq!(default_shards(), 4);
        set_default_shards(0);
        assert_eq!(default_shards(), 1);
    }
}

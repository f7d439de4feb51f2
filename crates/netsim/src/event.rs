//! The discrete-event scheduler.
//!
//! Every interesting occurrence in the simulated network — a frame arriving
//! at an interface, a protocol timer firing — is an [`Event`] ordered by
//! simulated time. Ties are broken by a key — the insertion order, or the
//! world's [`lane_key`]s — which makes runs fully deterministic.
//!
//! The queue is a **hierarchical timing wheel**: four levels of 256 buckets
//! whose slot widths grow by 256× per level (1 µs, 256 µs, ~65.5 ms,
//! ~16.8 s), covering 2³² µs ≈ 71 minutes of simulated future; anything
//! farther sits in an overflow heap until the wheel rotates close enough.
//! Push and cancel are O(1); popping cascades coarse buckets into finer
//! ones as time advances, touching each event at most once per wheel level
//! (four).
//! The repository's `tests/scheduler_equivalence.rs` holds it to a
//! `BTreeMap` model of the same ordering contract.
//!
//! Timers scheduled through [`EventQueue::push_cancellable`] return a
//! [`TimerHandle`]. Cancellation is *lazy tombstoning*: the handle's slab
//! slot is flagged and the queued entry is discarded when the scheduler next
//! touches it, so `cancel` never searches the wheel. A cancelled event is
//! never returned from `pop` — but an event already drained into the
//! caller's same-timestamp batch can no longer be recalled, which is why
//! protocol guard code against stale timers stays in place.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;

use crate::time::SimTime;

/// Identifies a node (host or router) in the [`crate::world::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a network interface within a node.
pub type IfaceNo = usize;

/// Opaque timer identifier. Protocols encode what the timer means in the
/// token value; the scheduler never interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// A scheduled timer, delivered back to the node that set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// The node concerned.
    pub node: NodeId,
    /// The opaque token the setter chose.
    pub token: TimerToken,
}

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A link finished propagating a frame to `iface` of `node`.
    /// `frame` is the raw Ethernet frame bytes as they appear on the wire.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Interface to deliver on.
        iface: IfaceNo,
        /// Index of the segment that carried the frame (a
        /// [`crate::link::SegmentId`]'s, narrowed to fit beside the
        /// variant tag, so an `EventKind` stays 40 bytes): the frame is
        /// lost if `iface` is no longer plugged into it when it arrives.
        seg: u32,
        /// Raw Ethernet frame bytes as they appear on the wire.
        frame: Bytes,
    },
    /// A timer set by `timer.node` fires.
    Timer(Timer),
}

/// A scheduled event.
#[derive(Debug, Clone)]
pub struct Event {
    /// When it happened, in simulated time.
    pub at: SimTime,
    /// Deterministic tie-break key. For events pushed through
    /// [`EventQueue::push`] this is an insertion sequence number; the world
    /// instead supplies *lane keys* ([`lane_key`]) derived from the pushing
    /// entity, so the same-timestamp order does not depend on the order the
    /// pushes were made in.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

// ---- lane keys ---------------------------------------------------------------
//
// The world dispatches same-timestamp events in `(time, key)` order, with
// keys derived from the *pushing entity* instead of a global push counter:
// every node and every segment owns a monotone counter, and a key is
// `(lane << 40) | seq`. An entity's counter advances with that entity's own
// activity only, so the order within a batch is a function of the topology
// and the traffic, not of how handlers happened to interleave their pushes
// — and it is the order every committed table and report was produced
// under.

/// Bits reserved for the per-lane sequence counter.
pub const LANE_SEQ_BITS: u32 = 40;

/// Lane for pushes made on behalf of no node or segment.
pub const LANE_EXTERNAL: u64 = 0;

/// Lane owned by node `n` (timers it sets for itself).
pub fn node_lane(n: NodeId) -> u64 {
    1 + 2 * n.0 as u64
}

/// Lane owned by segment `s` (frame deliveries it schedules).
pub fn segment_lane(s: usize) -> u64 {
    2 + 2 * s as u64
}

/// Compose a tie-break key from a lane and that lane's sequence counter.
pub fn lane_key(lane: u64, seq: u64) -> u64 {
    debug_assert!(lane < (1 << (64 - LANE_SEQ_BITS)), "lane overflow");
    debug_assert!(seq < (1 << LANE_SEQ_BITS), "lane sequence overflow");
    (lane << LANE_SEQ_BITS) | seq
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

// ---- cancellable timer handles ----------------------------------------------

/// Handle to a cancellable scheduled event, returned by
/// [`EventQueue::push_cancellable`] (and therefore by
/// [`crate::world::NetCtx::set_timer`]). Cancelling a handle whose event
/// already fired is a harmless no-op: the generation check makes stale
/// handles inert, so holders never need to track firing themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    ix: u32,
    gen: u32,
}

/// One slab slot backing a [`TimerHandle`]. The generation counter is
/// bumped every time the slot is recycled, so handles from a previous
/// occupancy can never cancel the current one.
#[derive(Debug, Clone, Copy)]
struct SlabEntry {
    gen: u32,
    cancelled: bool,
}

/// Array-backed registry of pending cancellable events: O(1) allocate,
/// cancel and release, no hashing on the scheduler hot path.
#[derive(Debug, Default)]
struct TimerSlab {
    entries: Vec<SlabEntry>,
    free: Vec<u32>,
}

impl TimerSlab {
    fn alloc(&mut self) -> TimerHandle {
        match self.free.pop() {
            Some(ix) => {
                let e = &mut self.entries[ix as usize];
                e.cancelled = false;
                TimerHandle { ix, gen: e.gen }
            }
            None => {
                self.entries.push(SlabEntry {
                    gen: 0,
                    cancelled: false,
                });
                TimerHandle {
                    ix: (self.entries.len() - 1) as u32,
                    gen: 0,
                }
            }
        }
    }

    /// Tombstone the handle's event. Returns `false` when the handle is
    /// stale (the event already fired or was already cancelled).
    fn cancel(&mut self, h: TimerHandle) -> bool {
        match self.entries.get_mut(h.ix as usize) {
            Some(e) if e.gen == h.gen && !e.cancelled => {
                e.cancelled = true;
                true
            }
            _ => false,
        }
    }

    /// Whether a queued event's handle was tombstoned. Only valid for
    /// handles still physically in the queue (their slot cannot have been
    /// recycled yet).
    fn is_cancelled(&self, h: TimerHandle) -> bool {
        self.entries[h.ix as usize].cancelled
    }

    /// Return a slot to the free list once its event leaves the queue
    /// (fired or tombstone collected).
    fn release(&mut self, h: TimerHandle) {
        let e = &mut self.entries[h.ix as usize];
        e.gen = e.gen.wrapping_add(1);
        self.free.push(h.ix);
    }
}

// ---- counters and gauges -----------------------------------------------------

/// Scheduler activity counters, readable through
/// [`crate::world::World::scheduler_stats`]. `dispatched + cancelled ==
/// pushed` once a simulation drains: a cancelled event is never dispatched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Events scheduled (cancellable or not).
    pub pushed: u64,
    /// Events handed to the event loop.
    pub dispatched: u64,
    /// Events tombstoned via [`EventQueue::cancel`] before firing.
    pub cancelled: u64,
}

serde::impl_serialize!(SchedulerStats {
    pushed,
    dispatched,
    cancelled,
});

/// Timing-wheel internals sampled while the flight recorder
/// ([`crate::profile`]) is enabled: cascade activity, occupancy-bitmap
/// popcounts per level, and overflow-heap pressure. All zeros when
/// profiling never ran. Readable through
/// [`EventQueue::telemetry`] / [`crate::world::World::scheduler_telemetry`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerTelemetry {
    /// Coarse buckets cascaded down a level.
    pub cascades: u64,
    /// Entries moved by those cascades.
    pub cascade_entries: u64,
    /// Entries promoted from the overflow heap onto the wheel.
    pub overflow_promotions: u64,
    /// High-water mark of the overflow heap.
    pub overflow_peak: u64,
    /// Occupied-slot popcount per level, summed over cascade samples
    /// (divide by `samples` for the mean).
    pub occupancy_sum: [u64; LEVELS],
    /// Occupied-slot popcount per level, peak over cascade samples.
    pub occupancy_peak: [u64; LEVELS],
    /// Number of occupancy samples (one per cascade).
    pub samples: u64,
}

serde::impl_serialize!(SchedulerTelemetry {
    cascades,
    cascade_entries,
    overflow_promotions,
    overflow_peak,
    occupancy_sum,
    occupancy_peak,
    samples,
});

// ---- internal entry ----------------------------------------------------------

/// A queued event plus its cancellation handle (if any). Times are raw
/// microsecond ticks internally; [`Event`] re-wraps them on the way out.
#[derive(Debug, Clone)]
struct Entry {
    at: u64,
    seq: u64,
    handle: Option<TimerHandle>,
    kind: EventKind,
}

/// Min-heap adapter for [`Entry`] ordered by `(at, seq)`.
#[derive(Debug)]
struct HeapEntry(Entry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

// ---- the hierarchical timing wheel -------------------------------------------

/// Wheel levels. Level `L` buckets are `256^L` µs wide.
const LEVELS: usize = 4;
/// log2(buckets per level).
const SLOT_BITS: u32 = 8;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Events at `cursor + 2^32 µs` or beyond go to the overflow heap.
const SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Level an event at xor-distance `x = at ^ cursor` belongs to, or `None`
/// for the overflow heap. Aligned windows: two times share a level-`L`
/// window exactly when their bits above `8(L+1)` agree.
fn level_of(x: u64) -> Option<usize> {
    if x < SPAN {
        // Highest differing byte picks the level; x < 256 → level 0.
        Some((63 - (x | 1).leading_zeros() as usize) / SLOT_BITS as usize)
    } else {
        None
    }
}

/// Bucket index of `at` within its level-`l` window.
fn slot_ix(l: usize, at: u64) -> usize {
    ((at >> (SLOT_BITS as usize * l)) & (SLOTS as u64 - 1)) as usize
}

struct Wheel {
    /// `LEVELS × SLOTS` buckets, flattened.
    slots: Vec<Vec<Entry>>,
    /// Occupancy bitmaps, one bit per bucket.
    occupied: [[u64; WORDS]; LEVELS],
    /// Lower bound on the time of every queued event; advances as batches
    /// drain, never backwards.
    cursor: u64,
    /// Events beyond the wheel's current 2³² µs horizon.
    overflow: BinaryHeap<HeapEntry>,
    /// The drained earliest bucket, sorted by seq: the next events out.
    ready: VecDeque<Entry>,
    /// Timestamp shared by everything in `ready`.
    ready_at: u64,
    /// Time of the last batch handed to the caller — a lower bound on the
    /// simulation's `now`, and therefore on every future push. The cursor
    /// rewinds here (never to an arbitrary push time) when tombstone
    /// sweeps have carried it past `now` over an emptied wheel.
    floor: u64,
    /// Cascade/occupancy/overflow gauges, recorded only while profiling
    /// is enabled.
    telemetry: SchedulerTelemetry,
}

impl std::fmt::Debug for Wheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wheel")
            .field("cursor", &self.cursor)
            .field("ready", &self.ready.len())
            .field("overflow", &self.overflow.len())
            .finish_non_exhaustive()
    }
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            slots: vec![Vec::new(); LEVELS * SLOTS],
            occupied: [[0; WORDS]; LEVELS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            ready_at: 0,
            floor: 0,
            telemetry: SchedulerTelemetry::default(),
        }
    }

    /// Release bucket/overflow capacity grown during event bursts. Only
    /// empty buffers are dropped, so entries (tombstoned or live) are
    /// never touched: steady-state memory reflects the world, not the
    /// largest broadcast storm the queue ever absorbed.
    fn shrink(&mut self) {
        for v in &mut self.slots {
            if v.is_empty() && v.capacity() > 32 {
                *v = Vec::new();
            }
        }
        if self.overflow.is_empty() && self.overflow.capacity() > 32 {
            self.overflow = BinaryHeap::new();
        }
        if self.ready.is_empty() && self.ready.capacity() > 32 {
            self.ready = VecDeque::new();
        }
    }

    /// Occupied-slot popcount per level.
    fn occupancy(&self) -> [u64; LEVELS] {
        let mut occ = [0u64; LEVELS];
        for (o, words) in occ.iter_mut().zip(&self.occupied) {
            *o = words.iter().map(|w| u64::from(w.count_ones())).sum();
        }
        occ
    }

    /// No physical entries anywhere — the only state when the cursor may
    /// move backwards.
    fn is_phys_empty(&self) -> bool {
        self.ready.is_empty()
            && self.overflow.is_empty()
            && self.occupied.iter().flatten().all(|&w| w == 0)
    }

    fn insert(&mut self, e: Entry) {
        if e.at < self.cursor {
            // Normalization may have swept the cursor past `now` while
            // reaping tombstones; that can only drain the wheel completely,
            // in which case rewinding to the dispatch floor (not to `e.at`
            // — later pushes may be earlier still) is unobservable.
            assert!(
                self.is_phys_empty() && e.at >= self.floor,
                "scheduled into the past: at={} cursor={} floor={}",
                e.at,
                self.cursor,
                self.floor
            );
            self.cursor = self.floor;
        }
        match level_of(e.at ^ self.cursor) {
            Some(l) => {
                let s = slot_ix(l, e.at);
                self.slots[l * SLOTS + s].push(e);
                self.occupied[l][s / 64] |= 1 << (s % 64);
            }
            None => {
                self.overflow.push(HeapEntry(e));
                if crate::profile::enabled() {
                    let len = self.overflow.len() as u64;
                    self.telemetry.overflow_peak = self.telemetry.overflow_peak.max(len);
                }
            }
        }
    }

    /// Lowest occupied bucket index at level `l`.
    fn first_slot(&self, l: usize) -> Option<usize> {
        for (w, &bits) in self.occupied[l].iter().enumerate() {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Ensure `ready` holds the globally earliest events, cascading coarse
    /// buckets and promoting overflow entries as needed, discarding
    /// tombstones along the way. Returns the batch timestamp, or `None`
    /// when nothing is due at or before `limit`.
    ///
    /// The cursor never advances past `limit`: a tombstone-only tail beyond
    /// the caller's deadline is left in place, so events scheduled after
    /// the caller settles at `limit` (always `>=` it) still land ahead of
    /// the cursor.
    fn next_batch_time(&mut self, limit: u64, slab: &mut TimerSlab) -> Option<u64> {
        loop {
            // Sweep tombstones off the ready front.
            while let Some(e) = self.ready.front() {
                match e.handle {
                    Some(h) if slab.is_cancelled(h) => {
                        slab.release(h);
                        self.ready.pop_front();
                    }
                    _ => {
                        self.floor = self.ready_at;
                        return Some(self.ready_at);
                    }
                }
            }
            // Refill from the finest occupied level. Level 0 buckets hold a
            // single timestamp: drain straight into `ready`.
            if let Some(s) = self.first_slot(0) {
                let t = (self.cursor & !(SLOTS as u64 - 1)) | s as u64;
                debug_assert!(t >= self.cursor, "level-0 bucket behind cursor");
                if t > limit {
                    return None;
                }
                self.cursor = t;
                self.ready_at = t;
                self.occupied[0][s / 64] &= !(1 << (s % 64));
                let bucket = &mut self.slots[s];
                bucket.sort_unstable_by_key(|e| e.seq);
                for e in bucket.drain(..) {
                    debug_assert_eq!(e.at, t, "level-0 bucket mixes timestamps");
                    match e.handle {
                        Some(h) if slab.is_cancelled(h) => slab.release(h),
                        _ => self.ready.push_back(e),
                    }
                }
                continue;
            }
            // Cascade the earliest coarse bucket down a level.
            if let Some((l, s)) = (1..LEVELS).find_map(|l| self.first_slot(l).map(|s| (l, s))) {
                let width = SLOT_BITS as usize * l;
                let window = (SLOTS as u64) << width;
                let start = (self.cursor & !(window - 1)) | ((s as u64) << width);
                debug_assert!(start >= self.cursor, "coarse bucket behind cursor");
                if start > limit {
                    return None;
                }
                self.cursor = start;
                if crate::profile::enabled() {
                    // Sample occupancy before the bucket empties so the
                    // gauge reflects the wheel as the cascade saw it.
                    let occ = self.occupancy();
                    let t = &mut self.telemetry;
                    t.cascades += 1;
                    t.samples += 1;
                    t.cascade_entries += self.slots[l * SLOTS + s].len() as u64;
                    for (l2, &o) in occ.iter().enumerate() {
                        t.occupancy_sum[l2] += o;
                        t.occupancy_peak[l2] = t.occupancy_peak[l2].max(o);
                    }
                }
                self.occupied[l][s / 64] &= !(1 << (s % 64));
                let mut bucket = std::mem::take(&mut self.slots[l * SLOTS + s]);
                for e in bucket.drain(..) {
                    match e.handle {
                        Some(h) if slab.is_cancelled(h) => slab.release(h),
                        _ => self.insert(e),
                    }
                }
                self.slots[l * SLOTS + s] = bucket; // keep the allocation
                continue;
            }
            // Wheel empty: rotate to the overflow's earliest window. Every
            // overflow event was pushed beyond the then-current horizon, so
            // all of them sort after everything the wheel held.
            let first = loop {
                match self.overflow.peek() {
                    Some(HeapEntry(e)) => match e.handle {
                        Some(h) if slab.is_cancelled(h) => {
                            slab.release(h);
                            self.overflow.pop();
                        }
                        _ => break e.at,
                    },
                    None => {
                        // Nothing lives anywhere: the sweep may have carried
                        // the cursor past `now` over tombstone-only buckets.
                        // The wheel is physically empty here, so pulling the
                        // cursor back to the dispatch floor is unobservable
                        // and keeps future pushes (all ≥ now ≥ floor) ahead
                        // of it.
                        self.cursor = self.floor;
                        return None;
                    }
                }
            };
            if first > limit {
                return None;
            }
            self.cursor = first;
            let mut promoted = 0u64;
            while let Some(HeapEntry(e)) = self.overflow.peek() {
                if e.at ^ self.cursor >= SPAN {
                    break;
                }
                let HeapEntry(e) = self.overflow.pop().expect("peeked");
                self.insert(e);
                promoted += 1;
            }
            if promoted > 0 && crate::profile::enabled() {
                self.telemetry.overflow_promotions += promoted;
            }
        }
    }
}

// ---- the public queue --------------------------------------------------------

/// Deterministic time-ordered event queue with O(1) cancellable timers.
///
/// Push times must be monotone with respect to dispatch: an event may not
/// be scheduled earlier than the last popped batch (the world loop
/// guarantees this — everything is scheduled at `now + delay`).
#[derive(Debug)]
pub struct EventQueue {
    wheel: Box<Wheel>,
    slab: TimerSlab,
    next_seq: u64,
    live: usize,
    stats: SchedulerStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Box::new(Wheel::new()),
            slab: TimerSlab::default(),
            next_seq: 0,
            live: 0,
            stats: SchedulerStats::default(),
        }
    }

    fn push_entry(&mut self, at: SimTime, seq: u64, kind: EventKind, handle: Option<TimerHandle>) {
        self.live += 1;
        self.stats.pushed += 1;
        self.wheel.insert(Entry {
            at: at.0,
            seq,
            handle,
            kind,
        });
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `kind` to fire at absolute time `at`, breaking timestamp
    /// ties by insertion order.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.push_entry(at, seq, kind, None);
    }

    /// Schedule `kind` at `at` with an explicit tie-break key (see
    /// [`lane_key`]). The world uses this exclusively: entity-derived keys
    /// make same-timestamp order independent of push order. Do not mix
    /// with [`EventQueue::push`] on the same queue — the internal counter
    /// and lane keys share one ordering space.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, kind: EventKind) {
        self.push_entry(at, key, kind, None);
    }

    /// Schedule `kind` to fire at `at` and return a handle that can
    /// cancel it in O(1) until it fires.
    pub fn push_cancellable(&mut self, at: SimTime, kind: EventKind) -> TimerHandle {
        let h = self.slab.alloc();
        let seq = self.next_seq();
        self.push_entry(at, seq, kind, Some(h));
        h
    }

    /// [`EventQueue::push_cancellable`] with an explicit tie-break key.
    pub fn push_cancellable_keyed(
        &mut self,
        at: SimTime,
        key: u64,
        kind: EventKind,
    ) -> TimerHandle {
        let h = self.slab.alloc();
        self.push_entry(at, key, kind, Some(h));
        h
    }

    /// Tombstone a scheduled event: it will never be dispatched. Returns
    /// `false` (harmlessly) when the event already fired or was already
    /// cancelled. The physical entry is reaped lazily when the scheduler
    /// next touches its bucket.
    pub fn cancel(&mut self, h: TimerHandle) -> bool {
        if self.slab.cancel(h) {
            self.live -= 1;
            self.stats.cancelled += 1;
            true
        } else {
            false
        }
    }

    fn emit(&mut self, e: Entry) -> Event {
        if let Some(h) = e.handle {
            self.slab.release(h);
        }
        self.live -= 1;
        self.stats.dispatched += 1;
        Event {
            at: SimTime(e.at),
            seq: e.seq,
            kind: e.kind,
        }
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        self.wheel.next_batch_time(u64::MAX, &mut self.slab)?;
        let e = self
            .wheel
            .ready
            .pop_front()
            .expect("normalized queue has a front");
        Some(self.emit(e))
    }

    /// Drain every event currently queued at the earliest timestamp into
    /// `buf` (in seq order), **if** that timestamp is `<= deadline`, and
    /// return it. One peek decides the deadline and the whole batch moves
    /// without further queue traversal. Events the batch's dispatch
    /// schedules at the same timestamp are picked up by the next call.
    pub fn pop_batch_until(&mut self, deadline: SimTime, buf: &mut Vec<Event>) -> Option<SimTime> {
        // The deadline bounds normalization: the cursor never advances past
        // it, even over a tombstone-only tail, so the caller can settle at
        // `deadline` and keep scheduling.
        let t = self.wheel.next_batch_time(deadline.0, &mut self.slab)?;
        let start = buf.len();
        while let Some(e) = self.wheel.ready.pop_front() {
            match e.handle {
                Some(h) if self.slab.is_cancelled(h) => self.slab.release(h),
                _ => buf.push(self.emit(e)),
            }
        }
        debug_assert!(buf.len() > start, "peeked batch cannot be empty");
        Some(SimTime(t))
    }

    /// Release internal capacity grown during event bursts (a broadcast
    /// storm fanning one frame out to a two-hundred-host LAN grows bucket
    /// vectors that otherwise never give the memory back). Only empty
    /// buffers are dropped, so the call is unobservable except through
    /// the allocator; the world invokes it when a run drains the queue.
    pub fn shrink(&mut self) {
        self.wheel.shrink();
    }

    /// Number of queued (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Activity counters since creation.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Wheel-internals gauges recorded while profiling was enabled.
    pub fn telemetry(&self) -> SchedulerTelemetry {
        self.wheel.telemetry
    }

    /// Instantaneous wheel occupancy: occupied-slot popcount per level
    /// plus the overflow-heap length.
    pub fn wheel_occupancy(&self) -> ([u64; LEVELS], usize) {
        (self.wheel.occupancy(), self.wheel.overflow.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn a_delivery_names_its_segment_in_the_same_40_bytes() {
        assert_eq!(std::mem::size_of::<EventKind>(), 40);
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }

    fn timer_event(node: usize, token: u64) -> EventKind {
        EventKind::Timer(Timer {
            node: NodeId(node),
            token: TimerToken(token),
        })
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer(t) => t.token.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer_event(0, 3));
        q.push(SimTime(10), timer_event(0, 1));
        q.push(SimTime(20), timer_event(0, 2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::from_millis(1);
        for token in 0..100 {
            q.push(t, timer_event(0, token));
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_counts_what_is_queued() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), timer_event(1, 0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        let _keep = q.push_cancellable(SimTime(10), timer_event(0, 1));
        let kill = q.push_cancellable(SimTime(20), timer_event(0, 2));
        q.push(SimTime(30), timer_event(0, 3));
        assert!(q.cancel(kill));
        assert!(!q.cancel(kill), "double cancel is a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(drain_tokens(&mut q), vec![1, 3]);
        let s = q.stats();
        assert_eq!((s.pushed, s.dispatched, s.cancelled), (3, 2, 1));
    }

    #[test]
    fn cancel_after_fire_is_inert() {
        let mut q = EventQueue::new();
        let h = q.push_cancellable(SimTime(1), timer_event(0, 1));
        q.pop().unwrap();
        assert!(!q.cancel(h));
        // The slab slot was recycled; the stale handle must not cancel the
        // new occupant.
        let h2 = q.push_cancellable(SimTime(2), timer_event(0, 2));
        assert!(!q.cancel(h));
        assert_eq!(drain_tokens(&mut q), vec![2]);
        assert!(!q.cancel(h2), "fired handle is stale");
    }

    #[test]
    fn cascade_boundaries_preserve_order() {
        // Events straddling every level boundary, pushed out of order.
        let times = [
            0u64,
            1,
            255,
            256,
            257,
            65_535,
            65_536,
            65_537,
            (1 << 24) - 1,
            1 << 24,
            (1 << 32) - 1,
            1 << 32, // overflow heap
            (1 << 32) + 5,
            (1 << 40),
        ];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(SimTime(t), timer_event(0, i as u64));
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn batch_pop_drains_one_timestamp() {
        let mut q = EventQueue::new();
        for token in 0..5 {
            q.push(SimTime(10), timer_event(0, token));
        }
        q.push(SimTime(11), timer_event(0, 99));
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch_until(SimTime(50), &mut buf), Some(SimTime(10)));
        assert_eq!(buf.len(), 5);
        assert!(buf.windows(2).all(|w| w[0].seq < w[1].seq));
        buf.clear();
        assert_eq!(
            q.pop_batch_until(SimTime(10), &mut buf),
            None,
            "next batch is past the deadline"
        );
        assert_eq!(q.pop_batch_until(SimTime(11), &mut buf), Some(SimTime(11)));
        assert_eq!(buf.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_pushes_order_by_key_not_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime(500);
        q.push_keyed(t, lane_key(node_lane(NodeId(3)), 0), timer_event(0, 7));
        q.push_keyed(t, lane_key(LANE_EXTERNAL, 1), timer_event(0, 1));
        q.push_keyed(t, lane_key(segment_lane(0), 0), timer_event(0, 2));
        q.push_keyed(t, lane_key(LANE_EXTERNAL, 0), timer_event(0, 0));
        // External lane 0 < segment 0 lane < node 3 lane.
        assert_eq!(drain_tokens(&mut q), vec![0, 1, 2, 7]);
    }
}

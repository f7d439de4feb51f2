//! Online invariant monitors, and the two fixed-memory stream summaries
//! kept beside them.
//!
//! * [`InvariantMonitor`] — online conservation/reconciliation checks
//!   evaluated incrementally while the world runs, reporting
//!   [`InvariantViolation`]s into the run report instead of panicking.
//! * [`SpaceSaving`] — the Metwally/Agrawal/El Abbadi top-k heavy-hitter
//!   sketch: fixed `k` slots regardless of how many distinct keys stream
//!   through, per-key counts exact whenever the distinct-key count never
//!   exceeded `k`, and an explicit per-entry error bound otherwise.
//! * [`Reservoir`] — seeded Algorithm-R reservoir sampling: a uniform,
//!   deterministic sample of an unbounded stream in fixed memory.
//!
//! Nothing in the simulator feeds the two summaries: the metrics registry
//! they once stood in for stores a record per node that recorded
//! ([`crate::metrics::MetricsRegistry`]), which is what a 10⁵-host world
//! needed. They are library code the repository benchmark times
//! (`telemetry.space_saving_offer_ns`, `telemetry.reservoir_offer_ns`).

use serde::Serialize;

use crate::event::SchedulerStats;
use crate::hash::{FxHashMap, FxHashSet};
use crate::time::SimTime;
use crate::trace::TraceEventKind;
use crate::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};

/// SplitMix64 step — the deterministic generator behind [`Reservoir`] and,
/// through [`hash64`], the world's per-node and per-segment seeds.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stateless hash draw.
pub(crate) fn hash64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

// ---------------------------------------------------------------------------
// Space-Saving top-k sketch
// ---------------------------------------------------------------------------

/// One monitored counter in a [`SpaceSaving`] sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchEntry<K> {
    /// The key this slot currently tracks.
    pub key: K,
    /// Estimated count: an overestimate by at most [`SketchEntry::error`].
    pub count: u64,
    /// Maximum overestimation: the count the slot held when this key
    /// took it over (0 when the key was inserted into a free slot, so the
    /// count is exact).
    pub error: u64,
}

/// The Space-Saving top-k heavy-hitter sketch (Metwally et al., 2005).
///
/// Holds at most `k` `(key, count, error)` entries. While the number of
/// distinct keys offered stays ≤ `k` every count is exact (`error == 0`
/// everywhere and [`SpaceSaving::is_exact`] holds); past that, the
/// minimum-count entry is evicted and the newcomer inherits its count as
/// error bound — true counts are within `[count - error, count]`.
/// Memory is O(k) regardless of stream length or key cardinality.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    k: usize,
    entries: Vec<SketchEntry<K>>,
    index: FxHashMap<K, usize>,
    /// Keys evicted at least once — when 0 the sketch is an exact map.
    evictions: u64,
}

impl<K: Clone + Eq + std::hash::Hash + Ord> SpaceSaving<K> {
    /// An empty sketch with `k` slots (`k` ≥ 1 enforced).
    pub fn new(k: usize) -> SpaceSaving<K> {
        let k = k.max(1);
        SpaceSaving {
            k,
            entries: Vec::with_capacity(k),
            index: FxHashMap::with_capacity_and_hasher(k, Default::default()),
            evictions: 0,
        }
    }

    /// Slot budget `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Occupied slots (≤ `k`, never more).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No keys offered yet?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every count is exact: no slot was ever recycled, i.e. the
    /// distinct keys seen never exceeded `k`.
    pub fn is_exact(&self) -> bool {
        self.evictions == 0
    }

    /// Offer `weight` occurrences of `key`.
    pub fn offer(&mut self, key: K, weight: u64) {
        if let Some(&slot) = self.index.get(&key) {
            self.entries[slot].count += weight;
            return;
        }
        if self.entries.len() < self.k {
            self.index.insert(key.clone(), self.entries.len());
            self.entries.push(SketchEntry {
                key,
                count: weight,
                error: 0,
            });
            return;
        }
        // Recycle the minimum-count slot (ties broken by key order so
        // repeat runs stay deterministic).
        let slot = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.count.cmp(&b.count).then_with(|| a.key.cmp(&b.key)))
            .map(|(i, _)| i)
            .expect("k >= 1");
        let old = &mut self.entries[slot];
        self.index.remove(&old.key);
        self.index.insert(key.clone(), slot);
        old.error = old.count;
        old.count += weight;
        old.key = key;
        self.evictions += 1;
    }

    /// Estimated count for `key` (`None` when not currently tracked —
    /// which, if [`SpaceSaving::is_exact`], means it was never offered).
    pub fn count(&self, key: &K) -> Option<u64> {
        self.index.get(key).map(|&s| self.entries[s].count)
    }

    /// The tracked entries, heaviest first (ties broken by key order, so
    /// output is deterministic).
    pub fn top(&self) -> Vec<SketchEntry<K>> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        out
    }
}

// ---------------------------------------------------------------------------
// Seeded reservoir sampling
// ---------------------------------------------------------------------------

/// Seeded Algorithm-R reservoir: a uniform sample of at most `cap` items
/// from an unbounded stream, in O(cap) memory, fully deterministic given
/// the seed and the stream.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    rng: u64,
}

impl<T> Reservoir<T> {
    /// An empty reservoir holding at most `cap` exemplars.
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap.min(1024)),
            rng: seed,
        }
    }

    /// Capacity (the memory bound).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Stream length observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained exemplars, in retention order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Offer one item from the stream.
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
            return;
        }
        if self.cap == 0 {
            return;
        }
        let j = splitmix64(&mut self.rng) % self.seen;
        if (j as usize) < self.cap {
            self.items[j as usize] = item;
        }
    }
}

// ---------------------------------------------------------------------------
// Online invariant monitors
// ---------------------------------------------------------------------------

/// One detected invariant breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which monitor fired (stable machine-readable name).
    pub invariant: &'static str,
    /// Human-readable account with the numbers that disagreed.
    pub detail: String,
    /// Simulated time of detection.
    pub at: SimTime,
}

impl Serialize for InvariantViolation {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        w.object(|w| {
            w.field("invariant", self.invariant);
            w.field("detail", &self.detail);
            w.field("t_us", &self.at.0);
        });
    }
}

/// Header identity that survives forwarding (mirrors the trace's key):
/// source, final destination (looking through loose source routes),
/// protocol, IP ident.
/// The in-flight identity tracked by the conservation monitor:
/// `(src, final-dst, protocol, ident)`.
pub type LiveKey = (Ipv4Addr, Ipv4Addr, IpProtocol, u16);

fn live_key(pkt: &Ipv4Packet) -> LiveKey {
    let dst = if pkt.options.is_empty() {
        pkt.dst
    } else {
        crate::wire::srcroute::SourceRoute::parse(&pkt.options)
            .and_then(|r| r.final_destination())
            .unwrap_or(pkt.dst)
    };
    (pkt.src, dst, pkt.protocol, pkt.ident)
}

/// Cap on stored violations — the first breaches are the interesting
/// ones; repeats past the cap are counted, not stored.
const VIOLATION_CAP: usize = 32;

/// Online invariant monitor, owned by the [`crate::world::World`] and fed
/// from the same choke points as the trace and metrics. Disabled by
/// default (one branch per event); when enabled it maintains O(1)
/// counters plus a live-packet set bounded by the number of packets
/// currently in flight — *not* by the total ever sent — so it stays
/// affordable at scale.
///
/// Monitors:
/// * **packet-conservation** — every packet put on the wire must end as a
///   delivery, an attributed drop, a transform input, or an attributable
///   wire/detach loss; whatever is still "in flight" at quiescence beyond
///   those allowances is a leak (`sent == delivered + dropped + in-flight`
///   with the loss ledger carried explicitly).
/// * **metrics-reconciliation** — the registry's aggregate totals must
///   equal the monitor's independent event counts (both observe the same
///   choke point, so any disagreement is a counting bug).
/// * **scheduler-reconciliation** — `pushed == dispatched + cancelled +
///   pending` on the event queue, checked incrementally every batch.
///
/// Violations are reported into the run report (see
/// [`crate::world::World::invariant_report`]), never panicked on.
#[derive(Debug, Default)]
pub struct InvariantMonitor {
    enabled: bool,
    // Event counters (every trace event, including re-sends).
    sent_events: u64,
    forwarded_events: u64,
    delivered_events: u64,
    dropped_events: u64,
    transform_events: u64,
    // Conservation ledger.
    originated: u64,
    adopted: u64,
    extra_terminations: u64,
    wire_losses: u64,
    detached_frames: u64,
    parked: u64,
    unparked: u64,
    unclaimed_frames: u64,
    hook_consumed: u64,
    // Fixed-key hasher (as every library map's): under insert/remove churn
    // the table's next resize depends on where tombstones fall, so with
    // `RandomState` the run's allocation count differed between processes.
    live: FxHashSet<LiveKey>,
    // Incremental checking.
    checks: u64,
    scheduler_flagged: bool,
    violations: Vec<InvariantViolation>,
    suppressed_violations: u64,
}

impl InvariantMonitor {
    /// A disabled monitor (the default inside every world).
    pub fn new() -> InvariantMonitor {
        InvariantMonitor::default()
    }

    /// Is the monitor recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn monitoring on or off (state is kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Packets currently unaccounted for (in flight or leaked).
    pub fn in_flight(&self) -> usize {
        self.live.len()
    }

    /// Violations recorded by the incremental checks so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    fn record_violation(&mut self, invariant: &'static str, detail: String, at: SimTime) {
        if self.violations.len() < VIOLATION_CAP {
            self.violations.push(InvariantViolation {
                invariant,
                detail,
                at,
            });
        } else {
            self.suppressed_violations += 1;
        }
    }

    /// Observe one packet event — called from the
    /// [`crate::world::NetCtx::trace_packet`] choke point.
    #[inline]
    pub fn record_packet(&mut self, kind: TraceEventKind, pkt: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        match kind {
            TraceEventKind::Sent => {
                self.sent_events += 1;
                if self.live.insert(live_key(pkt)) {
                    self.originated += 1;
                }
            }
            TraceEventKind::Forwarded => {
                self.forwarded_events += 1;
                if self.live.insert(live_key(pkt)) {
                    // First sighting mid-path (e.g. a transform recorded
                    // only at the metrics layer): adopt rather than lose.
                    self.adopted += 1;
                }
            }
            TraceEventKind::DeliveredLocal => {
                self.delivered_events += 1;
                if !self.live.remove(&live_key(pkt)) {
                    // Broadcast/multicast fan-out and duplicated frames
                    // terminate one identity several times; that is
                    // expected, so it is a gauge, not a violation.
                    self.extra_terminations += 1;
                }
            }
            TraceEventKind::Dropped(_) => {
                self.dropped_events += 1;
                if !self.live.remove(&live_key(pkt)) {
                    self.extra_terminations += 1;
                }
            }
            TraceEventKind::Transformed(_) => {
                // Normally arrives via record_transform; count defensively.
                self.transform_events += 1;
            }
        }
    }

    /// Observe one transform — called from the
    /// [`crate::world::NetCtx::trace_transform`] choke point. The parent
    /// identity (when given) leaves flight; the child enters it.
    #[inline]
    pub fn record_transform(&mut self, parent: Option<&Ipv4Packet>, child: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        self.transform_events += 1;
        if let Some(p) = parent {
            self.live.remove(&live_key(p));
        }
        self.live.insert(live_key(child));
    }

    /// Note a frame that never made it across a segment (fault drop or
    /// FCS-rejected corruption): any packet it carried is attributably
    /// lost, not leaked.
    #[inline]
    pub fn note_wire_loss(&mut self) {
        if self.enabled {
            self.wire_losses += 1;
        }
    }

    /// Note a frame delivered to a node/interface that detached while it
    /// was in flight (mid-handoff losses — real, and attributable).
    #[inline]
    pub fn note_detached_frame(&mut self) {
        if self.enabled {
            self.detached_frames += 1;
        }
    }

    /// Note a packet parked in a link-layer pending queue (awaiting ARP
    /// resolution). Parked packets are legitimately in flight even at
    /// quiescence: a neighbour that never answers strands them forever —
    /// visible as `parked_net`, not a conservation leak.
    #[inline]
    pub fn note_parked(&mut self) {
        if self.enabled {
            self.parked += 1;
        }
    }

    /// Note a parked packet leaving the pending queue (flushed onto the
    /// wire after resolution, or evicted with an attributed drop).
    #[inline]
    pub fn note_unparked(&mut self) {
        if self.enabled {
            self.unparked += 1;
        }
    }

    /// Packets currently parked in pending queues (cumulative parks minus
    /// departures; packets discarded when an interface detaches stay
    /// counted, matching their stranded live entries).
    pub fn parked_net(&self) -> u64 {
        self.parked.saturating_sub(self.unparked)
    }

    /// Note a frame unicast to a MAC not present on its segment: every
    /// NIC ignores it, so the packet it carried dies on the wire. The
    /// classic post-handoff fate of frames sent via a stale ARP entry.
    #[inline]
    pub fn note_unclaimed_frame(&mut self) {
        if self.enabled {
            self.unclaimed_frames += 1;
        }
    }

    /// Note a packet consumed by a mobility hook before local delivery
    /// (registration signalling never reaches a socket, but it *did*
    /// terminate) — the packet leaves flight without a trace event.
    #[inline]
    pub fn note_consumed(&mut self, pkt: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        self.hook_consumed += 1;
        if !self.live.remove(&live_key(pkt)) {
            self.extra_terminations += 1;
        }
    }

    /// Note a hook rewriting a packet's identity in place (no trace
    /// transform fires): the old identity leaves flight, the new enters.
    #[inline]
    pub fn note_rewrite(&mut self, before: &Ipv4Packet, after: &Ipv4Packet) {
        if !self.enabled {
            return;
        }
        let (b, a) = (live_key(before), live_key(after));
        if b != a {
            self.live.remove(&b);
            self.live.insert(a);
        }
    }

    /// Incremental scheduler-stats reconciliation, run per dispatch batch:
    /// `pushed == dispatched + cancelled + pending`. Records the first
    /// breach only (a broken queue would otherwise flood the report).
    #[inline]
    pub fn check_scheduler(&mut self, at: SimTime, stats: &SchedulerStats, pending: u64) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if self.scheduler_flagged {
            return;
        }
        let accounted = stats.dispatched + stats.cancelled + pending;
        if stats.pushed != accounted {
            self.scheduler_flagged = true;
            self.record_violation(
                "scheduler-reconciliation",
                format!(
                    "pushed={} != dispatched={} + cancelled={} + pending={}",
                    stats.pushed, stats.dispatched, stats.cancelled, pending
                ),
                at,
            );
        }
    }

    /// Final-check violations, computed without mutating the monitor so
    /// reports can be built from a shared borrow. `quiescent` gates the
    /// conservation check (mid-run, in-flight packets are legitimate);
    /// `totals` (with the registry's transform/drop sums) enables the
    /// metrics reconciliation.
    pub fn final_violations(
        &self,
        at: SimTime,
        stats: &SchedulerStats,
        pending: u64,
        quiescent: bool,
        totals: Option<&crate::metrics::NodeMetrics>,
    ) -> Vec<InvariantViolation> {
        if !self.enabled {
            return Vec::new();
        }
        let mut out = Vec::new();
        if !self.scheduler_flagged {
            let accounted = stats.dispatched + stats.cancelled + pending;
            if stats.pushed != accounted {
                out.push(InvariantViolation {
                    invariant: "scheduler-reconciliation",
                    detail: format!(
                        "pushed={} != dispatched={} + cancelled={} + pending={}",
                        stats.pushed, stats.dispatched, stats.cancelled, pending
                    ),
                    at,
                });
            }
        }
        if quiescent {
            let in_flight = self.live.len() as u64;
            let allowance =
                self.wire_losses + self.detached_frames + self.parked_net() + self.unclaimed_frames;
            if in_flight > allowance {
                out.push(InvariantViolation {
                    invariant: "packet-conservation",
                    detail: format!(
                        "sent={} != delivered={} + dropped={} + in-flight accounted: \
                         {} packets still unaccounted at quiescence, only {} attributable \
                         (wire_losses={} detached_frames={} parked={} unclaimed={})",
                        self.originated + self.adopted,
                        self.delivered_events,
                        self.dropped_events,
                        in_flight,
                        allowance,
                        self.wire_losses,
                        self.detached_frames,
                        self.parked_net(),
                        self.unclaimed_frames
                    ),
                    at,
                });
            }
        }
        if let Some(t) = totals {
            let pairs = [
                ("packets_sent", t.packets_sent, self.sent_events),
                (
                    "packets_forwarded",
                    t.packets_forwarded,
                    self.forwarded_events,
                ),
                (
                    "packets_delivered",
                    t.packets_delivered,
                    self.delivered_events,
                ),
                ("drops", t.total_drops(), self.dropped_events),
                ("transforms", t.transforms, self.transform_events),
            ];
            for (name, registry, monitor) in pairs {
                if registry != monitor {
                    out.push(InvariantViolation {
                        invariant: "metrics-reconciliation",
                        detail: format!("registry {name}={registry} != monitor count {monitor}"),
                        at,
                    });
                }
            }
        }
        out
    }

    /// The monitor's run-report section: counters, check count, and the
    /// union of incrementally recorded and freshly computed violations.
    pub fn report<'a>(
        &'a self,
        at: SimTime,
        stats: &SchedulerStats,
        pending: u64,
        quiescent: bool,
        totals: Option<&crate::metrics::NodeMetrics>,
    ) -> impl Serialize + 'a {
        let fresh = self.final_violations(at, stats, pending, quiescent, totals);
        serde::from_fn(move |w| {
            w.object(|w| {
                let ok = self.violations.is_empty()
                    && fresh.is_empty()
                    && self.suppressed_violations == 0;
                w.field("ok", &ok);
                w.field("checks", &self.checks);
                w.key("counters");
                w.object(|w| {
                    w.field("sent_events", &self.sent_events);
                    w.field("forwarded_events", &self.forwarded_events);
                    w.field("delivered_events", &self.delivered_events);
                    w.field("dropped_events", &self.dropped_events);
                    w.field("transform_events", &self.transform_events);
                    w.field("originated", &self.originated);
                    w.field("adopted", &self.adopted);
                    w.field("in_flight", &self.live.len());
                    w.field("extra_terminations", &self.extra_terminations);
                    w.field("wire_losses", &self.wire_losses);
                    w.field("detached_frames", &self.detached_frames);
                    w.field("parked", &self.parked_net());
                    w.field("unclaimed_frames", &self.unclaimed_frames);
                    w.field("hook_consumed", &self.hook_consumed);
                });
                w.key("violations");
                w.seq(self.violations.iter().chain(&fresh));
                w.field("suppressed_violations", &self.suppressed_violations);
            });
        })
    }

    /// Whether any violation has been observed so far (incremental checks
    /// only; final checks are recomputed by [`InvariantMonitor::final_violations`]).
    pub fn violated(&self) -> bool {
        !self.violations.is_empty() || self.suppressed_violations > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use bytes::Bytes;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn pkt(src: &str, dst: &str, ident: u16) -> Ipv4Packet {
        let mut p = Ipv4Packet::new(ip(src), ip(dst), IpProtocol::Udp, Bytes::from_static(b"x"));
        p.ident = ident;
        p
    }

    #[test]
    fn space_saving_exact_below_capacity() {
        let mut s: SpaceSaving<u64> = SpaceSaving::new(4);
        for (k, n) in [(1u64, 10u64), (2, 5), (3, 1)] {
            for _ in 0..n {
                s.offer(k, 1);
            }
        }
        assert!(s.is_exact());
        assert_eq!(s.count(&1), Some(10));
        assert_eq!(s.count(&3), Some(1));
        let top = s.top();
        assert_eq!(top[0].key, 1);
        assert_eq!(top[0].count, 10);
        assert_eq!(top[0].error, 0);
    }

    #[test]
    fn space_saving_bounds_memory_and_error_above_capacity() {
        let mut s: SpaceSaving<u64> = SpaceSaving::new(8);
        // One true heavy hitter among 10k distinct light keys.
        for i in 0..10_000u64 {
            s.offer(i, 1);
            s.offer(42, 1);
        }
        assert_eq!(s.len(), 8, "memory bound holds");
        assert!(!s.is_exact());
        let c = s.count(&42).expect("heavy hitter retained");
        assert!(c >= 10_000, "count is an overestimate, was {c}");
        let e = s.top().iter().find(|e| e.key == 42).unwrap().error;
        assert!(c - e <= 10_000 + 1, "true count within error bound");
    }

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let run = || {
            let mut r: Reservoir<u64> = Reservoir::new(8, 7);
            for i in 0..10_000u64 {
                r.offer(i);
            }
            r.items().to_vec()
        };
        let a = run();
        assert_eq!(a.len(), 8);
        assert_eq!(a, run(), "same seed, same sample");
    }

    #[test]
    fn monitor_clean_run_reports_no_violations() {
        let mut m = InvariantMonitor::new();
        m.set_enabled(true);
        let p = pkt("1.1.1.1", "2.2.2.2", 1);
        m.record_packet(TraceEventKind::Sent, &p);
        m.record_packet(TraceEventKind::Forwarded, &p);
        m.record_packet(TraceEventKind::DeliveredLocal, &p);
        let stats = SchedulerStats {
            pushed: 10,
            dispatched: 7,
            cancelled: 3,
        };
        let v = m.final_violations(SimTime(5), &stats, 0, true, None);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn monitor_detects_leaked_packet() {
        let mut m = InvariantMonitor::new();
        m.set_enabled(true);
        m.record_packet(TraceEventKind::Sent, &pkt("1.1.1.1", "2.2.2.2", 1));
        let stats = SchedulerStats {
            pushed: 0,
            dispatched: 0,
            cancelled: 0,
        };
        let v = m.final_violations(SimTime(5), &stats, 0, true, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "packet-conservation");
        // The same leak is forgiven when a wire loss explains it.
        m.note_wire_loss();
        let v = m.final_violations(SimTime(5), &stats, 0, true, None);
        assert!(v.is_empty());
    }

    #[test]
    fn monitor_transform_hands_flight_over() {
        let mut m = InvariantMonitor::new();
        m.set_enabled(true);
        let inner = pkt("1.1.1.1", "2.2.2.2", 1);
        let outer = pkt("9.9.9.9", "8.8.8.8", 77);
        m.record_packet(TraceEventKind::Sent, &inner);
        m.record_transform(Some(&inner), &outer);
        assert_eq!(m.in_flight(), 1, "child replaced parent");
        m.record_packet(TraceEventKind::DeliveredLocal, &outer);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn monitor_scheduler_reconciliation_fires_once() {
        let mut m = InvariantMonitor::new();
        m.set_enabled(true);
        let bad = SchedulerStats {
            pushed: 10,
            dispatched: 3,
            cancelled: 1,
        };
        m.check_scheduler(SimTime(1), &bad, 2);
        m.check_scheduler(SimTime(2), &bad, 2);
        assert_eq!(m.violations().len(), 1, "flagged once, not per batch");
        assert_eq!(m.violations()[0].invariant, "scheduler-reconciliation");
    }

    #[test]
    fn monitor_metrics_reconciliation() {
        let mut m = InvariantMonitor::new();
        m.set_enabled(true);
        m.record_packet(TraceEventKind::Sent, &pkt("1.1.1.1", "2.2.2.2", 1));
        let mut totals = crate::metrics::NodeMetrics::default();
        totals.packets_sent = 2; // registry claims one more than observed
        let stats = SchedulerStats {
            pushed: 0,
            dispatched: 0,
            cancelled: 0,
        };
        let v = m.final_violations(SimTime(1), &stats, 0, false, Some(&totals));
        assert!(v.iter().any(|v| v.invariant == "metrics-reconciliation"));
    }

    #[test]
    fn disabled_monitor_costs_and_stores_nothing() {
        let mut m = InvariantMonitor::new();
        m.record_packet(TraceEventKind::Sent, &pkt("1.1.1.1", "2.2.2.2", 1));
        m.note_wire_loss();
        assert_eq!(m.in_flight(), 0);
        let stats = SchedulerStats {
            pushed: 5,
            dispatched: 0,
            cancelled: 0,
        };
        let v = m.final_violations(SimTime(1), &stats, 0, true, None);
        assert!(v.is_empty(), "disabled monitor never reports");
    }
}

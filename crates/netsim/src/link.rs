//! Links: shared Ethernet segments and point-to-point wires.
//!
//! Both are modelled as a *segment* — a broadcast domain with N attachments,
//! each an interface with its MAC address. A frame transmitted by one
//! attachment arrives after the serialization and propagation delay at
//! every attachment that would accept it: a broadcast or multicast frame at
//! every other attachment, a unicast frame only at the attachment(s) that
//! own its destination MAC. The segment applies the filter a NIC would, so
//! a bystander costs nothing per frame it would have discarded. A frame
//! too short to carry a destination MAC still reaches every other
//! attachment, whose NIC rejects it.
//!
//! Filtering on the MAC, not the IP destination, is what makes the paper's
//! In-DH mode (§5) work exactly as described: a correspondent on the same
//! segment addresses a frame to the mobile host's MAC even though the IP
//! destination "does not belong" on that network, and the mobile's NIC
//! owns that MAC, so the frame reaches it.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{lane_key, segment_lane, EventKind, EventQueue, IfaceNo, NodeId};
use crate::time::{SimDuration, SimTime};
use crate::wire::ethernet::MacAddr;

/// Identifies a segment in the [`crate::world::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

/// Alias kept for the common two-attachment case.
pub type LinkId = SegmentId;

/// Random fault injection applied to every frame on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability one octet of the frame is flipped.
    pub corrupt_prob: f64,
    /// Probability the frame is delivered twice.
    pub duplicate_prob: f64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
        }
    }
}

/// What the fault injector decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// One bit was flipped in flight. Every CRC catches all single-bit
    /// errors, so the receiving NIC's FCS check discards the frame: it
    /// occupies the wire but is never delivered upward.
    Corrupt,
}

impl FaultInjector {
    /// Does this injector ever draw from the RNG? Fault-free segments skip
    /// RNG seeding entirely.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0 || self.duplicate_prob > 0.0
    }

    /// Decide this frame's fate, possibly corrupting it in place.
    pub fn apply<R: Rng>(&self, frame: &mut [u8], rng: &mut R) -> FaultOutcome {
        let (outcome, flip) = self.decide_impl(frame.len(), rng);
        if let Some((i, bit)) = flip {
            frame[i] ^= bit;
        }
        outcome
    }

    /// Decide a frame's fate from its length alone, without touching the
    /// bytes. Draws from `rng` in exactly the same order as
    /// [`FaultInjector::apply`], so the two are interchangeable on the same
    /// RNG stream. The transmit path uses this: corrupted frames are never
    /// delivered upward (the receiving FCS check drops them), so mutating
    /// the buffer — and the copy that made it mutable — is avoidable work.
    pub fn decide<R: Rng>(&self, frame_len: usize, rng: &mut R) -> FaultOutcome {
        self.decide_impl(frame_len, rng).0
    }

    fn decide_impl<R: Rng>(
        &self,
        frame_len: usize,
        rng: &mut R,
    ) -> (FaultOutcome, Option<(usize, u8)>) {
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
            return (FaultOutcome::Drop, None);
        }
        if self.corrupt_prob > 0.0 && rng.gen_bool(self.corrupt_prob) && frame_len > 0 {
            let i = rng.gen_range(0..frame_len);
            let bit = 1u8 << rng.gen_range(0..8);
            return (FaultOutcome::Corrupt, Some((i, bit)));
        }
        if self.duplicate_prob > 0.0 && rng.gen_bool(self.duplicate_prob) {
            return (FaultOutcome::Duplicate, None);
        }
        (FaultOutcome::Deliver, None)
    }
}

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Bits per second; `None` = infinitely fast serialization.
    pub bandwidth_bps: Option<u64>,
    /// Maximum IP packet size carried in one frame (i.e. Ethernet payload).
    pub mtu: usize,
    /// Random fault injection applied to every frame.
    pub fault: FaultInjector,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: Some(10_000_000), // classic 10 Mb/s Ethernet
            mtu: 1500,
            fault: FaultInjector::default(),
        }
    }
}

impl LinkConfig {
    /// An Ethernet-like LAN segment.
    pub fn lan() -> LinkConfig {
        LinkConfig::default()
    }

    /// A WAN link with the given one-way latency in milliseconds.
    pub fn wan(latency_ms: u64) -> LinkConfig {
        LinkConfig {
            latency: SimDuration::from_millis(latency_ms),
            bandwidth_bps: Some(45_000_000), // T3-era backbone
            mtu: 1500,
            fault: FaultInjector::default(),
        }
    }

    /// Time to clock `bytes` onto this link.
    pub fn serialize_time(&self, bytes: usize) -> SimDuration {
        match self.bandwidth_bps {
            Some(bps) => SimDuration::from_micros((bytes as u64 * 8 * 1_000_000) / bps),
            None => SimDuration::ZERO,
        }
    }
}

/// Per-segment traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames carried.
    pub frames: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Frames eaten by fault injection.
    pub fault_drops: u64,
    /// Frames corrupted in flight and discarded by the receiver's FCS
    /// check (they still consumed wire time and count in `frames`/`bytes`).
    pub crc_drops: u64,
    /// Frames dropped for exceeding the MTU (an upstream bug).
    pub oversize_drops: u64,
}

serde::impl_serialize!(LinkStats {
    frames,
    bytes,
    fault_drops,
    crc_drops,
    oversize_drops
});

/// The destination MAC of a unicast `frame`; `None` for a broadcast or
/// multicast frame (broadcast is a multicast address) and for one too
/// short to carry a destination.
pub(crate) fn unicast_dst(frame: &[u8]) -> Option<MacAddr> {
    match *frame {
        [a, b, c, d, e, f, ..] => Some(MacAddr([a, b, c, d, e, f])),
        _ => None,
    }
    .filter(|dst| !dst.is_multicast())
}

/// What [`Segment::transmit`] did with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// The fault injector's verdict (oversize frames read [`FaultOutcome::Drop`]).
    pub outcome: FaultOutcome,
    /// The frame is unicast and no other attachment owns its destination
    /// MAC, so nothing was scheduled: whatever it carried dies on the wire
    /// (a stale ARP entry after a handoff, a vanished care-of address).
    /// Only a frame that got past the fault injector can be unclaimed.
    pub unclaimed: bool,
}

/// The mutable, per-run side of a segment: medium occupancy, traffic
/// counters, the segment's event-ordering lane sequence and its lazily
/// seeded fault RNG. Split out of [`Segment`] so an event handler can hold
/// the immutable topology (`&[Segment]`) while a transmit mutates one
/// segment's state.
#[derive(Debug, Clone)]
pub struct SegState {
    /// When the shared medium next becomes free (serialization queueing).
    pub(crate) next_free: SimTime,
    /// Traffic counters.
    pub stats: LinkStats,
    /// Next sequence number on this segment's event lane. Delivery events
    /// are keyed `(segment lane, lane_seq)`, so their global tie-break order
    /// depends only on which segment carried them.
    pub(crate) lane_seq: u64,
    /// Fault-injection RNG, seeded from the segment's `rng_seed` on first
    /// use. Fault-free segments never touch it.
    pub(crate) rng: Option<StdRng>,
}

impl Default for SegState {
    fn default() -> Self {
        SegState {
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
            lane_seq: 0,
            rng: None,
        }
    }
}

impl SegState {
    /// How long the medium is already committed beyond `now`: the
    /// sender-side queueing delay a frame offered at `now` would see.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.next_free.since(now)
    }
}

/// A broadcast domain. Two attachments = point-to-point wire.
///
/// Holds only the parts that are immutable while events are dispatched:
/// link parameters and attachments (topology changes happen inside node
/// handlers via deferred world ops, never concurrently with a transmit).
/// The mutable side lives in [`SegState`].
#[derive(Debug)]
pub struct Segment {
    /// Static link parameters.
    pub config: LinkConfig,
    /// Every attached interface with its MAC, which decides who receives a
    /// unicast frame.
    attachments: Vec<(NodeId, IfaceNo, MacAddr)>,
    /// This segment's index in the world, carried by its delivery events
    /// (so a frame is lost at an interface that moved elsewhere in flight)
    /// and naming its event-ordering lane. The world assigns it at
    /// creation.
    pub(crate) index: u32,
    /// Seed for this segment's private fault RNG, derived by the world from
    /// the world seed and the segment index, so a segment's fault decisions
    /// do not depend on other segments' traffic.
    pub(crate) rng_seed: u64,
}

impl Segment {
    /// A segment with no attachments. Standalone construction (tests,
    /// benches) gets index 0 and a fixed RNG seed; the world overwrites
    /// both when the segment is added to a topology.
    pub fn new(config: LinkConfig) -> Segment {
        Segment {
            config,
            attachments: Vec::new(),
            index: 0,
            rng_seed: 0,
        }
    }

    /// Attach a node interface, configured with `mac`, to this segment.
    pub fn attach(&mut self, node: NodeId, iface: IfaceNo, mac: MacAddr) {
        self.attachments.push((node, iface, mac));
    }

    /// Detach a node interface (the mobile host leaving a network).
    pub fn detach(&mut self, node: NodeId, iface: IfaceNo) {
        self.attachments
            .retain(|&(n, i, _)| (n, i) != (node, iface));
    }

    /// Everything plugged into this segment, with its MAC.
    pub fn attachments(&self) -> &[(NodeId, IfaceNo, MacAddr)] {
        &self.attachments
    }

    /// Is this (node, interface) plugged in here?
    pub fn is_attached(&self, node: NodeId, iface: IfaceNo) -> bool {
        self.attachments
            .iter()
            .any(|&(n, i, _)| (n, i) == (node, iface))
    }

    /// Transmit `frame` from `from`, scheduling one delivery event into
    /// `queue` per attachment that would accept it: the other owners of a
    /// unicast destination MAC, every other attachment for a broadcast,
    /// multicast or runt frame. Applies serialization delay, propagation
    /// latency and fault injection, mutating only the segment's
    /// [`SegState`]. Returns the fault outcome (for link stats and drop
    /// tracing by the caller) and whether a unicast frame found no owner.
    /// Delivery events carry `(segment lane, lane_seq)` keys, `lane_seq`
    /// advancing once per scheduled delivery, so equal-timestamp ordering
    /// is a pure function of the topology and traffic.
    pub fn transmit(
        &self,
        state: &mut SegState,
        from: (NodeId, IfaceNo),
        frame: Bytes,
        now: SimTime,
        queue: &mut EventQueue,
    ) -> Transmission {
        let lost = |outcome| Transmission {
            outcome,
            unclaimed: false,
        };
        // Frames larger than MTU + Ethernet header indicate an IP-layer bug
        // upstream (fragmentation should have happened); drop and count.
        let max_frame = self.config.mtu + crate::wire::ethernet::ETHERNET_HEADER_LEN;
        if frame.len() > max_frame {
            state.stats.oversize_drops += 1;
            return lost(FaultOutcome::Drop);
        }

        // Corrupt frames are never delivered (the FCS check below discards
        // them), so the fault decision only needs the length — the frame
        // buffer stays shared and untouched, no copy. The RNG is private to
        // the segment and seeded from the world seed + segment index, so
        // the fault stream never depends on interleaving with other
        // segments' traffic.
        let outcome = if self.config.fault.is_active() {
            let _prof = crate::profile::scope("link/fault");
            let seed = self.rng_seed;
            let rng = state.rng.get_or_insert_with(|| StdRng::seed_from_u64(seed));
            self.config.fault.decide(frame.len(), rng)
        } else {
            FaultOutcome::Deliver
        };
        if outcome == FaultOutcome::Drop {
            state.stats.fault_drops += 1;
            return lost(outcome);
        }

        state.stats.frames += 1;
        state.stats.bytes += frame.len() as u64;

        let tx_start = now.max(state.next_free);
        let tx_end = tx_start + self.config.serialize_time(frame.len());
        state.next_free = tx_end;
        let arrival = tx_end + self.config.latency;

        // A corrupted frame monopolizes the medium like any other but every
        // receiving NIC rejects it on the FCS check — model that as
        // "no delivery events".
        if outcome == FaultOutcome::Corrupt {
            state.stats.crc_drops += 1;
            return lost(outcome);
        }

        // The receiving NICs' destination filter, applied here: a unicast
        // frame is scheduled only to its owner(s).
        let unicast = unicast_dst(&frame);
        let copies = if outcome == FaultOutcome::Duplicate {
            2
        } else {
            1
        };
        let lane = segment_lane(self.index as usize);
        let mut scheduled = 0;
        for _ in 0..copies {
            for &(node, iface, mac) in &self.attachments {
                if (node, iface) == from || unicast.is_some_and(|dst| dst != mac) {
                    continue;
                }
                let key = lane_key(lane, state.lane_seq);
                state.lane_seq += 1;
                scheduled += 1;
                queue.push_keyed(
                    arrival,
                    key,
                    EventKind::Deliver {
                        node,
                        iface,
                        seg: self.index,
                        frame: frame.clone(),
                    },
                );
            }
        }
        Transmission {
            outcome,
            unclaimed: unicast.is_some() && scheduled == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` bytes of 0xab: the destination ab:ab:… has the group bit set,
    /// so the frame is multicast and every other attachment hears it.
    fn frame(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    fn mac(i: usize) -> MacAddr {
        MacAddr::from_index(i as u32)
    }

    /// A 64-byte frame addressed to `dst`.
    fn frame_to(dst: MacAddr) -> Bytes {
        let mut f = vec![0u8; 64];
        f[..6].copy_from_slice(&dst.0);
        Bytes::from(f)
    }

    /// A LAN with nodes `0..n` attached on interface 0, node `i` owning
    /// `mac(i)`.
    fn lan_of(n: usize, config: LinkConfig) -> Segment {
        let mut seg = Segment::new(config);
        for i in 0..n {
            seg.attach(NodeId(i), 0, mac(i));
        }
        seg
    }

    /// Transmit `frame` from interface 0 of `node` at time zero.
    fn send(
        seg: &Segment,
        st: &mut SegState,
        q: &mut EventQueue,
        node: usize,
        frame: Bytes,
    ) -> Transmission {
        seg.transmit(st, (NodeId(node), 0), frame, SimTime::ZERO, q)
    }

    /// The receiving node of every event in `q`, in delivery order.
    fn receivers(q: &mut EventQueue) -> Vec<usize> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deliver { node, .. } => node.0,
                EventKind::Timer(_) => unreachable!("a segment schedules deliveries only"),
            })
            .collect()
    }

    #[test]
    fn p2p_delivery_after_latency_and_serialization() {
        let mut seg = Segment::new(LinkConfig {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: Some(8_000_000), // 1 byte/µs
            mtu: 1500,
            fault: FaultInjector::default(),
        });
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        seg.transmit(&mut st, (NodeId(0), 0), frame(1000), SimTime::ZERO, &mut q);
        let ev = q.pop().unwrap();
        // 1000 bytes at 1 byte/µs = 1000 µs + 10 ms latency.
        assert_eq!(ev.at, SimTime(11_000));
        assert!(q.pop().is_none(), "sender must not hear its own frame");
        assert_eq!(st.stats.frames, 1);
        assert_eq!(st.stats.bytes, 1000);
    }

    #[test]
    fn broadcast_segment_reaches_all_other_attachments() {
        let mut seg = Segment::new(LinkConfig::lan());
        for i in 0..4 {
            seg.attach(NodeId(i), 0, mac(i));
        }
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        seg.transmit(&mut st, (NodeId(2), 0), frame(64), SimTime::ZERO, &mut q);
        assert_eq!(receivers(&mut q), vec![0, 1, 3]);
    }

    #[test]
    fn a_unicast_frame_reaches_only_its_owner() {
        let seg = lan_of(4, LinkConfig::lan());
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        let sent = send(&seg, &mut st, &mut q, 2, frame_to(mac(0)));
        assert_eq!(
            sent,
            Transmission {
                outcome: FaultOutcome::Deliver,
                unclaimed: false
            }
        );
        assert_eq!(receivers(&mut q), vec![0]);
        assert_eq!(st.lane_seq, 1, "one lane sequence number per delivery");
    }

    #[test]
    fn an_unclaimed_unicast_frame_schedules_nothing() {
        let seg = lan_of(4, LinkConfig::lan());
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        let sent = send(&seg, &mut st, &mut q, 2, frame_to(mac(9)));
        assert!(sent.unclaimed);
        assert_eq!(sent.outcome, FaultOutcome::Deliver);
        assert!(q.is_empty());
        assert_eq!(st.stats.frames, 1, "the frame still occupied the wire");
        // A frame to the sender's own MAC has no other owner either.
        let sent = send(&seg, &mut st, &mut q, 2, frame_to(mac(2)));
        assert!(sent.unclaimed);
        assert!(q.is_empty());
    }

    #[test]
    fn a_duplicated_unicast_frame_reaches_its_owner_twice() {
        let seg = lan_of(
            4,
            LinkConfig {
                fault: FaultInjector {
                    duplicate_prob: 1.0,
                    ..Default::default()
                },
                ..LinkConfig::lan()
            },
        );
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        let sent = send(&seg, &mut st, &mut q, 2, frame_to(mac(3)));
        assert_eq!(sent.outcome, FaultOutcome::Duplicate);
        assert!(!sent.unclaimed);
        assert_eq!(receivers(&mut q), vec![3, 3]);
    }

    #[test]
    fn broadcast_multicast_and_runt_frames_reach_every_other_attachment() {
        let seg = lan_of(5, LinkConfig::lan());
        let group = MacAddr::for_ipv4_multicast("224.0.0.9".parse().unwrap());
        for f in [frame_to(MacAddr::BROADCAST), frame_to(group), frame(4)] {
            let mut st = SegState::default();
            let mut q = EventQueue::new();
            let sent = send(&seg, &mut st, &mut q, 1, f);
            assert!(!sent.unclaimed);
            assert_eq!(receivers(&mut q), vec![0, 2, 3, 4]);
            assert_eq!(st.lane_seq, 4);
        }
    }

    #[test]
    fn deliveries_carry_the_segment_index() {
        let mut seg = lan_of(2, LinkConfig::lan());
        seg.index = 7;
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        send(&seg, &mut st, &mut q, 0, frame_to(mac(1)));
        let ev = q.pop().unwrap();
        assert!(matches!(ev.kind, EventKind::Deliver { seg: 7, .. }));
        assert_eq!(ev.seq, lane_key(segment_lane(7), 0));
    }

    #[test]
    fn serialization_queueing_backs_up() {
        let cfg = LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(8_000_000), // 1 byte/µs
            mtu: 1500,
            fault: FaultInjector::default(),
        };
        let mut seg = Segment::new(cfg);
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        // Two back-to-back 500-byte frames at t=0: second must wait.
        seg.transmit(&mut st, (NodeId(0), 0), frame(500), SimTime::ZERO, &mut q);
        seg.transmit(&mut st, (NodeId(0), 0), frame(500), SimTime::ZERO, &mut q);
        let t1 = q.pop().unwrap().at;
        let t2 = q.pop().unwrap().at;
        assert_eq!(t1, SimTime(500));
        assert_eq!(t2, SimTime(1000));
    }

    #[test]
    fn detach_stops_delivery() {
        let mut seg = Segment::new(LinkConfig::lan());
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        assert!(seg.is_attached(NodeId(1), 0));
        seg.detach(NodeId(1), 0);
        assert!(!seg.is_attached(NodeId(1), 0));
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        seg.transmit(&mut st, (NodeId(0), 0), frame(64), SimTime::ZERO, &mut q);
        assert!(q.is_empty());
    }

    #[test]
    fn oversize_frames_dropped() {
        let mut seg = Segment::new(LinkConfig::lan()); // mtu 1500
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        let out = seg.transmit(
            &mut st,
            (NodeId(0), 0),
            frame(1515), // > 1500 + 14
            SimTime::ZERO,
            &mut q,
        );
        assert_eq!(out.outcome, FaultOutcome::Drop);
        assert_eq!(st.stats.oversize_drops, 1);
        assert!(q.is_empty());
        // Exactly MTU + header is fine.
        let out = seg.transmit(&mut st, (NodeId(0), 0), frame(1514), SimTime::ZERO, &mut q);
        assert_eq!(out.outcome, FaultOutcome::Deliver);
    }

    #[test]
    fn fault_injection_drops_approximately_at_rate() {
        let mut seg = Segment::new(LinkConfig {
            fault: FaultInjector {
                drop_prob: 0.5,
                ..Default::default()
            },
            ..LinkConfig::lan()
        });
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        seg.rng_seed = 42;
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        let mut dropped = 0;
        for _ in 0..1000 {
            if seg
                .transmit(&mut st, (NodeId(0), 0), frame(64), SimTime::ZERO, &mut q)
                .outcome
                == FaultOutcome::Drop
            {
                dropped += 1;
            }
        }
        assert!((400..600).contains(&dropped), "dropped {dropped}/1000");
        assert_eq!(st.stats.fault_drops, dropped);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let inj = FaultInjector {
            corrupt_prob: 1.0,
            ..Default::default()
        };
        let mut r = StdRng::seed_from_u64(42);
        let orig = vec![0u8; 100];
        let mut data = orig.clone();
        assert_eq!(inj.apply(&mut data, &mut r), FaultOutcome::Corrupt);
        let flipped: u32 = orig
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut seg = Segment::new(LinkConfig {
            fault: FaultInjector {
                duplicate_prob: 1.0,
                ..Default::default()
            },
            ..LinkConfig::lan()
        });
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        let out = seg.transmit(&mut st, (NodeId(0), 0), frame(64), SimTime::ZERO, &mut q);
        assert_eq!(out.outcome, FaultOutcome::Duplicate);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_faults_is_deterministic_delivery() {
        let mut seg = Segment::new(LinkConfig::lan());
        seg.attach(NodeId(0), 0, mac(0));
        seg.attach(NodeId(1), 0, mac(1));
        let mut st = SegState::default();
        let mut q = EventQueue::new();
        for _ in 0..100 {
            assert_eq!(
                seg.transmit(&mut st, (NodeId(0), 0), frame(64), SimTime::ZERO, &mut q)
                    .outcome,
                FaultOutcome::Deliver
            );
        }
        assert_eq!(q.len(), 100);
        assert!(
            st.rng.is_none(),
            "fault-free segment must never seed its RNG"
        );
    }
}

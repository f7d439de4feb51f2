//! The NIC layer shared by hosts and routers: interfaces, ARP resolution
//! (RFC 826) with proxy-ARP support (RFC 1027), fragmentation to the link
//! MTU, and frame transmission.

use bytes::{Bytes, BytesMut};

use crate::event::IfaceNo;
use crate::hash::FxHashSet;
use crate::link::{FaultOutcome, SegmentId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, TraceEventKind};
use crate::wire::arp::{ArpOp, ArpPacket};
use crate::wire::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use crate::wire::ipv4::{Ipv4Addr, Ipv4Cidr, Ipv4Packet};
use crate::world::NetCtx;

/// How long a learned ARP entry stays valid (one minute, as in smoltcp).
const ARP_TTL: SimDuration = SimDuration::from_secs(60);
/// Maximum packets queued awaiting one ARP resolution.
const ARP_PENDING_CAP: usize = 8;
/// Cap on learned neighbours per interface. Routers on large LANs touch
/// at most this many entries; when a new neighbour would exceed the cap,
/// expired entries are dropped first, then the least recently learned —
/// so long churn runs (handoff storms re-learning thousands of moved
/// hosts) cannot grow ARP tables unboundedly. Far above anything the
/// 48-node experiment suite learns, so small worlds never evict.
const ARP_CACHE_CAP: usize = 512;

/// Interface configuration kept unmasked: `addr` is the host address and
/// `prefix` the on-link subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceAddr {
    /// The leased address.
    pub addr: Ipv4Addr,
    /// Destination prefix this entry matches.
    pub prefix: Ipv4Cidr,
}

impl IfaceAddr {
    /// e.g. `IfaceAddr::parse("171.64.15.9/24")`
    pub fn parse(s: &str) -> IfaceAddr {
        let (a, l) = s.split_once('/').expect("addr/len");
        let addr: Ipv4Addr = a.parse().expect("ipv4 addr");
        let len: u8 = l.parse().expect("prefix len");
        IfaceAddr {
            addr,
            prefix: Ipv4Cidr::new(addr, len),
        }
    }
}

/// Addresses a NIC answers ARP requests for beyond its own interface
/// addresses (which it checks itself): intercepted ones (the home agent's
/// capture list) and proxied ones (RFC 1027, for absent mobile hosts).
#[derive(Clone, Copy, Default)]
pub struct ArpIdentity<'a> {
    /// Addresses accepted as local on behalf of registered mobile hosts.
    pub intercept: Option<&'a FxHashSet<Ipv4Addr>>,
    /// Addresses answered on behalf of others (proxy ARP), sorted.
    pub proxy: &'a [Ipv4Addr],
}

impl ArpIdentity<'_> {
    fn covers(&self, a: Ipv4Addr) -> bool {
        self.intercept.is_some_and(|set| set.contains(&a)) || self.proxy.binary_search(&a).is_ok()
    }
}

/// Link-layer destination for an outgoing IP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// Resolve this IP (the final destination or a gateway) via ARP.
    Unicast(Ipv4Addr),
    /// Link broadcast.
    Broadcast,
    /// IPv4 multicast group (mapped straight to a multicast MAC).
    Multicast(Ipv4Addr),
}

/// One learned neighbour on one interface. Stored in a flat vector on the
/// interface it was learned on: the tables are small (bounded by
/// [`ARP_CACHE_CAP`]), entries are `Copy`, and a linear probe over
/// contiguous memory beats `(IfaceNo, Ipv4Addr)` hashing at every size the
/// simulator sees — and needs no per-lookup hasher state or heap buckets.
#[derive(Debug, Clone, Copy)]
struct ArpEntry {
    ip: Ipv4Addr,
    mac: MacAddr,
    learned_at: SimTime,
    /// Last send that resolved through this entry. Eviction under
    /// [`ARP_CACHE_CAP`] picks the least recently *used* entry, so a
    /// neighbour the node actively forwards to (a router's next hop, a
    /// segment's home agent) survives a flood of passively learned
    /// bindings; expiry stays on `learned_at`, as ARP caches age.
    last_used: SimTime,
}

#[derive(Debug)]
struct Pending {
    iface: IfaceNo,
    next_hop: Ipv4Addr,
    pkt: Ipv4Packet,
    kind: TraceEventKind,
}

/// Interfaces + ARP machinery shared by [`super::host::Host`] and
/// [`super::router::Router`].
#[derive(Debug)]
pub struct Nic {
    ifaces: Vec<InterfaceState>,
    pending: Vec<Pending>,
}

#[derive(Debug, Clone)]
struct InterfaceState {
    mac: MacAddr,
    addr: Option<IfaceAddr>,
    segment: Option<SegmentId>,
    mtu: usize,
    /// Neighbours learned on this interface.
    arp: Vec<ArpEntry>,
}

/// What the NIC made of a received frame.
#[derive(Debug)]
pub enum NicRx {
    /// Consumed (ARP traffic, or a frame not addressed to this NIC).
    Consumed,
    /// An IPv4 packet addressed (at the link layer) to this NIC.
    Ip(Ipv4Packet),
    /// An IPv4 packet that arrived but failed to parse (e.g. corrupted).
    Malformed,
}

impl Default for Nic {
    fn default() -> Self {
        Self::new()
    }
}

impl Nic {
    /// An empty NIC with no interfaces.
    pub fn new() -> Nic {
        Nic {
            ifaces: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Add an interface with the given MAC. Returns its index.
    pub fn add_iface(&mut self, mac: MacAddr) -> IfaceNo {
        self.ifaces.push(InterfaceState {
            mac,
            addr: None,
            segment: None,
            mtu: 1500,
            arp: Vec::new(),
        });
        self.ifaces.len() - 1
    }

    /// Number of interfaces.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }

    /// The interface's MAC address.
    pub fn mac(&self, iface: IfaceNo) -> MacAddr {
        self.ifaces[iface].mac
    }

    /// The interface's configured address.
    pub fn addr(&self, iface: IfaceNo) -> Option<IfaceAddr> {
        self.ifaces[iface].addr
    }

    /// (Re)configure an interface's address.
    pub fn set_addr(&mut self, iface: IfaceNo, addr: Option<IfaceAddr>) {
        self.ifaces[iface].addr = addr;
    }

    /// The segment the interface is plugged into, if any.
    pub fn segment(&self, iface: IfaceNo) -> Option<SegmentId> {
        self.ifaces[iface].segment
    }

    /// Record attachment (the [`crate::world::World`] updates the segment's
    /// side of the relationship).
    pub fn set_segment(&mut self, iface: IfaceNo, seg: Option<SegmentId>, mtu: usize) {
        let st = &mut self.ifaces[iface];
        st.segment = seg;
        st.mtu = mtu;
        // Stale neighbours and queued packets are meaningless on a new wire.
        st.arp.clear();
        self.pending.retain(|p| p.iface != iface);
    }

    /// The attached segment's MTU (IP bytes per frame).
    pub fn mtu(&self, iface: IfaceNo) -> usize {
        self.ifaces[iface].mtu
    }

    /// All configured interface addresses, in interface order.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.ifaces.iter().filter_map(|i| i.addr.map(|a| a.addr))
    }

    /// Is `a` the configured address of one of this NIC's interfaces?
    pub fn owns_addr(&self, a: Ipv4Addr) -> bool {
        self.addrs().any(|own| own == a)
    }

    /// The interface whose on-link prefix contains `dst`, if any.
    pub fn iface_on_link(&self, dst: Ipv4Addr) -> Option<IfaceNo> {
        self.ifaces
            .iter()
            .position(|i| i.addr.is_some_and(|a| a.prefix.contains(dst)))
    }

    /// Send `pkt` out of `iface` toward the link-layer `next_hop`,
    /// fragmenting to the interface MTU. Each fragment is traced with
    /// `kind` (Sent for origination, Forwarded for transit).
    pub fn send_ip(
        &mut self,
        ctx: &mut NetCtx,
        iface: IfaceNo,
        next_hop: NextHop,
        pkt: Ipv4Packet,
        kind: TraceEventKind,
    ) {
        let mtu = self.ifaces[iface].mtu;
        if pkt.wire_len() <= mtu {
            // The common case by far: no fragment list, no header clone.
            self.send_fitting(ctx, iface, next_hop, pkt, kind);
            return;
        }
        let Some(frags) = pkt.fragment(mtu) else {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::MtuExceeded), &pkt);
            return;
        };
        for frag in frags {
            self.send_fitting(ctx, iface, next_hop, frag, kind);
        }
    }

    /// Resolve `next_hop` to a MAC and emit `pkt`, which fits the MTU; an
    /// unresolved unicast hop parks it behind an ARP request.
    fn send_fitting(
        &mut self,
        ctx: &mut NetCtx,
        iface: IfaceNo,
        next_hop: NextHop,
        pkt: Ipv4Packet,
        kind: TraceEventKind,
    ) {
        match next_hop {
            NextHop::Broadcast => {
                self.emit(ctx, iface, MacAddr::BROADCAST, &pkt, kind);
            }
            NextHop::Multicast(group) => {
                self.emit(ctx, iface, MacAddr::for_ipv4_multicast(group), &pkt, kind);
            }
            NextHop::Unicast(nh) => match self.lookup_arp(iface, nh, ctx.now) {
                Some(mac) => self.emit(ctx, iface, mac, &pkt, kind),
                None => self.queue_pending(ctx, iface, nh, pkt, kind),
            },
        }
    }

    fn emit(
        &mut self,
        ctx: &mut NetCtx,
        iface: IfaceNo,
        dst_mac: MacAddr,
        pkt: &Ipv4Packet,
        kind: TraceEventKind,
    ) {
        let st = &self.ifaces[iface];
        let Some(seg) = st.segment else {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoRoute), pkt);
            return;
        };
        // Serialize header and packet into a single buffer: the IP layer's
        // one allocation, a block holding the frame and its reference count
        // (the segment, pcap writer and every delivery event share it
        // through `Bytes`).
        let mut buf = BytesMut::with_capacity(ETHERNET_HEADER_LEN + pkt.wire_len());
        EthernetFrame::emit_header_into(dst_mac, st.mac, EtherType::Ipv4, &mut buf);
        pkt.emit_into(&mut buf);
        let outcome = ctx.transmit_raw(seg, iface, buf.freeze());
        match outcome {
            FaultOutcome::Drop => {
                ctx.trace_packet(TraceEventKind::Dropped(DropReason::LinkFault), pkt);
            }
            FaultOutcome::Corrupt => {
                ctx.trace_packet(TraceEventKind::Dropped(DropReason::Malformed), pkt);
            }
            FaultOutcome::Deliver | FaultOutcome::Duplicate => ctx.trace_packet(kind, pkt),
        }
    }

    fn lookup_arp(&mut self, iface: IfaceNo, ip: Ipv4Addr, now: SimTime) -> Option<MacAddr> {
        self.ifaces[iface]
            .arp
            .iter_mut()
            .find(|e| e.ip == ip)
            .filter(|e| now.since(e.learned_at) <= ARP_TTL)
            .map(|e| {
                e.last_used = now;
                e.mac
            })
    }

    /// Update an existing binding without creating one — what overheard
    /// broadcast traffic is allowed to do.
    fn refresh_arp(&mut self, iface: IfaceNo, ip: Ipv4Addr, mac: MacAddr, now: SimTime) {
        if let Some(e) = self.ifaces[iface].arp.iter_mut().find(|e| e.ip == ip) {
            e.mac = mac;
            e.learned_at = now;
            e.last_used = now;
        }
    }

    /// Learn (or refresh) a neighbour binding, evicting to stay within
    /// [`ARP_CACHE_CAP`]: expired entries go first, then the least
    /// recently used — deterministic, and an active next hop outlives any
    /// flood of passively learned neighbours (see [`ArpEntry::last_used`]).
    fn learn_arp(&mut self, iface: IfaceNo, ip: Ipv4Addr, mac: MacAddr, now: SimTime) {
        let table = &mut self.ifaces[iface].arp;
        if let Some(e) = table.iter_mut().find(|e| e.ip == ip) {
            e.mac = mac;
            e.learned_at = now;
            e.last_used = now;
            return;
        }
        if table.len() >= ARP_CACHE_CAP {
            table.retain(|e| now.since(e.learned_at) <= ARP_TTL);
        }
        if table.len() >= ARP_CACHE_CAP {
            let oldest = table
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.last_used, e.learned_at))
                .map(|(i, _)| i)
                .expect("table at cap is non-empty");
            table.remove(oldest);
        }
        table.push(ArpEntry {
            ip,
            mac,
            learned_at: now,
            last_used: now,
        });
    }

    fn queue_pending(
        &mut self,
        ctx: &mut NetCtx,
        iface: IfaceNo,
        next_hop: Ipv4Addr,
        pkt: Ipv4Packet,
        kind: TraceEventKind,
    ) {
        // Evict the oldest waiter if this neighbour's queue is full.
        let waiting = self
            .pending
            .iter()
            .filter(|p| p.iface == iface && p.next_hop == next_hop)
            .count();
        if waiting >= ARP_PENDING_CAP {
            let ix = self
                .pending
                .iter()
                .position(|p| p.iface == iface && p.next_hop == next_hop)
                .unwrap();
            let old = self.pending.remove(ix);
            ctx.note_unparked();
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::ArpFailure), &old.pkt);
        }
        self.send_arp_request(ctx, iface, next_hop);
        ctx.note_parked();
        self.pending.push(Pending {
            iface,
            next_hop,
            pkt,
            kind,
        });
    }

    fn send_arp_request(&mut self, ctx: &mut NetCtx, iface: IfaceNo, target: Ipv4Addr) {
        let st = &self.ifaces[iface];
        let Some(seg) = st.segment else {
            return;
        };
        // An unnumbered interface (mobile host using a foreign agent, DHCP
        // client) probes with the unspecified sender address; receivers
        // answer but learn no binding from it.
        let spa = st.addr.map_or(Ipv4Addr::UNSPECIFIED, |a| a.addr);
        let arp = ArpPacket::request(st.mac, spa, target);
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            st.mac,
            EtherType::Arp,
            Bytes::from(arp.emit()),
        );
        ctx.transmit(seg, iface, &frame);
    }

    /// Broadcast a gratuitous ARP binding `ip` to this interface's MAC —
    /// used by the home agent for proxy ARP capture and by a returning
    /// mobile host to reclaim its address (RFC 1027; paper §2).
    pub fn send_gratuitous_arp(&mut self, ctx: &mut NetCtx, iface: IfaceNo, ip: Ipv4Addr) {
        let st = &self.ifaces[iface];
        let Some(seg) = st.segment else { return };
        let arp = ArpPacket::gratuitous(st.mac, ip);
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            st.mac,
            EtherType::Arp,
            Bytes::from(arp.emit()),
        );
        ctx.transmit(seg, iface, &frame);
    }

    /// Process a received frame: filter on the destination MAC in the
    /// 14-byte header, then hand back views of the inbound buffer — no
    /// byte of a frame for someone else is read past that header, and no
    /// payload is copied. ARP is consumed internally (answering for the
    /// NIC's own addresses and everything in `identity`); IPv4 frames
    /// addressed to this NIC (or broadcast/multicast) come back as
    /// [`NicRx::Ip`].
    pub fn on_frame(
        &mut self,
        ctx: &mut NetCtx,
        iface: IfaceNo,
        frame: &Bytes,
        identity: ArpIdentity<'_>,
    ) -> NicRx {
        let Ok((dst, _, ethertype)) = EthernetFrame::parse_header(frame) else {
            return NicRx::Malformed;
        };
        if dst != self.ifaces[iface].mac && !dst.is_broadcast() && !dst.is_multicast() {
            return NicRx::Consumed; // not for us; NICs are not promiscuous
        }
        match ethertype {
            EtherType::Arp => {
                match ArpPacket::parse(&frame[ETHERNET_HEADER_LEN..]) {
                    Ok(arp) => self.on_arp(ctx, iface, arp, identity),
                    Err(_) => return NicRx::Malformed,
                }
                NicRx::Consumed
            }
            EtherType::Ipv4 => match Ipv4Packet::parse_bytes(&frame.slice(ETHERNET_HEADER_LEN..)) {
                Ok(p) => NicRx::Ip(p),
                Err(_) => NicRx::Malformed,
            },
            EtherType::Other(_) => NicRx::Consumed,
        }
    }

    fn on_arp(
        &mut self,
        ctx: &mut NetCtx,
        iface: IfaceNo,
        arp: ArpPacket,
        identity: ArpIdentity<'_>,
    ) {
        let for_us = self.owns_addr(arp.tpa) || identity.covers(arp.tpa);
        // Learn / refresh the sender's binding. Gratuitous replies overwrite
        // stale entries, which is exactly how proxy-ARP capture usurps the
        // mobile host's address on the home segment. A fresh entry is
        // created only when the sender addresses *us* (it is about to talk
        // to us) or we were resolving it ourselves; broadcasts overheard on
        // a big LAN — someone else's resolution, a mover's announcement —
        // refresh what is already cached but do not populate it (RFC 826's
        // merge-then-check, as BSD implements it). Without that rule one
        // gratuitous announce costs an ARP allocation on every resident of
        // the segment.
        if !arp.spa.is_unspecified() {
            let awaited = self
                .pending
                .iter()
                .any(|p| p.iface == iface && p.next_hop == arp.spa);
            if for_us || awaited {
                self.learn_arp(iface, arp.spa, arp.sha, ctx.now);
            } else {
                self.refresh_arp(iface, arp.spa, arp.sha, ctx.now);
            }
            self.flush_pending(ctx, iface, arp.spa, arp.sha);
        }
        if arp.op == ArpOp::Request && for_us {
            let st = &self.ifaces[iface];
            let Some(seg) = st.segment else { return };
            let reply = ArpPacket::reply(st.mac, arp.tpa, arp.sha, arp.spa);
            let frame =
                EthernetFrame::new(arp.sha, st.mac, EtherType::Arp, Bytes::from(reply.emit()));
            ctx.transmit(seg, iface, &frame);
        }
    }

    fn flush_pending(&mut self, ctx: &mut NetCtx, iface: IfaceNo, ip: Ipv4Addr, mac: MacAddr) {
        let ready: Vec<Pending> = {
            let mut ready = Vec::new();
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].iface == iface && self.pending[i].next_hop == ip {
                    ready.push(self.pending.remove(i));
                } else {
                    i += 1;
                }
            }
            ready
        };
        for p in ready {
            ctx.note_unparked();
            self.emit(ctx, iface, mac, &p.pkt, p.kind);
        }
    }

    /// Peek at the ARP cache (tests). Read-only: does not refresh the
    /// entry's LRU clock the way a real send would.
    pub fn arp_lookup(&self, iface: IfaceNo, ip: Ipv4Addr, now: SimTime) -> Option<MacAddr> {
        self.ifaces[iface]
            .arp
            .iter()
            .find(|e| e.ip == ip)
            .filter(|e| now.since(e.learned_at) <= ARP_TTL)
            .map(|e| e.mac)
    }
}

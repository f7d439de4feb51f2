//! Host network stacks.
//!
//! A [`Host`] is an end system: interfaces + ARP (via [`super::nic::Nic`]),
//! an IPv4 layer with fragmentation/reassembly and multicast membership, a
//! registry of transport protocol handlers, in-simulation applications, and
//! — the paper's central implementation idea — a pluggable **mobility hook**
//! consulted *before* the normal route table for every locally-originated
//! packet:
//!
//! > "We override the IP route lookup routine and replace it with a routine
//! > that consults a mobility policy table before the usual route table. …
//! > Overriding the IP route lookup routine (instead of modifying the IP
//! > send packet routine) allows us to capture all of these crucial decision
//! > points automatically." (§7)
//!
//! The hook ([`MobilityHook`]) also sees every incoming packet after
//! decapsulation (with the recorded tunnel layers), chooses source addresses
//! for new transport endpoints, and receives the §7.1.2 original-vs-
//! retransmission feedback signal from transports. The `mip-core` crate
//! implements this trait for mobile hosts, home agents, and mobile-aware
//! correspondent hosts; a `Host` without a hook is a conventional Internet
//! host.

use std::any::Any;
use std::collections::HashSet;

use bytes::Bytes;

use super::nic::{ArpIdentity, IfaceAddr, NextHop, Nic, NicRx};
use super::router::RouteEntry;
use super::{split_token, token, TxMeta, NS_APPS, NS_MOBILITY};
use crate::event::{IfaceNo, NodeId, TimerHandle, TimerToken};
use crate::route::RouteTable;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, TraceEventKind, TransformKind};
use crate::wire::encap::{self, EncapFormat};
use crate::wire::ethernet::MacAddr;
use crate::wire::icmp::IcmpMessage;
use crate::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet, Reassembler};
use crate::world::NetCtx;

/// One decapsulation performed on an incoming packet, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncapLayer {
    /// Source of the removed outer header.
    pub outer_src: Ipv4Addr,
    /// Destination of the removed outer header.
    pub outer_dst: Ipv4Addr,
    /// Which tunnel format the layer used.
    pub format: EncapFormat,
}

/// What the mobility hook decided for an outgoing packet.
#[derive(Debug)]
pub enum RouteDecision {
    /// Continue with normal route-table lookup of this (possibly rewritten
    /// or encapsulated) packet — the paper's virtual interface "resubmits it
    /// to IP".
    Continue(Ipv4Packet),
    /// Deliver directly on `iface` in a single link-layer hop, resolving
    /// `next_hop` by ARP. Used for same-segment delivery (In-DH/Out-DH on
    /// one wire), where "the IP packet need not pass through any Internet
    /// routers at all" (§5).
    OnLink {
        /// Interface to deliver on.
        iface: IfaceNo,
        /// The IP address to resolve by ARP on that interface.
        next_hop: Ipv4Addr,
        /// The packet to deliver.
        pkt: Ipv4Packet,
    },
    /// The hook consumed the packet (sent it itself, or dropped it).
    Consumed,
}

/// The §7.1.2 transmission-feedback signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackEvent {
    /// The correspondent this feedback concerns (the logical peer address).
    pub peer: Ipv4Addr,
    /// Original transmission (`false`) or retransmission (`true`).
    pub retransmission: bool,
    /// `true` if we sent the packet, `false` if we received it. Repeated
    /// retransmissions *to* a peer suggest our packets are not arriving;
    /// repeated retransmissions *from* a peer suggest our acknowledgements
    /// are not arriving (§7.1.2).
    pub outgoing: bool,
}

/// The mobility layer a `Host` may carry. All methods default to the
/// behaviour of a conventional, mobility-unaware host.
#[allow(unused_variables)]
pub trait MobilityHook: Any {
    /// Consulted before the normal route table for every locally-originated
    /// packet (unless the sender set [`TxMeta::skip_override`]).
    fn route_outgoing(
        &mut self,
        pkt: Ipv4Packet,
        meta: TxMeta,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> RouteDecision {
        RouteDecision::Continue(pkt)
    }

    /// Choose the source address a transport should bind for a new
    /// conversation to `dst` (`dst_port` when known — the §7.1.1 port
    /// heuristics key off it). `bound` is the address the application
    /// explicitly bound, if any (the §7.1.1 mobile-awareness signal).
    /// `None` falls back to normal interface-address selection.
    fn select_source(
        &mut self,
        dst: Ipv4Addr,
        dst_port: Option<u16>,
        bound: Option<Ipv4Addr>,
        host: &Host,
    ) -> Option<Ipv4Addr> {
        None
    }

    /// Observe a packet about to be delivered locally (or intercepted), with
    /// the tunnel layers that were removed. Return `Some` to continue
    /// delivery (possibly rewritten), `None` to consume it.
    fn incoming(
        &mut self,
        pkt: Ipv4Packet,
        layers: &[EncapLayer],
        iface: IfaceNo,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> Option<Ipv4Packet> {
        Some(pkt)
    }

    /// A timer in the [`NS_MOBILITY`] namespace fired.
    fn on_timer(&mut self, payload: u64, host: &mut Host, ctx: &mut NetCtx) {}

    /// Transmission feedback from transports (§7.1.2).
    fn feedback(&mut self, event: FeedbackEvent, now: SimTime) {}

    /// Downcast support (see `Host::hook_as`/`handler_as`/`app_as`).
    fn as_any(&mut self) -> &mut dyn Any;
}

/// A transport-layer protocol handler (UDP, TCP, …) registered with a host.
#[allow(unused_variables)]
pub trait ProtocolHandler: Any {
    /// The packet's destination was local and its protocol matched.
    fn on_packet(&mut self, pkt: &Ipv4Packet, iface: IfaceNo, host: &mut Host, ctx: &mut NetCtx);

    /// A timer in this protocol's namespace fired.
    fn on_timer(&mut self, payload: u64, host: &mut Host, ctx: &mut NetCtx) {}

    /// Downcast support (see `Host::hook_as`/`handler_as`/`app_as`).
    fn as_any(&mut self) -> &mut dyn Any;
}

/// An in-simulation application, polled after every event its host handles.
#[allow(unused_variables)]
pub trait App: Any {
    /// Called after every event the host handles; do work, schedule wake-ups.
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx);
    /// Downcast support (see `Host::hook_as`/`handler_as`/`app_as`).
    fn as_any(&mut self) -> &mut dyn Any;
}

/// Host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Fully-qualified name, lower-case, dot-separated.
    pub name: String,
    /// Can this stack decapsulate tunnel packets addressed to it? The paper:
    /// "Some operating systems, such as recent versions of Linux, have this
    /// capability built-in" (§6.1). Conventional correspondents have it off.
    pub decap_capable: bool,
    /// After decapsulating a packet whose inner destination is not local,
    /// send it onward (tunnel-endpoint behaviour; home agents need this).
    pub forward_decapsulated: bool,
    /// Answer ICMP echo requests.
    pub icmp_echo_reply: bool,
    /// Process loose source routes addressed to this host (RFC 791 hop
    /// behaviour). Off by default, as on security-conscious modern stacks;
    /// experiment E17 turns it on for the home agent to measure §4's
    /// LSR-vs-encapsulation comparison.
    pub forward_source_routes: bool,
}

impl HostConfig {
    /// A conventional, mobility-unaware Internet host.
    pub fn conventional(name: &str) -> HostConfig {
        HostConfig {
            name: name.to_string(),
            decap_capable: false,
            forward_decapsulated: false,
            icmp_echo_reply: true,
            forward_source_routes: false,
        }
    }

    /// A host with tunnel decapsulation enabled.
    pub fn decap_capable(name: &str) -> HostConfig {
        HostConfig {
            decap_capable: true,
            ..HostConfig::conventional(name)
        }
    }

    /// A tunnel endpoint that also forwards inner packets (home agent).
    pub fn agent(name: &str) -> HostConfig {
        HostConfig {
            decap_capable: true,
            forward_decapsulated: true,
            ..HostConfig::conventional(name)
        }
    }
}

/// An ICMP message received by this host (kept for applications and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEvent {
    /// When it happened, in simulated time.
    pub at: SimTime,
    /// Who sent it.
    pub from: Ipv4Addr,
    /// The parsed ICMP message.
    pub message: IcmpMessage,
}

/// An end system in the simulated network.
pub struct Host {
    /// Fully-qualified name, lower-case, dot-separated.
    pub name: String,
    id: NodeId,
    pub(crate) nic: Nic,
    config: HostConfig,
    routes: RouteTable,
    reassembler: Reassembler,
    /// Extra addresses accepted as local and offered to the mobility hook
    /// (the home agent's capture list for registered mobile hosts).
    intercept: HashSet<Ipv4Addr>,
    /// Addresses this host answers ARP requests for on behalf of others.
    proxy_arp: Vec<Ipv4Addr>,
    /// Joined multicast groups, per interface.
    multicast: HashSet<(IfaceNo, Ipv4Addr)>,
    /// Transport handlers by IP protocol number: a handful per host, taken
    /// and put back around every delivered packet, so a scan beats a hash.
    handlers: Vec<(u8, Option<Box<dyn ProtocolHandler>>)>,
    hook: Option<Box<dyn MobilityHook>>,
    hook_taken: bool,
    apps: Vec<Option<Box<dyn App>>>,
    /// ICMP messages delivered to this host.
    pub icmp_log: Vec<IcmpEvent>,
    next_ident: u16,
}

impl Host {
    /// A host with no interfaces, handlers, or apps yet.
    pub fn new(id: NodeId, config: HostConfig) -> Host {
        Host {
            name: config.name.clone(),
            id,
            nic: Nic::new(),
            config,
            routes: RouteTable::new(),
            reassembler: Reassembler::default(),
            intercept: HashSet::new(),
            proxy_arp: Vec::new(),
            multicast: HashSet::new(),
            handlers: Vec::new(),
            hook: None,
            hook_taken: false,
            apps: Vec::new(),
            icmp_log: Vec::new(),
            next_ident: 1,
        }
    }

    /// This node's id in the world.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The static configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Enable/disable tunnel decapsulation (§6.1).
    pub fn set_decap_capable(&mut self, on: bool) {
        self.config.decap_capable = on;
    }

    /// Enable/disable onward forwarding of decapsulated inner packets.
    pub fn set_forward_decapsulated(&mut self, on: bool) {
        self.config.forward_decapsulated = on;
    }

    /// Enable/disable RFC 791 source-route hop processing.
    pub fn set_forward_source_routes(&mut self, on: bool) {
        self.config.forward_source_routes = on;
    }

    // ---- interfaces & addressing -------------------------------------

    /// Create an interface with the given MAC; returns its index.
    pub fn add_iface(&mut self, mac: MacAddr) -> IfaceNo {
        self.nic.add_iface(mac)
    }

    /// The interface/ARP layer.
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// Mutable access to the interface/ARP layer.
    pub fn nic_mut(&mut self) -> &mut Nic {
        &mut self.nic
    }

    /// An interface's configured address.
    pub fn iface_addr(&self, iface: IfaceNo) -> Option<IfaceAddr> {
        self.nic.addr(iface)
    }

    /// (Re)configure an interface's address (movement renumbers here).
    pub fn set_iface_addr(&mut self, iface: IfaceNo, addr: Option<IfaceAddr>) {
        self.nic.set_addr(iface, addr);
    }

    /// All locally-configured unicast addresses.
    pub fn addrs(&self) -> Vec<Ipv4Addr> {
        self.nic.addrs().collect()
    }

    /// Does any interface (physical or virtual) own this address?
    pub fn is_local_addr(&self, a: Ipv4Addr) -> bool {
        self.nic.owns_addr(a)
    }

    // ---- routing ------------------------------------------------------

    /// Append a route; `gateway: None` means the prefix is on-link.
    pub fn add_route(&mut self, prefix: Ipv4Cidr, iface: IfaceNo, gateway: Option<Ipv4Addr>) {
        self.routes.add(RouteEntry {
            prefix,
            iface,
            gateway,
        });
    }

    /// Drop every route (before reconfiguration).
    pub fn clear_routes(&mut self) {
        self.routes.clear();
    }

    /// The current routing table.
    pub fn routes(&self) -> &[RouteEntry] {
        self.routes.entries()
    }

    /// The normal (non-override) routing decision for `dst`: the interface
    /// and ARP target that would carry the packet.
    pub fn normal_route(&self, dst: Ipv4Addr) -> Option<(IfaceNo, Ipv4Addr)> {
        if let Some(iface) = self.nic.iface_on_link(dst) {
            return Some((iface, dst));
        }
        self.routes
            .lookup(dst)
            .map(|r| (r.iface, r.gateway.unwrap_or(dst)))
    }

    /// The source address a conventional host would use toward `dst` (the
    /// address of the outgoing interface).
    pub fn normal_source(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.normal_route(dst)
            .and_then(|(iface, _)| self.nic.addr(iface).map(|a| a.addr))
    }

    // ---- mobility hook --------------------------------------------------

    /// Install the mobility layer.
    pub fn set_hook(&mut self, hook: Box<dyn MobilityHook>) {
        self.hook = Some(hook);
    }

    /// Remove and return the mobility layer.
    pub fn clear_hook(&mut self) -> Option<Box<dyn MobilityHook>> {
        self.hook.take()
    }

    /// Mutable access to the hook, downcast to its concrete type.
    pub fn hook_as<T: 'static>(&mut self) -> Option<&mut T> {
        self.hook
            .as_mut()
            .and_then(|h| h.as_any().downcast_mut::<T>())
    }

    /// Ask the mobility layer (or normal routing) which source address a new
    /// conversation to `dst` should use. This is the paper's "decision …
    /// when TCP decides what address to use as the endpoint identifier".
    pub fn select_source(
        &mut self,
        dst: Ipv4Addr,
        dst_port: Option<u16>,
        bound: Option<Ipv4Addr>,
    ) -> Option<Ipv4Addr> {
        if !self.hook_taken {
            if let Some(mut h) = self.hook.take() {
                let choice = h.select_source(dst, dst_port, bound, self);
                self.hook = Some(h);
                if choice.is_some() {
                    return choice;
                }
            }
        }
        bound.or_else(|| self.normal_source(dst))
    }

    /// Deliver §7.1.2 transmission feedback to the mobility layer.
    pub fn mobility_feedback(&mut self, now: SimTime, event: FeedbackEvent) {
        if self.hook_taken {
            return;
        }
        if let Some(mut h) = self.hook.take() {
            h.feedback(event, now);
            self.hook = Some(h);
        }
    }

    // ---- interception, proxy ARP, multicast ---------------------------

    /// Accept `addr` as local and offer its packets to the hook (home-agent capture).
    pub fn add_intercept(&mut self, addr: Ipv4Addr) {
        self.intercept.insert(addr);
    }

    /// Stop intercepting `addr`.
    pub fn remove_intercept(&mut self, addr: Ipv4Addr) {
        self.intercept.remove(&addr);
    }

    /// Is `addr` currently intercepted?
    pub fn intercepts(&self, addr: Ipv4Addr) -> bool {
        self.intercept.contains(&addr)
    }

    /// Answer ARP requests for `addr` on behalf of its absent owner (RFC 1027).
    /// The list is kept sorted so membership checks stay O(log n) even when a
    /// home agent proxies for tens of thousands of registered mobile hosts.
    pub fn add_proxy_arp(&mut self, addr: Ipv4Addr) {
        if let Err(at) = self.proxy_arp.binary_search(&addr) {
            self.proxy_arp.insert(at, addr);
        }
    }

    /// Stop proxy-ARPing for `addr`.
    pub fn remove_proxy_arp(&mut self, addr: Ipv4Addr) {
        if let Ok(at) = self.proxy_arp.binary_search(&addr) {
            self.proxy_arp.remove(at);
        }
    }

    /// Broadcast a gratuitous ARP binding `ip` to this interface's MAC (capture/reclaim).
    pub fn send_gratuitous_arp(&mut self, ctx: &mut NetCtx, iface: IfaceNo, ip: Ipv4Addr) {
        self.nic.send_gratuitous_arp(ctx, iface, ip);
    }

    /// Start accepting `group` traffic arriving on `iface` (RFC 1112).
    pub fn join_multicast(&mut self, iface: IfaceNo, group: Ipv4Addr) {
        debug_assert!(group.is_multicast());
        self.multicast.insert((iface, group));
    }

    // ---- protocol handlers & apps --------------------------------------

    /// Install the transport handler for an IP protocol.
    pub fn register_handler(&mut self, proto: IpProtocol, handler: Box<dyn ProtocolHandler>) {
        match self.handler_slot(proto) {
            Some(slot) => *slot = Some(handler),
            None => self.handlers.push((proto.number(), Some(handler))),
        }
    }

    /// The slot `proto`'s handler lives in, if one was ever registered.
    fn handler_slot(&mut self, proto: IpProtocol) -> Option<&mut Option<Box<dyn ProtocolHandler>>> {
        let n = proto.number();
        self.handlers
            .iter_mut()
            .find_map(|(p, slot)| (*p == n).then_some(slot))
    }

    /// Temporarily remove a handler so it can be invoked with `&mut Host`
    /// (the take-out pattern). Pair with [`Host::put_handler`].
    pub fn take_handler(&mut self, proto: IpProtocol) -> Option<Box<dyn ProtocolHandler>> {
        self.handler_slot(proto).and_then(Option::take)
    }

    /// Return a handler taken out with [`Host::take_handler`].
    pub fn put_handler(&mut self, proto: IpProtocol, handler: Box<dyn ProtocolHandler>) {
        self.register_handler(proto, handler);
    }

    /// Mutable access to a registered handler, downcast to its concrete
    /// type. For operations that need no [`NetCtx`] (binding, reading
    /// received data); use the take-out pattern for operations that send.
    pub fn handler_as<T: 'static>(&mut self, proto: IpProtocol) -> Option<&mut T> {
        self.handler_slot(proto)
            .and_then(|h| h.as_mut())
            .and_then(|h| h.as_any().downcast_mut::<T>())
    }

    /// Attach an application; returns its index for [`Host::app_as`].
    pub fn add_app(&mut self, app: Box<dyn App>) -> usize {
        self.apps.push(Some(app));
        self.apps.len() - 1
    }

    /// Mutable access to an app, downcast to its concrete type.
    pub fn app_as<T: 'static>(&mut self, ix: usize) -> Option<&mut T> {
        self.apps
            .get_mut(ix)
            .and_then(|a| a.as_mut())
            .and_then(|a| a.as_any().downcast_mut::<T>())
    }

    /// Schedule an application poll after `delay`. The returned
    /// [`TimerHandle`] cancels it via [`NetCtx::cancel_timer`].
    pub fn request_wakeup(&mut self, ctx: &mut NetCtx, delay: SimDuration) -> TimerHandle {
        ctx.set_timer(delay, token(NS_APPS, 0))
    }

    /// Schedule a mobility-hook timer after `delay`; cancellable via the
    /// returned [`TimerHandle`].
    pub fn request_hook_timer(
        &mut self,
        ctx: &mut NetCtx,
        delay: SimDuration,
        payload: u64,
    ) -> TimerHandle {
        ctx.set_timer(delay, token(NS_MOBILITY, payload))
    }

    /// Schedule a protocol-handler timer after `delay`; cancellable via the
    /// returned [`TimerHandle`].
    pub fn request_proto_timer(
        &mut self,
        ctx: &mut NetCtx,
        proto: IpProtocol,
        delay: SimDuration,
        payload: u64,
    ) -> TimerHandle {
        ctx.set_timer(delay, token(proto.number(), payload))
    }

    /// Allocate an IP identification value for a locally-originated packet.
    pub fn alloc_ident(&mut self) -> u16 {
        let i = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        i
    }

    // ---- IP send path ---------------------------------------------------

    /// Send a locally-originated (or hook-emitted) IP packet.
    pub fn send_ip(&mut self, ctx: &mut NetCtx, mut pkt: Ipv4Packet, meta: TxMeta) {
        let _prof = crate::profile::scope("host/tx");
        // A retransmission is causally a clone of an earlier transmission:
        // link it (pre-encapsulation, so the chain matches the original's
        // shape) before the mobility hook may wrap it.
        if meta.retransmission {
            ctx.trace_transform(TransformKind::Retransmission, None, &pkt);
        }
        // The paper's route-override: consult the mobility policy first.
        if !meta.skip_override && !self.hook_taken {
            if let Some(mut h) = self.hook.take() {
                self.hook_taken = true;
                let decision = h.route_outgoing(pkt, meta, self, ctx);
                self.hook_taken = false;
                self.hook = Some(h);
                match decision {
                    RouteDecision::Continue(p) => pkt = p,
                    RouteDecision::OnLink {
                        iface,
                        next_hop,
                        pkt,
                    } => {
                        self.nic.send_ip(
                            ctx,
                            iface,
                            NextHop::Unicast(next_hop),
                            pkt,
                            TraceEventKind::Sent,
                        );
                        return;
                    }
                    RouteDecision::Consumed => return,
                }
            }
        }

        // Loopback.
        if self.is_local_addr(pkt.dst) {
            ctx.trace_packet(TraceEventKind::Sent, &pkt);
            self.process_local(ctx, pkt, usize::MAX);
            return;
        }

        // Multicast.
        if pkt.dst.is_multicast() {
            let iface = meta.iface.unwrap_or(0);
            self.nic.send_ip(
                ctx,
                iface,
                NextHop::Multicast(pkt.dst),
                pkt,
                TraceEventKind::Sent,
            );
            return;
        }

        // Broadcast (limited, or the subnet broadcast of an attached link).
        if pkt.dst.is_broadcast() {
            let iface = meta.iface.unwrap_or(0);
            self.nic
                .send_ip(ctx, iface, NextHop::Broadcast, pkt, TraceEventKind::Sent);
            return;
        }
        if let Some(iface) = self.subnet_broadcast_iface(pkt.dst) {
            self.nic
                .send_ip(ctx, iface, NextHop::Broadcast, pkt, TraceEventKind::Sent);
            return;
        }

        // Normal unicast routing.
        let Some((iface, next_hop)) = self.normal_route(pkt.dst) else {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoRoute), &pkt);
            return;
        };
        self.nic.send_ip(
            ctx,
            iface,
            NextHop::Unicast(next_hop),
            pkt,
            TraceEventKind::Sent,
        );
    }

    fn subnet_broadcast_iface(&self, dst: Ipv4Addr) -> Option<IfaceNo> {
        (0..self.nic.iface_count()).find(|&i| {
            self.nic
                .addr(i)
                .is_some_and(|a| a.prefix.broadcast() == dst && a.prefix.prefix_len() < 31)
        })
    }

    /// Convenience: ICMP-echo `dst` (for tests and examples).
    pub fn send_ping(&mut self, ctx: &mut NetCtx, src: Ipv4Addr, dst: Ipv4Addr, seq: u16) {
        let msg = IcmpMessage::EchoRequest {
            ident: 0x4d49, // "MI"
            seq,
            payload: Bytes::from_static(b"mobility4x4 ping"),
        };
        let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::Icmp, msg.emit());
        pkt.ident = self.alloc_ident();
        self.send_ip(ctx, pkt, TxMeta::default());
    }

    // ---- IP receive path ------------------------------------------------

    pub(crate) fn on_frame(&mut self, ctx: &mut NetCtx, iface: IfaceNo, frame: &Bytes) {
        let _prof = crate::profile::scope("host/rx");
        // Also answer ARP for intercepted and proxied addresses.
        let identity = ArpIdentity {
            intercept: Some(&self.intercept),
            proxy: &self.proxy_arp,
        };
        match self.nic.on_frame(ctx, iface, frame, identity) {
            NicRx::Ip(pkt) => self.receive_ip(ctx, iface, pkt),
            NicRx::Malformed => { /* corrupted frames vanish, as on real wires */ }
            NicRx::Consumed => {}
        }
        self.poll_apps(ctx);
    }

    fn receive_ip(&mut self, ctx: &mut NetCtx, iface: IfaceNo, pkt: Ipv4Packet) {
        let local = self.is_local_addr(pkt.dst)
            || self.intercept.contains(&pkt.dst)
            || pkt.dst.is_broadcast()
            || (pkt.dst.is_multicast() && self.multicast.contains(&(iface, pkt.dst)))
            || self.subnet_broadcast_iface(pkt.dst).is_some();
        if !local {
            // Hosts are not routers; quietly ignore traffic overheard for
            // someone else (e.g. link-layer broadcast of IP unicast).
            return;
        }
        self.process_local(ctx, pkt, iface);
    }

    fn process_local(&mut self, ctx: &mut NetCtx, pkt: Ipv4Packet, iface: IfaceNo) {
        // Reassemble, then peel tunnel layers (re-reassembling between
        // layers, since inner packets may themselves be fragmented).
        let Some(mut pkt) = self.reassembler.push(pkt, ctx.now) else {
            return;
        };
        let mut layers: Vec<EncapLayer> = Vec::new();
        while self.config.decap_capable
            && encap::is_tunnel(&pkt)
            && (self.is_local_addr(pkt.dst) || self.intercept.contains(&pkt.dst))
        {
            let format = match pkt.protocol {
                IpProtocol::IpInIp => EncapFormat::IpInIp,
                IpProtocol::MinimalEncap => EncapFormat::Minimal,
                IpProtocol::Gre => EncapFormat::Gre,
                _ => unreachable!(),
            };
            match encap::decapsulate(&pkt) {
                Ok(inner) => {
                    ctx.trace_transform(TransformKind::Decapsulated(format), Some(&pkt), &inner);
                    layers.push(EncapLayer {
                        outer_src: pkt.src,
                        outer_dst: pkt.dst,
                        format,
                    });
                    let Some(reassembled) = self.reassembler.push(inner, ctx.now) else {
                        return;
                    };
                    pkt = reassembled;
                }
                Err(_) => {
                    ctx.trace_packet(TraceEventKind::Dropped(DropReason::Malformed), &pkt);
                    return;
                }
            }
        }

        // The mobility layer observes (and may consume or rewrite).
        if !self.hook_taken {
            if let Some(mut h) = self.hook.take() {
                self.hook_taken = true;
                // The conservation monitor needs the pre-hook identity:
                // a consuming hook terminates the packet with no trace
                // event, a rewriting hook changes its identity.
                let before = ctx.invariants_enabled().then(|| pkt.clone());
                let verdict = h.incoming(pkt, &layers, iface, self, ctx);
                self.hook_taken = false;
                self.hook = Some(h);
                match verdict {
                    Some(p) => {
                        if let Some(b) = &before {
                            ctx.note_rewrite(b, &p);
                        }
                        pkt = p;
                    }
                    None => {
                        if let Some(b) = &before {
                            ctx.note_consumed(b);
                        }
                        return;
                    }
                }
            }
        }

        // RFC 791 loose-source-route hop processing, for hosts that allow
        // it: we are a waypoint, not the destination.
        if self.config.forward_source_routes
            && !pkt.options.is_empty()
            && self.is_local_addr(pkt.dst)
        {
            let here = pkt.dst;
            let mut onward = pkt.clone();
            if crate::wire::srcroute::process_at_hop(&mut onward, here) {
                ctx.trace_transform(TransformKind::SourceRouteHop, Some(&pkt), &onward);
                self.send_ip(
                    ctx,
                    onward,
                    TxMeta {
                        skip_override: true,
                        ..TxMeta::default()
                    },
                );
                return;
            }
        }

        let local_now = self.is_local_addr(pkt.dst)
            || pkt.dst.is_broadcast()
            || pkt.dst.is_multicast()
            || self.subnet_broadcast_iface(pkt.dst).is_some();
        if !local_now {
            // Tunnel-endpoint forwarding (home agent relaying a reverse
            // tunnel's inner packet onward). The transmission itself is
            // traced by the send path.
            if self.config.forward_decapsulated && !layers.is_empty() {
                self.send_ip(
                    ctx,
                    pkt,
                    TxMeta {
                        skip_override: true,
                        ..TxMeta::default()
                    },
                );
            } else {
                ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoListener), &pkt);
            }
            return;
        }

        ctx.trace_packet(TraceEventKind::DeliveredLocal, &pkt);
        self.dispatch(ctx, pkt, iface);
    }

    fn dispatch(&mut self, ctx: &mut NetCtx, pkt: Ipv4Packet, iface: IfaceNo) {
        if pkt.protocol == IpProtocol::Icmp {
            self.handle_icmp(ctx, pkt);
            return;
        }
        let proto = pkt.protocol;
        match self.take_handler(proto) {
            Some(mut h) => {
                h.on_packet(&pkt, iface, self, ctx);
                self.put_handler(proto, h);
            }
            None => {
                ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoListener), &pkt);
            }
        }
    }

    fn handle_icmp(&mut self, ctx: &mut NetCtx, pkt: Ipv4Packet) {
        // Every message ends up in `icmp_log`, which outlives the frame by
        // the whole run: parse from a copy of the ICMP bytes so a log entry
        // holds its own few bytes instead of pinning the inbound buffer.
        let Ok(msg) = IcmpMessage::parse(&pkt.payload) else {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::Malformed), &pkt);
            return;
        };
        if let IcmpMessage::EchoRequest {
            ident,
            seq,
            payload,
        } = &msg
        {
            if self.config.icmp_echo_reply && self.is_local_addr(pkt.dst) {
                let reply = IcmpMessage::EchoReply {
                    ident: *ident,
                    seq: *seq,
                    payload: payload.clone(),
                };
                let mut out = Ipv4Packet::new(pkt.dst, pkt.src, IpProtocol::Icmp, reply.emit());
                out.ident = self.alloc_ident();
                self.send_ip(ctx, out, TxMeta::default());
            }
        }
        self.icmp_log.push(IcmpEvent {
            at: ctx.now,
            from: pkt.src,
            message: msg,
        });
    }

    // ---- timers & apps ----------------------------------------------------

    pub(crate) fn on_timer(&mut self, ctx: &mut NetCtx, t: TimerToken) {
        let (ns, payload) = split_token(t);
        match ns {
            NS_APPS => { /* the poll below handles it */ }
            NS_MOBILITY => {
                if !self.hook_taken {
                    if let Some(mut h) = self.hook.take() {
                        self.hook_taken = true;
                        h.on_timer(payload, self, ctx);
                        self.hook_taken = false;
                        self.hook = Some(h);
                    }
                }
            }
            super::NS_HOST => { /* reserved */ }
            proto => {
                let proto = IpProtocol::from_number(proto);
                if let Some(mut h) = self.take_handler(proto) {
                    h.on_timer(payload, self, ctx);
                    self.put_handler(proto, h);
                }
            }
        }
        self.poll_apps(ctx);
    }

    fn poll_apps(&mut self, ctx: &mut NetCtx) {
        for i in 0..self.apps.len() {
            if let Some(mut app) = self.apps[i].take() {
                app.poll(self, ctx);
                self.apps[i] = Some(app);
            }
        }
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("addrs", &self.addrs())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::profile::thread_allocations;
    use crate::wire::arp::ArpPacket;
    use crate::wire::ethernet::{EtherType, EthernetFrame};
    use crate::world::World;

    /// What most of a 196-host stub sees during a handoff storm — a
    /// broadcast ARP request about a third party, a unicast frame for some
    /// other MAC — must cost a bystander no allocation at all.
    #[test]
    fn frames_for_someone_else_allocate_nothing() {
        let mut w = World::new(1);
        let lan = w.add_segment(LinkConfig::lan());
        let [asker, bystander, target] =
            ["asker", "bystander", "target"].map(|n| w.add_host(HostConfig::conventional(n)));
        w.attach(asker, lan, Some("10.0.0.1/24"));
        w.attach(bystander, lan, Some("10.0.0.2/24"));
        w.attach(target, lan, Some("10.0.0.3/24"));
        let (asker_mac, target_mac) = (w.host(asker).nic.mac(0), w.host(target).nic.mac(0));
        let (asker_ip, target_ip) = ("10.0.0.1".parse().unwrap(), "10.0.0.3".parse().unwrap());

        let arp = ArpPacket::request(asker_mac, asker_ip, target_ip);
        let who_has = EthernetFrame::new(
            MacAddr::BROADCAST,
            asker_mac,
            EtherType::Arp,
            Bytes::from(arp.emit()),
        )
        .emit();
        let ping = Ipv4Packet::new(
            asker_ip,
            target_ip,
            IpProtocol::Udp,
            Bytes::from(vec![7; 1400]),
        );
        let not_mine =
            EthernetFrame::new(target_mac, asker_mac, EtherType::Ipv4, ping.emit()).emit();

        for frame in [who_has, not_mine] {
            let allocs = w.host_do(bystander, |h, ctx| {
                let (before, _) = thread_allocations();
                h.on_frame(ctx, 0, &frame);
                thread_allocations().0 - before
            });
            assert_eq!(allocs, 0, "a frame for someone else must be free");
        }
        assert!(w
            .host(bystander)
            .nic
            .arp_lookup(0, asker_ip, w.now())
            .is_none());
    }

    /// A packet that fits the MTU and whose next hop is resolved costs the
    /// IP layer its frame buffer — one block holding the bytes and the
    /// count that shares them with the wire — and nothing else: no
    /// fragment list, no header clone.
    #[test]
    fn an_unfragmented_send_allocates_only_its_frame_buffer() {
        let mut w = World::new(1);
        let lan = w.add_segment(LinkConfig::lan());
        let [a, b] = ["a", "b"].map(|n| w.add_host(HostConfig::conventional(n)));
        w.attach(a, lan, Some("10.0.0.1/24"));
        w.attach(b, lan, Some("10.0.0.2/24"));
        let (src, dst) = ("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
        // Resolve the next hop, then take the other costs of a send out of
        // the reading: the trace's amortized growth is its own to pin, and
        // with the peer unplugged the wire schedules no delivery event.
        w.host_do(a, |h, ctx| h.send_ping(ctx, src, dst, 1));
        w.run_until_idle(1_000);
        w.trace.set_enabled(false);
        w.detach(b, 0);
        let pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, Bytes::from(vec![7; 1400]));
        let allocs = w.host_do(a, |h, ctx| {
            let (before, _) = thread_allocations();
            h.send_ip(ctx, pkt, TxMeta::default());
            thread_allocations().0 - before
        });
        assert_eq!(allocs, 1, "the frame's one block");
    }
}

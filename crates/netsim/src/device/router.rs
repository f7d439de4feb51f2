//! IP routers: longest-prefix-match forwarding, TTL handling, ICMP error
//! generation, and — centrally for this paper — the boundary-router policies
//! of §3.1:
//!
//! * **ingress source-address filtering**: "the boundary router will see a
//!   packet coming from outside the home network, with a source address
//!   claiming that the packet originates from a machine inside" → drop;
//! * **egress source-address filtering / no-transit policy**: "network
//!   administrators enforce this policy by configuring routers to discard
//!   packets with source addresses that appear to be invalid";
//! * arbitrary **firewall** rules.
//!
//! Filters examine only the outermost IP header, which is why the paper's
//! bi-directional tunneling works: "the inner packets are protected from
//! scrutiny by routers" (§3.1).

use bytes::{Bytes, BytesMut};

use super::nic::{ArpIdentity, NextHop, Nic, NicRx};
use crate::event::{IfaceNo, NodeId, TimerToken};
use crate::link::FaultOutcome;
use crate::route::RouteTable;
use crate::time::SimDuration;
use crate::trace::{DropReason, TraceEventKind};
use crate::wire::ethernet::{EtherType, MacAddr, ETHERNET_HEADER_LEN};
use crate::wire::icmp::{IcmpMessage, UnreachableCode};
use crate::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet};
use crate::wire::srcroute;
use crate::world::NetCtx;

/// Whether a filter rule applies to packets entering or leaving the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterWhen {
    /// Applied where packets enter the router.
    Ingress,
    /// Applied where packets leave the router.
    Egress,
}

/// What a matching filter rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Let the packet through (stops rule evaluation).
    Permit,
    /// Drop the packet, attributing the given reason.
    Deny(DropReason),
}

/// One packet-filter rule. All present conditions must hold for the rule to
/// match; the first matching rule's action applies; the default is permit.
#[derive(Debug, Clone)]
pub struct FilterRule {
    /// Ingress or egress.
    pub when: FilterWhen,
    /// Restrict to one interface (the arrival interface for ingress rules,
    /// the departure interface for egress rules).
    pub iface: Option<IfaceNo>,
    /// Match if the source address IS in this prefix.
    pub src_in: Option<Ipv4Cidr>,
    /// Match if the source address is NOT in this prefix.
    pub src_not_in: Option<Ipv4Cidr>,
    /// Match if the destination address IS in this prefix.
    pub dst_in: Option<Ipv4Cidr>,
    /// Match if the destination address is NOT in this prefix.
    pub dst_not_in: Option<Ipv4Cidr>,
    /// Match only this IP protocol (applies to the *outer* header).
    pub protocol: Option<IpProtocol>,
    /// What to do on match.
    pub action: FilterAction,
}

impl FilterRule {
    fn blank(when: FilterWhen, action: FilterAction) -> FilterRule {
        FilterRule {
            when,
            iface: None,
            src_in: None,
            src_not_in: None,
            dst_in: None,
            dst_not_in: None,
            protocol: None,
            action,
        }
    }

    /// The Figure 2 rule: packets arriving on `outside_iface` (from the rest
    /// of the Internet) whose source claims to be inside `inside` are
    /// spoofed — drop them. This is what breaks Out-DH toward the home
    /// network.
    pub fn ingress_source_filter(outside_iface: IfaceNo, inside: Ipv4Cidr) -> FilterRule {
        FilterRule {
            iface: Some(outside_iface),
            src_in: Some(inside),
            ..FilterRule::blank(
                FilterWhen::Ingress,
                FilterAction::Deny(DropReason::SourceAddressFilter),
            )
        }
    }

    /// The visited-network rule: packets leaving toward `outside_iface`
    /// whose source is not one of ours "indicate some inappropriate use of
    /// the network" (§3.1) — drop them. This is what breaks Out-DH *from* a
    /// filtered visited network.
    pub fn egress_source_filter(outside_iface: IfaceNo, inside: Ipv4Cidr) -> FilterRule {
        FilterRule {
            iface: Some(outside_iface),
            src_not_in: Some(inside),
            ..FilterRule::blank(
                FilterWhen::Egress,
                FilterAction::Deny(DropReason::SourceAddressFilter),
            )
        }
    }

    /// End-user networks forbid transit traffic: packets arriving from
    /// outside that are not destined inside are transit — drop them.
    pub fn no_transit(outside_iface: IfaceNo, inside: Ipv4Cidr) -> FilterRule {
        FilterRule {
            iface: Some(outside_iface),
            dst_not_in: Some(inside),
            ..FilterRule::blank(
                FilterWhen::Ingress,
                FilterAction::Deny(DropReason::TransitPolicy),
            )
        }
    }

    /// A firewall rule denying traffic from `src` to `dst` (either may be
    /// `None` = any).
    pub fn firewall_deny(src: Option<Ipv4Cidr>, dst: Option<Ipv4Cidr>) -> FilterRule {
        FilterRule {
            src_in: src,
            dst_in: dst,
            ..FilterRule::blank(
                FilterWhen::Ingress,
                FilterAction::Deny(DropReason::Firewall),
            )
        }
    }

    /// An explicit permit (placed before deny rules to punch holes, e.g.
    /// letting tunnel packets through to the home agent on a firewall).
    pub fn permit(
        when: FilterWhen,
        src: Option<Ipv4Cidr>,
        dst: Option<Ipv4Cidr>,
        protocol: Option<IpProtocol>,
    ) -> FilterRule {
        FilterRule {
            src_in: src,
            dst_in: dst,
            protocol,
            ..FilterRule::blank(when, FilterAction::Permit)
        }
    }

    fn matches(&self, when: FilterWhen, iface: IfaceNo, pkt: &Ipv4Packet) -> bool {
        self.when == when
            && self.iface.is_none_or(|i| i == iface)
            && self.src_in.is_none_or(|p| p.contains(pkt.src))
            && self.src_not_in.is_none_or(|p| !p.contains(pkt.src))
            && self.dst_in.is_none_or(|p| p.contains(pkt.dst))
            && self.dst_not_in.is_none_or(|p| !p.contains(pkt.dst))
            && self.protocol.is_none_or(|pr| pr == pkt.protocol)
    }
}

/// Evaluate a rule chain; `None` means permitted.
pub fn evaluate_filters(
    rules: &[FilterRule],
    when: FilterWhen,
    iface: IfaceNo,
    pkt: &Ipv4Packet,
) -> Option<DropReason> {
    for r in rules {
        if r.matches(when, iface, pkt) {
            return match r.action {
                FilterAction::Permit => None,
                FilterAction::Deny(reason) => Some(reason),
            };
        }
    }
    None
}

/// A routing table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Destination prefix this entry matches.
    pub prefix: Ipv4Cidr,
    /// Outgoing interface.
    pub iface: IfaceNo,
    /// Next-hop router address; `None` means the destination is on-link.
    pub gateway: Option<Ipv4Addr>,
}

/// Longest-prefix-match over a route list. When the same prefix appears
/// twice, the latest entry wins. This linear scan is the reference
/// semantics; the forwarding hot path uses [`RouteTable`](crate::route::RouteTable),
/// which matches it exactly.
pub fn lpm(routes: &[RouteEntry], dst: Ipv4Addr) -> Option<RouteEntry> {
    routes
        .iter()
        .filter(|r| r.prefix.contains(dst))
        .max_by_key(|r| r.prefix.prefix_len())
        .copied()
}

/// Patch an Ethernet + plain-IPv4 frame in place for one forwarding hop:
/// rewrite both MACs, decrement the TTL, and update the IPv4 header
/// checksum incrementally (RFC 1624) instead of recomputing it over the
/// header. Produces bytes identical to a full parse → decrement → re-emit
/// of the same frame.
///
/// The caller must have validated the frame: Ethernet + 20-byte option-free
/// IPv4 header with a correct checksum, TTL ≥ 2.
pub fn patch_forwarded_frame(buf: &mut [u8], dst_mac: MacAddr, src_mac: MacAddr) {
    buf[0..6].copy_from_slice(&dst_mac.0);
    buf[6..12].copy_from_slice(&src_mac.0);
    buf[ETHERNET_HEADER_LEN + 8] -= 1; // TTL is the high byte of word 4
                                       // RFC 1624: HC' = ~(~HC + ~m + m'). The changed word m is ttl<<8|proto
                                       // and m' = m - 0x0100, so ~m + m' is the constant 0xfeff. One fold
                                       // suffices (the sum is < 0x20000).
    let ck = ETHERNET_HEADER_LEN + 10;
    let hc = u16::from_be_bytes([buf[ck], buf[ck + 1]]);
    let sum = u32::from(!hc) + 0xfeff;
    let hc = !(((sum & 0xffff) + (sum >> 16)) as u16);
    buf[ck..ck + 2].copy_from_slice(&hc.to_be_bytes());
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Fully-qualified name, lower-case, dot-separated.
    pub name: String,
    /// Generate ICMP errors (time exceeded, unreachable, frag needed).
    pub icmp_errors: bool,
    /// Extra processing delay for any packet carrying IP options — the §4
    /// observation that "current IP routers typically handle packets with
    /// options much more slowly than they handle normal unadorned IP
    /// packets", modelled as a slow-path detour through the router CPU.
    pub option_delay: SimDuration,
}

impl RouterConfig {
    /// A router config with defaults (ICMP errors on, 500 µs option delay).
    pub fn named(name: &str) -> RouterConfig {
        RouterConfig {
            name: name.to_string(),
            icmp_errors: true,
            option_delay: SimDuration::from_micros(500),
        }
    }
}

/// An IP router.
#[derive(Debug)]
pub struct Router {
    /// Fully-qualified name, lower-case, dot-separated.
    pub name: String,
    id: NodeId,
    pub(crate) nic: Nic,
    routes: RouteTable,
    /// The §3.1 packet-filter chain (first match wins).
    pub filters: Vec<FilterRule>,
    icmp_errors: bool,
    option_delay: SimDuration,
    /// Packets parked on the options slow path. A slab indexed by timer
    /// token: every parked packet's timer fires exactly once, so a slot
    /// freed at fire time can be reused by the next parked packet — a
    /// miss storm of option packets recycles the same few slots instead
    /// of re-hashing and re-allocating map storage per packet.
    slow_path: Vec<Option<(IfaceNo, Ipv4Packet)>>,
    /// Free slots in `slow_path`, reused LIFO.
    slow_free: Vec<u32>,
    ident: u16,
    /// Packets that took the options slow path (observability).
    pub slow_path_packets: u64,
    /// Whether eligible packets may be forwarded in place on the existing
    /// wire buffer (TTL decrement + incremental checksum) instead of the
    /// full parse → mutate → re-emit pipeline. On by default; tests flip
    /// it off to compare the two paths.
    fast_forward: bool,
    /// Packets forwarded via the in-place fast path (observability).
    pub fast_path_forwards: u64,
}

impl Router {
    /// A router with no interfaces or routes yet.
    pub fn new(id: NodeId, config: RouterConfig) -> Router {
        Router {
            name: config.name,
            id,
            nic: Nic::new(),
            routes: RouteTable::new(),
            filters: Vec::new(),
            icmp_errors: config.icmp_errors,
            option_delay: config.option_delay,
            slow_path: Vec::new(),
            slow_free: Vec::new(),
            ident: 1,
            slow_path_packets: 0,
            fast_forward: true,
            fast_path_forwards: 0,
        }
    }

    /// Enable or disable the in-place forwarding fast path (default on).
    /// Disabling forces every packet through the reference slow path —
    /// the equivalence property tests compare the two.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// This node's id in the world.
    pub fn id(&self) -> NodeId {
        self.id
    }

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

    pub(crate) fn on_frame(&mut self, ctx: &mut NetCtx, iface: IfaceNo, frame: &Bytes) {
        let _prof = crate::profile::scope("router/forward");
        if self.try_fast_forward(ctx, iface, frame) {
            return;
        }
        let pkt = match self.nic.on_frame(ctx, iface, frame, ArpIdentity::default()) {
            NicRx::Ip(p) => p,
            NicRx::Malformed | NicRx::Consumed => return,
        };

        // Ingress policy.
        if let Some(reason) = evaluate_filters(&self.filters, FilterWhen::Ingress, iface, &pkt) {
            ctx.trace_packet(TraceEventKind::Dropped(reason), &pkt);
            return;
        }

        // Packets with IP options take the slow path (§4): park them and
        // resume after the per-router option-processing delay.
        if !pkt.options.is_empty() && self.option_delay > SimDuration::ZERO {
            let token = match self.slow_free.pop() {
                Some(slot) => {
                    self.slow_path[slot as usize] = Some((iface, pkt));
                    u64::from(slot)
                }
                None => {
                    self.slow_path.push(Some((iface, pkt)));
                    (self.slow_path.len() - 1) as u64
                }
            };
            self.slow_path_packets += 1;
            ctx.set_timer(self.option_delay, TimerToken(token));
            return;
        }

        self.continue_after_ingress(ctx, iface, pkt);
    }

    /// The in-place forwarding fast path: when a frame is a plain unicast
    /// IPv4 packet this router merely relays — no options, no filters, no
    /// local delivery, no fragmentation, next hop already resolved — the
    /// router copies the validated wire bytes once, rewrites the MACs,
    /// decrements the TTL and patches the checksum incrementally
    /// ([`patch_forwarded_frame`]), skipping the parse → mutate → re-emit
    /// pipeline entirely. Returns `false` (frame untouched, no events
    /// recorded) whenever any precondition fails, so the slow path remains
    /// the single place transforms and errors are handled; the property
    /// tests assert both paths yield byte-identical wire frames and
    /// identical traces.
    fn try_fast_forward(&mut self, ctx: &mut NetCtx, iface: IfaceNo, frame: &Bytes) -> bool {
        if !self.fast_forward || !self.filters.is_empty() || frame.len() < ETHERNET_HEADER_LEN {
            return false;
        }
        let b = frame.as_slice();
        // Exactly our unicast MAC: broadcast/multicast and ARP stay slow.
        if b[0..6] != self.nic.mac(iface).0
            || u16::from_be_bytes([b[12], b[13]]) != EtherType::Ipv4.number()
        {
            return false;
        }
        // The one IPv4 validation body, as views of the frame. Packets with
        // options take the §4 options slow path (and may carry source
        // routes); TTL expiry reporting lives on the slow path too.
        let Ok(mut pkt) = Ipv4Packet::parse_bytes(&frame.slice(ETHERNET_HEADER_LEN..)) else {
            return false;
        };
        if !pkt.options.is_empty() || pkt.ttl <= 1 {
            return false;
        }
        let (dst, total_len) = (pkt.dst, pkt.wire_len());
        // Addressed to the router itself → local delivery, slow path.
        if self.nic.owns_addr(dst) {
            return false;
        }
        let Some(route) = self.routes.lookup(dst) else {
            return false; // no-route ICMP is slow-path work
        };
        let Some(seg) = self.nic.segment(route.iface) else {
            return false;
        };
        if total_len > self.nic.mtu(route.iface) {
            return false; // would fragment (or need ICMP frag-needed)
        }
        let next_hop = route.gateway.unwrap_or(dst);
        let Some(dst_mac) = self.nic.arp_lookup(route.iface, next_hop, ctx.now) else {
            return false; // ARP resolution queues on the slow path
        };

        // Eligible: one copy of the validated region (receivers share the
        // inbound buffer, so the patch needs its own), then patch in place.
        // Trailing link padding is truncated, exactly as a re-emit would.
        let mut out = BytesMut::with_capacity(ETHERNET_HEADER_LEN + total_len);
        out.extend_from_slice(&b[..ETHERNET_HEADER_LEN + total_len]);
        patch_forwarded_frame(&mut out, dst_mac, self.nic.mac(route.iface));
        let outcome = ctx.transmit_raw(seg, route.iface, out.freeze());
        self.fast_path_forwards += 1;

        // Trace exactly what the slow path would have: the forwarded packet
        // with decremented TTL.
        pkt.ttl -= 1;
        match outcome {
            FaultOutcome::Drop => {
                ctx.trace_packet(TraceEventKind::Dropped(DropReason::LinkFault), &pkt);
            }
            FaultOutcome::Corrupt => {
                ctx.trace_packet(TraceEventKind::Dropped(DropReason::Malformed), &pkt);
            }
            FaultOutcome::Deliver | FaultOutcome::Duplicate => {
                ctx.trace_packet(TraceEventKind::Forwarded, &pkt);
            }
        }
        true
    }

    fn continue_after_ingress(&mut self, ctx: &mut NetCtx, iface: IfaceNo, mut pkt: Ipv4Packet) {
        // Addressed to the router itself?
        if self.nic.owns_addr(pkt.dst) {
            // A loose source route with remaining hops means we are a
            // waypoint, not the destination: rewrite and keep forwarding.
            let here = pkt.dst;
            if srcroute::process_at_hop(&mut pkt, here) {
                self.forward(ctx, iface, pkt);
                return;
            }
            self.deliver_local(ctx, iface, pkt);
            return;
        }

        self.forward(ctx, iface, pkt);
    }

    fn deliver_local(&mut self, ctx: &mut NetCtx, _iface: IfaceNo, pkt: Ipv4Packet) {
        // Routers answer pings; everything else has no listener.
        if pkt.protocol == IpProtocol::Icmp {
            if let Ok(IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            }) = IcmpMessage::parse_bytes(&pkt.payload)
            {
                ctx.trace_packet(TraceEventKind::DeliveredLocal, &pkt);
                let reply = IcmpMessage::EchoReply {
                    ident,
                    seq,
                    payload,
                };
                let out = Ipv4Packet::new(pkt.dst, pkt.src, IpProtocol::Icmp, reply.emit());
                self.originate(ctx, out);
                return;
            }
        }
        ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoListener), &pkt);
    }

    fn forward(&mut self, ctx: &mut NetCtx, _in_iface: IfaceNo, mut pkt: Ipv4Packet) {
        // TTL.
        if pkt.ttl <= 1 {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::TtlExpired), &pkt);
            self.icmp_error(ctx, &pkt, IcmpErr::TimeExceeded);
            return;
        }
        pkt.ttl -= 1;

        // Route lookup.
        let Some(route) = self.routes.lookup(pkt.dst) else {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoRoute), &pkt);
            self.icmp_error(ctx, &pkt, IcmpErr::Unreachable(UnreachableCode::Net));
            return;
        };

        // Egress policy.
        if let Some(reason) = evaluate_filters(&self.filters, FilterWhen::Egress, route.iface, &pkt)
        {
            ctx.trace_packet(TraceEventKind::Dropped(reason), &pkt);
            return;
        }

        // Path-MTU check for DF packets so we can report the next-hop MTU.
        let mtu = self.nic.mtu(route.iface);
        if pkt.dont_fragment && pkt.wire_len() > mtu {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::MtuExceeded), &pkt);
            self.icmp_error(
                ctx,
                &pkt,
                IcmpErr::Unreachable(UnreachableCode::FragmentationNeeded { mtu: mtu as u16 }),
            );
            return;
        }

        let next_hop = NextHop::Unicast(route.gateway.unwrap_or(pkt.dst));
        self.nic
            .send_ip(ctx, route.iface, next_hop, pkt, TraceEventKind::Forwarded);
    }

    /// Send a packet originated by the router itself (ICMP errors, echo
    /// replies). Self-originated traffic skips the filters.
    fn originate(&mut self, ctx: &mut NetCtx, pkt: Ipv4Packet) {
        let Some(route) = self.routes.lookup(pkt.dst) else {
            ctx.trace_packet(TraceEventKind::Dropped(DropReason::NoRoute), &pkt);
            return;
        };
        let next_hop = NextHop::Unicast(route.gateway.unwrap_or(pkt.dst));
        self.nic
            .send_ip(ctx, route.iface, next_hop, pkt, TraceEventKind::Sent);
    }

    fn icmp_error(&mut self, ctx: &mut NetCtx, offending: &Ipv4Packet, err: IcmpErr) {
        if !self.icmp_errors {
            return;
        }
        // Never generate errors about ICMP (avoids error loops; a fuller
        // implementation would allow errors about echo).
        if offending.protocol == IpProtocol::Icmp {
            return;
        }
        let Some(src) = self.nic.addrs().next() else {
            return;
        };
        let wire = offending.emit();
        let quote = wire.slice(..wire.len().min(28));
        let msg = match err {
            IcmpErr::TimeExceeded => IcmpMessage::TimeExceeded { original: quote },
            IcmpErr::Unreachable(code) => IcmpMessage::DestUnreachable {
                code,
                original: quote,
            },
        };
        let mut out = Ipv4Packet::new(src, offending.src, IpProtocol::Icmp, msg.emit());
        out.ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        self.originate(ctx, out);
    }

    pub(crate) fn on_timer(&mut self, ctx: &mut NetCtx, token: TimerToken) {
        // The only router timers are options-slow-path resumptions.
        let slot = token.0 as usize;
        if let Some(parked) = self.slow_path.get_mut(slot) {
            if let Some((iface, pkt)) = parked.take() {
                self.slow_free.push(slot as u32);
                self.continue_after_ingress(ctx, iface, pkt);
            }
        }
    }
}

enum IcmpErr {
    TimeExceeded,
    Unreachable(UnreachableCode),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }
    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }
    fn pkt(src: &str, dst: &str) -> Ipv4Packet {
        Ipv4Packet::new(ip(src), ip(dst), IpProtocol::Udp, Bytes::from_static(b"x"))
    }

    // iface 0 = outside (Internet), iface 1 = inside (home net 171.64/16).

    #[test]
    fn ingress_source_filter_drops_spoofed_home_sources() {
        let rules = [FilterRule::ingress_source_filter(0, cidr("171.64.0.0/16"))];
        // Figure 2: MH away from home sends Out-DH with home source address;
        // the packet arrives at the home boundary from outside.
        let spoofish = pkt("171.64.15.9", "171.64.7.7");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &spoofish),
            Some(DropReason::SourceAddressFilter)
        );
        // Legitimate outside traffic passes.
        let normal = pkt("18.26.0.1", "171.64.7.7");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &normal),
            None
        );
        // The same source arriving on the *inside* interface is fine.
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 1, &spoofish),
            None
        );
    }

    #[test]
    fn egress_source_filter_drops_foreign_sources_leaving() {
        let rules = [FilterRule::egress_source_filter(0, cidr("36.186.0.0/16"))];
        // MH visiting 36.186/16 tries Out-DH with its home (171.64) source.
        let foreign_src = pkt("171.64.15.9", "18.26.0.1");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Egress, 0, &foreign_src),
            Some(DropReason::SourceAddressFilter)
        );
        // Packets sourced from the visited network's own space pass —
        // including tunnel packets whose *outer* source is the care-of addr.
        let coa_src = pkt("36.186.0.99", "171.64.15.1");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Egress, 0, &coa_src),
            None
        );
    }

    #[test]
    fn transit_policy_drops_pass_through_traffic() {
        let rules = [FilterRule::no_transit(0, cidr("36.186.0.0/16"))];
        let transit = pkt("18.26.0.1", "128.2.0.1");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &transit),
            Some(DropReason::TransitPolicy)
        );
        let inbound = pkt("18.26.0.1", "36.186.0.99");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &inbound),
            None
        );
    }

    #[test]
    fn permit_rules_punch_holes_in_firewalls() {
        // Firewall home agent scenario (§3.1): permit tunnels to the HA,
        // deny everything else inbound.
        let ha = cidr("171.64.15.1/32");
        let rules = [
            FilterRule::permit(
                FilterWhen::Ingress,
                None,
                Some(ha),
                Some(IpProtocol::IpInIp),
            ),
            FilterRule::firewall_deny(None, Some(cidr("171.64.0.0/16"))),
        ];
        let tunnel = Ipv4Packet::new(
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            IpProtocol::IpInIp,
            Bytes::from_static(b"inner"),
        );
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &tunnel),
            None
        );
        let other = pkt("36.186.0.99", "171.64.7.7");
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &other),
            Some(DropReason::Firewall)
        );
    }

    #[test]
    fn filter_protocol_condition() {
        let mut r = FilterRule::blank(
            FilterWhen::Ingress,
            FilterAction::Deny(DropReason::Firewall),
        );
        r.protocol = Some(IpProtocol::Tcp);
        let rules = [r];
        let udp = pkt("1.1.1.1", "2.2.2.2");
        assert_eq!(evaluate_filters(&rules, FilterWhen::Ingress, 0, &udp), None);
        let tcp = Ipv4Packet::new(ip("1.1.1.1"), ip("2.2.2.2"), IpProtocol::Tcp, Bytes::new());
        assert_eq!(
            evaluate_filters(&rules, FilterWhen::Ingress, 0, &tcp),
            Some(DropReason::Firewall)
        );
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let routes = [
            RouteEntry {
                prefix: cidr("0.0.0.0/0"),
                iface: 0,
                gateway: Some(ip("10.0.0.1")),
            },
            RouteEntry {
                prefix: cidr("171.64.0.0/16"),
                iface: 1,
                gateway: None,
            },
            RouteEntry {
                prefix: cidr("171.64.15.0/24"),
                iface: 2,
                gateway: None,
            },
        ];
        assert_eq!(lpm(&routes, ip("171.64.15.9")).unwrap().iface, 2);
        assert_eq!(lpm(&routes, ip("171.64.7.7")).unwrap().iface, 1);
        assert_eq!(lpm(&routes, ip("18.26.0.1")).unwrap().iface, 0);
        assert_eq!(lpm(&[], ip("18.26.0.1")), None);
    }
}

//! The home agent.
//!
//! "The home agent is a machine on the mobile host's home network that acts
//! as a proxy on behalf of the mobile host for the duration of its absence.
//! The home agent uses gratuitous proxy ARP to capture all IP packets
//! addressed to the mobile host. When packets addressed to the mobile host
//! arrive on its home network, the home agent intercepts them and uses
//! encapsulation to forward them to the mobile host's current location."
//! (§2, Figure 1.)
//!
//! Implemented as a [`MobilityHook`] on an ordinary host:
//!
//! * serves the registration protocol on UDP 434 ([`crate::registration`]);
//! * on registration: records the binding, starts proxy-ARPing for the home
//!   address, broadcasts a gratuitous ARP to usurp it, and intercepts
//!   packets addressed to it;
//! * intercepted packets are tunnelled to the care-of address (In-IE);
//! * optionally notifies correspondents of the binding with an ICMP Mobile
//!   Host Redirect — the §3.2 route-optimization trigger (Figure 5);
//! * decapsulates reverse tunnels (Out-IE) and re-sends the inner packet —
//!   that part is generic tunnel-endpoint behaviour provided by the host
//!   stack's `forward_decapsulated` flag (Figure 3).

use std::any::Any;
use std::collections::HashMap;

use bytes::Bytes;

use netsim::device::host::{EncapLayer, MobilityHook};
use netsim::device::TxMeta;
use netsim::wire::encap::{encapsulate, EncapFormat};
use netsim::wire::icmp::IcmpMessage;
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet};
use netsim::wire::udp::UdpDatagram;
use netsim::{Host, IfaceNo, NetCtx, NodeId, SimDuration, SimTime, TransformKind, World};

use crate::registration::{RegistrationReply, RegistrationRequest, ReplyCode, REGISTRATION_PORT};

/// One registered mobile host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// The mobile's current care-of address.
    pub care_of: Ipv4Addr,
    /// When the binding lapses unless refreshed.
    pub expires: SimTime,
    /// Lifetime granted at registration, seconds.
    pub granted_lifetime: u16,
}

/// Home-agent counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HaStats {
    /// Registrations accepted.
    pub registrations_accepted: u64,
    /// Registrations denied (wrong agent or address).
    pub registrations_denied: u64,
    /// Deregistrations processed.
    pub deregistrations: u64,
    /// Captured packets tunnelled to care-of addresses.
    pub packets_tunneled: u64,
    /// Wire bytes of those tunnel packets.
    pub bytes_tunneled: u64,
    /// ICMP Mobile Host Redirects emitted.
    pub redirects_sent: u64,
    /// Bindings dropped because their lifetime ran out.
    pub bindings_expired: u64,
}

serde::impl_serialize!(HaStats {
    registrations_accepted,
    registrations_denied,
    deregistrations,
    packets_tunneled,
    bytes_tunneled,
    redirects_sent,
    bindings_expired
});

/// Home-agent configuration.
#[derive(Debug, Clone)]
pub struct HomeAgentConfig {
    /// The agent's own address (where reverse tunnels terminate and
    /// registrations are sent).
    pub addr: Ipv4Addr,
    /// The home network it serves; registrations for other addresses are
    /// denied.
    pub home_prefix: Ipv4Cidr,
    /// Interface attached to the home segment (for proxy/gratuitous ARP).
    pub home_iface: IfaceNo,
    /// Tunnel format for forwarded packets.
    pub encap: EncapFormat,
    /// Send ICMP Mobile Host Redirects to correspondents when forwarding
    /// (the Figure 5 optimization trigger).
    pub send_redirects: bool,
    /// Minimum gap between redirects to the same (correspondent, mobile)
    /// pair.
    pub redirect_interval: SimDuration,
    /// Cap on granted binding lifetimes, seconds.
    pub max_lifetime: u16,
}

impl HomeAgentConfig {
    /// Configuration with defaults: IP-in-IP, no redirects, 600 s max lifetime.
    pub fn new(addr: Ipv4Addr, home_prefix: Ipv4Cidr, home_iface: IfaceNo) -> Self {
        HomeAgentConfig {
            addr,
            home_prefix,
            home_iface,
            encap: EncapFormat::IpInIp,
            send_redirects: false,
            redirect_interval: SimDuration::from_secs(10),
            max_lifetime: 600,
        }
    }

    /// Enable ICMP Mobile Host Redirects (the Figure 5 optimization).
    pub fn with_redirects(mut self) -> Self {
        self.send_redirects = true;
        self
    }

    /// Select the tunnel format.
    pub fn with_encap(mut self, f: EncapFormat) -> Self {
        self.encap = f;
        self
    }
}

/// The home-agent mobility hook.
pub struct HomeAgent {
    config: HomeAgentConfig,
    bindings: HashMap<Ipv4Addr, Binding>,
    redirect_sent: HashMap<(Ipv4Addr, Ipv4Addr), SimTime>,
    /// §6.4: multicast groups tunnelled to absent mobiles — group → home
    /// addresses subscribed through their "virtual interface on the distant
    /// home network".
    multicast_subs: HashMap<Ipv4Addr, Vec<Ipv4Addr>>,
    /// Counters for experiments.
    pub stats: HaStats,
}

impl HomeAgent {
    /// A home-agent hook with no bindings yet.
    pub fn new(config: HomeAgentConfig) -> HomeAgent {
        HomeAgent {
            config,
            bindings: HashMap::new(),
            redirect_sent: HashMap::new(),
            multicast_subs: HashMap::new(),
            stats: HaStats::default(),
        }
    }

    /// Subscribe an absent mobile to a multicast group: group traffic seen
    /// on the home segment is tunnelled to the mobile's care-of address —
    /// the §6.4 "virtual interface on its distant home network" behaviour.
    /// The caller must also join the group on the HA host's home interface
    /// (see [`crate::multicast::join_via_home_agent`]).
    pub fn subscribe_multicast(&mut self, group: Ipv4Addr, home: Ipv4Addr) {
        let subs = self.multicast_subs.entry(group).or_default();
        if !subs.contains(&home) {
            subs.push(home);
        }
    }

    /// Stop tunnelling `group` to the mobile registered at `home`.
    pub fn unsubscribe_multicast(&mut self, group: Ipv4Addr, home: Ipv4Addr) {
        if let Some(subs) = self.multicast_subs.get_mut(&group) {
            subs.retain(|&h| h != home);
        }
    }

    /// Install a home agent on `node` of `world`. Enables the host's tunnel
    /// endpoint capabilities.
    pub fn install(world: &mut World, node: NodeId, config: HomeAgentConfig) {
        let host = world.host_mut(node);
        host.set_decap_capable(true);
        host.set_forward_decapsulated(true);
        host.set_hook(Box::new(HomeAgent::new(config)));
    }

    /// Simulate a home-agent crash and reboot on `node`: the binding table,
    /// redirect throttle, and multicast subscriptions are volatile state and
    /// are lost, and the host stops intercepting and proxy-ARPing for every
    /// previously registered mobile. Mobiles notice when traffic stops
    /// flowing and must re-register — the mass re-registration scenario.
    /// Returns the number of bindings dropped.
    pub fn restart(world: &mut World, node: NodeId) -> usize {
        let host = world.host_mut(node);
        let homes: Vec<Ipv4Addr> = {
            let Some(ha) = host.hook_as::<HomeAgent>() else {
                return 0;
            };
            let homes = ha.bindings.keys().copied().collect();
            ha.bindings.clear();
            ha.redirect_sent.clear();
            ha.multicast_subs.clear();
            homes
        };
        for &home in &homes {
            host.remove_intercept(home);
            host.remove_proxy_arp(home);
        }
        homes.len()
    }

    /// The current binding for a home address, if registered.
    pub fn binding(&self, home: Ipv4Addr) -> Option<&Binding> {
        self.bindings.get(&home)
    }

    /// Iterate over all active bindings.
    pub fn bindings(&self) -> impl Iterator<Item = (&Ipv4Addr, &Binding)> {
        self.bindings.iter()
    }

    fn valid_binding(&mut self, home: Ipv4Addr, now: SimTime, host: &mut Host) -> Option<Binding> {
        match self.bindings.get(&home).copied() {
            Some(b) if now <= b.expires => Some(b),
            Some(_) => {
                // Expired: stop serving this address.
                self.bindings.remove(&home);
                host.remove_intercept(home);
                host.remove_proxy_arp(home);
                self.stats.bindings_expired += 1;
                None
            }
            None => None,
        }
    }

    fn handle_registration(&mut self, pkt: &Ipv4Packet, host: &mut Host, ctx: &mut NetCtx) -> bool {
        let Ok(dgram) = UdpDatagram::parse_bytes(&pkt.payload, pkt.src, pkt.dst) else {
            return false;
        };
        if dgram.dst_port != REGISTRATION_PORT {
            return false;
        }
        let Ok(req) = RegistrationRequest::parse(&dgram.payload) else {
            return true; // ours but malformed; swallow
        };

        let authorized = req.home_agent == self.config.addr
            && self.config.home_prefix.contains(req.home_address);
        let (code, lifetime) = if !authorized {
            self.stats.registrations_denied += 1;
            (ReplyCode::Denied, 0)
        } else if req.is_deregistration() {
            self.bindings.remove(&req.home_address);
            host.remove_intercept(req.home_address);
            host.remove_proxy_arp(req.home_address);
            self.stats.deregistrations += 1;
            (ReplyCode::Accepted, 0)
        } else {
            let lifetime = req.lifetime.min(self.config.max_lifetime);
            self.bindings.insert(
                req.home_address,
                Binding {
                    care_of: req.care_of,
                    expires: ctx.now + SimDuration::from_secs(u64::from(lifetime)),
                    granted_lifetime: lifetime,
                },
            );
            host.add_intercept(req.home_address);
            host.add_proxy_arp(req.home_address);
            // Usurp the address on the home segment so existing ARP caches
            // switch over to us (RFC 1027 gratuitous proxy ARP, §2).
            host.send_gratuitous_arp(ctx, self.config.home_iface, req.home_address);
            self.stats.registrations_accepted += 1;
            (ReplyCode::Accepted, lifetime)
        };

        let reply = RegistrationReply {
            code,
            lifetime,
            home_address: req.home_address,
            home_agent: self.config.addr,
            ident: req.ident,
        };
        let out_dgram =
            UdpDatagram::new(REGISTRATION_PORT, dgram.src_port, Bytes::from(reply.emit()));
        let mut out = Ipv4Packet::new(
            self.config.addr,
            pkt.src,
            IpProtocol::Udp,
            Bytes::from(out_dgram.emit(self.config.addr, pkt.src)),
        );
        out.ident = host.alloc_ident();
        host.send_ip(
            ctx,
            out,
            TxMeta {
                skip_override: true,
                ..TxMeta::default()
            },
        );
        true
    }

    fn tunnel_to_mobile(
        &mut self,
        pkt: Ipv4Packet,
        binding: Binding,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) {
        let ident = host.alloc_ident();
        // Minimal encapsulation cannot carry fragments (RFC 2004); fall
        // back to IP-in-IP for those.
        let format = if pkt.is_fragment() && self.config.encap == EncapFormat::Minimal {
            EncapFormat::IpInIp
        } else {
            self.config.encap
        };
        let mut outer = encapsulate(format, self.config.addr, binding.care_of, &pkt, ident)
            .expect("non-minimal encapsulation is infallible");
        outer.ttl = netsim::wire::ipv4::DEFAULT_TTL; // fresh tunnel TTL
        ctx.trace_transform(TransformKind::Encapsulated(format), Some(&pkt), &outer);
        self.stats.packets_tunneled += 1;
        self.stats.bytes_tunneled += outer.wire_len() as u64;
        host.send_ip(
            ctx,
            outer,
            TxMeta {
                skip_override: true,
                ..TxMeta::default()
            },
        );
    }

    fn maybe_send_redirect(
        &mut self,
        correspondent: Ipv4Addr,
        home: Ipv4Addr,
        binding: Binding,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) {
        if !self.config.send_redirects
            || correspondent == home
            || correspondent == self.config.addr
            || self.config.home_prefix.contains(correspondent)
        {
            // No point redirecting hosts on the home segment: their packets
            // already take the shortest path to us.
            return;
        }
        let key = (correspondent, home);
        if let Some(&last) = self.redirect_sent.get(&key) {
            if ctx.now.since(last) < self.config.redirect_interval {
                return;
            }
        }
        self.redirect_sent.insert(key, ctx.now);
        let remaining = binding.expires.since(ctx.now).as_micros() / 1_000_000;
        let msg = IcmpMessage::MobileHostRedirect {
            home,
            care_of: binding.care_of,
            lifetime_secs: remaining.min(u64::from(u16::MAX)) as u16,
        };
        let mut out = Ipv4Packet::new(
            self.config.addr,
            correspondent,
            IpProtocol::Icmp,
            Bytes::from(msg.emit()),
        );
        out.ident = host.alloc_ident();
        self.stats.redirects_sent += 1;
        host.send_ip(
            ctx,
            out,
            TxMeta {
                skip_override: true,
                ..TxMeta::default()
            },
        );
    }
}

impl MobilityHook for HomeAgent {
    fn incoming(
        &mut self,
        pkt: Ipv4Packet,
        layers: &[EncapLayer],
        _iface: IfaceNo,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> Option<Ipv4Packet> {
        // Registration protocol addressed to us.
        if pkt.dst == self.config.addr
            && pkt.protocol == IpProtocol::Udp
            && self.handle_registration(&pkt, host, ctx)
        {
            return None;
        }

        // Multicast the HA receives on behalf of subscribed mobiles gets a
        // tunnelled copy per subscriber (§6.4 — and experiment E12 measures
        // exactly how self-defeating this is).
        if pkt.dst.is_multicast() {
            if let Some(homes) = self.multicast_subs.get(&pkt.dst).cloned() {
                for home in homes {
                    if let Some(binding) = self.valid_binding(home, ctx.now, host) {
                        self.tunnel_to_mobile(pkt.clone(), binding, host, ctx);
                    }
                }
                return None;
            }
            return Some(pkt);
        }

        // A packet for a mobile host we are serving? (Either captured via
        // proxy ARP on the home segment, or the inner packet of a reverse
        // tunnel whose final destination is another of our mobiles.)
        if let Some(binding) = self.valid_binding(pkt.dst, ctx.now, host) {
            let (src, home) = (pkt.src, pkt.dst);
            // Only advertise bindings for natively-routed packets; the
            // source of a reverse-tunnelled inner packet is the mobile
            // host itself.
            if layers.is_empty() {
                self.maybe_send_redirect(src, home, binding, host, ctx);
            }
            self.tunnel_to_mobile(pkt, binding, host, ctx);
            return None;
        }

        Some(pkt)
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::wire::icmp::IcmpMessage;
    use netsim::{HostConfig, IfaceAddr, LinkConfig, RouterConfig, TraceEventKind};
    use transport::udp;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// home(171.64.15.0/24): ha(.1), server(.7), router(.254)
    /// wan → visited(36.186.0.0/24): router(.254), away(.99)
    struct Fixture {
        w: World,
        ha: NodeId,
        server: NodeId,
        away: NodeId,
    }

    fn fixture() -> Fixture {
        let mut w = World::new(17);
        let home = w.add_segment(LinkConfig::lan());
        let wan = w.add_segment(LinkConfig::wan(20));
        let visited = w.add_segment(LinkConfig::lan());
        let ha = w.add_host(HostConfig::agent("ha"));
        let server = w.add_host(HostConfig::conventional("server"));
        let away = w.add_host(HostConfig::decap_capable("away-mh"));
        let r1 = w.add_router(RouterConfig::named("home-gw"));
        let r2 = w.add_router(RouterConfig::named("visited-gw"));
        let ha_if = w.attach(ha, home, Some("171.64.15.1/24"));
        w.attach(server, home, Some("171.64.15.7/24"));
        w.attach(r1, home, Some("171.64.15.254/24"));
        w.attach(r1, wan, Some("192.168.0.1/30"));
        w.attach(r2, wan, Some("192.168.0.2/30"));
        w.attach(r2, visited, Some("36.186.0.254/24"));
        w.attach(away, visited, Some("36.186.0.99/24"));
        w.compute_routes();
        assert_eq!(ha_if, 0);
        HomeAgent::install(
            &mut w,
            ha,
            HomeAgentConfig::new(ip("171.64.15.1"), "171.64.15.0/24".parse().unwrap(), ha_if)
                .with_redirects(),
        );
        udp::install(w.host_mut(away));
        udp::install(w.host_mut(server));
        Fixture {
            w,
            ha,
            server,
            away,
        }
    }

    fn register(f: &mut Fixture, lifetime: u16) -> RegistrationReply {
        let sock = udp::bind(f.w.host_mut(f.away), None, 0);
        let req = RegistrationRequest {
            lifetime,
            home_address: ip("171.64.15.9"),
            home_agent: ip("171.64.15.1"),
            care_of: ip("36.186.0.99"),
            ident: 7,
        };
        f.w.host_do(f.away, |h, ctx| {
            udp::send_to(
                h,
                ctx,
                sock,
                (ip("171.64.15.1"), REGISTRATION_PORT),
                req.emit(),
            );
        });
        f.w.run_until_idle(100_000);
        let got = udp::recv(f.w.host_mut(f.away), sock).expect("reply received");
        RegistrationReply::parse(&got.payload).expect("valid reply")
    }

    #[test]
    fn registration_accepted_and_binding_recorded() {
        let mut f = fixture();
        let reply = register(&mut f, 300);
        assert_eq!(reply.code, ReplyCode::Accepted);
        assert_eq!(reply.lifetime, 300);
        assert_eq!(reply.ident, 7);
        let ha = f.w.host_mut(f.ha);
        assert!(ha.intercepts(ip("171.64.15.9")));
        let hook = ha.hook_as::<HomeAgent>().unwrap();
        assert_eq!(
            hook.binding(ip("171.64.15.9")).unwrap().care_of,
            ip("36.186.0.99")
        );
        assert_eq!(hook.stats.registrations_accepted, 1);
    }

    #[test]
    fn restart_drops_bindings_and_host_capture_state() {
        let mut f = fixture();
        register(&mut f, 300);
        assert!(f.w.host_mut(f.ha).intercepts(ip("171.64.15.9")));
        assert_eq!(HomeAgent::restart(&mut f.w, f.ha), 1);
        let ha = f.w.host_mut(f.ha);
        assert!(!ha.intercepts(ip("171.64.15.9")));
        let hook = ha.hook_as::<HomeAgent>().unwrap();
        assert!(hook.binding(ip("171.64.15.9")).is_none());
        // Re-registration restores service as if from scratch.
        let reply = register(&mut f, 300);
        assert_eq!(reply.code, ReplyCode::Accepted);
        assert!(f.w.host_mut(f.ha).intercepts(ip("171.64.15.9")));
        // A host without the hook is a no-op.
        assert_eq!(HomeAgent::restart(&mut f.w, f.server), 0);
    }

    #[test]
    fn registration_outside_home_prefix_denied() {
        let mut f = fixture();
        let sock = udp::bind(f.w.host_mut(f.away), None, 0);
        let req = RegistrationRequest {
            lifetime: 300,
            home_address: ip("18.26.0.5"), // not 171.64.15/24
            home_agent: ip("171.64.15.1"),
            care_of: ip("36.186.0.99"),
            ident: 9,
        };
        f.w.host_do(f.away, |h, ctx| {
            udp::send_to(
                h,
                ctx,
                sock,
                (ip("171.64.15.1"), REGISTRATION_PORT),
                req.emit(),
            );
        });
        f.w.run_until_idle(100_000);
        let got = udp::recv(f.w.host_mut(f.away), sock).unwrap();
        let reply = RegistrationReply::parse(&got.payload).unwrap();
        assert_eq!(reply.code, ReplyCode::Denied);
        let hook = f.w.host_mut(f.ha).hook_as::<HomeAgent>().unwrap();
        assert_eq!(hook.stats.registrations_denied, 1);
        assert!(hook.binding(ip("18.26.0.5")).is_none());
    }

    #[test]
    fn captured_packets_are_tunneled_to_care_of_address() {
        let mut f = fixture();
        register(&mut f, 300);
        // Give the away host the home address as a virtual (unattached)
        // interface, as a real mobile host would.
        let away = f.w.host_mut(f.away);
        let vif = away.add_iface(netsim::wire::ethernet::MacAddr::from_index(900));
        away.set_iface_addr(vif, Some(IfaceAddr::parse("171.64.15.9/32")));

        // The home-segment server pings the (absent) mobile host.
        f.w.host_do(f.server, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.7"), ip("171.64.15.9"), 1)
        });
        f.w.run_until_idle(100_000);

        // The echo request reached the away host through a tunnel...
        let away_log = &f.w.host(f.away).icmp_log;
        assert!(away_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoRequest { seq: 1, .. })));
        // ...and the reply got back to the server (sent directly, Out-DH,
        // which works because no filters are configured in this fixture).
        assert!(f
            .w
            .host(f.server)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 1, .. })));
        // The tunnel leg is visible in the trace.
        let tunneled = f.w.trace.matching(|s| {
            s.protocol == IpProtocol::IpInIp
                && s.inner.map(|(_, d, _)| d) == Some(ip("171.64.15.9"))
        });
        assert!(tunneled.count() >= 1);
        let hook = f.w.host_mut(f.ha).hook_as::<HomeAgent>().unwrap();
        assert!(hook.stats.packets_tunneled >= 1);
    }

    #[test]
    fn redirect_sent_to_remote_correspondent_once_per_interval() {
        let mut f = fixture();
        register(&mut f, 300);
        let away = f.w.host_mut(f.away);
        let vif = away.add_iface(netsim::wire::ethernet::MacAddr::from_index(901));
        away.set_iface_addr(vif, Some(IfaceAddr::parse("171.64.15.9/32")));

        // Add a remote correspondent in a third domain.
        let chnet = f.w.add_segment(LinkConfig::lan());
        let ch = f.w.add_host(HostConfig::conventional("ch"));
        let r3 = f.w.add_router(RouterConfig::named("ch-gw"));
        // Bridge via the wan segment (SegmentId 1).
        f.w.attach(r3, netsim::SegmentId(1), Some("192.168.0.3/30"));
        f.w.attach(r3, chnet, Some("18.26.0.254/24"));
        f.w.attach(ch, chnet, Some("18.26.0.5/24"));
        f.w.compute_routes();

        // CH pings the mobile's home address twice in quick succession.
        f.w.host_do(ch, |h, ctx| {
            h.send_ping(ctx, ip("18.26.0.5"), ip("171.64.15.9"), 1);
            h.send_ping(ctx, ip("18.26.0.5"), ip("171.64.15.9"), 2);
        });
        f.w.run_until_idle(100_000);

        // CH received exactly one Mobile Host Redirect (rate limiting).
        let redirects: Vec<_> =
            f.w.host(ch)
                .icmp_log
                .iter()
                .filter(|e| matches!(e.message, IcmpMessage::MobileHostRedirect { .. }))
                .collect();
        assert_eq!(redirects.len(), 1);
        match redirects[0].message {
            IcmpMessage::MobileHostRedirect { home, care_of, .. } => {
                assert_eq!(home, ip("171.64.15.9"));
                assert_eq!(care_of, ip("36.186.0.99"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn deregistration_restores_normal_delivery() {
        let mut f = fixture();
        register(&mut f, 300);
        assert!(f.w.host(f.ha).intercepts(ip("171.64.15.9")));
        let reply = register(&mut f, 0); // lifetime 0 = deregister
        assert_eq!(reply.code, ReplyCode::Accepted);
        let ha = f.w.host_mut(f.ha);
        assert!(!ha.intercepts(ip("171.64.15.9")));
        let hook = ha.hook_as::<HomeAgent>().unwrap();
        assert!(hook.binding(ip("171.64.15.9")).is_none());
        assert_eq!(hook.stats.deregistrations, 1);
    }

    #[test]
    fn binding_expires_after_lifetime() {
        let mut f = fixture();
        register(&mut f, 5); // five seconds
        f.w.run_for(SimDuration::from_secs(6));
        // Next captured packet discovers the expiry.
        f.w.host_do(f.server, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.7"), ip("171.64.15.9"), 3)
        });
        f.w.run_until_idle(100_000);
        let hook = f.w.host_mut(f.ha).hook_as::<HomeAgent>().unwrap();
        assert!(hook.binding(ip("171.64.15.9")).is_none());
        assert_eq!(hook.stats.bindings_expired, 1);
        assert_eq!(hook.stats.packets_tunneled, 0);
    }

    #[test]
    fn reverse_tunnel_inner_packet_is_forwarded() {
        // The away host reverse-tunnels a UDP packet for the home server
        // via the HA (Out-IE by hand), demonstrating Figure 3.
        let mut f = fixture();
        register(&mut f, 300);
        let server_sock = udp::bind(f.w.host_mut(f.server), None, 5000);
        f.w.host_do(f.away, |h, ctx| {
            let inner_dgram = UdpDatagram::new(6000, 5000, Bytes::from_static(b"via tunnel"));
            let mut inner = Ipv4Packet::new(
                ip("171.64.15.9"), // home source inside the tunnel
                ip("171.64.15.7"),
                IpProtocol::Udp,
                Bytes::from(inner_dgram.emit(ip("171.64.15.9"), ip("171.64.15.7"))),
            );
            inner.ident = h.alloc_ident();
            let outer = encapsulate(
                EncapFormat::IpInIp,
                ip("36.186.0.99"),
                ip("171.64.15.1"),
                &inner,
                h.alloc_ident(),
            )
            .unwrap();
            h.send_ip(ctx, outer, TxMeta::default());
        });
        f.w.run_until_idle(100_000);
        let got = udp::recv(f.w.host_mut(f.server), server_sock).expect("delivered via HA");
        assert_eq!(got.payload, Bytes::from_static(b"via tunnel"));
        assert_eq!(
            got.from,
            (ip("171.64.15.9"), 6000),
            "inner source preserved"
        );
        // The HA re-sent the inner packet (Sent trace event at the HA node).
        let ha_id = f.ha;
        assert!(f.w.trace.events().iter().any(|e| e.node == ha_id
            && e.kind == TraceEventKind::Sent
            && e.packet.dst == ip("171.64.15.7")));
    }
}

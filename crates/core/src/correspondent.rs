//! Mobile-aware correspondent hosts.
//!
//! §5/§7.2: a correspondent that knows a mobile host's care-of address can
//! bypass the home agent — encapsulating packets itself and sending them
//! directly (In-DE, Figure 5), or, when the mobile is on the same segment,
//! delivering in a single link-layer hop (In-DH). This hook maintains the
//! **binding cache** that makes those choices, fed three ways:
//!
//! 1. ICMP Mobile Host Redirects from the home agent (§3.2, first
//!    mechanism);
//! 2. observation of tunnels arriving *from* the mobile host (a host that
//!    receives Out-DE traffic has just been told the binding — the \[Joh96\]
//!    optimization);
//! 3. explicit installation, e.g. from a DNS temporary-address lookup
//!    (§3.2, second mechanism; see [`crate::dns`]).

use netsim::hash::FxHashMap;
use std::any::Any;

use netsim::device::host::{EncapLayer, MobilityHook, RouteDecision};
use netsim::device::TxMeta;
use netsim::wire::encap::{encapsulate, EncapFormat};
use netsim::wire::icmp::IcmpMessage;
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use netsim::{Host, IfaceNo, NetCtx, NodeId, SimDuration, SimTime, TransformKind, World};

/// Where a cache entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingSource {
    /// ICMP Mobile Host Redirect from the home agent.
    Redirect,
    /// Outer source of a tunnel the mobile host sent us (Out-DE traffic).
    ObservedTunnel,
    /// DNS temporary-address record.
    Dns,
    /// Installed by the application/operator.
    Manual,
}

/// One binding-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChBinding {
    /// Where tunnelled packets should be sent.
    pub care_of: Ipv4Addr,
    /// When this entry stops being believed.
    pub expires: SimTime,
    /// How the entry was learned.
    pub source: BindingSource,
}

/// Correspondent-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChStats {
    /// Packets sent In-DE (tunnelled directly to the care-of address).
    pub sent_in_de: u64,
    /// Packets sent In-DH (single link-layer hop).
    pub sent_in_dh: u64,
    /// Packets sent the ordinary way (no binding available).
    pub sent_conventional: u64,
    /// Binding-cache entries installed.
    pub bindings_learned: u64,
    /// Bindings dropped because their lifetime ran out.
    pub bindings_expired: u64,
}

serde::impl_serialize!(ChStats {
    sent_in_de,
    sent_in_dh,
    sent_conventional,
    bindings_learned,
    bindings_expired
});

/// The mobile-aware correspondent hook.
pub struct MobileAwareCh {
    cache: FxHashMap<Ipv4Addr, ChBinding>,
    /// Tunnel format used when encapsulating.
    pub encap: EncapFormat,
    /// Learn bindings from arriving tunnels (mechanism 2). On by default;
    /// §6.1 cautions that automatic decapsulation trades away some firewall
    /// protection, so a paranoid host may disable learning.
    pub learn_from_tunnels: bool,
    /// Accept ICMP redirects (mechanism 1).
    pub accept_redirects: bool,
    /// Lifetime for observed/learned bindings without an explicit one.
    pub default_lifetime: SimDuration,
    /// Counters for experiments.
    pub stats: ChStats,
}

impl Default for MobileAwareCh {
    fn default() -> Self {
        MobileAwareCh::new()
    }
}

impl MobileAwareCh {
    /// A correspondent hook with default settings and an empty cache.
    pub fn new() -> MobileAwareCh {
        MobileAwareCh {
            cache: FxHashMap::default(),
            encap: EncapFormat::IpInIp,
            learn_from_tunnels: true,
            accept_redirects: true,
            default_lifetime: SimDuration::from_secs(300),
            stats: ChStats::default(),
        }
    }

    /// Install a mobile-aware correspondent hook on `node` (and enable the
    /// decapsulation its row-B role requires).
    pub fn install(world: &mut World, node: NodeId) {
        let host = world.host_mut(node);
        host.set_decap_capable(true);
        host.set_hook(Box::new(MobileAwareCh::new()));
    }

    /// Look up the cached binding for a mobile's home address.
    pub fn binding(&self, home: Ipv4Addr) -> Option<&ChBinding> {
        self.cache.get(&home)
    }

    /// Explicitly install a binding (DNS lookup result, operator action).
    pub fn set_binding(
        &mut self,
        home: Ipv4Addr,
        care_of: Ipv4Addr,
        expires: SimTime,
        source: BindingSource,
    ) {
        self.stats.bindings_learned += 1;
        self.cache.insert(
            home,
            ChBinding {
                care_of,
                expires,
                source,
            },
        );
    }

    /// Drop a cached binding (tests and operator action).
    pub fn clear_binding(&mut self, home: Ipv4Addr) {
        self.cache.remove(&home);
    }

    fn valid_binding(&mut self, home: Ipv4Addr, now: SimTime) -> Option<ChBinding> {
        match self.cache.get(&home).copied() {
            Some(b) if now <= b.expires => Some(b),
            Some(_) => {
                self.cache.remove(&home);
                self.stats.bindings_expired += 1;
                None
            }
            None => None,
        }
    }
}

impl MobilityHook for MobileAwareCh {
    fn route_outgoing(
        &mut self,
        pkt: Ipv4Packet,
        _meta: TxMeta,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> RouteDecision {
        let Some(binding) = self.valid_binding(pkt.dst, ctx.now) else {
            self.stats.sent_conventional += 1;
            return RouteDecision::Continue(pkt);
        };

        // Row C: if the care-of address is on one of our own links, deliver
        // in a single link-layer hop with the IP destination untouched
        // (In-DH): "the IP packet need not pass through any Internet
        // routers at all" (§5).
        for iface in 0..host.nic().iface_count() {
            if let Some(a) = host.nic().addr(iface) {
                if a.prefix.contains(binding.care_of) && host.nic().segment(iface).is_some() {
                    self.stats.sent_in_dh += 1;
                    return RouteDecision::OnLink {
                        iface,
                        next_hop: binding.care_of,
                        pkt,
                    };
                }
            }
        }

        // Row B: encapsulate ourselves and send directly (In-DE, Figure 5).
        let ident = host.alloc_ident();
        match encapsulate(self.encap, pkt.src, binding.care_of, &pkt, ident) {
            Some(mut outer) => {
                outer.ttl = netsim::wire::ipv4::DEFAULT_TTL;
                ctx.trace_transform(TransformKind::Encapsulated(self.encap), Some(&pkt), &outer);
                self.stats.sent_in_de += 1;
                RouteDecision::Continue(outer)
            }
            None => {
                self.stats.sent_conventional += 1;
                RouteDecision::Continue(pkt)
            }
        }
    }

    fn incoming(
        &mut self,
        pkt: Ipv4Packet,
        layers: &[EncapLayer],
        _iface: IfaceNo,
        _host: &mut Host,
        ctx: &mut NetCtx,
    ) -> Option<Ipv4Packet> {
        // Mechanism 1: ICMP Mobile Host Redirect.
        if self.accept_redirects && pkt.protocol == IpProtocol::Icmp {
            if let Ok(IcmpMessage::MobileHostRedirect {
                home,
                care_of,
                lifetime_secs,
            }) = IcmpMessage::parse_bytes(&pkt.payload)
            {
                self.set_binding(
                    home,
                    care_of,
                    ctx.now + SimDuration::from_secs(u64::from(lifetime_secs)),
                    BindingSource::Redirect,
                );
                return None; // consumed
            }
        }

        // Mechanism 2: observe tunnels from the mobile host. The outermost
        // layer's source is the care-of address; the inner source is the
        // home address.
        if self.learn_from_tunnels {
            if let Some(outer) = layers.first() {
                if outer.outer_src != pkt.src && !pkt.src.is_unspecified() {
                    let care_of = outer.outer_src;
                    let home = pkt.src;
                    let expires = ctx.now + self.default_lifetime;
                    // Refresh without inflating the learned counter.
                    if self.cache.get(&home).map(|b| b.care_of) != Some(care_of) {
                        self.set_binding(home, care_of, expires, BindingSource::ObservedTunnel);
                    } else if let Some(b) = self.cache.get_mut(&home) {
                        b.expires = expires;
                    }
                }
            }
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
    use crate::home_agent::{HomeAgent, HomeAgentConfig};
    use crate::mobile_host::{move_to, Attachment, MobileHost, MobileHostConfig};
    use crate::modes::OutMode;
    use crate::policy::PolicyConfig;
    use netsim::wire::icmp::IcmpMessage;
    use netsim::{HostConfig, LinkConfig, RouterConfig, SegmentId};
    use transport::apps::{KeystrokeSession, TcpEchoServer};
    use transport::{tcp, udp};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    struct Net {
        w: World,
        visited: SegmentId,
        mh: NodeId,
        ch: NodeId,
    }

    /// home — backbone — visited, CH in its own domain; HA sends redirects.
    fn build() -> Net {
        let mut w = World::new(31);
        let home = w.add_segment(LinkConfig::lan());
        let visited = w.add_segment(LinkConfig::lan());
        let ch_seg = w.add_segment(LinkConfig::lan());
        let backbone = w.add_segment(LinkConfig::wan(25));

        let ha = w.add_host(HostConfig::agent("ha"));
        let mh = w.add_host(HostConfig::conventional("mh"));
        let ch = w.add_host(HostConfig::conventional("ch"));
        let rh = w.add_router(RouterConfig::named("rh"));
        let rv = w.add_router(RouterConfig::named("rv"));
        let rc = w.add_router(RouterConfig::named("rc"));

        let ha_if = w.attach(ha, home, Some("171.64.15.1/24"));
        w.attach(mh, home, Some("171.64.15.9/24"));
        w.attach(ch, ch_seg, Some("18.26.0.5/24"));
        w.attach(rh, home, Some("171.64.15.254/24"));
        w.attach(rh, backbone, Some("192.168.0.1/24"));
        w.attach(rv, visited, Some("36.186.0.254/24"));
        w.attach(rv, backbone, Some("192.168.0.2/24"));
        w.attach(rc, ch_seg, Some("18.26.0.254/24"));
        w.attach(rc, backbone, Some("192.168.0.3/24"));
        w.compute_routes();

        HomeAgent::install(
            &mut w,
            ha,
            HomeAgentConfig::new(ip("171.64.15.1"), "171.64.15.0/24".parse().unwrap(), ha_if)
                .with_redirects(),
        );
        MobileHost::install(
            &mut w,
            mh,
            MobileHostConfig::new("171.64.15.9/24", ip("171.64.15.1"))
                .with_policy(PolicyConfig::fixed(OutMode::DH).without_dt_ports()),
        );
        MobileAwareCh::install(&mut w, ch);
        for n in [mh, ch] {
            udp::install(w.host_mut(n));
            tcp::install(w.host_mut(n));
        }
        Net { w, visited, mh, ch }
    }

    #[test]
    fn redirect_populates_binding_cache_and_enables_in_de() {
        let mut net = build();
        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(2));

        // First packet goes conventionally (via HA), which triggers the
        // redirect (Figure 5's learning step).
        net.w.host_do(net.ch, |h, ctx| {
            h.send_ping(ctx, ip("18.26.0.5"), ip("171.64.15.9"), 1)
        });
        net.w.run_for(SimDuration::from_secs(2));
        {
            let hook = net.w.host_mut(net.ch).hook_as::<MobileAwareCh>().unwrap();
            let b = hook.binding(ip("171.64.15.9")).expect("binding learned");
            assert_eq!(b.care_of, ip("36.186.0.99"));
            assert_eq!(b.source, BindingSource::Redirect);
            assert_eq!(hook.stats.sent_conventional, 1);
        }

        // Second packet is tunnelled directly by the CH (In-DE): it never
        // appears on the home segment.
        net.w.trace.clear();
        net.w.host_do(net.ch, |h, ctx| {
            h.send_ping(ctx, ip("18.26.0.5"), ip("171.64.15.9"), 2)
        });
        net.w.run_for(SimDuration::from_secs(2));
        let hook = net.w.host_mut(net.ch).hook_as::<MobileAwareCh>().unwrap();
        assert_eq!(hook.stats.sent_in_de, 1);
        // The request traveled as a CH-sourced tunnel...
        assert!(net.w.trace.events().iter().any(|e| {
            let s = &e.packet;
            s.protocol == IpProtocol::IpInIp
                && s.src == ip("18.26.0.5")
                && s.dst == ip("36.186.0.99")
        }));
        // ...and the mobile host saw In-DE.
        let mh_hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(mh_hook.stats.recv_in_de >= 1);
        // The reply reached CH (Out-DH allowed in this unfiltered world).
        assert!(net
            .w
            .host(net.ch)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 2, .. })));
    }

    #[test]
    fn tunnel_observation_learns_binding_without_redirects() {
        let mut net = build();
        // Disable redirects at the CH; it must learn from Out-DE tunnels.
        net.w
            .host_mut(net.ch)
            .hook_as::<MobileAwareCh>()
            .unwrap()
            .accept_redirects = false;
        // MH uses Out-DE toward this CH.
        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .policy_mut()
            .set_config(PolicyConfig::fixed(OutMode::DE).without_dt_ports());

        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(2));

        // MH pings CH with Out-DE; CH decapsulates and learns the binding.
        net.w.host_do(net.mh, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.9"), ip("18.26.0.5"), 5)
        });
        net.w.run_for(SimDuration::from_secs(2));
        let hook = net.w.host_mut(net.ch).hook_as::<MobileAwareCh>().unwrap();
        let b = hook
            .binding(ip("171.64.15.9"))
            .expect("learned from tunnel");
        assert_eq!(b.care_of, ip("36.186.0.99"));
        assert_eq!(b.source, BindingSource::ObservedTunnel);
        // The echo *reply* from CH already went In-DE, directly.
        assert_eq!(hook.stats.sent_in_de, 1);
        let mh_hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(mh_hook.stats.recv_in_de >= 1);
    }

    #[test]
    fn in_de_out_de_tcp_conversation_avoids_home_agent_entirely() {
        let mut net = build();
        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .policy_mut()
            .set_config(PolicyConfig::fixed(OutMode::DE).without_dt_ports());
        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(2));

        net.w
            .host_mut(net.ch)
            .add_app(Box::new(TcpEchoServer::new(23)));
        net.w.poll_soon(net.ch);
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(KeystrokeSession::new(
                (ip("18.26.0.5"), 23),
                SimDuration::from_millis(100),
                10,
            )));
        net.w.poll_soon(net.mh);
        net.w.trace.clear();
        net.w.run_for(SimDuration::from_secs(10));

        let sess = net
            .w
            .host_mut(net.mh)
            .app_as::<KeystrokeSession>(app)
            .unwrap();
        assert!(
            sess.all_echoed(),
            "typed {} echoed {}",
            sess.typed(),
            sess.echoed
        );
        // After the CH learns the binding (first segment), no TCP-carrying
        // packet crosses the home segment: nothing in the trace is
        // delivered at or forwarded by the home agent node (node 0).
        let ha_involvement = net.w.trace.events().iter().filter(|e| {
            e.node == netsim::NodeId(0)
                && matches!(
                    e.kind,
                    netsim::TraceEventKind::Forwarded | netsim::TraceEventKind::Sent
                )
                && e.packet
                    .inner
                    .map(|(_, _, p)| p == IpProtocol::Tcp)
                    .unwrap_or(e.packet.protocol == IpProtocol::Tcp)
        });
        // The very first SYN may arrive before the CH has learned the
        // binding (it goes via the HA); everything after is direct.
        assert!(
            ha_involvement.count() <= 2,
            "home agent stayed in the TCP path"
        );
    }

    #[test]
    fn same_segment_binding_gives_single_hop_in_dh() {
        let mut net = build();
        // Put a mobile-aware CH on the visited segment itself.
        let local_ch = net.w.add_host(HostConfig::conventional("local-ch"));
        net.w.attach(local_ch, net.visited, Some("36.186.0.5/24"));
        net.w.compute_routes();
        MobileAwareCh::install(&mut net.w, local_ch);
        udp::install(net.w.host_mut(local_ch));

        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(2));
        // Manually install the binding (e.g. from DNS).
        let far_future = net.w.now() + SimDuration::from_secs(600);
        net.w
            .host_mut(local_ch)
            .hook_as::<MobileAwareCh>()
            .unwrap()
            .set_binding(
                ip("171.64.15.9"),
                ip("36.186.0.99"),
                far_future,
                BindingSource::Dns,
            );

        net.w.trace.clear();
        net.w.host_do(local_ch, |h, ctx| {
            h.send_ping(ctx, ip("36.186.0.5"), ip("171.64.15.9"), 3)
        });
        net.w.run_for(SimDuration::from_secs(1));

        // Request: exactly one wire traversal, no encapsulation, IP dst is
        // the home address (In-DH as drawn in Figure 8).
        let request = |e: &netsim::TraceEvent| {
            e.kind.is_wire()
                && e.packet.dst == ip("171.64.15.9")
                && e.packet.protocol == IpProtocol::Icmp
        };
        assert_eq!(net.w.trace.events().iter().filter(request).count(), 1);
        let hook = net.w.host_mut(local_ch).hook_as::<MobileAwareCh>().unwrap();
        assert_eq!(hook.stats.sent_in_dh, 1);
        assert_eq!(hook.stats.sent_in_de, 0);
        // MH recorded In-DH and replied; reply received.
        let mh_hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(mh_hook.stats.recv_in_dh >= 1);
        assert!(net
            .w
            .host(local_ch)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 3, .. })));
    }

    #[test]
    fn expired_binding_falls_back_to_conventional() {
        let mut net = build();
        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(2));
        let soon = net.w.now() + SimDuration::from_secs(1);
        net.w
            .host_mut(net.ch)
            .hook_as::<MobileAwareCh>()
            .unwrap()
            .set_binding(
                ip("171.64.15.9"),
                ip("36.186.0.99"),
                soon,
                BindingSource::Manual,
            );
        net.w.run_for(SimDuration::from_secs(5));
        // Binding now expired: next send is conventional and purges it.
        net.w.host_do(net.ch, |h, ctx| {
            h.send_ping(ctx, ip("18.26.0.5"), ip("171.64.15.9"), 4)
        });
        net.w.run_for(SimDuration::from_secs(2));
        let hook = net.w.host_mut(net.ch).hook_as::<MobileAwareCh>().unwrap();
        assert_eq!(hook.stats.bindings_expired, 1);
        assert!(hook.stats.sent_conventional >= 1);
    }
}

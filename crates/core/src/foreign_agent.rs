//! The optional IETF foreign agent.
//!
//! §2: "When connecting via a foreign agent, the home agent tunnels packets
//! to this foreign agent, which decapsulates them and delivers the enclosed
//! packet to the mobile host" — over the final link-layer hop, which is the
//! In-DH delivery technique (§5: "this delivery technique is already used
//! when a mobile host operates using a separate foreign agent").
//!
//! The paper's own stack deliberately avoids foreign agents ("It is
//! impractical for mobile hosts to assume that foreign agent services will
//! be available everywhere… they also restrict the freedom of the mobile
//! host to choose from the full range of possible optimizations"). The
//! module exists so that restriction can be *measured*: a mobile host in
//! FA mode (see [`crate::mobile_host::Attachment::ForeignAgent`]) has only
//! Out-DH available, and experiment E9's ablation compares the two
//! deployments.

use netsim::hash::FxHashMap;
use std::any::Any;

use bytes::Bytes;

use netsim::device::host::{EncapLayer, MobilityHook};
use netsim::device::nic::NextHop;
use netsim::device::TxMeta;
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use netsim::wire::udp::UdpDatagram;
use netsim::{
    Host, IfaceNo, NetCtx, NodeId, SimDuration, SimTime, TraceEventKind, TransformKind, World,
};
use transport::udp;

use crate::registration::{RegistrationReply, RegistrationRequest, REGISTRATION_PORT};

/// UDP port for foreign-agent advertisements (the real protocol piggybacks
/// on ICMP router advertisements; a dedicated port keeps the simulation
/// honest about the information carried).
pub const FA_ADVERTISEMENT_PORT: u16 = 435;

/// Foreign-agent counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaStats {
    /// Registration requests relayed toward home agents.
    pub requests_relayed: u64,
    /// Registration replies relayed back to mobiles.
    pub replies_relayed: u64,
    /// Tunnelled packets delivered over the final hop.
    pub packets_delivered: u64,
    /// Agent advertisements broadcast.
    pub advertisements_sent: u64,
}

serde::impl_serialize!(FaStats {
    requests_relayed,
    replies_relayed,
    packets_delivered,
    advertisements_sent
});

/// Foreign-agent configuration.
#[derive(Debug, Clone)]
pub struct ForeignAgentConfig {
    /// The agent's address — the care-of address its visitors share.
    pub addr: Ipv4Addr,
    /// Interface on the visited segment (for final-hop delivery).
    pub visited_iface: IfaceNo,
    /// Broadcast advertisements this often (`None` = quiet).
    pub advertise_every: Option<SimDuration>,
}

/// The foreign-agent mobility hook.
pub struct ForeignAgent {
    config: ForeignAgentConfig,
    /// Registered visitors: home address → binding expiry.
    visitors: FxHashMap<Ipv4Addr, SimTime>,
    /// Outstanding relayed registrations: ident → home address.
    pending: FxHashMap<u64, Ipv4Addr>,
    /// Counters for experiments.
    pub stats: FaStats,
}

const TIMER_ADVERTISE: u64 = 100;

impl ForeignAgent {
    /// A foreign-agent hook with no visitors yet.
    pub fn new(config: ForeignAgentConfig) -> ForeignAgent {
        ForeignAgent {
            config,
            visitors: FxHashMap::default(),
            pending: FxHashMap::default(),
            stats: FaStats::default(),
        }
    }

    /// Install a foreign agent on `node` and start its advertisements.
    pub fn install(world: &mut World, node: NodeId, config: ForeignAgentConfig) {
        let advertise = config.advertise_every;
        let host = world.host_mut(node);
        host.set_decap_capable(true);
        host.set_hook(Box::new(ForeignAgent::new(config)));
        if advertise.is_some() {
            world.host_do(node, |h, ctx| {
                h.request_hook_timer(ctx, SimDuration::ZERO, TIMER_ADVERTISE)
            });
        }
    }

    /// Is this home address registered through us?
    pub fn is_visiting(&self, home: Ipv4Addr) -> bool {
        self.visitors.contains_key(&home)
    }

    /// Deliver `pkt` to the visiting mobile in one link-layer hop: the IP
    /// destination stays the home address; ARP resolves it on the segment
    /// (the mobile answers for its own home address).
    fn deliver_final_hop(&mut self, pkt: Ipv4Packet, host: &mut Host, ctx: &mut NetCtx) {
        let home = pkt.dst;
        self.stats.packets_delivered += 1;
        ctx.trace_transform(TransformKind::Relayed, Some(&pkt), &pkt);
        host.nic_mut().send_ip(
            ctx,
            self.config.visited_iface,
            NextHop::Unicast(home),
            pkt,
            TraceEventKind::Forwarded,
        );
    }

    fn handle_registration_traffic(
        &mut self,
        pkt: &Ipv4Packet,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> bool {
        let Ok(dgram) = UdpDatagram::parse_bytes(&pkt.payload, pkt.src, pkt.dst) else {
            return false;
        };
        if dgram.dst_port != REGISTRATION_PORT {
            return false;
        }
        if let Ok(req) = RegistrationRequest::parse(&dgram.payload) {
            // Relay toward the home agent, forcing our address as care-of.
            let relayed = RegistrationRequest {
                care_of: self.config.addr,
                ..req
            };
            self.pending.insert(req.ident, req.home_address);
            let out_dgram = UdpDatagram::new(
                REGISTRATION_PORT,
                REGISTRATION_PORT,
                Bytes::from(relayed.emit()),
            );
            let mut out = Ipv4Packet::new(
                self.config.addr,
                req.home_agent,
                IpProtocol::Udp,
                out_dgram.emit(self.config.addr, req.home_agent),
            );
            out.ident = host.alloc_ident();
            self.stats.requests_relayed += 1;
            host.send_ip(
                ctx,
                out,
                TxMeta {
                    skip_override: true,
                    ..TxMeta::default()
                },
            );
            return true;
        }
        if let Ok(reply) = RegistrationReply::parse(&dgram.payload) {
            let Some(home) = self.pending.remove(&reply.ident) else {
                return true; // unsolicited; swallow
            };
            if reply.code == crate::registration::ReplyCode::Accepted {
                if reply.lifetime > 0 {
                    self.visitors.insert(
                        home,
                        ctx.now + SimDuration::from_secs(u64::from(reply.lifetime)),
                    );
                } else {
                    self.visitors.remove(&home);
                }
            }
            // Relay the reply to the mobile over the final hop, sourced
            // from our own address (we are the agent it talked to).
            let out_dgram = UdpDatagram::new(
                REGISTRATION_PORT,
                REGISTRATION_PORT,
                Bytes::from(reply.emit()),
            );
            let mut out = Ipv4Packet::new(
                self.config.addr,
                home,
                IpProtocol::Udp,
                out_dgram.emit(self.config.addr, home),
            );
            out.ident = host.alloc_ident();
            self.stats.replies_relayed += 1;
            self.deliver_final_hop(out, host, ctx);
            return true;
        }
        true // ours (port 434) but unparseable; swallow
    }
}

impl MobilityHook for ForeignAgent {
    fn incoming(
        &mut self,
        pkt: Ipv4Packet,
        layers: &[EncapLayer],
        _iface: IfaceNo,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> Option<Ipv4Packet> {
        // Registration relay traffic addressed to us.
        if pkt.dst == self.config.addr
            && pkt.protocol == IpProtocol::Udp
            && self.handle_registration_traffic(&pkt, host, ctx)
        {
            return None;
        }
        // A tunnelled packet whose inner destination is one of our
        // visitors: decapsulation already happened in the host stack;
        // deliver the final hop.
        if !layers.is_empty() {
            if let Some(&expires) = self.visitors.get(&pkt.dst) {
                if ctx.now <= expires {
                    self.deliver_final_hop(pkt, host, ctx);
                } else {
                    self.visitors.remove(&pkt.dst);
                }
                return None;
            }
        }
        Some(pkt)
    }

    fn on_timer(&mut self, payload: u64, host: &mut Host, ctx: &mut NetCtx) {
        if payload != TIMER_ADVERTISE {
            return;
        }
        let Some(every) = self.config.advertise_every else {
            return;
        };
        let mut ad = Vec::with_capacity(4);
        ad.extend_from_slice(&self.config.addr.octets());
        let dgram = UdpDatagram::new(
            FA_ADVERTISEMENT_PORT,
            FA_ADVERTISEMENT_PORT,
            Bytes::from(ad),
        );
        let mut pkt = Ipv4Packet::new(
            self.config.addr,
            Ipv4Addr::BROADCAST,
            IpProtocol::Udp,
            dgram.emit(self.config.addr, Ipv4Addr::BROADCAST),
        );
        pkt.ident = host.alloc_ident();
        pkt.ttl = 1;
        self.stats.advertisements_sent += 1;
        host.send_ip(
            ctx,
            pkt,
            TxMeta {
                skip_override: true,
                iface: Some(self.config.visited_iface),
                ..TxMeta::default()
            },
        );
        host.request_hook_timer(ctx, every, TIMER_ADVERTISE);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Parse an advertisement payload (used by discovery-capable mobiles and
/// tests).
pub fn parse_advertisement(payload: &[u8]) -> Option<Ipv4Addr> {
    if payload.len() < 4 {
        return None;
    }
    Some(Ipv4Addr::from_octets([
        payload[0], payload[1], payload[2], payload[3],
    ]))
}

/// Listen for one foreign-agent advertisement on a host (returns via the
/// app's `discovered` field).
pub struct FaDiscovery {
    sock: Option<udp::UdpHandle>,
    /// The advertised agent address, once heard.
    pub discovered: Option<Ipv4Addr>,
}

impl FaDiscovery {
    /// A listener that waits for the first advertisement.
    pub fn new() -> FaDiscovery {
        FaDiscovery {
            sock: None,
            discovered: None,
        }
    }
}

impl Default for FaDiscovery {
    fn default() -> Self {
        FaDiscovery::new()
    }
}

impl netsim::App for FaDiscovery {
    fn poll(&mut self, host: &mut Host, _ctx: &mut NetCtx) {
        let sock = *self
            .sock
            .get_or_insert_with(|| udp::bind(host, None, FA_ADVERTISEMENT_PORT));
        while let Some(got) = udp::recv(host, sock) {
            if let Some(addr) = parse_advertisement(&got.payload) {
                self.discovered = Some(addr);
            }
        }
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
    use netsim::wire::icmp::IcmpMessage;
    use netsim::{HostConfig, LinkConfig, RouterConfig, SegmentId};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    struct Net {
        w: World,
        visited: SegmentId,
        mh: NodeId,
        fa: NodeId,
        ch: NodeId,
        ha: NodeId,
    }

    fn build() -> Net {
        let mut w = World::new(61);
        let home = w.add_segment(LinkConfig::lan());
        let visited = w.add_segment(LinkConfig::lan());
        let backbone = w.add_segment(LinkConfig::wan(10));
        let ha = w.add_host(HostConfig::agent("ha"));
        let mh = w.add_host(HostConfig::conventional("mh"));
        let fa = w.add_host(HostConfig::conventional("fa"));
        let ch = w.add_host(HostConfig::conventional("ch"));
        let rh = w.add_router(RouterConfig::named("rh"));
        let rv = w.add_router(RouterConfig::named("rv"));
        let ha_if = w.attach(ha, home, Some("171.64.15.1/24"));
        w.attach(mh, home, Some("171.64.15.9/24"));
        let fa_if = w.attach(fa, visited, Some("36.186.0.10/24"));
        w.attach(ch, home, Some("171.64.15.7/24"));
        w.attach(rh, home, Some("171.64.15.254/24"));
        w.attach(rh, backbone, Some("192.168.0.1/30"));
        w.attach(rv, backbone, Some("192.168.0.2/30"));
        w.attach(rv, visited, Some("36.186.0.254/24"));
        w.compute_routes();
        HomeAgent::install(
            &mut w,
            ha,
            HomeAgentConfig::new(ip("171.64.15.1"), "171.64.15.0/24".parse().unwrap(), ha_if),
        );
        ForeignAgent::install(
            &mut w,
            fa,
            ForeignAgentConfig {
                addr: ip("36.186.0.10"),
                visited_iface: fa_if,
                advertise_every: Some(SimDuration::from_secs(1)),
            },
        );
        MobileHost::install(
            &mut w,
            mh,
            MobileHostConfig::new("171.64.15.9/24", ip("171.64.15.1")),
        );
        udp::install(w.host_mut(mh));
        udp::install(w.host_mut(ch));
        udp::install(w.host_mut(fa));
        Net {
            w,
            visited,
            mh,
            fa,
            ch,
            ha,
        }
    }

    #[test]
    fn registration_relays_through_foreign_agent() {
        let mut net = build();
        let fa = Attachment::ForeignAgent {
            agent: ip("36.186.0.10"),
            gateway: ip("36.186.0.254"),
        };
        move_to(&mut net.w, net.mh, net.visited, fa);
        net.w.run_for(SimDuration::from_secs(3));
        let mh_hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(mh_hook.is_registered(), "registered via FA relay");
        let fa_hook = net.w.host_mut(net.fa).hook_as::<ForeignAgent>().unwrap();
        assert!(fa_hook.is_visiting(ip("171.64.15.9")));
        assert_eq!(fa_hook.stats.requests_relayed, 1);
        assert_eq!(fa_hook.stats.replies_relayed, 1);
        // HA recorded the FA's address as the care-of address.
        let ha_hook = net.w.host_mut(net.ha).hook_as::<HomeAgent>().unwrap();
        assert_eq!(
            ha_hook.binding(ip("171.64.15.9")).unwrap().care_of,
            ip("36.186.0.10")
        );
    }

    #[test]
    fn traffic_flows_home_agent_to_foreign_agent_to_mobile() {
        let mut net = build();
        let fa = Attachment::ForeignAgent {
            agent: ip("36.186.0.10"),
            gateway: ip("36.186.0.254"),
        };
        move_to(&mut net.w, net.mh, net.visited, fa);
        net.w.run_for(SimDuration::from_secs(3));
        // CH (home segment) pings the mobile's home address.
        net.w.host_do(net.ch, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.7"), ip("171.64.15.9"), 1)
        });
        net.w.run_for(SimDuration::from_secs(3));
        assert!(net
            .w
            .host(net.ch)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 1, .. })));
        // The tunnel ran HA→FA (outer dst = FA's address)...
        assert!(net
            .w
            .trace
            .events()
            .iter()
            .any(|e| e.packet.protocol == IpProtocol::IpInIp && e.packet.dst == ip("36.186.0.10")));
        // ...and the final hop was delivered by the FA.
        let fa_hook = net.w.host_mut(net.fa).hook_as::<ForeignAgent>().unwrap();
        assert!(fa_hook.stats.packets_delivered >= 1);
        // The mobile saw it as In-DH (plain packet to its home address).
        let mh_hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(mh_hook.stats.recv_in_dh >= 1);
        // And replied with the only mode it has: Out-DH.
        assert!(mh_hook.stats.sent_out_dh >= 1);
        assert_eq!(mh_hook.stats.sent_out_ie, 0);
        assert_eq!(mh_hook.stats.sent_out_de, 0);
    }

    #[test]
    fn advertisements_are_heard_on_the_segment() {
        let mut net = build();
        // A listener host on the visited segment discovers the FA.
        let listener = net.w.add_host(HostConfig::conventional("listener"));
        net.w.attach(listener, net.visited, Some("36.186.0.77/24"));
        udp::install(net.w.host_mut(listener));
        let app = net
            .w
            .host_mut(listener)
            .add_app(Box::new(FaDiscovery::new()));
        net.w.poll_soon(listener);
        net.w.run_for(SimDuration::from_secs(3));
        let disc = net.w.host_mut(listener).app_as::<FaDiscovery>(app).unwrap();
        assert_eq!(disc.discovered, Some(ip("36.186.0.10")));
        let fa_hook = net.w.host_mut(net.fa).hook_as::<ForeignAgent>().unwrap();
        assert!(fa_hook.stats.advertisements_sent >= 2);
    }

    #[test]
    fn advertisement_parsing() {
        assert_eq!(
            parse_advertisement(&[36, 186, 0, 10]),
            Some(ip("36.186.0.10"))
        );
        assert_eq!(parse_advertisement(&[1, 2]), None);
    }
}

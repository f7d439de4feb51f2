//! IP multicast and the mobile host (§6.4).
//!
//! "One of the goals of IP multicast is to reduce unnecessary replication
//! of network traffic. Tunneling multicast packets from the home network to
//! the visited network is therefore a little self-defeating. It would be
//! better if the multicast application were able to join the multicast
//! group through its real physical interface on the current local network,
//! rather than through its virtual interface on its distant home network."
//!
//! Two ways for an away mobile to receive a group:
//!
//! * [`join_via_home_agent`] — the home agent joins on the home segment and
//!   tunnels every group packet to the care-of address (unicast, across the
//!   whole backbone, once per subscribed mobile);
//! * [`join_local`] — the mobile joins on its current physical interface
//!   and receives the group natively where it is.
//!
//! Experiment E12 measures the backbone bytes each approach costs.

use std::any::Any;

use netsim::hash::FxHashSet;
use netsim::{App, Host, IfaceNo, Ipv4Addr, NetCtx, NodeId, SimDuration, SimTime, World};
use transport::udp;

use crate::home_agent::HomeAgent;

/// A periodic multicast sender (an MBone-session-like source), run as an
/// [`App`].
pub struct MulticastSource {
    /// The multicast group (class-D address).
    pub group: Ipv4Addr,
    /// UDP port to listen on.
    pub port: u16,
    /// Gap between transmissions.
    pub interval: SimDuration,
    /// Packets to send in total.
    pub count: u32,
    /// Bytes per datagram.
    pub payload_len: usize,
    sock: Option<udp::UdpHandle>,
    sent: u32,
    next_at: SimTime,
}

impl MulticastSource {
    /// A source sending `count` datagrams to `group` every `interval`.
    pub fn new(group: Ipv4Addr, port: u16, interval: SimDuration, count: u32) -> MulticastSource {
        assert!(group.is_multicast());
        MulticastSource {
            group,
            port,
            interval,
            count,
            payload_len: 512,
            sock: None,
            sent: 0,
            next_at: SimTime::ZERO,
        }
    }

    /// Delay the first transmission until `at`.
    pub fn starting_at(mut self, at: SimTime) -> MulticastSource {
        self.next_at = at;
        self
    }
}

impl App for MulticastSource {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        if self.sent >= self.count {
            return;
        }
        let sock = *self.sock.get_or_insert_with(|| udp::bind(host, None, 0));
        if ctx.now >= self.next_at {
            let mut payload = vec![0u8; self.payload_len];
            payload[..4].copy_from_slice(&self.sent.to_be_bytes());
            udp::send_to(host, ctx, sock, (self.group, self.port), payload);
            self.sent += 1;
            self.next_at = ctx.now + self.interval;
        }
        if self.sent < self.count {
            host.request_wakeup(ctx, self.interval);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts group datagrams received (however they arrived — natively or via
/// a home-agent tunnel), run as an [`App`].
pub struct MulticastListener {
    /// UDP port to listen on.
    pub port: u16,
    sock: Option<udp::UdpHandle>,
    /// Group datagrams delivered to the listener.
    pub received: u64,
    /// Distinct sequence numbers seen (deduplicates tunnel copies).
    pub distinct: FxHashSet<u32>,
}

impl MulticastListener {
    /// A listener counting group datagrams on `port`.
    pub fn new(port: u16) -> MulticastListener {
        MulticastListener {
            port,
            sock: None,
            received: 0,
            distinct: FxHashSet::default(),
        }
    }
}

impl App for MulticastListener {
    fn poll(&mut self, host: &mut Host, _ctx: &mut NetCtx) {
        let sock = *self
            .sock
            .get_or_insert_with(|| udp::bind(host, None, self.port));
        while let Some(got) = udp::recv(host, sock) {
            self.received += 1;
            if got.payload.len() >= 4 {
                self.distinct
                    .insert(u32::from_be_bytes(got.payload[..4].try_into().unwrap()));
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Join `group` on a host's physical interface — the §6.4 recommendation.
pub fn join_local(world: &mut World, node: NodeId, iface: IfaceNo, group: Ipv4Addr) {
    world.host_mut(node).join_multicast(iface, group);
}

/// Join `group` "through the virtual interface on the distant home
/// network": the home agent (at `ha_node`, home interface `ha_iface`) joins
/// on the home segment and tunnels the traffic to the mobile registered
/// with home address `home`.
pub fn join_via_home_agent(
    world: &mut World,
    ha_node: NodeId,
    ha_iface: IfaceNo,
    group: Ipv4Addr,
    home: Ipv4Addr,
) {
    let host = world.host_mut(ha_node);
    host.join_multicast(ha_iface, group);
    host.hook_as::<HomeAgent>()
        .expect("home agent installed")
        .subscribe_multicast(group, home);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home_agent::HomeAgentConfig;
    use crate::mobile_host::{move_to, Attachment, MobileHost, MobileHostConfig};
    use netsim::{HostConfig, LinkConfig, RouterConfig, SegmentId};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    const GROUP: &str = "224.2.0.1";
    const PORT: u16 = 9875;

    struct Net {
        w: World,
        visited: SegmentId,
        backbone: SegmentId,
        mh: NodeId,
        ha: NodeId,
        ha_if: IfaceNo,
    }

    /// Sources on both the home and the visited segment (an MBone-like
    /// session present in both places).
    fn build() -> Net {
        let mut w = World::new(71);
        let home = w.add_segment(LinkConfig::lan());
        let visited = w.add_segment(LinkConfig::lan());
        let backbone = w.add_segment(LinkConfig::wan(20));
        let ha = w.add_host(HostConfig::agent("ha"));
        let mh = w.add_host(HostConfig::conventional("mh"));
        let src_home = w.add_host(HostConfig::conventional("src-home"));
        let src_visited = w.add_host(HostConfig::conventional("src-visited"));
        let rh = w.add_router(RouterConfig::named("rh"));
        let rv = w.add_router(RouterConfig::named("rv"));
        let ha_if = w.attach(ha, home, Some("171.64.15.1/24"));
        w.attach(mh, home, Some("171.64.15.9/24"));
        w.attach(src_home, home, Some("171.64.15.8/24"));
        w.attach(src_visited, visited, Some("36.186.0.8/24"));
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
        MobileHost::install(
            &mut w,
            mh,
            MobileHostConfig::new("171.64.15.9/24", ip("171.64.15.1")),
        );
        for n in [ha, mh, src_home, src_visited] {
            udp::install(w.host_mut(n));
        }
        // Both sources emit 10 packets of the same session, starting after
        // the mobile has settled (t = 3 s).
        let start = SimTime::ZERO + SimDuration::from_secs(3);
        w.host_mut(src_home).add_app(Box::new(
            MulticastSource::new(ip(GROUP), PORT, SimDuration::from_millis(500), 10)
                .starting_at(start),
        ));
        w.host_mut(src_visited).add_app(Box::new(
            MulticastSource::new(ip(GROUP), PORT, SimDuration::from_millis(500), 10)
                .starting_at(start),
        ));
        w.poll_soon(src_home);
        w.poll_soon(src_visited);
        Net {
            w,
            visited,
            backbone,
            mh,
            ha,
            ha_if,
        }
    }

    #[test]
    fn tunneled_join_delivers_but_crosses_the_backbone() {
        let mut net = build();
        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(1));
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(MulticastListener::new(PORT)));
        join_via_home_agent(&mut net.w, net.ha, net.ha_if, ip(GROUP), ip("171.64.15.9"));
        net.w.poll_soon(net.mh);
        let backbone_before = net.w.segment_stats(net.backbone).bytes;
        net.w.run_for(SimDuration::from_secs(10));
        let listener = net
            .w
            .host_mut(net.mh)
            .app_as::<MulticastListener>(app)
            .unwrap();
        assert_eq!(listener.received, 10, "got every home-segment packet");
        let backbone_bytes = net.w.segment_stats(net.backbone).bytes - backbone_before;
        // Each ~550-byte packet crossed the backbone inside a tunnel.
        assert!(
            backbone_bytes > 10 * 500,
            "tunnelled multicast must burden the backbone (got {backbone_bytes})"
        );
    }

    #[test]
    fn local_join_delivers_with_zero_backbone_cost() {
        let mut net = build();
        move_to(
            &mut net.w,
            net.mh,
            net.visited,
            Attachment::care_of("36.186.0.99/24", ip("36.186.0.254")),
        );
        net.w.run_for(SimDuration::from_secs(1));
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(MulticastListener::new(PORT)));
        join_local(&mut net.w, net.mh, 0, ip(GROUP));
        net.w.poll_soon(net.mh);
        let backbone_before = net.w.segment_stats(net.backbone).bytes;
        net.w.run_for(SimDuration::from_secs(10));
        let listener = net
            .w
            .host_mut(net.mh)
            .app_as::<MulticastListener>(app)
            .unwrap();
        assert_eq!(listener.received, 10, "got every visited-segment packet");
        let backbone_bytes = net.w.segment_stats(net.backbone).bytes - backbone_before;
        // Only registration chatter (if any) crosses; no multicast does.
        assert!(
            backbone_bytes < 500,
            "local join must not burden the backbone (got {backbone_bytes})"
        );
    }

    #[test]
    fn at_home_group_reception_is_native() {
        let mut net = build();
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(MulticastListener::new(PORT)));
        join_local(&mut net.w, net.mh, 0, ip(GROUP));
        net.w.poll_soon(net.mh);
        net.w.run_for(SimDuration::from_secs(10));
        let listener = net
            .w
            .host_mut(net.mh)
            .app_as::<MulticastListener>(app)
            .unwrap();
        assert_eq!(listener.received, 10);
    }
}

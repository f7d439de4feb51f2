//! Canonical topologies for examples, integration tests and experiments.
//!
//! One parameterized "little Internet" matching the paper's figures:
//!
//! ```text
//!  home 171.64.15.0/24          ch-net 18.26.0.0/24
//!  [ha .1][server .7][mh .9]    [ch .5]
//!        |gw .254|                 |gw .254|
//!        +--------- backbone ----------+
//!        |gw .254|                 |gw .254|
//!  visited-a 36.186.0.0/24      visited-b 128.2.0.0/24
//!  (coa .99, dns .53, fa .10)   (coa .99)
//! ```
//!
//! Knobs: backbone latency (Figure 4's "Japan vs MIT" distance), the §3.1
//! filtering policies at each boundary, the correspondent's awareness level
//! (rows A/B of Figure 10), where the correspondent sits (putting it on
//! visited-a reproduces rows C and Figure 4), redirects, encapsulation
//! format, and the mobile's policy.

use netsim::wire::encap::EncapFormat;
use netsim::{
    FilterRule, HostConfig, IfaceNo, Ipv4Addr, Ipv4Cidr, LinkConfig, NodeId, RouterConfig,
    SegmentId, SimDuration, World,
};
use transport::{tcp, udp};

use crate::correspondent::MobileAwareCh;
use crate::home_agent::{HomeAgent, HomeAgentConfig};
use crate::mobile_host::{self, Attachment, MobileHost, MobileHostConfig};
use crate::policy::PolicyConfig;

/// Well-known addresses of the canonical topology.
pub mod addrs {
    /// The home agent's address.
    pub const HA: &str = "171.64.15.1";
    /// A conventional server on the home segment.
    pub const SERVER: &str = "171.64.15.7";
    /// The mobile host's permanent home address.
    pub const MH_HOME: &str = "171.64.15.9";
    /// The home address with its on-link prefix.
    pub const MH_HOME_CIDR: &str = "171.64.15.9/24";
    /// The home network.
    pub const HOME_PREFIX: &str = "171.64.15.0/24";
    /// The home network's boundary router.
    pub const HOME_GW: &str = "171.64.15.254";
    /// Care-of address on visited network A.
    pub const COA_A: &str = "36.186.0.99";
    /// Care-of address A with its on-link prefix.
    pub const COA_A_CIDR: &str = "36.186.0.99/24";
    /// Visited network A.
    pub const VISITED_A_PREFIX: &str = "36.186.0.0/24";
    /// Visited network A's boundary router.
    pub const VISITED_A_GW: &str = "36.186.0.254";
    /// Care-of address on visited network B.
    pub const COA_B: &str = "128.2.0.99";
    /// Care-of address B with its on-link prefix.
    pub const COA_B_CIDR: &str = "128.2.0.99/24";
    /// Visited network B.
    pub const VISITED_B_PREFIX: &str = "128.2.0.0/24";
    /// Visited network B's boundary router.
    pub const VISITED_B_GW: &str = "128.2.0.254";
    /// The correspondent host's address in its own domain.
    pub const CH: &str = "18.26.0.5";
    /// The correspondent's network.
    pub const CH_PREFIX: &str = "18.26.0.0/24";
    /// The correspondent when placed on visited network A.
    pub const CH_ON_VISITED: &str = "36.186.0.5";
    /// The DNS server (present when `with_dns` is set).
    pub const DNS: &str = "171.64.15.53";
    /// The mobile host's name in the simulated DNS.
    pub const MH_NAME: &str = "mh.mosquitonet.stanford.edu";
}

/// How mobile-aware the correspondent is (the row of Figure 10 available).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChKind {
    /// Row A only: plain IP stack.
    Conventional,
    /// Row A with Out-DE usable: can decapsulate but has no binding cache.
    DecapCapable,
    /// Rows B/C: full binding cache ([`MobileAwareCh`]).
    MobileAware,
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Deterministic RNG seed for the world.
    pub seed: u64,
    /// One-way backbone latency in milliseconds (Figure 4 sweeps this).
    pub backbone_ms: u64,
    /// Home boundary ingress-filters spoofed home sources (Figure 2).
    pub home_ingress_filter: bool,
    /// Visited-network boundaries egress-filter foreign sources (§3.1).
    pub visited_egress_filter: bool,
    /// The correspondent's mobility-awareness level.
    pub ch_kind: ChKind,
    /// Place the correspondent on visited-a instead of its own domain
    /// (Figure 4 / row C geometry).
    pub ch_on_visited: bool,
    /// Home agent sends ICMP Mobile Host Redirects (Figure 5).
    pub ha_redirects: bool,
    /// Tunnel format for both agents and the mobile.
    pub encap: EncapFormat,
    /// The mobile's method-selection policy.
    pub mh_policy: PolicyConfig,
    /// Add a DNS server ([`addrs::DNS`]) on the home segment, pre-loaded
    /// with the mobile's A record, and a [`crate::dns::TaRegistrar`] app on
    /// the mobile publishing its care-of address (§3.2's DNS mechanism).
    pub with_dns: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 4,
            backbone_ms: 25,
            home_ingress_filter: false,
            visited_egress_filter: false,
            ch_kind: ChKind::Conventional,
            ch_on_visited: false,
            ha_redirects: false,
            encap: EncapFormat::IpInIp,
            mh_policy: PolicyConfig::default(),
            with_dns: false,
        }
    }
}

/// The built scenario: the world plus everything an experiment needs to
/// reference.
pub struct Scenario {
    /// The simulated internetwork.
    pub world: World,
    /// The configuration this scenario was built from.
    pub cfg: ScenarioConfig,
    /// The home Ethernet segment.
    pub home_seg: SegmentId,
    /// Visited network A.
    pub visited_a: SegmentId,
    /// Visited network B.
    pub visited_b: SegmentId,
    /// The correspondent's segment.
    pub ch_seg: SegmentId,
    /// The wide-area backbone joining all domains.
    pub backbone: SegmentId,
    /// The home agent.
    pub ha: NodeId,
    /// The conventional home-segment server.
    pub server: NodeId,
    /// The mobile host.
    pub mh: NodeId,
    /// The correspondent host.
    pub ch: NodeId,
    /// The home network's boundary router.
    pub home_gw: NodeId,
    /// Visited A's boundary router.
    pub visited_a_gw: NodeId,
    /// Visited B's boundary router.
    pub visited_b_gw: NodeId,
    /// The correspondent network's boundary router.
    pub ch_gw: NodeId,
    /// The home agent's interface on the home segment.
    pub ha_home_iface: IfaceNo,
    /// DNS server node, when [`ScenarioConfig::with_dns`] was set.
    pub dns: Option<NodeId>,
}

/// Parse a dotted-quad literal (panics on bad input; test/experiment helper).
pub fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// Parse a CIDR literal (panics on bad input; test/experiment helper).
pub fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

/// Build the canonical topology.
pub fn build(cfg: ScenarioConfig) -> Scenario {
    let mut w = World::new(cfg.seed);
    let home_seg = w.add_segment(LinkConfig::lan());
    let visited_a = w.add_segment(LinkConfig::lan());
    let visited_b = w.add_segment(LinkConfig::lan());
    let ch_seg = w.add_segment(LinkConfig::lan());
    let backbone = w.add_segment(LinkConfig::wan(cfg.backbone_ms));

    let ha = w.add_host(HostConfig::agent("ha"));
    let server = w.add_host(HostConfig::conventional("server"));
    let mh = w.add_host(HostConfig::conventional("mh"));
    let ch = w.add_host(match cfg.ch_kind {
        ChKind::Conventional => HostConfig::conventional("ch"),
        ChKind::DecapCapable => HostConfig::decap_capable("ch"),
        ChKind::MobileAware => HostConfig::decap_capable("ch"),
    });

    let home_gw = w.add_router(RouterConfig::named("home-gw"));
    let visited_a_gw = w.add_router(RouterConfig::named("visited-a-gw"));
    let visited_b_gw = w.add_router(RouterConfig::named("visited-b-gw"));
    let ch_gw = w.add_router(RouterConfig::named("ch-gw"));

    let ha_home_iface = w.attach(ha, home_seg, Some("171.64.15.1/24"));
    w.attach(server, home_seg, Some("171.64.15.7/24"));
    w.attach(mh, home_seg, Some(addrs::MH_HOME_CIDR));
    if cfg.ch_on_visited {
        w.attach(ch, visited_a, Some("36.186.0.5/24"));
    } else {
        w.attach(ch, ch_seg, Some("18.26.0.5/24"));
    }

    // Routers: iface 0 = their LAN, iface 1 = backbone.
    w.attach(home_gw, home_seg, Some("171.64.15.254/24"));
    w.attach(home_gw, backbone, Some("192.168.0.1/24"));
    w.attach(visited_a_gw, visited_a, Some("36.186.0.254/24"));
    w.attach(visited_a_gw, backbone, Some("192.168.0.2/24"));
    w.attach(visited_b_gw, visited_b, Some("128.2.0.254/24"));
    w.attach(visited_b_gw, backbone, Some("192.168.0.3/24"));
    w.attach(ch_gw, ch_seg, Some("18.26.0.254/24"));
    w.attach(ch_gw, backbone, Some("192.168.0.4/24"));
    w.compute_routes();

    // §3.1 policies.
    if cfg.home_ingress_filter {
        w.router_mut(home_gw)
            .filters
            .push(FilterRule::ingress_source_filter(
                1,
                cidr(addrs::HOME_PREFIX),
            ));
    }
    if cfg.visited_egress_filter {
        w.router_mut(visited_a_gw)
            .filters
            .push(FilterRule::egress_source_filter(
                1,
                cidr(addrs::VISITED_A_PREFIX),
            ));
        w.router_mut(visited_b_gw)
            .filters
            .push(FilterRule::egress_source_filter(
                1,
                cidr(addrs::VISITED_B_PREFIX),
            ));
    }

    // Agents and hooks.
    let mut ha_cfg = HomeAgentConfig::new(ip(addrs::HA), cidr(addrs::HOME_PREFIX), ha_home_iface)
        .with_encap(cfg.encap);
    if cfg.ha_redirects {
        ha_cfg = ha_cfg.with_redirects();
    }
    HomeAgent::install(&mut w, ha, ha_cfg);
    MobileHost::install(
        &mut w,
        mh,
        MobileHostConfig::new(addrs::MH_HOME_CIDR, ip(addrs::HA))
            .with_policy(cfg.mh_policy.clone())
            .with_encap(cfg.encap),
    );
    if cfg.ch_kind == ChKind::MobileAware {
        MobileAwareCh::install(&mut w, ch);
    }

    for n in [mh, ch, server] {
        udp::install(w.host_mut(n));
        tcp::install(w.host_mut(n));
    }

    let dns = if cfg.with_dns {
        let ns = w.add_host(HostConfig::conventional("ns"));
        w.attach(ns, home_seg, Some("171.64.15.53/24"));
        w.compute_routes();
        udp::install(w.host_mut(ns));
        w.host_mut(ns).add_app(Box::new(
            crate::dns::DnsServer::new().with_a(addrs::MH_NAME, ip(addrs::MH_HOME)),
        ));
        w.poll_soon(ns);
        // The mobile keeps its TA record current.
        w.host_mut(mh)
            .add_app(Box::new(crate::dns::TaRegistrar::new(
                ip(addrs::DNS),
                addrs::MH_NAME,
            )));
        w.poll_soon(mh);
        Some(ns)
    } else {
        None
    };

    Scenario {
        world: w,
        cfg,
        home_seg,
        visited_a,
        visited_b,
        ch_seg,
        backbone,
        ha,
        server,
        mh,
        ch,
        home_gw,
        visited_a_gw,
        visited_b_gw,
        ch_gw,
        ha_home_iface,
        dns,
    }
}

impl Scenario {
    /// Move the mobile host to visited network A and let registration
    /// settle.
    pub fn roam_to_a(&mut self) {
        mobile_host::move_to(
            &mut self.world,
            self.mh,
            self.visited_a,
            Attachment::care_of(addrs::COA_A_CIDR, ip(addrs::VISITED_A_GW)),
        );
        self.world.run_for(SimDuration::from_secs(2));
    }

    /// Move the mobile host to visited network B and let registration
    /// settle.
    pub fn roam_to_b(&mut self) {
        mobile_host::move_to(
            &mut self.world,
            self.mh,
            self.visited_b,
            Attachment::care_of(addrs::COA_B_CIDR, ip(addrs::VISITED_B_GW)),
        );
        self.world.run_for(SimDuration::from_secs(2));
    }

    /// Bring the mobile host home and let deregistration settle.
    pub fn go_home(&mut self) {
        let home = Attachment::Home {
            gateway: Some(ip(addrs::HOME_GW)),
        };
        mobile_host::move_to(&mut self.world, self.mh, self.home_seg, home);
        self.world.run_for(SimDuration::from_secs(2));
    }

    /// The correspondent's address (depends on placement).
    pub fn ch_addr(&self) -> Ipv4Addr {
        if self.cfg.ch_on_visited {
            ip(addrs::CH_ON_VISITED)
        } else {
            ip(addrs::CH)
        }
    }

    /// The mobile's hook.
    pub fn mh_hook(&mut self) -> &mut MobileHost {
        self.world
            .host_mut(self.mh)
            .hook_as::<MobileHost>()
            .expect("mobile host installed")
    }

    /// Whether the mobile is currently registered.
    pub fn mh_registered(&mut self) -> bool {
        self.mh_hook().is_registered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::wire::icmp::IcmpMessage;

    #[test]
    fn default_scenario_roams_and_registers() {
        let mut s = build(ScenarioConfig::default());
        s.roam_to_a();
        assert!(s.mh_registered());
        s.roam_to_b();
        assert!(s.mh_registered());
        s.go_home();
        assert!(!s.mh_registered());
    }

    #[test]
    fn filtered_scenario_installs_filters() {
        let mut s = build(ScenarioConfig {
            home_ingress_filter: true,
            visited_egress_filter: true,
            ..ScenarioConfig::default()
        });
        s.roam_to_a();
        assert!(s.mh_registered(), "Out-DT registration passes the filters");
        // An Out-DH probe from the mobile is eaten by the visited filter.
        let mh = s.mh;
        let ch_addr = s.ch_addr();
        s.world.trace.clear();
        s.mh_hook()
            .policy_mut()
            .set_config(PolicyConfig::fixed(crate::modes::OutMode::DH));
        s.world.host_do(mh, |h, ctx| {
            h.send_ping(ctx, ip(addrs::MH_HOME), ch_addr, 1)
        });
        s.world.run_for(SimDuration::from_secs(1));
        let drops: Vec<_> = s
            .world
            .trace
            .events()
            .iter()
            .filter(|e| e.packet.dst == ch_addr)
            .filter_map(|e| match e.kind {
                netsim::TraceEventKind::Dropped(r) => Some((e.node, r)),
                _ => None,
            })
            .collect();
        assert!(
            drops
                .iter()
                .any(|(_, r)| *r == netsim::DropReason::SourceAddressFilter),
            "expected a source-address-filter drop, got {drops:?}"
        );
    }

    #[test]
    fn ch_on_visited_places_correspondent_with_mobile() {
        let mut s = build(ScenarioConfig {
            ch_on_visited: true,
            ..ScenarioConfig::default()
        });
        s.roam_to_a();
        let mh = s.mh;
        let ch_addr = s.ch_addr();
        s.world.host_do(mh, |h, ctx| {
            h.send_ping(ctx, ip(addrs::MH_HOME), ch_addr, 1)
        });
        s.world.run_for(SimDuration::from_secs(1));
        assert!(s
            .world
            .host(mh)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { .. })));
    }
}

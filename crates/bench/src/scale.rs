//! Million-host worlds: a hierarchical topology generator and mass-churn
//! driver.
//!
//! Real deployments of the paper's architecture are not five hosts on two
//! LANs — they are campus networks hanging off transit providers hanging
//! off a backbone, with mobile hosts roaming between stubs. This module
//! builds that shape at parameterized fan-out:
//!
//! ```text
//!   backbone segment (192.168.0.0/24) — one router per backbone domain
//!     └─ transit segment per backbone (192.168.<b+1>.0/24)
//!          └─ transit routers, each serving a fan of stub LANs
//!               └─ stub <sid> = 10.<sid:hi>.<sid:lo>.0/24, hosts .2+
//!   home segment (10.255.0.0/24) off backbone router 0, one home agent
//! ```
//!
//! Stub ids are allocated on power-of-two strides per transit and per
//! backbone, so every transit and backbone domain owns one aggregate CIDR
//! and the routing tables stay *hierarchical*: hosts carry two routes,
//! transit routers `stubs + 2`, backbone routers `transits + backbones + 2`
//! — no table anywhere grows with total world size. Routes are installed
//! directly from the same arithmetic that assigns addresses;
//! `World::compute_routes` (per-node Dijkstra) is never called, which is
//! what makes a 10⁵-host build affordable.
//!
//! [`run_churn`] then drives the three mass-churn workloads the paper's
//! machinery has to survive at scale: handoff storms (movers re-plug into
//! a neighbouring stub, re-address, announce, and resume traffic), flash
//! crowds (many correspondents converge on one host), and mass
//! re-registration after a home-agent restart loses every binding.

use std::fmt::Write as _;

use bytes::Bytes;

use mip_core::{
    HomeAgent, HomeAgentConfig, Policy, PolicyConfig, RegistrationRequest, Strategy,
    REGISTRATION_PORT,
};
use netsim::device::TxMeta;
use netsim::wire::icmp::IcmpMessage;
use netsim::wire::udp::UdpDatagram;
use netsim::{
    HostConfig, IfaceAddr, IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet, LinkConfig, NodeId,
    RouterConfig, SimTime, World,
};

/// Where visiting movers are addressed inside a stub: `.200 + slot`.
/// Resident hosts use `.2 + k`, so residents are capped below this.
const VISITOR_BASE: u32 = 200;

/// Residents per stub must leave the visitor window (`.200`–`.253`) free.
const MAX_HOSTS_PER_STUB: usize = (VISITOR_BASE as usize) - 2;

/// Shape of a hierarchical world. Total host count is the product of the
/// four fan-out knobs; [`ScaleParams::with_hosts`] picks a balanced shape
/// for a target count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleParams {
    /// Backbone domains (routers on the shared backbone segment).
    pub backbones: usize,
    /// Transit routers hanging off each backbone router.
    pub transits_per_backbone: usize,
    /// Stub LANs served by each transit router.
    pub stubs_per_transit: usize,
    /// Resident hosts per stub LAN.
    pub hosts_per_stub: usize,
    /// World RNG seed (drives nothing in the build itself — topology is
    /// pure arithmetic — but seeds the simulation's per-node RNG lanes).
    pub seed: u64,
}

impl ScaleParams {
    /// A balanced shape with at least `hosts` resident hosts.
    pub fn with_hosts(hosts: usize) -> ScaleParams {
        let hosts = hosts.max(1);
        // Fill stubs toward ~196 residents before growing the router tier;
        // a /24 gives room for that plus the visitor window.
        let hosts_per_stub = hosts.div_ceil(512).clamp(2, 196);
        let stubs_needed = hosts.div_ceil(hosts_per_stub);
        let stubs_per_transit = stubs_needed.div_ceil(16).clamp(1, 32);
        let transits_needed = stubs_needed.div_ceil(stubs_per_transit);
        let transits_per_backbone = transits_needed.clamp(1, 8);
        let backbones = transits_needed.div_ceil(transits_per_backbone).max(1);
        ScaleParams {
            backbones,
            transits_per_backbone,
            stubs_per_transit,
            hosts_per_stub,
            seed: 1,
        }
    }

    /// Stub-id stride of one transit domain (power of two, so the domain
    /// owns an aggregate CIDR).
    fn stride_t(&self) -> usize {
        self.stubs_per_transit.next_power_of_two()
    }

    /// Stub-id stride of one backbone domain.
    fn stride_b(&self) -> usize {
        self.transits_per_backbone.next_power_of_two() * self.stride_t()
    }

    /// Stub id of `(backbone, transit, stub)` — the unit of addressing.
    fn sid(&self, b: usize, t: usize, s: usize) -> usize {
        b * self.stride_b() + t * self.stride_t() + s
    }

    /// Total stub LANs.
    pub fn total_stubs(&self) -> usize {
        self.backbones * self.transits_per_backbone * self.stubs_per_transit
    }

    /// Total resident hosts (excludes routers and the home agent).
    pub fn total_hosts(&self) -> usize {
        self.total_stubs() * self.hosts_per_stub
    }

    /// Total nodes of any kind the build will create.
    pub fn total_nodes(&self) -> usize {
        self.backbones + self.backbones * self.transits_per_backbone + self.total_hosts() + 1
    }
}

/// The address of host `k` (0-based resident index) on stub `sid`.
fn stub_host_addr(sid: usize, k: usize) -> Ipv4Addr {
    Ipv4Addr((10 << 24) | ((sid as u32) << 8) | (2 + k as u32))
}

/// The gateway (transit-router) address on stub `sid`.
fn stub_gateway(sid: usize) -> Ipv4Addr {
    Ipv4Addr((10 << 24) | ((sid as u32) << 8) | 1)
}

/// The /24 covering stub `sid`.
fn stub_cidr(sid: usize) -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr((10 << 24) | ((sid as u32) << 8)), 24)
}

/// The aggregate CIDR covering `count` (a power of two) stub ids starting
/// at the aligned `base`.
fn aggregate_cidr(base: usize, count: usize) -> Ipv4Cidr {
    debug_assert!(count.is_power_of_two() && base.is_multiple_of(count));
    let len = 24 - count.trailing_zeros() as u8;
    Ipv4Cidr::new(Ipv4Addr((10 << 24) | ((base as u32) << 8)), len)
}

/// One stub LAN in the built world.
#[derive(Debug, Clone, Copy)]
pub struct StubInfo {
    /// The stub id — also the middle 16 bits of every address on it.
    pub sid: usize,
    /// The LAN segment.
    pub segment: netsim::SegmentId,
    /// Resident hosts, in address order (`.2`, `.3`, …).
    pub first_host: NodeId,
    /// Resident count.
    pub hosts: usize,
}

/// Index into a built hierarchical world: every id the churn driver (or an
/// experiment) needs to reach without string lookups.
pub struct ScaleIndex {
    /// The shape the world was built from.
    pub params: ScaleParams,
    /// Backbone routers, one per backbone domain.
    pub backbone_routers: Vec<NodeId>,
    /// Transit routers, `backbones × transits_per_backbone`, backbone-major.
    pub transit_routers: Vec<NodeId>,
    /// Stub LANs, backbone-major then transit-major.
    pub stubs: Vec<StubInfo>,
    /// Every resident host, in stub order then address order. NodeIds are
    /// contiguous per stub (see [`StubInfo::first_host`]).
    pub hosts: Vec<NodeId>,
    /// The home agent host on the home segment.
    pub ha: NodeId,
    /// The home agent's address (registration target).
    pub ha_addr: Ipv4Addr,
    /// The home prefix the agent serves (re-registration home addresses).
    pub home_prefix: Ipv4Cidr,
}

impl ScaleIndex {
    /// The stub a (never-moved) host lives on, by index into `hosts`.
    pub fn stub_of(&self, host_ix: usize) -> usize {
        host_ix / self.params.hosts_per_stub
    }
}

/// Build a hierarchical world from `params`. Routes are installed
/// arithmetically (two per host, an aggregate fan per router); no
/// shortest-path computation runs at any size.
pub fn build_world(params: &ScaleParams) -> (World, ScaleIndex) {
    assert!(params.backbones >= 1 && params.backbones <= 253);
    assert!(params.transits_per_backbone >= 1 && params.transits_per_backbone <= 253);
    assert!(
        params.hosts_per_stub >= 1 && params.hosts_per_stub <= MAX_HOSTS_PER_STUB,
        "hosts_per_stub {} outside 1..={MAX_HOSTS_PER_STUB}",
        params.hosts_per_stub
    );
    // Stub ids live in the middle 16 address bits; 10.255.0.0/16 is the
    // home prefix, so the id space must stop short of it.
    assert!(
        params.backbones * params.stride_b() <= 0xFF00,
        "stub id space overflows into the home prefix"
    );

    let mut w = World::new(params.seed);
    w.reserve(
        params.total_nodes(),
        2 + params.backbones + params.total_stubs(),
    );

    let backbone_seg = w.add_segment(LinkConfig::wan(5));
    let home_seg = w.add_segment(LinkConfig::lan());

    let mut backbone_routers = Vec::with_capacity(params.backbones);
    let mut transit_routers = Vec::with_capacity(params.backbones * params.transits_per_backbone);
    let mut stubs = Vec::with_capacity(params.total_stubs());
    let mut hosts = Vec::with_capacity(params.total_hosts());

    // Backbone routers and their transit segments first, so every later
    // tier can point routes at addresses that already exist.
    let mut transit_segs = Vec::with_capacity(params.backbones);
    for b in 0..params.backbones {
        let r = w.add_router(RouterConfig::named(&format!("bb{b}")));
        let if_bb = w.attach(r, backbone_seg, Some(&format!("192.168.0.{}/24", b + 1)));
        let tseg = w.add_segment(LinkConfig::wan(2));
        let if_tr = w.attach(r, tseg, Some(&format!("192.168.{}.254/24", b + 1)));
        backbone_routers.push(r);
        transit_segs.push(tseg);

        let router = w.router_mut(r);
        router.add_route(Ipv4Cidr::new(Ipv4Addr(0xC0A8_0000), 24), if_bb, None);
        router.add_route(
            Ipv4Cidr::new(Ipv4Addr(0xC0A8_0000 | ((b as u32 + 1) << 8)), 24),
            if_tr,
            None,
        );
        if b == 0 {
            // The home segment hangs here; the /16 route makes the whole
            // home prefix "on-link", so the agent's proxy ARP can capture
            // any registered home address (RFC 1027 style).
            let if_home = w.attach(r, home_seg, Some("10.255.0.1/24"));
            w.router_mut(r)
                .add_route(Ipv4Cidr::new(Ipv4Addr(0x0AFF_0000), 16), if_home, None);
        } else {
            w.router_mut(r).add_route(
                Ipv4Cidr::new(Ipv4Addr(0x0AFF_0000), 16),
                if_bb,
                Some(Ipv4Addr(0xC0A8_0001)),
            );
        }
    }
    // Inter-backbone aggregates (needs every backbone router's address).
    for (b, &r) in backbone_routers.iter().enumerate() {
        for other in 0..params.backbones {
            if other == b {
                continue;
            }
            w.router_mut(r).add_route(
                aggregate_cidr(params.sid(other, 0, 0), params.stride_b()),
                0, // backbone iface is always the router's first
                Some(Ipv4Addr(0xC0A8_0000 | (other as u32 + 1))),
            );
        }
    }

    // Transit routers, their stub fans, and the hosts. Each host's name is
    // written into one reused buffer; the world copies it into its own.
    let mut name = String::new();
    for b in 0..params.backbones {
        for t in 0..params.transits_per_backbone {
            let r = w.add_router(RouterConfig::named(&format!("tr{b}-{t}")));
            let if_up = w.attach(
                r,
                transit_segs[b],
                Some(&format!("192.168.{}.{}/24", b + 1, t + 1)),
            );
            transit_routers.push(r);
            {
                let router = w.router_mut(r);
                router.add_route(
                    Ipv4Cidr::new(Ipv4Addr(0xC0A8_0000 | ((b as u32 + 1) << 8)), 24),
                    if_up,
                    None,
                );
                router.add_route(
                    Ipv4Cidr::new(Ipv4Addr(0), 0),
                    if_up,
                    Some(Ipv4Addr(0xC0A8_00FE | ((b as u32 + 1) << 8))),
                );
            }
            // Tell this backbone's router about the transit aggregate.
            w.router_mut(backbone_routers[b]).add_route(
                aggregate_cidr(params.sid(b, t, 0), params.stride_t()),
                1, // transit-segment iface is always the second
                Some(Ipv4Addr(
                    0xC0A8_0000 | ((b as u32 + 1) << 8) | (t as u32 + 1),
                )),
            );

            for s in 0..params.stubs_per_transit {
                let sid = params.sid(b, t, s);
                let seg = w.add_segment(LinkConfig::lan());
                let if_stub = w.attach(
                    r,
                    seg,
                    Some(&format!("10.{}.{}.1/24", sid >> 8, sid & 0xFF)),
                );
                w.router_mut(r).add_route(stub_cidr(sid), if_stub, None);

                let mut first_host = None;
                for k in 0..params.hosts_per_stub {
                    name.clear();
                    write!(name, "h{sid}-{k}").expect("writing to a String cannot fail");
                    let h = w.add_host(HostConfig::conventional(&name));
                    let iface = w.attach(h, seg, None);
                    let host = w.host_mut(h);
                    host.set_iface_addr(
                        iface,
                        Some(IfaceAddr {
                            addr: stub_host_addr(sid, k),
                            prefix: stub_cidr(sid),
                        }),
                    );
                    host.add_route(stub_cidr(sid), iface, None);
                    host.add_route(
                        Ipv4Cidr::new(Ipv4Addr(0), 0),
                        iface,
                        Some(stub_gateway(sid)),
                    );
                    first_host.get_or_insert(h);
                    hosts.push(h);
                }
                stubs.push(StubInfo {
                    sid,
                    segment: seg,
                    first_host: first_host.expect("at least one host per stub"),
                    hosts: params.hosts_per_stub,
                });
            }
        }
    }

    // The home agent, serving 10.255.0.0/16 from the home segment.
    let ha_addr = Ipv4Addr(0x0AFF_0002);
    let home_prefix = Ipv4Cidr::new(Ipv4Addr(0x0AFF_0000), 16);
    let ha = w.add_host(HostConfig::agent("ha"));
    let ha_if = w.attach(ha, home_seg, Some("10.255.0.2/24"));
    {
        let host = w.host_mut(ha);
        host.add_route(Ipv4Cidr::new(Ipv4Addr(0x0AFF_0000), 24), ha_if, None);
        host.add_route(
            Ipv4Cidr::new(Ipv4Addr(0), 0),
            ha_if,
            Some(Ipv4Addr(0x0AFF_0001)),
        );
    }
    HomeAgent::install(
        &mut w,
        ha,
        HomeAgentConfig::new(ha_addr, home_prefix, ha_if),
    );

    let index = ScaleIndex {
        params: *params,
        backbone_routers,
        transit_routers,
        stubs,
        hosts,
        ha,
        ha_addr,
        home_prefix,
    };
    (w, index)
}

/// Mass-churn workload sizes. Each knob is an absolute event count; zero
/// skips that phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnParams {
    /// Handoff storm: hosts that simultaneously re-plug into the next stub.
    pub handoffs: usize,
    /// Flash crowd: correspondents that ping one host in a burst.
    pub flash_crowd: usize,
    /// Mass re-registration: mobiles that register, lose their binding to a
    /// home-agent restart, and register again.
    pub rereg: usize,
    /// Registration lifetime requested, seconds.
    pub lifetime: u16,
    /// Policy miss storm: distinct correspondents driven through one
    /// mobile's method cache, sized at half this count so the storm is 2×
    /// capacity. Zero (the default) skips the phase entirely, keeping
    /// pre-existing reports byte-identical.
    pub correspondents: usize,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            handoffs: 64,
            flash_crowd: 64,
            rereg: 64,
            lifetime: 300,
            correspondents: 0,
        }
    }
}

/// What [`run_churn`] did, all in simulated terms (no wall-clock values —
/// callers time the call themselves, so reports stay deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Handoffs performed (detach → reattach → re-address → announce).
    pub handoffs: u64,
    /// Flash-crowd pings sent.
    pub flash_pings: u64,
    /// Echo replies the flash-crowd target produced.
    pub flash_replies: u64,
    /// Registration requests sent (both waves).
    pub registrations_sent: u64,
    /// Registrations the home agent accepted.
    pub registrations_accepted: u64,
    /// Bindings the home-agent restart dropped.
    pub bindings_dropped: u64,
    /// Total churn events (handoffs + pings + registrations + policy
    /// decisions).
    pub events: u64,
    /// Simulated microseconds the whole churn run covered.
    pub sim_elapsed_us: u64,
    /// Outcome of the policy miss storm; `None` when
    /// [`ChurnParams::correspondents`] was zero.
    pub policy: Option<PolicyStormStats>,
}

/// What the policy miss storm observed: mode-decision quality under
/// method-cache pressure, all deterministic counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStormStats {
    /// Distinct storm correspondents decided for.
    pub correspondents: u64,
    /// The method-cache capacity the storm ran against (half the storm).
    pub cache_cap: u64,
    /// Total `mode_for` decisions made.
    pub decisions: u64,
    /// Decisions answered from a live cache entry.
    pub hits: u64,
    /// Decisions made afresh from rules/strategy.
    pub misses: u64,
    /// Entries the LRU discipline displaced during the storm.
    pub evictions: u64,
    /// Actively conversing correspondents with learned demotion history.
    pub hot_set: u64,
    /// Hot correspondents whose history survived the storm (the eviction
    /// discipline's whole point: this must equal `hot_set`).
    pub hot_retained: u64,
}

serde::impl_serialize!(PolicyStormStats {
    correspondents,
    cache_cap,
    decisions,
    hits,
    misses,
    evictions,
    hot_set,
    hot_retained,
});

impl serde::Serialize for ChurnStats {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        w.object(|w| {
            w.field("handoffs", &self.handoffs);
            w.field("flash_pings", &self.flash_pings);
            w.field("flash_replies", &self.flash_replies);
            w.field("registrations_sent", &self.registrations_sent);
            w.field("registrations_accepted", &self.registrations_accepted);
            w.field("bindings_dropped", &self.bindings_dropped);
            w.field("events", &self.events);
            w.field("sim_elapsed_us", &self.sim_elapsed_us);
            // Appended only when the storm ran, so default-config runs keep
            // their pre-existing report bytes.
            if let Some(p) = &self.policy {
                w.field("policy", p);
            }
        });
    }
}

/// Event-budget guard for [`World::run_until_idle`]: generous per churn
/// event, since one churn action can trigger several ARP broadcasts and
/// each broadcast on a full stub LAN fans out to every resident NIC.
fn idle_limit(events: usize, params: &ScaleParams) -> usize {
    100_000 + events * 32 * (params.hosts_per_stub + 8)
}

/// Drive the three mass-churn workloads against a built world. Entirely
/// deterministic: participants are chosen by stride arithmetic, not
/// sampling.
pub fn run_churn(w: &mut World, index: &ScaleIndex, churn: &ChurnParams) -> ChurnStats {
    let mut stats = ChurnStats::default();
    let t0 = w.now();
    let params = &index.params;
    let nstubs = index.stubs.len();

    // The transit domain currently serving a host, from its (possibly
    // visitor) address: addresses embed the stub id, stub ids embed the
    // domain. Used to split bursts into a warming round and the storm
    // proper — see the flash-crowd comment below.
    let domain_of = |w: &World, h: NodeId| -> usize {
        let sid = (w.host(h).iface_addr(0).map_or(0, |a| a.addr.0) >> 8) as usize & 0xFFFF;
        let b = sid / params.stride_b();
        let t = (sid % params.stride_b()) / params.stride_t();
        b * params.transits_per_backbone + t
    };
    let ndomains = params.backbones * params.transits_per_backbone;

    // --- Handoff storm -----------------------------------------------------
    // Movers are residents with k >= 1 (k == 0 stays put as each stub's
    // ping landmark), spread evenly across the world; each re-plugs into
    // the next stub, takes a visitor address there, swaps its routes,
    // announces with gratuitous ARP, and pings the local landmark.
    if churn.handoffs > 0 && nstubs > 1 && params.hosts_per_stub > 1 {
        let movers_avail = index.hosts.len() - nstubs; // k >= 1 residents
        let movers = churn.handoffs.min(movers_avail);
        let mut visitors = vec![0u32; nstubs];
        let mut picked = 0usize;
        let mut cursor = 0usize;
        let step = (movers_avail / movers).max(1);
        while picked < movers {
            // cursor walks k>=1 residents; map to a concrete host index.
            let stub = cursor / (params.hosts_per_stub - 1);
            let k = 1 + cursor % (params.hosts_per_stub - 1);
            let host_ix = stub * params.hosts_per_stub + k;
            cursor += step;
            let target = (stub + 1) % nstubs;
            let slot = visitors[target];
            if u64::from(VISITOR_BASE) + u64::from(slot) > 253 {
                continue; // visitor window on that stub is full
            }
            visitors[target] += 1;
            let h = index.hosts[host_ix];
            let tsid = index.stubs[target].sid;
            let vaddr = Ipv4Addr((10 << 24) | ((tsid as u32) << 8) | (VISITOR_BASE + slot));
            let landmark = stub_host_addr(tsid, 0);
            w.reattach(h, 0, index.stubs[target].segment);
            {
                let host = w.host_mut(h);
                host.set_iface_addr(
                    0,
                    Some(IfaceAddr {
                        addr: vaddr,
                        prefix: stub_cidr(tsid),
                    }),
                );
                host.clear_routes();
                host.add_route(stub_cidr(tsid), 0, None);
                host.add_route(Ipv4Cidr::new(Ipv4Addr(0), 0), 0, Some(stub_gateway(tsid)));
            }
            w.host_do(h, |host, ctx| {
                host.send_gratuitous_arp(ctx, 0, vaddr);
                host.send_ping(ctx, vaddr, landmark, 1);
            });
            picked += 1;
        }
        stats.handoffs = picked as u64;
        w.run_until_idle(idle_limit(picked, params));
    }

    // --- Flash crowd -------------------------------------------------------
    // Correspondents across the world converge on stub 0's landmark host.
    if churn.flash_crowd > 0 && index.hosts.len() > 1 {
        let target = stub_host_addr(index.stubs[0].sid, 0);
        let crowd = churn.flash_crowd.min(index.hosts.len() - 1);
        let step = ((index.hosts.len() - 1) / crowd.max(1)).max(1);
        let mut senders = Vec::with_capacity(crowd);
        let mut ix = 1; // skip the target itself (host 0 of stub 0)
        while senders.len() < crowd && ix < index.hosts.len() {
            senders.push(index.hosts[ix]);
            ix += step;
        }
        // Fire in two rounds: the first sender behind each transit router
        // goes alone and resolves ARP at every shared hop (its transit
        // uplink, the backbone crossing, the target's stub router, the
        // target itself); the rest then go as one simultaneous burst.
        // NICs queue only a few packets per unresolved neighbour, so an
        // un-warmed convergence hop would shed most of the storm.
        let mut warmed = vec![false; ndomains];
        let (mut first, mut rest) = (Vec::new(), Vec::with_capacity(senders.len()));
        for &h in &senders {
            if std::mem::replace(&mut warmed[domain_of(w, h)], true) {
                rest.push(h);
            } else {
                first.push(h);
            }
        }
        for round in [&first, &rest] {
            for &h in round {
                w.host_do(h, |host, ctx| {
                    if let Some(a) = host.iface_addr(0) {
                        host.send_ping(ctx, a.addr, target, 2);
                    }
                });
            }
            w.run_until_idle(idle_limit(round.len().max(1), params));
        }
        stats.flash_pings = senders.len() as u64;
        stats.flash_replies = senders
            .iter()
            .map(|&h| {
                w.host(h)
                    .icmp_log
                    .iter()
                    .filter(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 2, .. }))
                    .count() as u64
            })
            .sum();
    }

    // --- Mass re-registration ---------------------------------------------
    // Stride-chosen mobiles register with the home agent, the agent
    // restarts (losing every binding), and the same mobiles re-register —
    // the stampede a real deployment sees after a home-agent reboot.
    if churn.rereg > 0 && !index.hosts.is_empty() {
        let count = churn.rereg.min(index.hosts.len()).min(50_000);
        let step = (index.hosts.len() / count).max(1);
        let mut buf = Vec::with_capacity(mip_core::registration::REQUEST_LEN);
        for wave in 0..2u64 {
            // Like the flash crowd, each wave fires in two rounds: one
            // registrant per transit domain warms the shared ARP path to
            // the home agent, then the stampede proper. Wave 1 warms
            // again because wave 0's own success polluted the path: the
            // agent's per-binding gratuitous proxy ARPs blow the backbone
            // router's neighbour cache past its cap and the agent's own
            // entry is evicted with them.
            let mut warmed = vec![false; ndomains];
            let (mut first, mut rest) = (Vec::new(), Vec::with_capacity(count));
            for i in 0..count {
                let h = index.hosts[(i * step) % index.hosts.len()];
                if std::mem::replace(&mut warmed[domain_of(w, h)], true) {
                    rest.push((i, h));
                } else {
                    first.push((i, h));
                }
            }
            for round in [&first, &rest] {
                if round.is_empty() {
                    continue;
                }
                for &(i, h) in round {
                    // Fictional home addresses inside 10.255.0.0/16, clear
                    // of the home segment's own /24.
                    let home =
                        Ipv4Addr(0x0AFF_0000 | (1 + (i as u32 / 200)) << 8 | (1 + i as u32 % 200));
                    let ha_addr = index.ha_addr;
                    let lifetime = churn.lifetime;
                    buf.clear();
                    w.host_do(h, |host, ctx| {
                        let Some(a) = host.iface_addr(0) else { return };
                        let req = RegistrationRequest {
                            lifetime,
                            home_address: home,
                            home_agent: ha_addr,
                            care_of: a.addr,
                            ident: wave * 1_000_000 + i as u64,
                        };
                        req.emit_into(&mut buf);
                        let dgram =
                            UdpDatagram::new(5000, REGISTRATION_PORT, Bytes::copy_from_slice(&buf));
                        let mut pkt = Ipv4Packet::new(
                            a.addr,
                            ha_addr,
                            IpProtocol::Udp,
                            dgram.emit(a.addr, ha_addr),
                        );
                        pkt.ident = host.alloc_ident();
                        host.send_ip(ctx, pkt, TxMeta::default());
                    });
                    stats.registrations_sent += 1;
                }
                w.run_until_idle(idle_limit(round.len(), params));
            }
            if wave == 0 {
                stats.bindings_dropped = HomeAgent::restart(w, index.ha) as u64;
            }
        }
        stats.registrations_accepted = w
            .host_mut(index.ha)
            .hook_as::<HomeAgent>()
            .expect("home agent installed")
            .stats
            .registrations_accepted;
    }

    // --- Policy miss storm -------------------------------------------------
    // A flash crowd seen from the *policy* layer: one mobile's method
    // cache, sized at half the storm, faces `correspondents` distinct
    // first contacts while a small hot set keeps conversing. Measures
    // what the LRU eviction discipline preserves under pressure.
    if churn.correspondents > 0 {
        let storm = run_policy_storm(w.now(), churn.correspondents);
        stats.events += storm.decisions;
        stats.policy = Some(storm);
    }

    stats.events += stats.handoffs + stats.flash_pings + stats.registrations_sent;
    stats.sim_elapsed_us = w.now().since(t0).as_micros();
    stats
}

/// Drive one mobile's policy engine through a miss storm: cache capacity
/// is `correspondents / 2`, so the storm is twice the cap. A hot set with
/// learned demotion history keeps conversing throughout; the assertion the
/// scale tests make — and the count this reports — is that the LRU
/// discipline evicts only cold storm entries and every hot correspondent
/// keeps its history. Entirely deterministic: addresses, feedback and the
/// synthetic sim-clock all advance by arithmetic.
fn run_policy_storm(now0: SimTime, correspondents: usize) -> PolicyStormStats {
    let cap = (correspondents / 2).max(8);
    let hot = (cap / 8).clamp(1, 64);
    // Rules past the linear threshold so the storm exercises the compiled
    // bucketed-LPM path: the 198.19/16 storm range starts pessimistic,
    // sibling ranges get assorted strategies, everything else optimistic.
    let mut config = PolicyConfig::optimistic().with_cache_cap(cap);
    for i in 0..12u32 {
        config = config.with_rule(
            Ipv4Cidr::new(Ipv4Addr(0xC613_0000 + (i << 16)), 16),
            if i % 2 == 0 {
                Strategy::Pessimistic
            } else {
                Strategy::Optimistic
            },
        );
    }
    let mut policy = Policy::new(config);
    let mut t = now0;
    let tick = |policy: &mut Policy, t: &mut SimTime| {
        t.0 += 1;
        policy.audit.set_now(*t);
    };
    // Hot set at 198.18.0.x: first contact plus two failure signals each,
    // learning one demotion (DH → DE) of history worth preserving.
    let hot_addr = |i: usize| Ipv4Addr(0xC612_0000 + i as u32);
    for i in 0..hot {
        tick(&mut policy, &mut t);
        policy.mode_for(hot_addr(i));
        policy.record_feedback(hot_addr(i), true);
        policy.record_feedback(hot_addr(i), true);
    }
    // The storm at 198.19.0.0+: distinct cold first contacts, twice the
    // cache capacity, with the hot set conversing between bursts. The
    // refresh interval stays well under the cap so an actively conversing
    // correspondent can never sink to the LRU tail (hot + interval < cap).
    let interval = (cap / 4).clamp(1, 64);
    for i in 0..correspondents {
        tick(&mut policy, &mut t);
        policy.mode_for(Ipv4Addr(0xC613_0000 + i as u32));
        if i % interval == interval - 1 {
            for k in 0..hot {
                tick(&mut policy, &mut t);
                policy.record_feedback(hot_addr(k), false);
            }
        }
    }
    let hot_retained = (0..hot)
        .filter(|&i| policy.entry(hot_addr(i)).is_some_and(|e| e.demotions >= 1))
        .count() as u64;
    let cs = policy.cache_stats();
    PolicyStormStats {
        correspondents: correspondents as u64,
        cache_cap: cap as u64,
        decisions: cs.hits + cs.misses,
        hits: cs.hits,
        misses: cs.misses,
        evictions: cs.evictions,
        hot_set: hot as u64,
        hot_retained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleParams {
        ScaleParams {
            backbones: 2,
            transits_per_backbone: 2,
            stubs_per_transit: 2,
            hosts_per_stub: 3,
            seed: 7,
        }
    }

    #[test]
    fn shapes_cover_their_targets() {
        for n in [1, 10, 500, 10_000, 100_000] {
            let p = ScaleParams::with_hosts(n);
            assert!(p.total_hosts() >= n, "{n}: {p:?}");
            assert!(p.hosts_per_stub <= MAX_HOSTS_PER_STUB);
        }
    }

    #[test]
    fn cross_domain_ping_works_without_compute_routes() {
        let (mut w, ix) = build_world(&small());
        assert_eq!(ix.hosts.len(), 24);
        // First host of the first stub pings the first host of the last
        // stub — crosses stub → transit → backbone → transit → stub.
        let src_sid = ix.stubs[0].sid;
        let dst_sid = ix.stubs.last().unwrap().sid;
        let (src, dst) = (stub_host_addr(src_sid, 0), stub_host_addr(dst_sid, 0));
        let h = ix.hosts[0];
        w.host_do(h, |host, ctx| host.send_ping(ctx, src, dst, 9));
        w.run_until_idle(50_000);
        let log = &w.host(h).icmp_log;
        assert!(
            log.iter()
                .any(|e| matches!(e.message, IcmpMessage::EchoReply { .. })),
            "no echo reply: {log:?}"
        );
    }

    #[test]
    fn registration_reaches_the_home_agent() {
        let (mut w, ix) = build_world(&small());
        let stats = run_churn(
            &mut w,
            &ix,
            &ChurnParams {
                handoffs: 0,
                flash_crowd: 0,
                rereg: 5,
                lifetime: 120,
                correspondents: 0,
            },
        );
        assert_eq!(stats.registrations_sent, 10); // two waves
        assert_eq!(stats.registrations_accepted, 10);
        assert_eq!(stats.bindings_dropped, 5);
    }

    #[test]
    fn full_churn_runs_to_completion() {
        let (mut w, ix) = build_world(&small());
        let stats = run_churn(&mut w, &ix, &ChurnParams::default());
        assert!(stats.handoffs > 0);
        assert!(stats.flash_pings > 0);
        assert!(stats.flash_replies > 0, "flash target answered no pings");
        assert!(stats.events > 0);
        assert!(stats.sim_elapsed_us > 0);
        assert!(stats.policy.is_none(), "storm off by default");
    }

    #[test]
    fn policy_storm_evicts_only_cold_entries() {
        for correspondents in [64usize, 1024, 20_000] {
            let storm = run_policy_storm(SimTime(1_000), correspondents);
            assert_eq!(storm.correspondents, correspondents as u64);
            assert_eq!(
                storm.hot_retained, storm.hot_set,
                "{correspondents}: every hot correspondent keeps its history"
            );
            assert!(
                storm.evictions >= (correspondents / 2) as u64,
                "{correspondents}: a 2x-cap storm must evict about a capful"
            );
            assert_eq!(storm.decisions, storm.hits + storm.misses);
        }
    }

    #[test]
    fn policy_storm_stats_serialize_only_when_present() {
        let mut stats = ChurnStats::default();
        let json = serde_json::to_string(&stats).unwrap();
        assert!(!json.contains("policy"), "{json}");
        stats.policy = Some(PolicyStormStats::default());
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"policy\":{"), "{json}");
    }
}

//! E17 / §4 — loose source routing vs encapsulation.
//!
//! "Although we could use loose source routing, this achieves little that
//! can't be done equally well using an encapsulating header. Current IP
//! routers typically handle packets with options much more slowly than
//! they handle normal unadorned IP packets."
//!
//! Both mechanisms steer the mobile's outgoing packet through the home
//! agent. The measurements: LSR saves 12 bytes per packet over IP-in-IP
//! (8-byte option vs 20-byte header) — and pays the options slow path at
//! *every* router it crosses, and still exposes the home source address to
//! §3.1 filters, which encapsulation hides. The paper's dismissal,
//! quantified.

use bytes::Bytes;
use mip_core::scenario::{addrs, build, ip, ChKind, Scenario, ScenarioConfig};
use mip_core::{OutMode, PolicyConfig};
use netsim::device::TxMeta;
use netsim::wire::icmp::IcmpMessage;
use netsim::wire::ipv4::{IpProtocol, Ipv4Packet};
use netsim::wire::srcroute;
use netsim::SimDuration;

use crate::util::{ms, Table};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// How the packet is steered through the home agent.
pub enum Steering {
    /// Out-IE: encapsulate to the home agent.
    Encapsulation,
    /// RFC 791 loose source route through the home agent.
    LooseSourceRoute,
}

/// One steering measurement.
pub struct LsrOutcome {
    /// The probe reached the correspondent.
    pub delivered: bool,
    /// One-way delivery latency, µs; `None` when the probe never arrived.
    pub one_way_us: Option<u64>,
    /// Average bytes per wire traversal.
    pub wire_bytes_per_hop: u64,
    /// Times a router diverted the probe to its options slow path.
    pub slow_path_hits: u64,
}

fn scenario(filtered: bool) -> Scenario {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        visited_egress_filter: filtered,
        mh_policy: PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    // The home agent's host honours source routes for the LSR variant
    // (real agents of the era did; modern stacks disable this).
    s.world.host_mut(s.ha).set_forward_source_routes(true);
    s
}

/// Send one ping from the away mobile to the correspondent, steered
/// through the home agent by `method`.
pub fn probe(method: Steering, filtered: bool) -> LsrOutcome {
    let mut s = scenario(filtered);
    crate::report::observe_world(&mut s.world);
    s.roam_to_a();
    let mh = s.mh;
    let ch_addr = s.ch_addr();
    let home = ip(addrs::MH_HOME);
    let ha = ip(addrs::HA);
    s.world.trace.clear();

    match method {
        Steering::Encapsulation => {
            // The Fixed(IE) policy encapsulates for us.
            s.world
                .host_do(mh, |h, ctx| h.send_ping(ctx, home, ch_addr, 1));
        }
        Steering::LooseSourceRoute => {
            s.world.host_do(mh, |h, ctx| {
                let msg = IcmpMessage::EchoRequest {
                    ident: 0x4d49,
                    seq: 1,
                    payload: Bytes::from_static(b"mobility4x4 ping"),
                };
                let mut p = Ipv4Packet::new(home, ch_addr, IpProtocol::Icmp, msg.emit());
                p.ident = h.alloc_ident();
                srcroute::apply_route(&mut p, &[ha], ch_addr);
                // Bypass the mobility policy: LSR IS the steering.
                h.send_ip(
                    ctx,
                    p,
                    TxMeta {
                        skip_override: true,
                        ..TxMeta::default()
                    },
                );
            });
        }
    }
    s.world.run_for(SimDuration::from_secs(2));

    let delivered = s
        .world
        .host(s.ch)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoRequest { seq: 1, .. }));
    let probe = super::conversation(&s.world, (home, ch_addr, IpProtocol::Icmp));
    let one_way_us = probe.first_delivery_latency.map(|d| d.as_micros());
    let wire_bytes_per_hop = probe.counts.bytes_on_wire / probe.counts.wire_events.max(1);
    let slow_path_hits = [s.home_gw, s.visited_a_gw, s.visited_b_gw, s.ch_gw]
        .iter()
        .map(|&r| s.world.router_mut(r).slow_path_packets)
        .sum();
    crate::report::record_world(&format!("probe/{method:?}/filtered={filtered}"), &s.world);
    LsrOutcome {
        delivered,
        one_way_us,
        wire_bytes_per_hop,
        slow_path_hits,
    }
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let mut t = Table::new(
        "E17 §4 — steering via the home agent: loose source routing vs encapsulation",
        &[
            "method",
            "network",
            "delivered",
            "one-way ms",
            "wire B/hop",
            "router slow-path hits",
        ],
    );
    for filtered in [false, true] {
        for (method, name) in [
            (Steering::Encapsulation, "Out-IE encapsulation (+20 B)"),
            (Steering::LooseSourceRoute, "loose source route (+8 B)"),
        ] {
            let o = probe(method, filtered);
            t.row(&[
                name.to_string(),
                if filtered { "egress-filtered" } else { "open" }.to_string(),
                o.delivered.to_string(),
                ms(o.one_way_us),
                o.wire_bytes_per_hop.to_string(),
                o.slow_path_hits.to_string(),
            ]);
        }
    }
    t.note("LSR saves 12 B/packet but pays the options slow path at every router and still shows the home source to filters — 'this achieves little that can't be done equally well using an encapsulating header' (§4)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_methods_deliver_on_an_open_path() {
        let enc = probe(Steering::Encapsulation, false);
        let lsr = probe(Steering::LooseSourceRoute, false);
        assert!(enc.delivered);
        assert!(lsr.delivered, "the LSR machinery works end to end");
        // LSR is lighter per hop...
        assert!(lsr.wire_bytes_per_hop < enc.wire_bytes_per_hop);
        // ...but slower: it hit the options slow path at several routers.
        assert!(lsr.slow_path_hits >= 3, "hits: {}", lsr.slow_path_hits);
        assert_eq!(enc.slow_path_hits, 0);
        let (lsr_us, enc_us) = (lsr.one_way_us.unwrap(), enc.one_way_us.unwrap());
        assert!(lsr_us > enc_us + 1_000, "lsr {lsr_us} vs enc {enc_us}");
    }

    #[test]
    fn filters_see_through_lsr_but_not_encapsulation() {
        let enc = probe(Steering::Encapsulation, true);
        let lsr = probe(Steering::LooseSourceRoute, true);
        assert!(enc.delivered, "the tunnel hides the home source");
        assert!(!lsr.delivered, "the option leaves the home source exposed");
    }
}

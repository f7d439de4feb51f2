//! Extension / §6.1 — the security cost of automatic decapsulation.
//!
//! "Hosts that perform automatic decapsulation lose some degree of
//! firewall protection - automatic decapsulation makes it easy to spoof
//! packet source addresses - so automatic decapsulation should only be
//! done on hosts that use strong authentication mechanisms instead of
//! simply trusting the packet addresses."
//!
//! Reproduced as an attack: the home boundary ingress-filters spoofed
//! sources, so a plain packet claiming to come from a trusted inside host
//! dies at the border (Figure 2's filter doing its day job). But the same
//! forged packet *inside a tunnel* sails through — the filter only sees
//! the attacker's honest outer header — and a decap-capable victim
//! delivers it with the trusted source address. The experiment measures
//! both paths against both victim configurations.

use bytes::Bytes;
use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use netsim::device::TxMeta;
use netsim::wire::encap::{encapsulate, EncapFormat};
use netsim::wire::ipv4::{IpProtocol, Ipv4Packet};
use netsim::wire::udp::UdpDatagram;
use netsim::SimDuration;
use transport::udp;

use crate::util::Table;

/// Result of one spoofing attempt.
pub struct SpoofOutcome {
    /// Forged datagrams the victim's application actually received, with
    /// the trusted source address on them.
    pub accepted: usize,
}

/// The attacker (in the correspondent's domain) tries to make the victim
/// (the home-domain server) accept a datagram claiming to come from the
/// trusted home agent.
pub fn attack(tunnelled: bool, victim_decaps: bool) -> SpoofOutcome {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional, // the CH host plays the attacker
        home_ingress_filter: true,
        ..ScenarioConfig::default()
    });
    crate::report::observe_world(&mut s.world);
    s.world.host_mut(s.server).set_decap_capable(victim_decaps);
    udp::install(s.world.host_mut(s.server));
    let sock = udp::bind(s.world.host_mut(s.server), None, 2049); // NFS-ish
    let attacker = s.ch;
    let trusted = ip(addrs::HA); // claim to be the home agent
    let victim = ip(addrs::SERVER);

    s.world.host_do(attacker, |h, ctx| {
        let dgram = UdpDatagram::new(700, 2049, Bytes::from_static(b"forged request"));
        let mut forged = Ipv4Packet::new(
            trusted,
            victim,
            IpProtocol::Udp,
            dgram.emit(trusted, victim),
        );
        forged.ident = h.alloc_ident();
        let pkt = if tunnelled {
            // Honest outer header, forged inner packet (§6.1's attack).
            encapsulate(
                EncapFormat::IpInIp,
                ip(addrs::CH),
                victim,
                &forged,
                h.alloc_ident(),
            )
            .unwrap()
        } else {
            forged
        };
        h.send_ip(ctx, pkt, TxMeta::default());
    });
    s.world.run_for(SimDuration::from_secs(2));

    crate::report::record_world(
        &format!("spoof/tunnelled={tunnelled}/decaps={victim_decaps}"),
        &s.world,
    );
    let mut accepted = 0;
    while let Some(got) = udp::recv(s.world.host_mut(s.server), sock) {
        if got.from.0 == trusted {
            accepted += 1;
        }
    }
    SpoofOutcome { accepted }
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let mut t = Table::new(
        "Extension §6.1 — spoofing a trusted inside source past the ingress filter",
        &[
            "attack packet",
            "victim decapsulates",
            "forged datagram accepted",
        ],
    );
    for (tunnelled, label) in [
        (false, "plain (Figure 2 geometry)"),
        (true, "inside a tunnel"),
    ] {
        for decaps in [false, true] {
            let o = attack(tunnelled, decaps);
            t.row(&[
                label.to_string(),
                decaps.to_string(),
                if o.accepted > 0 {
                    "ACCEPTED"
                } else {
                    "blocked"
                }
                .to_string(),
            ]);
        }
    }
    t.note("the filter inspects only the outer header, so automatic decapsulation re-opens the spoofing hole the filter closed — 'automatic decapsulation should only be done on hosts that use strong authentication' (§6.1)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_spoof_is_filtered_regardless_of_victim() {
        assert_eq!(attack(false, false).accepted, 0);
        assert_eq!(attack(false, true).accepted, 0);
    }

    #[test]
    fn tunnelled_spoof_succeeds_only_against_auto_decapsulation() {
        assert_eq!(
            attack(true, false).accepted,
            0,
            "a non-decapsulating victim drops the tunnel"
        );
        assert_eq!(
            attack(true, true).accepted,
            1,
            "auto-decap accepts the forged inner source (§6.1's warning)"
        );
    }
}

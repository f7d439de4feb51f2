//! Ablation / §2, §3.3 — encapsulation format on a live workload.
//!
//! "Although adding an encapsulated IP header to the packet consumes
//! slightly more space than a redesigned TCP header might, this overhead
//! can be minimized by use of Generic Routing Encapsulation or Minimal
//! Encapsulation" (§2). Here the whole stack (mobile host *and* home
//! agent) runs each format under an identical bidirectionally-tunnelled
//! keystroke workload, and the wire pays what the wire pays.
//!
//! Also exercised: the RFC 2004 corner — Minimal Encapsulation cannot
//! carry fragments. This stack's home agent reassembles intercepted
//! datagrams before tunnelling (legal per RFC 2003, and it sidesteps the
//! limitation: the tunnel wraps a whole datagram and the *outer* packet
//! re-fragments normally). The check below pushes a fragmented datagram
//! through a Minimal-Encapsulation home agent and verifies it arrives.

use bytes::Bytes;
use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{OutMode, PolicyConfig};
use netsim::device::TxMeta;
use netsim::wire::encap::EncapFormat;
use netsim::wire::ipv4::{IpProtocol, Ipv4Packet};
use netsim::SimDuration;
use transport::apps::{KeystrokeSession, TcpEchoServer};

use crate::util::Table;

/// Wire accounting for one tunnelled workload run.
pub struct EncapOutcome {
    /// Tunnel packets put on the wire.
    pub tunnel_packets: u64,
    /// Total bytes of those tunnel packets.
    pub tunnel_bytes: u64,
    /// The workload completed without transport errors.
    pub session_ok: bool,
}

/// Run a 20-keystroke fully-tunnelled session under `format` and account
/// for every tunnel packet on the wire.
pub fn workload(format: EncapFormat) -> EncapOutcome {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        encap: format,
        mh_policy: PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    crate::report::observe_world(&mut s.world);
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(TcpEchoServer::new(23)));
    s.world.poll_soon(ch);
    s.roam_to_a();
    s.world.trace.clear();
    let mh = s.mh;
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 23),
        SimDuration::from_millis(200),
        20,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(10));

    crate::report::record_world(&format!("workload/{format:?}"), &s.world);
    let (mut tunnel_packets, mut tunnel_bytes) = (0, 0);
    for t in s
        .world
        .trace
        .conversations()
        .values()
        .flat_map(|c| c.tunnels)
    {
        tunnel_packets += t.sends;
        tunnel_bytes += t.send_bytes;
    }
    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    EncapOutcome {
        tunnel_packets,
        tunnel_bytes,
        session_ok: sess.all_echoed() && sess.broken.is_none(),
    }
}

/// Push a small and a fragmented datagram through a Minimal-Encapsulation
/// home agent; returns (MINENC tunnel sends, datagrams delivered at the
/// mobile).
pub fn minimal_with_fragments() -> (u64, usize) {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        encap: EncapFormat::Minimal,
        mh_policy: PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    s.roam_to_a();
    s.world.trace.clear();
    // The home-segment server sends one small and one oversized UDP
    // datagram to the mobile's home address; the big one fragments at the
    // server, and the HA must tunnel each fragment — which Minimal
    // Encapsulation cannot do.
    let server = s.server;
    s.world.host_do(server, |h, ctx| {
        for (ident, len) in [(1u16, 256usize), (2, 2800)] {
            let payload = vec![0u8; len];
            let mut p = Ipv4Packet::new(
                ip(addrs::SERVER),
                ip(addrs::MH_HOME),
                IpProtocol::Udp,
                netsim::wire::udp::UdpDatagram::new(5000, 5000, Bytes::from(payload))
                    .emit(ip(addrs::SERVER), ip(addrs::MH_HOME)),
            );
            p.ident = ident;
            h.send_ip(ctx, p, TxMeta::default());
        }
    });
    // The mobile needs a UDP listener to count deliveries.
    let mh = s.mh;
    let sock = transport::udp::bind(s.world.host_mut(mh), None, 5000);
    s.world.run_for(SimDuration::from_secs(2));
    let minenc = s
        .world
        .trace
        .conversations()
        .values()
        .map(|c| c.tunnels[EncapFormat::Minimal as usize].sends)
        .sum::<u64>();
    let mut delivered = 0;
    while transport::udp::recv(s.world.host_mut(mh), sock).is_some() {
        delivered += 1;
    }
    (minenc, delivered)
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let ipip = workload(EncapFormat::IpInIp);
    let minimal = workload(EncapFormat::Minimal);
    let gre = workload(EncapFormat::Gre);
    let mut t = Table::new(
        "Ablation §3.3 — tunnel format on a fully-tunnelled 20-keystroke session",
        &[
            "format",
            "session ok",
            "tunnel pkts",
            "tunnel wire bytes",
            "vs IP-in-IP",
        ],
    );
    for (name, o) in [
        ("IP-in-IP (+20 B)", &ipip),
        ("Minimal Encapsulation (+12 B)", &minimal),
        ("GRE (+28 B)", &gre),
    ] {
        let delta = o.tunnel_bytes as i64 - ipip.tunnel_bytes as i64;
        t.row(&[
            name.to_string(),
            o.session_ok.to_string(),
            o.tunnel_packets.to_string(),
            o.tunnel_bytes.to_string(),
            format!("{delta:+}"),
        ]);
    }
    let (minenc, delivered) = minimal_with_fragments();
    t.note(format!(
        "RFC 2004 check: the home agent reassembles before tunnelling, so a fragmented \
         datagram still rides Minimal Encapsulation whole ({minenc} MINENC tunnel sends, \
         {delivered}/2 datagrams delivered); per-fragment tunnelling would have required \
         the enforced IP-in-IP fallback"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_formats_carry_the_session_and_minimal_is_cheapest() {
        let ipip = workload(EncapFormat::IpInIp);
        let minimal = workload(EncapFormat::Minimal);
        let gre = workload(EncapFormat::Gre);
        for (n, o) in [("ipip", &ipip), ("minenc", &minimal), ("gre", &gre)] {
            assert!(o.session_ok, "{n} failed the workload");
            assert!(o.tunnel_packets > 0, "{n} saw no tunnels");
        }
        // Same conversation, same packet count, different byte bills.
        assert_eq!(ipip.tunnel_packets, minimal.tunnel_packets);
        assert!(minimal.tunnel_bytes < ipip.tunnel_bytes);
        assert!(gre.tunnel_bytes > ipip.tunnel_bytes);
        // Per-packet deltas are exactly the header-size differences.
        let per_pkt_saving = (ipip.tunnel_bytes - minimal.tunnel_bytes) / ipip.tunnel_packets;
        assert_eq!(per_pkt_saving, 8, "IPIP(20) - MinEnc(12) = 8 B/pkt");
    }

    #[test]
    fn fragmented_datagrams_survive_a_minimal_encapsulation_tunnel() {
        let (minenc, delivered) = minimal_with_fragments();
        assert_eq!(
            delivered, 2,
            "both datagrams (incl. the fragmented one) arrive"
        );
        assert!(
            minenc >= 2,
            "both rode Minimal Encapsulation after reassembly"
        );
    }
}

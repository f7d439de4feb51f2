//! A correspondent hook that *forces* one of the four In-modes of §5,
//! regardless of what would be sensible — the instrument that lets
//! experiment E8 probe all sixteen cells of Figure 10, including the dark
//! ones.
//!
//! A real correspondent host forms a belief about its peer's address and
//! emits transport checksums consistent with that belief. To force a cell,
//! this hook re-addresses outgoing packets between the mobile's home and
//! care-of addresses *and recomputes the transport checksum*, exactly as a
//! (possibly misguided) correspondent transport would have produced them.
//! Whether TCP then survives is measured, not assumed.

use std::any::Any;

use bytes::Bytes;

use mip_core::InMode;
use netsim::device::host::{MobilityHook, RouteDecision};
use netsim::device::TxMeta;
use netsim::wire::encap::{encapsulate, EncapFormat};
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use netsim::wire::tcpseg::TcpSegment;
use netsim::wire::udp::UdpDatagram;
use netsim::{Host, NetCtx, TransformKind};

/// Rebuild `pkt` with new addresses, recomputing the TCP/UDP checksum over
/// the new pseudo-header (what the sending transport would have emitted had
/// it believed in these endpoints all along).
pub fn readdress(pkt: &Ipv4Packet, new_src: Ipv4Addr, new_dst: Ipv4Addr) -> Ipv4Packet {
    let payload = match pkt.protocol {
        IpProtocol::Tcp => TcpSegment::parse_bytes(&pkt.payload, pkt.src, pkt.dst)
            .map(|seg| Bytes::from(seg.emit(new_src, new_dst)))
            .unwrap_or_else(|_| pkt.payload.clone()),
        IpProtocol::Udp => UdpDatagram::parse_bytes(&pkt.payload, pkt.src, pkt.dst)
            .map(|d| Bytes::from(d.emit(new_src, new_dst)))
            .unwrap_or_else(|_| pkt.payload.clone()),
        _ => pkt.payload.clone(),
    };
    Ipv4Packet {
        src: new_src,
        dst: new_dst,
        payload,
        ..pkt.clone()
    }
}

/// Forces every packet the correspondent sends toward the mobile (by either
/// address) to use exactly one In-mode.
pub struct ForcedChDelivery {
    /// The mobile's permanent home address.
    pub home: Ipv4Addr,
    /// The mobile's current care-of address.
    pub coa: Ipv4Addr,
    /// The mobile's home agent.
    pub home_agent: Ipv4Addr,
    /// The In-mode every mobile-bound packet is forced into.
    pub mode: InMode,
    /// Tunnel format used when encapsulating.
    pub encap: EncapFormat,
}

impl ForcedChDelivery {
    /// Install the forced-delivery hook on a correspondent host.
    pub fn install(
        world: &mut netsim::World,
        node: netsim::NodeId,
        home: Ipv4Addr,
        coa: Ipv4Addr,
        home_agent: Ipv4Addr,
        mode: InMode,
    ) {
        let host = world.host_mut(node);
        host.set_decap_capable(true);
        host.set_hook(Box::new(ForcedChDelivery {
            home,
            coa,
            home_agent,
            mode,
            encap: EncapFormat::IpInIp,
        }));
    }
}

impl MobilityHook for ForcedChDelivery {
    fn route_outgoing(
        &mut self,
        pkt: Ipv4Packet,
        _meta: TxMeta,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> RouteDecision {
        if pkt.dst != self.home && pkt.dst != self.coa {
            return RouteDecision::Continue(pkt); // not mobile-bound traffic
        }
        match self.mode {
            // Naïve addressing to the permanent home address: the Internet
            // (and the home agent) do the rest.
            InMode::IE => {
                let p = if pkt.dst == self.home {
                    pkt
                } else {
                    readdress(&pkt, pkt.src, self.home)
                };
                RouteDecision::Continue(p)
            }
            // Encapsulate to the care-of address ourselves.
            InMode::DE => {
                let inner = if pkt.dst == self.home {
                    pkt
                } else {
                    readdress(&pkt, pkt.src, self.home)
                };
                let ident = host.alloc_ident();
                match encapsulate(self.encap, inner.src, self.coa, &inner, ident) {
                    Some(mut outer) => {
                        outer.ttl = netsim::wire::ipv4::DEFAULT_TTL;
                        ctx.trace_transform(
                            TransformKind::Encapsulated(self.encap),
                            Some(&inner),
                            &outer,
                        );
                        RouteDecision::Continue(outer)
                    }
                    None => RouteDecision::Continue(inner),
                }
            }
            // Single link-layer hop, destination address untouched (home).
            InMode::DH => {
                let p = if pkt.dst == self.home {
                    pkt
                } else {
                    readdress(&pkt, pkt.src, self.home)
                };
                // Find the interface whose prefix holds the care-of addr.
                for iface in 0..host.nic().iface_count() {
                    if host
                        .nic()
                        .addr(iface)
                        .is_some_and(|a| a.prefix.contains(self.coa))
                    {
                        return RouteDecision::OnLink {
                            iface,
                            next_hop: self.coa,
                            pkt: p,
                        };
                    }
                }
                // Not actually on the mobile's segment: fall back to
                // ordinary routing (the packet will go to the home network).
                RouteDecision::Continue(p)
            }
            // Plain packets to the temporary address.
            InMode::DT => {
                let p = if pkt.dst == self.coa {
                    pkt
                } else {
                    readdress(&pkt, pkt.src, self.coa)
                };
                RouteDecision::Continue(p)
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

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn readdress_recomputes_tcp_checksum() {
        let seg = TcpSegment {
            src_port: 1000,
            dst_port: 23,
            seq: 1,
            ack: 2,
            flags: netsim::wire::tcpseg::TcpFlags::ack(),
            window: 100,
            mss: None,
            payload: Bytes::from_static(b"payload"),
        };
        let old_src = ip("18.26.0.5");
        let old_dst = ip("36.186.0.99");
        let pkt = Ipv4Packet::new(
            old_src,
            old_dst,
            IpProtocol::Tcp,
            Bytes::from(seg.emit(old_src, old_dst)),
        );
        let new_dst = ip("171.64.15.9");
        let re = readdress(&pkt, old_src, new_dst);
        assert_eq!(re.dst, new_dst);
        // Checksum must verify against the NEW pseudo-header...
        let parsed = TcpSegment::parse(&re.payload, re.src, re.dst).unwrap();
        assert_eq!(parsed.payload, seg.payload);
        // ...and fail against the old one.
        assert!(TcpSegment::parse(&re.payload, old_src, old_dst).is_err());
    }

    #[test]
    fn readdress_recomputes_udp_checksum() {
        let d = UdpDatagram::new(53, 5353, Bytes::from_static(b"answer"));
        let old_src = ip("1.1.1.1");
        let old_dst = ip("2.2.2.2");
        let pkt = Ipv4Packet::new(
            old_src,
            old_dst,
            IpProtocol::Udp,
            Bytes::from(d.emit(old_src, old_dst)),
        );
        let re = readdress(&pkt, ip("3.3.3.3"), ip("4.4.4.4"));
        assert!(UdpDatagram::parse(&re.payload, re.src, re.dst).is_ok());
        assert!(UdpDatagram::parse(&re.payload, old_src, old_dst).is_err());
    }
}

//! UDP sockets.
//!
//! The bind address carries meaning here, exactly as in the paper's Linux
//! implementation (§7.1.1): binding to a specific interface address tells
//! the mobility layer "honour this source address" (e.g. bind to the
//! care-of address for plain Out-DT delivery); binding to the wildcard or
//! the home address means "the mobility heuristics decide".

use std::any::Any;
use std::collections::VecDeque;

use bytes::Bytes;

use netsim::device::TxMeta;
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use netsim::wire::udp::UdpDatagram;
use netsim::{Host, IfaceNo, NetCtx, ProtocolHandler};

/// Handle to a UDP socket on some host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHandle(usize);

/// A received datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// The sender's address and port.
    pub from: (Ipv4Addr, u16),
    /// The destination address the datagram arrived with — lets mobility-
    /// aware services see which of their addresses the peer used.
    pub to: Ipv4Addr,
    /// Payload bytes.
    pub payload: Bytes,
}

#[derive(Debug)]
struct UdpSocket {
    bound_addr: Option<Ipv4Addr>,
    port: u16,
    rx: VecDeque<Received>,
    open: bool,
}

/// The UDP protocol handler: a table of sockets demultiplexed by
/// (address, port).
#[derive(Debug, Default)]
pub struct UdpLayer {
    sockets: Vec<UdpSocket>,
    next_ephemeral: u16,
    /// Datagrams that arrived for ports nobody listens on (observability).
    pub unmatched: u64,
}

impl UdpLayer {
    fn demux(&mut self, dst_addr: Ipv4Addr, dst_port: u16) -> Option<&mut UdpSocket> {
        // Exact address binding beats wildcard.
        let mut wildcard = None;
        for (i, s) in self.sockets.iter().enumerate() {
            if !s.open || s.port != dst_port {
                continue;
            }
            match s.bound_addr {
                Some(a) if a == dst_addr => return self.sockets.get_mut(i),
                None => wildcard = Some(i),
                _ => {}
            }
        }
        wildcard.map(move |i| &mut self.sockets[i])
    }

    fn alloc_port(&mut self) -> u16 {
        loop {
            self.next_ephemeral = if self.next_ephemeral < 49152 || self.next_ephemeral == u16::MAX
            {
                49152
            } else {
                self.next_ephemeral + 1
            };
            let p = self.next_ephemeral;
            if !self.sockets.iter().any(|s| s.open && s.port == p) {
                return p;
            }
        }
    }
}

impl ProtocolHandler for UdpLayer {
    fn on_packet(&mut self, pkt: &Ipv4Packet, _iface: IfaceNo, _host: &mut Host, ctx: &mut NetCtx) {
        let Ok(dgram) = UdpDatagram::parse_bytes(&pkt.payload, pkt.src, pkt.dst) else {
            return;
        };
        match self.demux(pkt.dst, dgram.dst_port) {
            Some(sock) => {
                let node = ctx.node;
                ctx.metrics().record_udp_received(node, dgram.payload.len());
                sock.rx.push_back(Received {
                    from: (pkt.src, dgram.src_port),
                    to: pkt.dst,
                    payload: dgram.payload,
                });
            }
            None => self.unmatched += 1,
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Register the UDP layer with a host. Idempotent.
pub fn install(host: &mut Host) {
    if host.handler_as::<UdpLayer>(IpProtocol::Udp).is_none() {
        host.register_handler(IpProtocol::Udp, Box::new(UdpLayer::default()));
    }
}

fn layer(host: &mut Host) -> &mut UdpLayer {
    host.handler_as::<UdpLayer>(IpProtocol::Udp)
        .expect("udp::install not called on this host")
}

/// Open a socket. `addr` of `None` binds the wildcard address ("let the
/// mobility heuristics decide"); `port` of 0 allocates an ephemeral port.
pub fn bind(host: &mut Host, addr: Option<Ipv4Addr>, port: u16) -> UdpHandle {
    let l = layer(host);
    let port = if port == 0 { l.alloc_port() } else { port };
    l.sockets.push(UdpSocket {
        bound_addr: addr,
        port,
        rx: VecDeque::new(),
        open: true,
    });
    UdpHandle(l.sockets.len() - 1)
}

/// The socket's local (address, port). The address is `None` for wildcard.
pub fn local_addr(host: &mut Host, h: UdpHandle) -> (Option<Ipv4Addr>, u16) {
    let s = &layer(host).sockets[h.0];
    (s.bound_addr, s.port)
}

/// Send one datagram. The source address comes from the socket's binding,
/// filtered through the host's mobility layer ([`Host::select_source`]) —
/// the decision point the paper highlights in §7.1.1.
pub fn send_to(
    host: &mut Host,
    ctx: &mut NetCtx,
    h: UdpHandle,
    dst: (Ipv4Addr, u16),
    payload: impl Into<Bytes>,
) -> bool {
    let (bound, src_port) = {
        let s = &layer(host).sockets[h.0];
        if !s.open {
            return false;
        }
        (s.bound_addr, s.port)
    };
    let src = match host.select_source(dst.0, Some(dst.1), bound) {
        Some(src) => src,
        // A DHCP-style client may legitimately broadcast before it has any
        // address at all (RFC 951/2131 semantics).
        None if dst.0.is_broadcast() => Ipv4Addr::UNSPECIFIED,
        // Multicast has no route-table entry; source from the first
        // configured interface (the default multicast interface).
        None if dst.0.is_multicast() => match host.addrs().first() {
            Some(&a) => a,
            None => return false,
        },
        None => return false,
    };
    let payload: Bytes = payload.into();
    let node = ctx.node;
    ctx.metrics().record_udp_sent(node, payload.len());
    let dgram = UdpDatagram::new(src_port, dst.1, payload);
    let mut pkt = Ipv4Packet::new(
        src,
        dst.0,
        IpProtocol::Udp,
        Bytes::from(dgram.emit(src, dst.0)),
    );
    pkt.ident = host.alloc_ident();
    host.send_ip(ctx, pkt, TxMeta::default());
    true
}

/// Pop the next received datagram, if any.
pub fn recv(host: &mut Host, h: UdpHandle) -> Option<Received> {
    layer(host).sockets[h.0].rx.pop_front()
}

/// Number of queued datagrams.
pub fn pending(host: &mut Host, h: UdpHandle) -> usize {
    layer(host).sockets[h.0].rx.len()
}

/// Close the socket; its port becomes reusable.
pub fn close(host: &mut Host, h: UdpHandle) {
    let s = &mut layer(host).sockets[h.0];
    s.open = false;
    s.rx.clear();
}

/// Count of datagrams that arrived with no matching socket.
pub fn unmatched(host: &mut Host) -> u64 {
    layer(host).unmatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HostConfig, LinkConfig, World};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn lan_pair() -> (World, netsim::NodeId, netsim::NodeId) {
        let mut w = World::new(3);
        let lan = w.add_segment(LinkConfig::lan());
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        w.attach(a, lan, Some("10.0.0.1/24"));
        w.attach(b, lan, Some("10.0.0.2/24"));
        install(w.host_mut(a));
        install(w.host_mut(b));
        (w, a, b)
    }

    #[test]
    fn datagram_roundtrip() {
        let (mut w, a, b) = lan_pair();
        let sb = bind(w.host_mut(b), None, 7777);
        let sa = bind(w.host_mut(a), None, 0);
        w.host_do(a, |h, ctx| {
            assert!(send_to(h, ctx, sa, (ip("10.0.0.2"), 7777), &b"hello"[..]));
        });
        w.run_until_idle(1_000);
        let got = recv(w.host_mut(b), sb).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"hello"));
        assert_eq!(got.from.0, ip("10.0.0.1"));
        assert_eq!(got.to, ip("10.0.0.2"));
        // Reply to the ephemeral port.
        let from = got.from;
        w.host_do(b, |h, ctx| {
            assert!(send_to(h, ctx, sb, from, &b"world"[..]));
        });
        w.run_until_idle(1_000);
        let back = recv(w.host_mut(a), sa).unwrap();
        assert_eq!(back.payload, Bytes::from_static(b"world"));
        assert_eq!(back.from, (ip("10.0.0.2"), 7777));
    }

    #[test]
    fn metrics_registry_counts_datagrams_and_bytes() {
        let (mut w, a, b) = lan_pair();
        w.enable_metrics();
        let sb = bind(w.host_mut(b), None, 7777);
        let sa = bind(w.host_mut(a), None, 0);
        w.host_do(a, |h, ctx| {
            assert!(send_to(h, ctx, sa, (ip("10.0.0.2"), 7777), &b"hello"[..]));
        });
        w.run_until_idle(1_000);
        let from = recv(w.host_mut(b), sb).unwrap().from;
        w.host_do(b, |h, ctx| {
            assert!(send_to(h, ctx, sb, from, &b"pong"[..]));
        });
        w.run_until_idle(1_000);
        assert!(recv(w.host_mut(a), sa).is_some());

        let (ma, mb) = (&w.metrics.node(a).udp, &w.metrics.node(b).udp);
        assert_eq!((ma.datagrams_sent, ma.bytes_sent), (1, 5));
        assert_eq!((ma.datagrams_received, ma.bytes_received), (1, 4));
        assert_eq!((mb.datagrams_sent, mb.bytes_sent), (1, 4));
        assert_eq!((mb.datagrams_received, mb.bytes_received), (1, 5));

        // A datagram for a dead port is counted as sent but not received.
        w.host_do(a, |h, ctx| {
            send_to(h, ctx, sa, (ip("10.0.0.2"), 9), &b"x"[..]);
        });
        w.run_until_idle(1_000);
        assert_eq!(w.metrics.node(a).udp.datagrams_sent, 2);
        assert_eq!(w.metrics.node(b).udp.datagrams_received, 1);
    }

    #[test]
    fn unmatched_port_is_counted_not_delivered() {
        let (mut w, a, b) = lan_pair();
        let sa = bind(w.host_mut(a), None, 0);
        w.host_do(a, |h, ctx| {
            send_to(h, ctx, sa, (ip("10.0.0.2"), 9), &b"x"[..]);
        });
        w.run_until_idle(1_000);
        assert_eq!(unmatched(w.host_mut(b)), 1);
    }

    #[test]
    fn specific_bind_beats_wildcard_and_filters_address() {
        let (mut w, a, b) = lan_pair();
        // b gets a second address on the same iface? Instead: bind the
        // wildcard and the specific address at the same port; specific wins.
        let wild = bind(w.host_mut(b), None, 53);
        let specific = bind(w.host_mut(b), Some(ip("10.0.0.2")), 53);
        let sa = bind(w.host_mut(a), None, 0);
        w.host_do(a, |h, ctx| {
            send_to(h, ctx, sa, (ip("10.0.0.2"), 53), &b"q"[..]);
        });
        w.run_until_idle(1_000);
        assert_eq!(pending(w.host_mut(b), specific), 1);
        assert_eq!(pending(w.host_mut(b), wild), 0);
    }

    #[test]
    fn bound_socket_uses_bound_source_address() {
        let (mut w, a, b) = lan_pair();
        let sb = bind(w.host_mut(b), None, 1000);
        // Bind explicitly to a's address — the §7.1.1 "I know what I'm
        // doing" signal. With no mobility hook the effect is the same, but
        // the address must be honoured.
        let sa = bind(w.host_mut(a), Some(ip("10.0.0.1")), 0);
        w.host_do(a, |h, ctx| {
            send_to(h, ctx, sa, (ip("10.0.0.2"), 1000), &b"m"[..]);
        });
        w.run_until_idle(1_000);
        assert_eq!(recv(w.host_mut(b), sb).unwrap().from.0, ip("10.0.0.1"));
    }

    #[test]
    fn closed_socket_rejects_send_and_frees_port() {
        let (mut w, a, _b) = lan_pair();
        let s1 = bind(w.host_mut(a), None, 2222);
        close(w.host_mut(a), s1);
        let ok = w.host_do(a, |h, ctx| {
            send_to(h, ctx, s1, (ip("10.0.0.2"), 1), &b"x"[..])
        });
        assert!(!ok);
        let s2 = bind(w.host_mut(a), None, 2222); // port reusable
        assert_eq!(local_addr(w.host_mut(a), s2).1, 2222);
    }

    #[test]
    fn ephemeral_ports_are_distinct() {
        let (mut w, a, _) = lan_pair();
        let s1 = bind(w.host_mut(a), None, 0);
        let s2 = bind(w.host_mut(a), None, 0);
        let p1 = local_addr(w.host_mut(a), s1).1;
        let p2 = local_addr(w.host_mut(a), s2).1;
        assert_ne!(p1, p2);
        assert!(p1 >= 49152 && p2 >= 49152);
    }
}

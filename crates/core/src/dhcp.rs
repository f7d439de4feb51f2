//! Minimal dynamic address assignment for visited networks.
//!
//! §2: the guest connection "may be obtained by connecting to an Ethernet
//! segment and having an address assigned automatically by DHCP". This is
//! a deliberately small DHCP-shaped protocol (one request, one reply — the
//! DISCOVER/OFFER/REQUEST/ACK dance adds nothing to the paper's claims):
//!
//! * client broadcasts a lease request from `0.0.0.0` (UDP 68 → 67);
//! * server answers with an address, prefix length, and default gateway;
//! * the client hands the lease to the mobile host's one attach step as an
//!   [`Attachment::CareOf`]: it addresses the interface, installs the
//!   default route, and — when a [`MobileHost`](crate::mobile_host::MobileHost)
//!   hook is present — records the move and starts registration with the
//!   home agent.
//!
//! A mobile host gets here through the one movement entry point,
//! [`move_to`](crate::mobile_host::move_to) with [`Attachment::Dhcp`].

use netsim::hash::FxHashMap;
use std::any::Any;

use netsim::device::nic::IfaceAddr;
use netsim::wire::ParseError;
use netsim::{App, Host, Ipv4Addr, Ipv4Cidr, NetCtx, SimDuration, SimTime, TimerHandle};
use transport::udp;

use crate::mobile_host::{attach, Attachment};

/// Server port.
pub const DHCP_SERVER_PORT: u16 = 67;
/// Client port.
pub const DHCP_CLIENT_PORT: u16 = 68;

/// A lease request (op 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRequest {
    /// Client-chosen transaction id matching requests to replies.
    pub xid: u32,
}

/// A granted lease (op 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Client-chosen transaction id matching requests to replies.
    pub xid: u32,
    /// The leased address.
    pub addr: Ipv4Addr,
    /// On-link prefix length for the leased address.
    pub prefix_len: u8,
    /// Default gateway for the visited network.
    pub gateway: Ipv4Addr,
}

impl LeaseRequest {
    /// Serialize to wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut b = vec![1u8];
        b.extend_from_slice(&self.xid.to_be_bytes());
        b
    }

    /// Parse from wire bytes.
    pub fn parse(data: &[u8]) -> Result<LeaseRequest, ParseError> {
        if data.len() < 5 {
            return Err(ParseError::Truncated {
                needed: 5,
                got: data.len(),
            });
        }
        if data[0] != 1 {
            return Err(ParseError::BadField {
                what: "dhcp op",
                value: u64::from(data[0]),
            });
        }
        Ok(LeaseRequest {
            xid: u32::from_be_bytes([data[1], data[2], data[3], data[4]]),
        })
    }
}

impl Lease {
    /// Serialize to wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut b = vec![2u8];
        b.extend_from_slice(&self.xid.to_be_bytes());
        b.extend_from_slice(&self.addr.octets());
        b.push(self.prefix_len);
        b.extend_from_slice(&self.gateway.octets());
        b
    }

    /// Parse from wire bytes.
    pub fn parse(data: &[u8]) -> Result<Lease, ParseError> {
        if data.len() < 14 {
            return Err(ParseError::Truncated {
                needed: 14,
                got: data.len(),
            });
        }
        if data[0] != 2 {
            return Err(ParseError::BadField {
                what: "dhcp op",
                value: u64::from(data[0]),
            });
        }
        Ok(Lease {
            xid: u32::from_be_bytes([data[1], data[2], data[3], data[4]]),
            addr: Ipv4Addr::from_octets([data[5], data[6], data[7], data[8]]),
            prefix_len: data[9],
            gateway: Ipv4Addr::from_octets([data[10], data[11], data[12], data[13]]),
        })
    }

    /// The lease as an interface address (address + on-link prefix).
    fn iface_addr(&self) -> IfaceAddr {
        IfaceAddr {
            addr: self.addr,
            prefix: Ipv4Cidr::new(self.addr, self.prefix_len),
        }
    }
}

/// The address-pool server, run as an [`App`] on some host of the visited
/// segment (often its router's companion box).
pub struct DhcpServer {
    pool: Ipv4Cidr,
    gateway: Ipv4Addr,
    /// Next host number to hand out.
    next: u32,
    sock: Option<udp::UdpHandle>,
    granted: FxHashMap<u32, Lease>,
    /// Distinct leases handed out.
    pub leases_granted: u64,
}

impl DhcpServer {
    /// Serve addresses `pool.nth(first)…` with the given default gateway.
    pub fn new(pool: Ipv4Cidr, gateway: Ipv4Addr, first: u32) -> DhcpServer {
        DhcpServer {
            pool,
            gateway,
            next: first,
            sock: None,
            granted: FxHashMap::default(),
            leases_granted: 0,
        }
    }
}

impl App for DhcpServer {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        let sock = *self
            .sock
            .get_or_insert_with(|| udp::bind(host, None, DHCP_SERVER_PORT));
        while let Some(got) = udp::recv(host, sock) {
            let Ok(req) = LeaseRequest::parse(&got.payload) else {
                continue;
            };
            // Same xid re-requests get the same lease (retransmissions).
            let lease = match self.granted.get(&req.xid) {
                Some(&l) => l,
                None => {
                    let addr = self.pool.nth(self.next);
                    self.next += 1;
                    self.leases_granted += 1;
                    let l = Lease {
                        xid: req.xid,
                        addr,
                        prefix_len: self.pool.prefix_len(),
                        gateway: self.gateway,
                    };
                    self.granted.insert(req.xid, l);
                    l
                }
            };
            // The client has no address yet: answer to the broadcast.
            udp::send_to(
                host,
                ctx,
                sock,
                (Ipv4Addr::BROADCAST, DHCP_CLIENT_PORT),
                lease.emit(),
            );
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Client state, run as an [`App`] on the (mobile) host. When the lease
/// arrives it attaches the host with it (see the module docs).
pub struct DhcpClient {
    xid: u32,
    sock: Option<udp::UdpHandle>,
    next_try: SimTime,
    /// The pending retransmit wakeup; cancelled once the lease completes
    /// so the exchange leaves nothing ticking in the scheduler.
    retry_timer: Option<TimerHandle>,
    /// Requests transmitted so far.
    pub tries: u32,
    /// The granted lease, once the exchange completes.
    pub lease: Option<Lease>,
}

impl DhcpClient {
    /// A client requesting a lease under transaction id `xid`.
    pub fn new(xid: u32) -> DhcpClient {
        DhcpClient {
            xid,
            sock: None,
            next_try: SimTime::ZERO,
            retry_timer: None,
            tries: 0,
            lease: None,
        }
    }
}

impl App for DhcpClient {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        if self.lease.is_some() {
            return;
        }
        let sock = *self
            .sock
            .get_or_insert_with(|| udp::bind(host, None, DHCP_CLIENT_PORT));
        // Completed?
        while let Some(got) = udp::recv(host, sock) {
            let Ok(lease) = Lease::parse(&got.payload) else {
                continue;
            };
            if lease.xid != self.xid {
                continue;
            }
            let how = Attachment::CareOf {
                addr: lease.iface_addr(),
                gateway: lease.gateway,
            };
            attach(host, ctx, how);
            // The exchange is complete: the pending retransmit wakeup is
            // dead weight in the scheduler.
            if let Some(h) = self.retry_timer.take() {
                ctx.cancel_timer(h);
            }
            self.lease = Some(lease);
            return;
        }
        // (Re)transmit the request.
        if ctx.now >= self.next_try {
            let req = LeaseRequest { xid: self.xid };
            udp::send_to(
                host,
                ctx,
                sock,
                (Ipv4Addr::BROADCAST, DHCP_SERVER_PORT),
                req.emit(),
            );
            self.tries += 1;
            self.next_try = ctx.now + SimDuration::from_secs(1);
            self.retry_timer = Some(host.request_wakeup(ctx, SimDuration::from_secs(1)));
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
    use crate::mobile_host::{move_to, MobileHost, MobileHostConfig};
    use netsim::wire::icmp::IcmpMessage;
    use netsim::{HostConfig, LinkConfig, RouterConfig, World};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn wire_roundtrips() {
        let r = LeaseRequest { xid: 0xabcd_1234 };
        assert_eq!(LeaseRequest::parse(&r.emit()).unwrap(), r);
        let l = Lease {
            xid: 0xabcd_1234,
            addr: ip("36.186.0.20"),
            prefix_len: 24,
            gateway: ip("36.186.0.254"),
        };
        assert_eq!(Lease::parse(&l.emit()).unwrap(), l);
        assert!(Lease::parse(&r.emit()).is_err());
        assert!(LeaseRequest::parse(&[]).is_err());
    }

    #[test]
    fn plain_host_acquires_address_and_routes() {
        let mut w = World::new(51);
        let lan = w.add_segment(LinkConfig::lan());
        let srv = w.add_host(HostConfig::conventional("dhcp-srv"));
        let client = w.add_host(HostConfig::conventional("laptop"));
        w.attach(srv, lan, Some("36.186.0.254/24"));
        w.attach(client, lan, None); // no address yet
        udp::install(w.host_mut(srv));
        udp::install(w.host_mut(client));
        w.host_mut(srv).add_app(Box::new(DhcpServer::new(
            "36.186.0.0/24".parse().unwrap(),
            ip("36.186.0.254"),
            20,
        )));
        w.poll_soon(srv);
        let app = w.host_mut(client).add_app(Box::new(DhcpClient::new(77)));
        w.poll_soon(client);
        w.run_for(SimDuration::from_secs(3));

        let lease = w
            .host_mut(client)
            .app_as::<DhcpClient>(app)
            .unwrap()
            .lease
            .expect("leased");
        assert_eq!(lease.addr, ip("36.186.0.20"));
        assert_eq!(w.host(client).addrs(), vec![ip("36.186.0.20")]);
        // The address actually works.
        w.host_do(client, |h, ctx| {
            h.send_ping(ctx, ip("36.186.0.20"), ip("36.186.0.254"), 1)
        });
        w.run_for(SimDuration::from_secs(1));
        assert!(w
            .host(client)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { .. })));
    }

    #[test]
    fn distinct_clients_get_distinct_addresses() {
        let mut w = World::new(52);
        let lan = w.add_segment(LinkConfig::lan());
        let srv = w.add_host(HostConfig::conventional("dhcp-srv"));
        let c1 = w.add_host(HostConfig::conventional("c1"));
        let c2 = w.add_host(HostConfig::conventional("c2"));
        w.attach(srv, lan, Some("36.186.0.254/24"));
        w.attach(c1, lan, None);
        w.attach(c2, lan, None);
        for n in [srv, c1, c2] {
            udp::install(w.host_mut(n));
        }
        w.host_mut(srv).add_app(Box::new(DhcpServer::new(
            "36.186.0.0/24".parse().unwrap(),
            ip("36.186.0.254"),
            20,
        )));
        w.poll_soon(srv);
        let a1 = w.host_mut(c1).add_app(Box::new(DhcpClient::new(1)));
        let a2 = w.host_mut(c2).add_app(Box::new(DhcpClient::new(2)));
        w.poll_soon(c1);
        w.poll_soon(c2);
        w.run_for(SimDuration::from_secs(3));
        let l1 = w
            .host_mut(c1)
            .app_as::<DhcpClient>(a1)
            .unwrap()
            .lease
            .unwrap();
        let l2 = w
            .host_mut(c2)
            .app_as::<DhcpClient>(a2)
            .unwrap()
            .lease
            .unwrap();
        assert_ne!(l1.addr, l2.addr);
        assert_eq!(
            w.host_mut(srv)
                .app_as::<DhcpServer>(0)
                .unwrap()
                .leases_granted,
            2
        );
    }

    #[test]
    fn mobile_host_moves_via_dhcp_and_registers() {
        // home — backbone — visited with a DHCP server; full §2 sequence.
        let mut w = World::new(53);
        let home = w.add_segment(LinkConfig::lan());
        let visited = w.add_segment(LinkConfig::lan());
        let backbone = w.add_segment(LinkConfig::wan(10));
        let ha = w.add_host(HostConfig::agent("ha"));
        let mh = w.add_host(HostConfig::conventional("mh"));
        let dhcp = w.add_host(HostConfig::conventional("dhcp"));
        let rh = w.add_router(RouterConfig::named("rh"));
        let rv = w.add_router(RouterConfig::named("rv"));
        let ha_if = w.attach(ha, home, Some("171.64.15.1/24"));
        w.attach(mh, home, Some("171.64.15.9/24"));
        w.attach(dhcp, visited, Some("36.186.0.2/24"));
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
        udp::install(w.host_mut(mh));
        udp::install(w.host_mut(dhcp));
        w.host_mut(dhcp).add_app(Box::new(DhcpServer::new(
            "36.186.0.0/24".parse().unwrap(),
            ip("36.186.0.254"),
            100,
        )));
        w.poll_soon(dhcp);

        move_to(&mut w, mh, visited, Attachment::Dhcp { xid: 0xbeef });
        w.run_for(SimDuration::from_secs(5));

        let hook = w.host_mut(mh).hook_as::<MobileHost>().unwrap();
        assert_eq!(hook.care_of(), Some(ip("36.186.0.100")));
        assert!(hook.is_registered(), "registered via DHCP-acquired address");
    }
}

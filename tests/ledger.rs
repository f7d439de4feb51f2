//! DESIGN.md's ledger of what one packet costs, as a test: a full-size UDP
//! datagram crossing `h` routers allocates its datagram buffer, its frame
//! and one patched copy per router hop — `2 + h` blocks, each buffer and
//! its reference count in one — and, tunnelled IP-in-IP, two more: the
//! inner packet the encapsulation emits and the receiver's list of the
//! layers it peeled. Nothing else allocates once the path is warm: not the
//! scheduler, not the receiver's parse into views, not the socket the
//! datagram lands in.

use bytes::Bytes;
use netsim::device::TxMeta;
use netsim::profile::thread_allocations;
use netsim::wire::encap::{encapsulate, EncapFormat};
use netsim::wire::ipv4::{IpProtocol, Ipv4Packet};
use netsim::wire::udp::UdpDatagram;
use netsim::{HostConfig, Ipv4Addr, LinkConfig, RouterConfig, SimTime, World};
use transport::udp;

const PORT: u16 = 9;

/// Allocations of the third of three identical sends from `a` to `b`
/// across `hops` routers, the trace off. The first resolves ARP; the
/// second, a warm-up datagram, grows every amortized buffer the third
/// passes through.
fn warm_send_allocations(hops: usize, tunnel: bool) -> u64 {
    let mut w = World::new(1);
    w.trace.set_enabled(false);
    let lans: Vec<_> = (0..=hops)
        .map(|_| w.add_segment(LinkConfig::lan()))
        .collect();
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::decap_capable("b"));
    w.attach(a, lans[0], Some("10.0.0.10/24"));
    w.attach(b, lans[hops], Some(&format!("10.0.{hops}.20/24")));
    for (i, pair) in lans.windows(2).enumerate() {
        let r = w.add_router(RouterConfig::named(&format!("r{i}")));
        w.attach(r, pair[0], Some(&format!("10.0.{i}.1/24")));
        w.attach(r, pair[1], Some(&format!("10.0.{}.2/24", i + 1)));
    }
    w.compute_routes();
    let (src, dst): (Ipv4Addr, Ipv4Addr) = (
        "10.0.0.10".parse().unwrap(),
        format!("10.0.{hops}.20").parse().unwrap(),
    );
    udp::install(w.host_mut(b));
    let sock = udp::bind(w.host_mut(b), None, PORT);
    let payload = Bytes::from(vec![7; 1400]);

    let mut reading = 0;
    for ident in 1..=3 {
        // Send at a whole multiple of 2²⁴ µs, reached by a timer so the
        // scheduler's wheel stands there too: the second and third sends
        // then queue their events into the same, already grown, buckets.
        let at = SimTime(u64::from(ident) << 24);
        w.host_do(a, |h, ctx| h.request_wakeup(ctx, at.since(ctx.now)));
        w.run_until_idle(10);
        let payload = payload.clone();
        let before = thread_allocations().0;
        w.host_do(a, |h, ctx| {
            let dgram = UdpDatagram::new(PORT, PORT, payload).emit(src, dst);
            let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, dgram);
            pkt.ident = ident;
            if tunnel {
                pkt = encapsulate(EncapFormat::IpInIp, src, dst, &pkt, ident).unwrap();
            }
            h.send_ip(ctx, pkt, TxMeta::default());
        });
        w.run_until_idle(10_000);
        reading = thread_allocations().0 - before;
        let got = udp::recv(w.host_mut(b), sock).expect("the datagram arrives");
        assert_eq!(got.payload.len(), 1400);
    }
    reading
}

#[test]
fn a_datagram_allocates_one_block_per_buffer_it_crosses() {
    for hops in [0, 1, 3] {
        assert_eq!(
            warm_send_allocations(hops, false),
            2 + hops as u64,
            "datagram, frame and one copy per hop, across {hops} routers"
        );
    }
}

#[test]
fn a_tunnelled_datagram_adds_its_inner_packet_and_layer_list() {
    for hops in [0, 1, 3] {
        assert_eq!(
            warm_send_allocations(hops, true),
            4 + hops as u64,
            "datagram, inner packet, frame, one copy per hop across {hops} routers, \
             and the peeled layers"
        );
    }
}

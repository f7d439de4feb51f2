//! ARP behaviour tests: cache lifetime, the gratuitous/proxy mechanics the
//! home agent depends on (RFC 1027), and pending-queue limits.

use netsim::{DropReason, HostConfig, Ipv4Addr, LinkConfig, SimDuration, TraceEventKind, World};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

#[test]
fn arp_entries_expire_and_are_relearned() {
    let mut w = World::new(3);
    let lan = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 1)
    });
    w.run_until_idle(1_000);
    let now = w.now();
    assert!(w.host(a).nic().arp_lookup(0, ip("10.0.0.2"), now).is_some());
    // After the 60 s ARP TTL the entry is stale...
    w.run_for(SimDuration::from_secs(61));
    let later = w.now();
    assert!(w
        .host(a)
        .nic()
        .arp_lookup(0, ip("10.0.0.2"), later)
        .is_none());
    // ...but traffic re-resolves transparently.
    w.host_do(a, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 2)
    });
    w.run_until_idle(1_000);
    assert!(w.host(a).icmp_log.iter().any(|e| matches!(
        e.message,
        netsim::wire::icmp::IcmpMessage::EchoReply { seq: 2, .. }
    )));
}

#[test]
fn gratuitous_arp_redirects_traffic_between_stations() {
    // The proxy-capture primitive: after `thief` broadcasts a gratuitous
    // ARP for victim's address, traffic to that address goes to thief.
    let mut w = World::new(7);
    let lan = w.add_segment(LinkConfig::lan());
    let client = w.add_host(HostConfig::conventional("client"));
    let victim = w.add_host(HostConfig::conventional("victim"));
    let thief = w.add_host(HostConfig::conventional("thief"));
    w.attach(client, lan, Some("10.0.0.1/24"));
    w.attach(victim, lan, Some("10.0.0.2/24"));
    w.attach(thief, lan, Some("10.0.0.3/24"));

    // Normal resolution first.
    w.host_do(client, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 1)
    });
    w.run_until_idle(1_000);
    assert_eq!(w.host(victim).icmp_log.len(), 1);

    // The thief usurps the address (what a home agent does when the mobile
    // leaves) and intercepts it so the stack accepts the packets.
    w.host_mut(thief).add_intercept(ip("10.0.0.2"));
    w.host_do(thief, |h, ctx| {
        h.send_gratuitous_arp(ctx, 0, ip("10.0.0.2"))
    });
    w.run_until_idle(1_000);

    w.host_do(client, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 2)
    });
    w.run_until_idle(1_000);
    // Victim never saw ping 2; the thief's node received the frame (it has
    // no hook, so the packet dies as NoListener — visible in the trace).
    assert_eq!(
        w.host(victim).icmp_log.len(),
        1,
        "victim no longer receives"
    );
    let thief_id = thief;
    assert!(w.trace.events().iter().any(|e| e.node == thief_id
        && matches!(
            e.kind,
            netsim::TraceEventKind::DeliveredLocal | netsim::TraceEventKind::Dropped(_)
        )
        && e.packet.dst == ip("10.0.0.2")));

    // And the victim can reclaim its address the same way (the mobile host
    // returning home).
    w.host_do(victim, |h, ctx| {
        h.send_gratuitous_arp(ctx, 0, ip("10.0.0.2"))
    });
    w.run_until_idle(1_000);
    w.host_do(client, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.2"), 3)
    });
    w.run_until_idle(1_000);
    assert!(w.host(victim).icmp_log.iter().any(|e| matches!(
        e.message,
        netsim::wire::icmp::IcmpMessage::EchoRequest { seq: 3, .. }
    )));
}

#[test]
fn unresolvable_neighbour_drops_overflow_with_arp_failure() {
    let mut w = World::new(11);
    let lan = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    // 12 pings to an address nobody owns: the per-neighbour pending queue
    // holds 8; the overflow is dropped with an attributed reason.
    w.host_do(a, |h, ctx| {
        for seq in 0..12 {
            h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.77"), seq);
        }
    });
    w.run_until_idle(10_000);
    let events = w.trace.events();
    let drops: Vec<_> = events
        .iter()
        .filter(|e| e.packet.dst == ip("10.0.0.77"))
        .filter_map(|e| match e.kind {
            TraceEventKind::Dropped(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(drops.len(), 4, "12 queued - 8 capacity = 4 dropped");
    assert!(drops.iter().all(|r| *r == DropReason::ArpFailure));
}

#[test]
fn proxy_arp_answers_only_for_registered_addresses() {
    let mut w = World::new(13);
    let lan = w.add_segment(LinkConfig::lan());
    let client = w.add_host(HostConfig::conventional("client"));
    let proxy = w.add_host(HostConfig::conventional("proxy"));
    w.attach(client, lan, Some("10.0.0.1/24"));
    w.attach(proxy, lan, Some("10.0.0.3/24"));
    w.host_mut(proxy).add_proxy_arp(ip("10.0.0.50"));

    // Proxied address resolves (to the proxy's MAC)...
    w.host_do(client, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.50"), 1)
    });
    w.run_until_idle(1_000);
    let now = w.now();
    let proxied = w.host(client).nic().arp_lookup(0, ip("10.0.0.50"), now);
    assert_eq!(proxied, Some(w.host(proxy).nic().mac(0)));

    // ...a random unproxied address does not.
    w.host_do(client, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.51"), 2)
    });
    w.run_until_idle(1_000);
    let now = w.now();
    assert!(w
        .host(client)
        .nic()
        .arp_lookup(0, ip("10.0.0.51"), now)
        .is_none());

    // Withdrawing the proxy stops the answering (after cache expiry).
    w.host_mut(proxy).remove_proxy_arp(ip("10.0.0.50"));
    w.run_for(SimDuration::from_secs(61));
    w.host_do(client, |h, ctx| {
        h.send_ping(ctx, ip("10.0.0.1"), ip("10.0.0.50"), 3)
    });
    w.run_until_idle(1_000);
    let now = w.now();
    assert!(w
        .host(client)
        .nic()
        .arp_lookup(0, ip("10.0.0.50"), now)
        .is_none());
}

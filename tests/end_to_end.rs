//! Cross-crate integration tests: whole-system journeys that exercise the
//! full stack (netsim + transport + mip-core) in combinations no single
//! crate's unit tests cover.

use mobility4x4::mip_core::dhcp::DhcpServer;
use mobility4x4::mip_core::dns::{DnsLookup, TaRegistrar};
use mobility4x4::mip_core::home_agent::{HomeAgent, HomeAgentConfig};
use mobility4x4::mip_core::mobile_host::{move_to, Attachment, MobileHost, MobileHostConfig};
use mobility4x4::mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mobility4x4::mip_core::{MobileAwareCh, OutMode, PolicyConfig};
use mobility4x4::netsim::wire::icmp::IcmpMessage;
use mobility4x4::netsim::{HostConfig, LinkConfig, RouterConfig, SimDuration, World};
use mobility4x4::transport::apps::{BulkSender, KeystrokeSession, SinkServer, TcpEchoServer};
use mobility4x4::transport::{tcp, udp};

/// The full §2 lifecycle with every service in play at once: DHCP address
/// acquisition, DNS TA publication, home-agent redirects, and a live TCP
/// session, across a mid-session move.
#[test]
fn full_service_roaming_lifecycle() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::MobileAware,
        ha_redirects: true,
        with_dns: true,
        ..ScenarioConfig::default()
    });
    // A DHCP server on visited-A.
    let dhcp = s.world.add_host(HostConfig::conventional("dhcp"));
    s.world.attach(dhcp, s.visited_a, Some("36.186.0.2/24"));
    udp::install(s.world.host_mut(dhcp));
    s.world.host_mut(dhcp).add_app(Box::new(DhcpServer::new(
        "36.186.0.0/24".parse().unwrap(),
        ip(addrs::VISITED_A_GW),
        64,
    )));
    s.world.poll_soon(dhcp);

    // Echo service at the correspondent.
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(TcpEchoServer::new(23)));
    s.world.poll_soon(ch);

    // Leave home via DHCP.
    let mh = s.mh;
    let dhcp = Attachment::Dhcp { xid: 0x1234 };
    move_to(&mut s.world, mh, s.visited_a, dhcp);
    s.world.run_for(SimDuration::from_secs(5));
    assert_eq!(s.mh_hook().care_of(), Some(ip("36.186.0.64")));
    assert!(s.mh_registered());

    // The TA record reflects the DHCP-acquired address.
    let lookup = s
        .world
        .host_mut(ch)
        .add_app(Box::new(DnsLookup::new(ip(addrs::DNS), addrs::MH_NAME)));
    s.world.poll_soon(ch);
    s.world.run_for(SimDuration::from_secs(2));
    let res = s
        .world
        .host_mut(ch)
        .app_as::<DnsLookup>(lookup)
        .unwrap()
        .result
        .clone()
        .expect("DNS answered");
    assert_eq!(res.ta, Some(ip("36.186.0.64")));

    // Start a session; move to B mid-session; the DNS-learned binding goes
    // stale but the home agent still delivers and re-educates the CH.
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 23),
        SimDuration::from_millis(300),
        20,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(3));
    move_to(
        &mut s.world,
        mh,
        s.visited_b,
        Attachment::care_of(addrs::COA_B_CIDR, ip(addrs::VISITED_B_GW)),
    );
    s.world.run_for(SimDuration::from_secs(30));

    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    assert!(
        sess.broken.is_none() && sess.all_echoed(),
        "typed {} echoed {} broken {:?}",
        sess.typed(),
        sess.echoed,
        sess.broken
    );
    // The CH's binding cache now points at the NEW care-of address
    // (re-learned from the home agent's redirect after the move).
    let hook = s.world.host_mut(ch).hook_as::<MobileAwareCh>().unwrap();
    assert_eq!(
        hook.binding(ip(addrs::MH_HOME)).map(|b| b.care_of),
        Some(ip(addrs::COA_B))
    );
}

/// Two mobile hosts served by two different home agents talk to each other
/// while both are away — "the same techniques and optimizations apply
/// equally well if both hosts are mobile" (§1).
#[test]
fn mobile_to_mobile_conversation() {
    let mut w = World::new(99);
    // Two home networks, two visited networks, one backbone.
    let home_a = w.add_segment(LinkConfig::lan());
    let home_b = w.add_segment(LinkConfig::lan());
    let visit_a = w.add_segment(LinkConfig::lan());
    let visit_b = w.add_segment(LinkConfig::lan());
    let backbone = w.add_segment(LinkConfig::wan(20));

    let ha_a = w.add_host(HostConfig::agent("ha-a"));
    let ha_b = w.add_host(HostConfig::agent("ha-b"));
    let mh_a = w.add_host(HostConfig::conventional("mh-a"));
    let mh_b = w.add_host(HostConfig::conventional("mh-b"));
    let r1 = w.add_router(RouterConfig::named("r1"));
    let r2 = w.add_router(RouterConfig::named("r2"));
    let r3 = w.add_router(RouterConfig::named("r3"));
    let r4 = w.add_router(RouterConfig::named("r4"));

    let haa_if = w.attach(ha_a, home_a, Some("10.1.0.1/24"));
    let hab_if = w.attach(ha_b, home_b, Some("10.2.0.1/24"));
    w.attach(mh_a, home_a, Some("10.1.0.9/24"));
    w.attach(mh_b, home_b, Some("10.2.0.9/24"));
    w.attach(r1, home_a, Some("10.1.0.254/24"));
    w.attach(r1, backbone, Some("192.168.0.1/24"));
    w.attach(r2, home_b, Some("10.2.0.254/24"));
    w.attach(r2, backbone, Some("192.168.0.2/24"));
    w.attach(r3, visit_a, Some("10.3.0.254/24"));
    w.attach(r3, backbone, Some("192.168.0.3/24"));
    w.attach(r4, visit_b, Some("10.4.0.254/24"));
    w.attach(r4, backbone, Some("192.168.0.4/24"));
    w.compute_routes();

    HomeAgent::install(
        &mut w,
        ha_a,
        HomeAgentConfig::new(ip2("10.1.0.1"), "10.1.0.0/24".parse().unwrap(), haa_if),
    );
    HomeAgent::install(
        &mut w,
        ha_b,
        HomeAgentConfig::new(ip2("10.2.0.1"), "10.2.0.0/24".parse().unwrap(), hab_if),
    );
    MobileHost::install(
        &mut w,
        mh_a,
        MobileHostConfig::new("10.1.0.9/24", ip2("10.1.0.1"))
            .with_policy(PolicyConfig::fixed(OutMode::IE).without_dt_ports()),
    );
    MobileHost::install(
        &mut w,
        mh_b,
        MobileHostConfig::new("10.2.0.9/24", ip2("10.2.0.1"))
            .with_policy(PolicyConfig::fixed(OutMode::IE).without_dt_ports()),
    );
    for n in [mh_a, mh_b] {
        udp::install(w.host_mut(n));
        tcp::install(w.host_mut(n));
    }

    // Both roam.
    let coa_a = Attachment::care_of("10.3.0.99/24", ip2("10.3.0.254"));
    move_to(&mut w, mh_a, visit_a, coa_a);
    let coa_b = Attachment::care_of("10.4.0.99/24", ip2("10.4.0.254"));
    move_to(&mut w, mh_b, visit_b, coa_b);
    w.run_for(SimDuration::from_secs(3));

    // mh_b serves echo; mh_a types at it — home address to home address,
    // each direction relayed by the *other* host's home agent.
    w.host_mut(mh_b).add_app(Box::new(TcpEchoServer::new(23)));
    w.poll_soon(mh_b);
    let app = w.host_mut(mh_a).add_app(Box::new(KeystrokeSession::new(
        (ip2("10.2.0.9"), 23),
        SimDuration::from_millis(300),
        10,
    )));
    w.poll_soon(mh_a);
    w.run_for(SimDuration::from_secs(20));

    let sess = w.host_mut(mh_a).app_as::<KeystrokeSession>(app).unwrap();
    assert!(
        sess.broken.is_none() && sess.all_echoed(),
        "mobile-to-mobile session: typed {} echoed {}",
        sess.typed(),
        sess.echoed
    );
    // Both home agents did tunnelling work.
    for (ha, name) in [(ha_a, "ha-a"), (ha_b, "ha-b")] {
        let hook = w.host_mut(ha).hook_as::<HomeAgent>().unwrap();
        assert!(hook.stats.packets_tunneled > 0, "{name} tunneled nothing");
    }
}

fn ip2(s: &str) -> mobility4x4::netsim::Ipv4Addr {
    s.parse().unwrap()
}

/// Bulk data upload from the mobile under a lossy wireless-ish visited
/// link, crossing a mid-transfer handoff: the data must arrive complete
/// and intact (the §2 durability claim under fire).
#[test]
fn bulk_transfer_survives_loss_and_handoff() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        mh_policy: PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    // Make visited-A lossy like a bad radio link.
    s.world.segment_config_mut(s.visited_a).fault = mobility4x4::netsim::FaultInjector {
        drop_prob: 0.05,
        ..Default::default()
    };
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world.host_mut(ch).add_app(Box::new(SinkServer::new(9)));
    s.world.poll_soon(ch);

    s.roam_to_a();
    let mh = s.mh;
    let app = s
        .world
        .host_mut(mh)
        .add_app(Box::new(BulkSender::new((ch_addr, 9), 300_000)));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(3));
    s.roam_to_b(); // handoff mid-transfer (to a clean link)
    s.world.run_for(SimDuration::from_secs(240));

    let outcome = s
        .world
        .host_mut(mh)
        .app_as::<BulkSender>(app)
        .unwrap()
        .outcome
        .expect("transfer finished");
    assert!(outcome.completed(), "{outcome:?}");
    let sink = s.world.host_mut(ch).app_as::<SinkServer>(0).unwrap();
    assert_eq!(
        sink.bytes_received, 300_000,
        "every byte arrived exactly once"
    );
}

/// The mobile host is reachable at its home address in ALL locations, and
/// unreachable states never leak: home → away → away → home, probed by a
/// remote pinger at every stop.
#[test]
fn reachability_is_continuous_across_the_journey() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        mh_policy: PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    let mh_home = ip(addrs::MH_HOME);
    let mut seq = 0u16;
    let mut probe = |s: &mut mobility4x4::mip_core::scenario::Scenario, where_: &str| {
        seq += 1;
        let this_seq = seq;
        s.world
            .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, this_seq));
        s.world.run_for(SimDuration::from_secs(3));
        let answered =
            s.world.host(ch).icmp_log.iter().any(
                |e| matches!(e.message, IcmpMessage::EchoReply { seq: rs, .. } if rs == this_seq),
            );
        assert!(answered, "unreachable while {where_}");
    };

    probe(&mut s, "at home");
    s.roam_to_a();
    probe(&mut s, "at visited A");
    s.roam_to_b();
    probe(&mut s, "at visited B");
    s.go_home();
    probe(&mut s, "home again");
}

/// §7.1.1 heuristics end to end: a DNS lookup from the away mobile goes
/// Out-DT (port 53), even while telnet to the same region uses Mobile IP.
#[test]
fn dns_lookups_forgo_mobile_ip_by_port_heuristic() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        with_dns: true,
        ..ScenarioConfig::default() // default policy has 53 in dt_ports
    });
    s.roam_to_a();
    let mh = s.mh;
    // The mobile itself resolves some name.
    let lookup = s
        .world
        .host_mut(mh)
        .add_app(Box::new(DnsLookup::new(ip(addrs::DNS), addrs::MH_NAME)));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(2));
    let res = s
        .world
        .host_mut(mh)
        .app_as::<DnsLookup>(lookup)
        .unwrap()
        .result
        .clone()
        .expect("lookup answered");
    assert_eq!(res.a, Some(ip(addrs::MH_HOME)));
    // And it did so with plain care-of-addressed packets.
    let hook = s.world.host_mut(mh).hook_as::<MobileHost>().unwrap();
    assert!(hook.stats.sent_out_dt > 0, "port-53 traffic went Out-DT");
    // The TaRegistrar also used Out-DT (it binds no address but hits 53).
    let _ = TaRegistrar::new(ip(addrs::DNS), addrs::MH_NAME); // (type used)
}

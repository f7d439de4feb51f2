//! mip-core system tests: cross-module behaviours on the canonical
//! scenario — alternate encapsulation formats end-to-end, one home agent
//! serving several mobiles, stale binding recovery, and registration
//! corner cases.

use mip_core::home_agent::{HomeAgent, HomeAgentConfig};
use mip_core::mobile_host::{move_to, Attachment, MobileHost, MobileHostConfig};
use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{AuditEvent, BindingSource, DecisionReason, MobileAwareCh, OutMode, PolicyConfig};
use netsim::wire::encap::EncapFormat;
use netsim::wire::icmp::IcmpMessage;
use netsim::wire::ipv4::IpProtocol;
use netsim::{HostConfig, LinkConfig, RouterConfig, SimDuration, World};
use transport::apps::{KeystrokeSession, TcpEchoServer};
use transport::udp;

/// A TCP session works end-to-end under every encapsulation format, and
/// the right protocol number shows up on the wire.
#[test]
fn every_encapsulation_format_carries_tcp_end_to_end() {
    for (format, proto) in [
        (EncapFormat::IpInIp, IpProtocol::IpInIp),
        (EncapFormat::Minimal, IpProtocol::MinimalEncap),
        (EncapFormat::Gre, IpProtocol::Gre),
    ] {
        let mut s = build(ScenarioConfig {
            ch_kind: ChKind::Conventional,
            encap: format,
            mh_policy: PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
            ..ScenarioConfig::default()
        });
        let ch = s.ch;
        let ch_addr = s.ch_addr();
        s.world
            .host_mut(ch)
            .add_app(Box::new(TcpEchoServer::new(23)));
        s.world.poll_soon(ch);
        s.roam_to_a();
        let mh = s.mh;
        let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
            (ch_addr, 23),
            SimDuration::from_millis(200),
            8,
        )));
        s.world.poll_soon(mh);
        s.world.run_for(SimDuration::from_secs(10));
        let sess = s
            .world
            .host_mut(mh)
            .app_as::<KeystrokeSession>(app)
            .unwrap();
        assert!(
            sess.all_echoed() && sess.broken.is_none(),
            "{format:?}: typed {} echoed {} broken {:?}",
            sess.typed(),
            sess.echoed,
            sess.broken
        );
        // The chosen tunnel protocol actually crossed the wire.
        assert!(
            s.world
                .trace
                .events()
                .iter()
                .any(|e| e.packet.protocol == proto),
            "{format:?}: no {proto} packets observed"
        );
    }
}

/// One home agent serves two mobile hosts at once, tunnelling each to its
/// own care-of address, including when they talk to each other.
#[test]
fn home_agent_serves_multiple_mobiles_including_mobile_to_mobile() {
    let mut w = World::new(41);
    let home = w.add_segment(LinkConfig::lan());
    let visit_a = w.add_segment(LinkConfig::lan());
    let visit_b = w.add_segment(LinkConfig::lan());
    let backbone = w.add_segment(LinkConfig::wan(15));
    let ha = w.add_host(HostConfig::agent("ha"));
    let mh1 = w.add_host(HostConfig::conventional("mh1"));
    let mh2 = w.add_host(HostConfig::conventional("mh2"));
    let rh = w.add_router(RouterConfig::named("rh"));
    let ra = w.add_router(RouterConfig::named("ra"));
    let rb = w.add_router(RouterConfig::named("rb"));
    let ha_if = w.attach(ha, home, Some("171.64.15.1/24"));
    w.attach(mh1, home, Some("171.64.15.9/24"));
    w.attach(mh2, home, Some("171.64.15.10/24"));
    w.attach(rh, home, Some("171.64.15.254/24"));
    w.attach(rh, backbone, Some("192.168.0.1/24"));
    w.attach(ra, visit_a, Some("36.186.0.254/24"));
    w.attach(ra, backbone, Some("192.168.0.2/24"));
    w.attach(rb, visit_b, Some("128.2.0.254/24"));
    w.attach(rb, backbone, Some("192.168.0.3/24"));
    w.compute_routes();
    HomeAgent::install(
        &mut w,
        ha,
        HomeAgentConfig::new(ip("171.64.15.1"), "171.64.15.0/24".parse().unwrap(), ha_if),
    );
    for (mh, home_cidr) in [(mh1, "171.64.15.9/24"), (mh2, "171.64.15.10/24")] {
        MobileHost::install(
            &mut w,
            mh,
            MobileHostConfig::new(home_cidr, ip("171.64.15.1"))
                .with_policy(PolicyConfig::fixed(OutMode::IE).without_dt_ports()),
        );
        udp::install(w.host_mut(mh));
        transport::tcp::install(w.host_mut(mh));
    }
    let coa_a = Attachment::care_of("36.186.0.99/24", ip("36.186.0.254"));
    move_to(&mut w, mh1, visit_a, coa_a);
    let coa_b = Attachment::care_of("128.2.0.99/24", ip("128.2.0.254"));
    move_to(&mut w, mh2, visit_b, coa_b);
    w.run_for(SimDuration::from_secs(3));

    {
        let hook = w.host_mut(ha).hook_as::<HomeAgent>().unwrap();
        assert_eq!(hook.bindings().count(), 2);
        assert_eq!(
            hook.binding(ip("171.64.15.9")).unwrap().care_of,
            ip("36.186.0.99")
        );
        assert_eq!(
            hook.binding(ip("171.64.15.10")).unwrap().care_of,
            ip("128.2.0.99")
        );
    }

    // mh1 pings mh2's *home* address: reverse tunnel to the HA, whose
    // decapsulated inner packet is immediately re-captured and re-tunnelled
    // to mh2's care-of address. Both mobiles far from home, one agent in
    // the middle.
    w.host_do(mh1, |h, ctx| {
        h.send_ping(ctx, ip("171.64.15.9"), ip("171.64.15.10"), 7)
    });
    w.run_for(SimDuration::from_secs(3));
    assert!(w.host(mh1).icmp_log.iter().any(|e| matches!(
        e.message,
        IcmpMessage::EchoReply { seq: 7, .. }
    ) && e.from == ip("171.64.15.10")));
}

/// A mobile-aware correspondent holding a stale binding (the mobile moved)
/// keeps tunnelling to the old address, times nothing out at the IP layer,
/// but the binding expires and the conversation falls back to the home
/// agent and recovers; redirects then re-teach the new address.
#[test]
fn stale_binding_expires_and_is_relearned() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::MobileAware,
        ha_redirects: true,
        ..ScenarioConfig::default()
    });
    s.roam_to_a();
    let ch = s.ch;
    // Install a deliberately short-lived stale-able binding.
    let soon = s.world.now() + SimDuration::from_secs(8);
    s.world
        .host_mut(ch)
        .hook_as::<MobileAwareCh>()
        .unwrap()
        .set_binding(
            ip(addrs::MH_HOME),
            ip(addrs::COA_A),
            soon,
            BindingSource::Manual,
        );

    // The mobile silently moves to B. The CH's binding now points at a
    // dead address.
    s.roam_to_b();
    let mh_home = ip(addrs::MH_HOME);
    let ch_addr = s.ch_addr();

    // While the stale binding lives, pings go to the void.
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 1));
    s.world.run_for(SimDuration::from_secs(3));
    assert!(!s
        .world
        .host(ch)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 1, .. })));

    // After expiry, the next ping takes the home path, gets through, and
    // the redirect re-teaches the fresh care-of address.
    s.world.run_for(SimDuration::from_secs(6));
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 2));
    s.world.run_for(SimDuration::from_secs(3));
    assert!(s
        .world
        .host(ch)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 2, .. })));
    let hook = s.world.host_mut(ch).hook_as::<MobileAwareCh>().unwrap();
    assert_eq!(
        hook.binding(mh_home).map(|b| b.care_of),
        Some(ip(addrs::COA_B)),
        "redirect re-taught the new care-of address"
    );
    assert_eq!(hook.stats.bindings_expired, 1);
}

/// Moving between networks without ever passing home keeps exactly one
/// active binding at the home agent (the newest), and the old care-of
/// address stops receiving traffic.
#[test]
fn reregistration_replaces_the_binding() {
    let mut s = build(ScenarioConfig::default());
    s.roam_to_a();
    {
        let ha = s.ha;
        let hook = s.world.host_mut(ha).hook_as::<HomeAgent>().unwrap();
        assert_eq!(
            hook.binding(ip(addrs::MH_HOME)).unwrap().care_of,
            ip(addrs::COA_A)
        );
    }
    s.roam_to_b();
    let ha = s.ha;
    let hook = s.world.host_mut(ha).hook_as::<HomeAgent>().unwrap();
    assert_eq!(hook.bindings().count(), 1, "one binding per home address");
    assert_eq!(
        hook.binding(ip(addrs::MH_HOME)).unwrap().care_of,
        ip(addrs::COA_B)
    );
}

/// Returning home mid-registration-lifetime deregisters; a later roam
/// re-registers; repeated cycles never leak bindings or intercepts.
#[test]
fn repeated_roam_home_cycles_are_clean() {
    let mut s = build(ScenarioConfig::default());
    for round in 0..3 {
        s.roam_to_a();
        assert!(s.mh_registered(), "round {round}: registered");
        assert!(s.world.host(s.ha).intercepts(ip(addrs::MH_HOME)));
        s.go_home();
        assert!(!s.mh_registered(), "round {round}: deregistered");
        assert!(!s.world.host(s.ha).intercepts(ip(addrs::MH_HOME)));
        let ha = s.ha;
        let hook = s.world.host_mut(ha).hook_as::<HomeAgent>().unwrap();
        assert_eq!(hook.bindings().count(), 0, "round {round}: no leak");
    }
    let mh = s.mh;
    let hook = s.world.host_mut(mh).hook_as::<MobileHost>().unwrap();
    assert_eq!(hook.stats.handoffs, 6);
}

/// The §4 privacy claim, measured at the packet level across the entire
/// run: with privacy mode on, no packet the correspondent ever receives
/// carries the care-of address in any header field it can see.
#[test]
fn privacy_mode_never_reveals_the_care_of_address() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::DecapCapable,
        mh_policy: PolicyConfig::default().with_privacy(),
        ..ScenarioConfig::default()
    });
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(TcpEchoServer::new(23)));
    s.world.poll_soon(ch);
    s.roam_to_a();
    let mh = s.mh;
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 23),
        SimDuration::from_millis(150),
        12,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(10));
    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    assert!(sess.all_echoed());
    let coa = ip(addrs::COA_A);
    for e in s.world.trace.events() {
        if e.node == ch {
            assert_ne!(e.packet.src, coa, "outer source leaked the location");
            if let Some((is, _, _)) = e.packet.inner {
                assert_ne!(is, coa, "inner source leaked the location");
            }
        }
    }
}

/// Deregistration when returning home restores plain-IP behaviour even for
/// a correspondent still holding a binding: the binding goes stale, and
/// after expiry traffic flows the ordinary way.
#[test]
fn correspondent_recovers_after_mobile_returns_home() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::MobileAware,
        ha_redirects: true,
        ..ScenarioConfig::default()
    });
    s.roam_to_a();
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    let mh_home = ip(addrs::MH_HOME);
    // Teach the CH the binding via a first exchange.
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 1));
    s.world.run_for(SimDuration::from_secs(2));
    assert!(s
        .world
        .host_mut(ch)
        .hook_as::<MobileAwareCh>()
        .unwrap()
        .binding(mh_home)
        .is_some());

    // Mobile goes home. The CH's binding (learned with a lifetime) decays;
    // force the issue by clearing it as its expiry would.
    s.go_home();
    s.world
        .host_mut(ch)
        .hook_as::<MobileAwareCh>()
        .unwrap()
        .clear_binding(mh_home);

    let before_ping = s.world.trace.events().len();
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 2));
    s.world.run_for(SimDuration::from_secs(2));
    assert!(s
        .world
        .host(ch)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 2, .. })));
    // No tunnel was involved this time: the roaming phase's tunnels are in
    // the trace, but nothing after the second ping is tunnelled home.
    let tunnelled_home: Vec<_> = s
        .world
        .trace
        .events()
        .iter()
        .skip(before_ping)
        .filter(|e| {
            e.packet.protocol == IpProtocol::IpInIp
                && e.packet.inner.map(|(_, d, _)| d) == Some(mh_home)
        })
        .collect();
    assert!(tunnelled_home.is_empty(), "{tunnelled_home:#?}");
}

/// The audit trail explains the optimistic probe-and-fallback sequence
/// end-to-end, in causal order: handoff, registration, the first Out-DH
/// decision from the default strategy, the §7.1.2 demotion to Out-DE, and
/// cache-hit decisions thereafter — all through the query API, no trace
/// spelunking.
#[test]
fn audit_trail_records_cache_hits_and_probe_fallback() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::DecapCapable,
        visited_egress_filter: true,
        mh_policy: PolicyConfig::optimistic().without_dt_ports(),
        ..ScenarioConfig::default()
    });
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(TcpEchoServer::new(23)));
    s.world.poll_soon(ch);
    s.roam_to_a();
    let mh = s.mh;
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 23),
        SimDuration::from_millis(200),
        10,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(60));

    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    assert!(
        sess.all_echoed() && sess.broken.is_none(),
        "session survived"
    );

    let audit = s
        .world
        .host_mut(mh)
        .hook_as::<MobileHost>()
        .unwrap()
        .audit();

    // Causal order: the handoff precedes the registration exchange.
    let kinds: Vec<&str> = audit.entries().map(|e| e.event.kind()).collect();
    let handoff = kinds.iter().position(|k| *k == "handoff").expect("handoff");
    let reg_sent = kinds
        .iter()
        .position(|k| *k == "registration-sent")
        .expect("registration sent");
    let reg_ok = kinds
        .iter()
        .position(|k| *k == "registration-accepted")
        .expect("registration accepted");
    assert!(handoff < reg_sent && reg_sent < reg_ok);

    // First contact: a cache miss resolved from the optimistic default.
    let first = audit.for_correspondent(ch_addr).next().expect("decisions");
    assert!(
        matches!(
            first.event,
            AuditEvent::Decision {
                mode: OutMode::DH,
                reason: DecisionReason::Default,
                ..
            }
        ),
        "first decision was {:?}",
        first.event
    );

    // The egress filter ate Out-DH; feedback demoted to Out-DE.
    assert!(
        audit.transitions().iter().any(|t| matches!(
            t.event,
            AuditEvent::Demoted {
                from: OutMode::DH,
                to: OutMode::DE,
                ..
            }
        )),
        "expected a DH→DE demotion"
    );

    // Decisions ran DH… then DE…, and the current answer is a cache hit.
    let decisions = audit.decisions_for(ch_addr);
    assert_eq!(decisions.first(), Some(&OutMode::DH));
    assert_eq!(decisions.last(), Some(&OutMode::DE));
    assert_eq!(
        audit.last_decision(ch_addr),
        Some((OutMode::DE, DecisionReason::CacheHit))
    );

    // Timestamps never run backwards.
    let times: Vec<u64> = audit.entries().map(|e| e.at.0).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
}

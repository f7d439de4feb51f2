//! A day in the life of a roaming laptop (§2's motivating scenario).
//!
//! ```bash
//! cargo run --example roaming_session
//! ```
//!
//! The laptop holds an idle-ish telnet session to a server in the
//! correspondent's domain while it: works at home, visits institution A
//! (acquiring an address by DHCP, like a real guest), sleeps for a while
//! with the session quiescent ("putting a laptop computer to sleep …
//! does not necessarily break connections"), wakes up at institution B,
//! and finally comes home. The session survives all of it.

use mobility4x4::mip_core::dhcp::DhcpServer;
use mobility4x4::mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mobility4x4::mip_core::{move_to, Attachment, MobileHost, RegState};
use mobility4x4::netsim::SimDuration;
use mobility4x4::transport::apps::{KeystrokeSession, TcpEchoServer};

fn main() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        ..ScenarioConfig::default()
    });

    // Institution A offers guest addresses by DHCP.
    let dhcp_host = s
        .world
        .add_host(mobility4x4::netsim::HostConfig::conventional("dhcp-a"));
    s.world
        .attach(dhcp_host, s.visited_a, Some("36.186.0.2/24"));
    mobility4x4::transport::udp::install(s.world.host_mut(dhcp_host));
    s.world
        .host_mut(dhcp_host)
        .add_app(Box::new(DhcpServer::new(
            "36.186.0.0/24".parse().unwrap(),
            ip(addrs::VISITED_A_GW),
            120,
        )));
    s.world.poll_soon(dhcp_host);

    // The echo service the session talks to.
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(TcpEchoServer::new(23)));
    s.world.poll_soon(ch);

    // Morning at home: open the session and type a bit.
    let mh = s.mh;
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 23),
        SimDuration::from_millis(400),
        60,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(5));
    report(&mut s, app, "morning at home");

    // Travel to institution A; get an address via DHCP; keep typing.
    let dhcp = Attachment::Dhcp { xid: 0xcafe };
    move_to(&mut s.world, mh, s.visited_a, dhcp);
    s.world.run_for(SimDuration::from_secs(5));
    let addr = s.mh_hook().care_of().expect("DHCP lease granted");
    let gateway = s.world.host(mh).routes()[0].gateway.expect("default route");
    println!("DHCP at institution A: got {addr} (gw {gateway})");
    report(&mut s, app, "visiting institution A");

    // Laptop sleeps: nothing transmits for two minutes; the TCP connection
    // just sits there ("idle telnet connections preserved for hours").
    s.world.run_for(SimDuration::from_secs(120));
    report(&mut s, app, "after a 2-minute sleep");

    // Wake up at institution B (pre-assigned guest address this time).
    s.roam_to_b();
    s.world.run_for(SimDuration::from_secs(6));
    report(&mut s, app, "visiting institution B");

    // Evening: home again.
    s.go_home();
    s.world.run_for(SimDuration::from_secs(30));
    report(&mut s, app, "home again");

    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    assert!(sess.all_echoed() && sess.broken.is_none());
    let hook = s.world.host_mut(mh).hook_as::<MobileHost>().unwrap();
    assert!(matches!(hook.registration_state(), RegState::Unregistered));
    println!("ok: one TCP connection, four networks, zero breakage");
}

fn report(s: &mut mobility4x4::mip_core::scenario::Scenario, app: usize, when: &str) {
    let mh = s.mh;
    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    let (typed, echoed, broken) = (sess.typed(), sess.echoed, sess.broken);
    let hook = s.world.host_mut(mh).hook_as::<MobileHost>().unwrap();
    println!(
        "[{when}] typed={typed} echoed={echoed} broken={broken:?} location={:?} registered={}",
        hook.location(),
        hook.is_registered()
    );
}

//! The smart correspondent host (Figure 5, §3.2).
//!
//! ```bash
//! cargo run --example smart_correspondent
//! ```
//!
//! A mobile-aware correspondent learns the mobile's care-of address two
//! ways — an ICMP Mobile Host Redirect from the home agent, and a DNS
//! lookup that returns the temporary-address (TA) record — and then
//! tunnels packets directly (In-DE), skipping the triangle through the
//! home agent. The printed RTT series shows the optimization kicking in;
//! for the DNS mechanism the trace shows the very first echo request
//! tunnelled by the correspondent, never touching the home agent.

use mobility4x4::mip_core::dns::DnsLookup;
use mobility4x4::mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mobility4x4::mip_core::{MobileAwareCh, OutMode, PolicyConfig};
use mobility4x4::netsim::wire::icmp::IcmpMessage;
use mobility4x4::netsim::{IpProtocol, SimDuration, TraceEvent, TraceEventKind, TransformKind};

fn rtt_series(s: &mut mobility4x4::mip_core::scenario::Scenario, n: u16) -> Vec<f64> {
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    let mh_home = ip(addrs::MH_HOME);
    let mut rtts = Vec::new();
    for seq in 100..100 + n {
        let t0 = s.world.now();
        s.world
            .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, seq));
        s.world.run_for(SimDuration::from_secs(2));
        let rtt = s
            .world
            .host(ch)
            .icmp_log
            .iter()
            .find(|e| matches!(e.message, IcmpMessage::EchoReply { seq: rs, .. } if rs == seq))
            .map(|e| e.at.since(t0).as_micros() as f64 / 1000.0)
            .unwrap_or(f64::NAN);
        rtts.push(rtt);
    }
    rtts
}

fn main() {
    // ---- Mechanism 1: ICMP Mobile Host Redirect --------------------------
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::MobileAware,
        ha_redirects: true,
        backbone_ms: 50,
        mh_policy: PolicyConfig::fixed(OutMode::DH).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    s.roam_to_a();
    println!("== mechanism 1: ICMP redirect from the home agent ==");
    let series = rtt_series(&mut s, 5);
    for (i, rtt) in series.iter().enumerate() {
        println!(
            "  ping {}: {rtt:.2} ms{}",
            i + 1,
            if i == 0 {
                "  <- triangle, triggers redirect"
            } else {
                "  <- In-DE direct"
            }
        );
    }
    let ch = s.ch;
    let hook = s.world.host_mut(ch).hook_as::<MobileAwareCh>().unwrap();
    let b = hook.binding(ip(addrs::MH_HOME)).expect("binding learned");
    println!(
        "  binding cache: {} -> {} (source {:?}); In-DE packets sent: {}",
        addrs::MH_HOME,
        b.care_of,
        b.source,
        hook.stats.sent_in_de
    );
    assert!(series[0] > series[4] + 40.0, "optimization visible");

    // ---- Mechanism 2: DNS temporary-address record ------------------------
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::MobileAware,
        ha_redirects: false,
        with_dns: true,
        backbone_ms: 50,
        mh_policy: PolicyConfig::fixed(OutMode::DH).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    s.roam_to_a();
    s.world.run_for(SimDuration::from_secs(1)); // TA registrar publishes
    println!("== mechanism 2: DNS lookup with TA record ==");
    let ch = s.ch;
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
    println!(
        "  {} -> A={:?} TA={:?} (binding auto-installed)",
        addrs::MH_NAME,
        res.a,
        res.ta
    );
    assert_eq!(res.ta, Some(ip(addrs::COA_A)));
    let series = rtt_series(&mut s, 3);
    for (i, rtt) in series.iter().enumerate() {
        println!(
            "  ping {}: {rtt:.2} ms  <- In-DE from the very first packet",
            i + 1
        );
    }
    // Ping 1's path, read from the trace: the correspondent tunnels the
    // first echo request itself, and no event of it (or of its tunnelled
    // copy) is at the home agent.
    let (ch_addr, mh_home) = (s.ch_addr(), ip(addrs::MH_HOME));
    let trace = &s.world.trace;
    let to_mh = || {
        trace.events().iter().filter(move |e| {
            e.packet.logical_endpoints() == (ch_addr, mh_home)
                && e.packet.logical_protocol() == IpProtocol::Icmp
        })
    };
    let first = to_mh().next().expect("ping 1 traced");
    assert!(
        first.node == ch
            && matches!(
                first.kind,
                TraceEventKind::Transformed(TransformKind::Encapsulated(_))
            ),
        "ping 1 is encapsulated at the correspondent"
    );
    let request = first.parent_id;
    let of_ping1 = |e: &TraceEvent| Some(e.packet_id) == request || e.parent_id == request;
    assert!(
        !to_mh().any(|e| e.node == s.ha && of_ping1(&e)),
        "no triangle even on the first packet"
    );
    let forwarded = to_mh()
        .find(|e| e.node == s.ch_gw && e.kind == TraceEventKind::Forwarded && of_ping1(e))
        .expect("ch-gw forwards ping 1");
    println!(
        "  ping 1 is In-DE too; it reads ~200 ms because ch-gw forwards it {:.2} ms \
         after ch sends it: ch-gw first ARPs for visited-a-gw across the 50 ms \
         backbone (the DNS traffic only taught it home-gw)",
        forwarded.at.since(first.at).as_micros() as f64 / 1000.0
    );
    println!("ok: both §3.2 learning mechanisms optimize the route");
}

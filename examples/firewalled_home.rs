//! Security-conscious networks and bi-directional tunneling (Figures 2–3).
//!
//! ```bash
//! cargo run --example firewalled_home
//! ```
//!
//! The home institution ingress-filters spoofed sources and the visited
//! network egress-filters foreign ones — the §3.1 reality. Plain Out-DH
//! packets die at the boundary; the mobility policy's feedback loop
//! detects the silent loss and demotes to the reverse tunnel, after which
//! the conversation flows. Finally, privacy mode shows the other §4 reason
//! to tunnel everything: the correspondent never learns where you are.

use mobility4x4::mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mobility4x4::mip_core::{MobileHost, PolicyConfig};
use mobility4x4::netsim::{DropReason, SimDuration, TraceEventKind};
use mobility4x4::transport::apps::{KeystrokeSession, TcpEchoServer};

fn main() {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::DecapCapable,
        home_ingress_filter: true,
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
    println!(
        "away at {} behind an egress-filtering gateway",
        addrs::COA_A
    );

    // An optimistic session: starts at Out-DH, which the filter eats.
    let mh = s.mh;
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 23),
        SimDuration::from_millis(300),
        15,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(60));

    let filter_drops = s
        .world
        .trace
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::Dropped(DropReason::SourceAddressFilter)
            )
        })
        .count();
    println!("boundary routers silently dropped {filter_drops} Out-DH packets (Figure 2)");

    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    let ok = sess.all_echoed() && sess.broken.is_none();
    println!(
        "session: typed={} echoed={} survived={}",
        sess.typed(),
        sess.echoed,
        ok
    );
    let hook = s.world.host_mut(mh).hook_as::<MobileHost>().unwrap();
    let demotions = hook.stats.demotions;
    let final_mode = hook.mode_for(ch_addr);
    println!(
        "the §7.1.2 feedback loop demoted the method {demotions} time(s); final mode for {ch_addr}: {final_mode}"
    );
    assert!(ok, "bi-directional encapsulation rescued the conversation");
    assert!(filter_drops > 0);
    assert!(demotions >= 1);

    // ---- privacy mode (§4): conceal the care-of address entirely ---------
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::DecapCapable,
        mh_policy: PolicyConfig::default(),
        ..ScenarioConfig::default()
    });
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(TcpEchoServer::new(80)));
    s.world.poll_soon(ch);
    s.roam_to_a();
    let mh = s.mh;
    s.world
        .host_mut(mh)
        .hook_as::<MobileHost>()
        .unwrap()
        .policy_mut()
        .set_config(PolicyConfig::default().with_privacy());
    let app = s.world.host_mut(mh).add_app(Box::new(KeystrokeSession::new(
        (ch_addr, 80), // even the "safe-DT" port stays private
        SimDuration::from_millis(200),
        10,
    )));
    s.world.poll_soon(mh);
    s.world.run_for(SimDuration::from_secs(10));
    let coa = ip(addrs::COA_A);
    let leaked = s
        .world
        .trace
        .events()
        .iter()
        .filter(|e| e.node == ch && matches!(e.kind, TraceEventKind::DeliveredLocal))
        .any(|e| e.packet.src == coa);
    let sess = s
        .world
        .host_mut(mh)
        .app_as::<KeystrokeSession>(app)
        .unwrap();
    println!(
        "privacy mode: session ok={} care-of address leaked to CH={}",
        sess.all_echoed(),
        leaked
    );
    assert!(sess.all_echoed());
    assert!(!leaked, "Out-IE conceals the mobile's location (§4)");
    println!("ok: deliverability and privacy, both via the home-agent tunnel");
}

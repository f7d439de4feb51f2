//! E1 / Figure 1 — Basic Mobile IP.
//!
//! A conventional correspondent pings the away mobile's home address.
//! Incoming packets travel CH → home agent → tunnel → MH (In-IE, longer
//! path, +20 bytes); outgoing replies travel MH → CH directly (Out-DH in
//! this unfiltered world). The table reports the per-direction asymmetry
//! the figure draws: hops, one-way latency, and wire bytes.

use mip_core::scenario::{addrs, build, ip, ChKind, Scenario, ScenarioConfig};
use mip_core::{MobileHost, OutMode, PolicyConfig};
use netsim::trace::Conversation;
use netsim::{EncapFormat, IpProtocol, SimDuration};

use crate::util::{ms, Table};

fn scenario() -> Scenario {
    build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        mh_policy: PolicyConfig::fixed(OutMode::DH).without_dt_ports(),
        ..ScenarioConfig::default()
    })
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let mut s = scenario();
    crate::report::observe_world(&mut s.world);
    s.roam_to_a();
    assert!(s.mh_registered());

    let mh_home = ip(addrs::MH_HOME);
    let ch_addr = s.ch_addr();
    s.world.trace.clear();
    let ch = s.ch;
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 1));
    s.world.run_for(SimDuration::from_secs(2));

    // Incoming: the ICMP request, addressed to the home address. It rides
    // partly inside a tunnel (where the outer protocol is IPIP), so it is
    // keyed by logical endpoints.
    let mut convs = s.world.trace.conversations();
    let incoming = convs
        .remove(&(ch_addr, mh_home, IpProtocol::Icmp))
        .unwrap_or_default();
    let outgoing = convs
        .remove(&(mh_home, ch_addr, IpProtocol::Icmp))
        .unwrap_or_default();
    let latency_ms = |c: &Conversation| ms(c.first_delivery_latency.map(|d| d.as_micros()));
    // Tunnel legs carry 20 extra bytes each.
    let tunneled_legs = incoming.tunnels[EncapFormat::IpInIp as usize].legs;

    crate::report::record_world("basic-mobile-ip", &s.world);
    let hook = s.world.host_mut(s.mh).hook_as::<MobileHost>().unwrap();
    crate::report::record_value("basic-mobile-ip/audit", hook.audit());
    assert!(hook.stats.recv_in_ie >= 1, "incoming was In-IE");
    assert!(hook.stats.sent_out_dh >= 1, "outgoing was Out-DH");

    let mut t = Table::new(
        "Figure 1 — Basic Mobile IP: per-direction path asymmetry",
        &["direction", "mode", "wire hops", "one-way ms", "wire bytes"],
    );
    t.row(&[
        "CH -> MH (via home agent)".to_string(),
        "In-IE".to_string(),
        incoming.counts.wire_events.to_string(),
        latency_ms(&incoming),
        incoming.counts.bytes_on_wire.to_string(),
    ]);
    t.row(&[
        "MH -> CH (direct)".to_string(),
        "Out-DH".to_string(),
        outgoing.counts.wire_events.to_string(),
        latency_ms(&outgoing),
        outgoing.counts.bytes_on_wire.to_string(),
    ]);
    t.note(format!(
        "incoming crossed {tunneled_legs} tunnelled wire legs (+20 B IP-in-IP each); \
         asymmetric routing is normal IP behaviour (§2)"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incoming_is_longer_and_heavier_than_outgoing() {
        let t = run();
        let in_hops: usize = t.cell(0, 2).parse().unwrap();
        let out_hops: usize = t.cell(1, 2).parse().unwrap();
        assert!(
            in_hops > out_hops,
            "triangle route must be longer: in {in_hops} vs out {out_hops}"
        );
        let in_ms: f64 = t.cell(0, 3).parse().unwrap();
        let out_ms: f64 = t.cell(1, 3).parse().unwrap();
        assert!(in_ms > out_ms, "indirect delivery is slower");
        let in_bytes: usize = t.cell(0, 4).parse().unwrap();
        let out_bytes: usize = t.cell(1, 4).parse().unwrap();
        assert!(in_bytes > out_bytes, "tunnel overhead costs bytes");
    }
}

//! E3 / Figure 3 — bi-directional tunneling.
//!
//! With both boundary filters active, Out-DH is dead (Figure 2/E2), but
//! reverse-tunnelling everything through the home agent restores
//! deliverability at the price of path stretch and encapsulation bytes.
//! The table compares Out-IE under filters against the Out-DH path that
//! would have been taken in a permissive network.

use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{OutMode, PolicyConfig};
use netsim::wire::icmp::IcmpMessage;
use netsim::wire::ipv4::IpProtocol;
use netsim::SimDuration;

use crate::util::{ms, Table};

struct Leg {
    delivered: bool,
    hops: u64,
    latency_us: Option<u64>,
    bytes: u64,
}

fn measure(mode: OutMode, filtered: bool) -> Leg {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        home_ingress_filter: filtered,
        visited_egress_filter: filtered,
        mh_policy: PolicyConfig::fixed(mode).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    crate::report::observe_world(&mut s.world);
    s.roam_to_a();
    let server_addr = ip(addrs::SERVER);
    let home = ip(addrs::MH_HOME);
    s.world.trace.clear();
    let mh = s.mh;
    s.world
        .host_do(mh, |h, ctx| h.send_ping(ctx, home, server_addr, 1));
    s.world.run_for(SimDuration::from_secs(2));
    let delivered = s
        .world
        .host(s.server)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoRequest { .. }));
    crate::report::record_world(&format!("leg/{mode:?}/filtered={filtered}"), &s.world);
    let leg = super::conversation(&s.world, (home, server_addr, IpProtocol::Icmp));
    Leg {
        delivered,
        hops: leg.counts.wire_events,
        latency_us: leg.first_delivery_latency.map(|d| d.as_micros()),
        bytes: leg.counts.bytes_on_wire,
    }
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let dh_open = measure(OutMode::DH, false);
    let dh_filtered = measure(OutMode::DH, true);
    let ie_filtered = measure(OutMode::IE, true);

    let mut t = Table::new(
        "Figure 3 — bi-directional tunneling restores deliverability under filters",
        &[
            "configuration",
            "delivered",
            "wire hops",
            "one-way ms",
            "wire bytes",
        ],
    );
    let fmt = |name: &str, l: &Leg| {
        [
            name.to_string(),
            if l.delivered { "yes" } else { "NO" }.to_string(),
            l.hops.to_string(),
            ms(l.latency_us),
            l.bytes.to_string(),
        ]
    };
    t.row(&fmt("Out-DH, permissive network (reference)", &dh_open));
    t.row(&fmt("Out-DH, filtered boundaries (Figure 2)", &dh_filtered));
    t.row(&fmt("Out-IE, filtered boundaries (Figure 3)", &ie_filtered));
    t.note(
        "Out-IE pays extra hops and +20 B/packet but 'meets the deliverability requirement' (§3.1)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunneling_restores_delivery_at_a_cost() {
        let open = measure(OutMode::DH, false);
        let broken = measure(OutMode::DH, true);
        let tunneled = measure(OutMode::IE, true);
        assert!(open.delivered);
        assert!(!broken.delivered, "Figure 2 failure reproduced");
        assert!(tunneled.delivered, "Figure 3 fix works");
        assert!(
            tunneled.hops >= open.hops,
            "indirect path is no shorter: {} vs {}",
            tunneled.hops,
            open.hops
        );
        assert!(
            tunneled.bytes > open.bytes,
            "encapsulation overhead shows up on the wire"
        );
        assert!(tunneled.latency_us >= open.latency_us);
    }
}

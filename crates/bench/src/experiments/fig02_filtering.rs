//! E2 / Figure 2 — the source-address-filtering failure.
//!
//! The mobile host, away from home, sends to a correspondent *inside* its
//! home institution (the Figure 2 geometry) using each of the four outgoing
//! modes, under each combination of the §3.1 boundary policies:
//!
//! * home boundary **ingress** filter: drops packets arriving from outside
//!   with source addresses claiming to be inside;
//! * visited boundary **egress** filter: drops packets leaving with source
//!   addresses that don't belong to the visited network.
//!
//! The paper's claim: only Out-DH is at risk; encapsulated modes hide the
//! home source from routers, and Out-DT uses a legitimate source.

use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{OutMode, PolicyConfig};
use netsim::wire::icmp::IcmpMessage;
use netsim::{DropReason, IpProtocol, SimDuration};

use crate::util::Table;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// Which §3.1 boundary policies are active.
pub struct FilterConfig {
    /// Home boundary drops outside packets with inside sources.
    pub home_ingress: bool,
    /// Visited boundaries drop departing packets with foreign sources.
    pub visited_egress: bool,
}

impl FilterConfig {
    /// All four filter combinations, least to most restrictive.
    pub const ALL: [FilterConfig; 4] = [
        FilterConfig {
            home_ingress: false,
            visited_egress: false,
        },
        FilterConfig {
            home_ingress: true,
            visited_egress: false,
        },
        FilterConfig {
            home_ingress: false,
            visited_egress: true,
        },
        FilterConfig {
            home_ingress: true,
            visited_egress: true,
        },
    ];

    fn label(&self) -> &'static str {
        match (self.home_ingress, self.visited_egress) {
            (false, false) => "no filters",
            (true, false) => "home ingress",
            (false, true) => "visited egress",
            (true, true) => "both",
        }
    }
}

/// Send `n` pings from the roamed mobile to the home-domain server using
/// `mode`; return (delivered requests, observed filter drops).
pub fn probe(mode: OutMode, filters: FilterConfig, n: u16) -> (usize, u64) {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        home_ingress_filter: filters.home_ingress,
        visited_egress_filter: filters.visited_egress,
        mh_policy: PolicyConfig::fixed(mode).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    // Out-DE needs the target to decapsulate (§6.1: some OSes have it
    // built-in).
    s.world.host_mut(s.server).set_decap_capable(true);
    crate::report::observe_world(&mut s.world);
    s.roam_to_a();
    assert!(s.mh_registered(), "registration (Out-DT) always works");

    let server_addr = ip(addrs::SERVER);
    let src = if mode == OutMode::DT {
        ip(addrs::COA_A)
    } else {
        ip(addrs::MH_HOME)
    };
    s.world.trace.clear();
    let mh = s.mh;
    for seq in 0..n {
        s.world
            .host_do(mh, |h, ctx| h.send_ping(ctx, src, server_addr, seq));
        s.world.run_for(SimDuration::from_millis(500));
    }
    s.world.run_for(SimDuration::from_secs(2));

    let delivered = s
        .world
        .host(s.server)
        .icmp_log
        .iter()
        .filter(|e| matches!(e.message, IcmpMessage::EchoRequest { .. }))
        .count();
    let ping = super::conversation(&s.world, (src, server_addr, IpProtocol::Icmp));
    let filter_drops = ping.counts.drops[DropReason::SourceAddressFilter.index()];
    let label = format!("{mode}/{}", filters.label());
    crate::report::record_world(&label, &s.world);
    if let Some(h) = s.world.host_mut(mh).hook_as::<mip_core::MobileHost>() {
        crate::report::record_value(&format!("{label}/audit"), h.audit());
    }
    (delivered, filter_drops)
}

/// Run the experiment at full scale and render its result tables.
pub fn run() -> Vec<Table> {
    let n = 3u16;
    let mut t = Table::new(
        "Figure 2 — deliverability of the four outgoing modes under source-address filtering",
        &[
            "out mode",
            "no filters",
            "home ingress",
            "visited egress",
            "both",
        ],
    );
    let mut drops_t = Table::new(
        "Figure 2 — source-address-filter drops observed (of 3 probes)",
        &[
            "out mode",
            "no filters",
            "home ingress",
            "visited egress",
            "both",
        ],
    );
    for mode in OutMode::ALL {
        let mut row = vec![mode.to_string()];
        let mut drow = vec![mode.to_string()];
        for f in FilterConfig::ALL {
            let (delivered, drops) = probe(mode, f, n);
            row.push(if delivered == n as usize {
                "delivered".to_string()
            } else if delivered == 0 {
                "DROPPED".to_string()
            } else {
                format!("{delivered}/{n}")
            });
            drow.push(drops.to_string());
        }
        t.row(&row);
        drops_t.row(&drow);
    }
    t.note("Out-DH is the only mode a filter can see through (§3.1): the encapsulated modes hide the home source, Out-DT uses a topologically-correct source");
    vec![t, drops_t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_out_dh_is_filtered() {
        for f in FilterConfig::ALL {
            let filtered = f.home_ingress || f.visited_egress;
            for mode in OutMode::ALL {
                let (delivered, drops) = probe(mode, f, 2);
                let expect_delivery = mode != OutMode::DH || !filtered;
                if expect_delivery {
                    assert_eq!(delivered, 2, "{mode} under {f:?} should deliver");
                    assert_eq!(drops, 0);
                } else {
                    assert_eq!(
                        delivered, 0,
                        "{mode} under {f:?} should be eaten by the filter"
                    );
                    assert_eq!(drops, 2, "drops must be attributed to the filter");
                }
            }
        }
    }
}

//! Ablation / §2 — foreign agent vs self-sufficient (collocated care-of
//! address) operation.
//!
//! "Foreign agents may be able to provide useful services to mobile hosts,
//! but they also restrict the freedom of the mobile host to choose from the
//! full range of possible optimizations." Measured: with a collocated
//! care-of address the mobile can run Out-DE (direct encapsulated) to a
//! decap-capable correspondent; through a foreign agent it cannot — every
//! outgoing packet is plain Out-DH, and incoming traffic takes the extra
//! FA hop.

use mip_core::foreign_agent::{ForeignAgent, ForeignAgentConfig};
use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{move_to, Attachment, MobileHost, OutMode, PolicyConfig};
use netsim::wire::icmp::IcmpMessage;
use netsim::{IpProtocol, SimDuration};

use crate::util::Table;

/// One deployment measurement.
pub struct FaOutcome {
    /// The mobile completed registration.
    pub registered: bool,
    /// The correspondent got its echo reply.
    pub ping_answered: bool,
    /// Out-DE packets the mobile sent.
    pub out_de: u64,
    /// Out-DH packets the mobile sent.
    pub out_dh: u64,
    /// Wire traversals of the incoming request.
    pub in_hops: u64,
}

/// Ping the mobile from the correspondent and record which modes carried
/// traffic. `via_fa` selects foreign-agent operation.
pub fn deployment(via_fa: bool) -> FaOutcome {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::DecapCapable,
        mh_policy: PolicyConfig::fixed(OutMode::DE).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    crate::report::observe_world(&mut s.world);
    if via_fa {
        // Stand up a foreign agent on visited-A.
        let fa = s.world.add_host(netsim::HostConfig::conventional("fa"));
        let fa_if = s.world.attach(fa, s.visited_a, Some("36.186.0.10/24"));
        s.world.compute_routes();
        ForeignAgent::install(
            &mut s.world,
            fa,
            ForeignAgentConfig {
                addr: ip("36.186.0.10"),
                visited_iface: fa_if,
                advertise_every: None,
            },
        );
        let fa = Attachment::ForeignAgent {
            agent: ip("36.186.0.10"),
            gateway: ip(addrs::VISITED_A_GW),
        };
        move_to(&mut s.world, s.mh, s.visited_a, fa);
        s.world.run_for(SimDuration::from_secs(3));
    } else {
        s.roam_to_a();
    }

    let ch = s.ch;
    let ch_addr = s.ch_addr();
    let mh_home = ip(addrs::MH_HOME);
    s.world.trace.clear();
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 1));
    s.world.run_for(SimDuration::from_secs(3));

    let ping_answered = s
        .world
        .host(ch)
        .icmp_log
        .iter()
        .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 1, .. }));
    let ping = super::conversation(&s.world, (ch_addr, mh_home, IpProtocol::Icmp));
    crate::report::record_world(&format!("deployment/via_fa={via_fa}"), &s.world);
    let hook = s.world.host_mut(s.mh).hook_as::<MobileHost>().unwrap();
    crate::report::record_value(&format!("deployment/via_fa={via_fa}/audit"), hook.audit());
    FaOutcome {
        registered: hook.is_registered(),
        ping_answered,
        out_de: hook.stats.sent_out_de,
        out_dh: hook.stats.sent_out_dh,
        in_hops: ping.counts.wire_events,
    }
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let colo = deployment(false);
    let fa = deployment(true);
    let mut t = Table::new(
        "Ablation §2 — collocated care-of address vs foreign agent (MH policy requests Out-DE)",
        &[
            "deployment",
            "registered",
            "ping answered",
            "Out-DE pkts",
            "Out-DH pkts",
            "incoming wire hops",
        ],
    );
    t.row(&[
        "collocated (self-sufficient)".to_string(),
        colo.registered.to_string(),
        colo.ping_answered.to_string(),
        colo.out_de.to_string(),
        colo.out_dh.to_string(),
        colo.in_hops.to_string(),
    ]);
    t.row(&[
        "via foreign agent".to_string(),
        fa.registered.to_string(),
        fa.ping_answered.to_string(),
        fa.out_de.to_string(),
        fa.out_dh.to_string(),
        fa.in_hops.to_string(),
    ]);
    t.note("the FA-served mobile cannot honour the Out-DE policy — 'foreign agents … restrict the freedom of the mobile host to choose from the full range of possible optimizations' (§2) — and incoming packets take the extra final hop");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_deployments_work_end_to_end() {
        assert!(deployment(false).ping_answered);
        assert!(deployment(true).ping_answered);
    }

    #[test]
    fn foreign_agent_forbids_the_optimizations() {
        let colo = deployment(false);
        let fa = deployment(true);
        assert!(colo.out_de >= 1, "collocated MH used Out-DE as asked");
        assert_eq!(fa.out_de, 0, "FA-served MH cannot use Out-DE");
        assert!(fa.out_dh >= 1, "it fell back to plain Out-DH");
        assert!(
            fa.in_hops > colo.in_hops,
            "FA adds a hop: {} vs {}",
            fa.in_hops,
            colo.in_hops
        );
    }
}

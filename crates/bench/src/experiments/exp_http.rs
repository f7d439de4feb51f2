//! E10 / §4 Out-DT, §6.4 Row D, §7.1.1 port heuristics — forgoing Mobile IP
//! for Web-style traffic.
//!
//! "HTTP connections are frequently very short lived … In many cases the
//! user may prefer the small risk of an occasional incomplete image, rather
//! than the large cost of slowing down all Web browsing with the overhead
//! of using Mobile IP for every connection."
//!
//! A browsing workload (short request/response transfers to port 80) runs
//! under the port-heuristic policy (port 80 → Out-DT/In-DT) and under
//! always-Mobile-IP (Out-IE). Mid-workload the mobile moves. Measured: the
//! per-transfer cost of Mobile IP, and the one broken transfer that is
//! Out-DT's price.

use mip_core::scenario::{addrs, build, ip, ChKind, Scenario, ScenarioConfig};
use mip_core::{Attachment, OutMode, PolicyConfig};
use netsim::wire::ipv4::IpProtocol;
use netsim::SimDuration;
use transport::apps::{HttpLikeClient, RequestResponseServer, TransferOutcome};

use crate::util::{mean, Table};

/// One browsing-workload run.
pub struct WorkloadOutcome {
    /// Transfers that finished.
    pub completed: usize,
    /// Transfers that broke.
    pub failed: usize,
    /// Mean completion time of the successful transfers, ms.
    pub mean_transfer_ms: f64,
    /// TCP bytes put on wires (tunnel legs included).
    pub wire_bytes: u64,
}

fn tcp_bytes(s: &Scenario) -> u64 {
    s.world
        .trace
        .conversations()
        .iter()
        .filter(|((_, _, proto), _)| *proto == IpProtocol::Tcp)
        .map(|(_, c)| c.counts.bytes_on_wire)
        .sum()
}

/// Run `transfers` short HTTP-like transfers, moving the mobile to network
/// B midway when `move_midway`.
pub fn browse(policy: PolicyConfig, transfers: u32, move_midway: bool) -> WorkloadOutcome {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        mh_policy: policy,
        ..ScenarioConfig::default()
    });
    crate::report::observe_world(&mut s.world);
    s.roam_to_a();
    let ch = s.ch;
    let ch_addr = s.ch_addr();
    s.world
        .host_mut(ch)
        .add_app(Box::new(RequestResponseServer::new(80, 8_000)));
    s.world.poll_soon(ch);
    s.world.trace.clear();

    let mh = s.mh;
    let app = s.world.host_mut(mh).add_app(Box::new(HttpLikeClient::new(
        (ch_addr, 80),
        transfers,
        SimDuration::from_millis(700),
    )));
    s.world.poll_soon(mh);

    if move_midway {
        // Run until three transfers are done, then move *during* the
        // fourth (it starts one gap after the third completes).
        for _ in 0..400 {
            s.world.run_for(SimDuration::from_millis(50));
            let n = s
                .world
                .host_mut(mh)
                .app_as::<HttpLikeClient>(app)
                .unwrap()
                .outcomes
                .len();
            if n >= 3 {
                break;
            }
        }
        s.world.run_for(SimDuration::from_millis(750)); // inside transfer 4
        mip_core::move_to(
            &mut s.world,
            mh,
            s.visited_b,
            Attachment::care_of(addrs::COA_B_CIDR, ip(addrs::VISITED_B_GW)),
        );
    } else {
        s.world.run_for(SimDuration::from_secs(3));
    }
    // Finish the workload (generous deadline for retry/timeout cases).
    for _ in 0..120 {
        s.world.run_for(SimDuration::from_secs(2));
        if s.world
            .host_mut(mh)
            .app_as::<HttpLikeClient>(app)
            .unwrap()
            .done()
        {
            break;
        }
    }

    crate::report::record_world(
        &format!("browse/transfers={transfers}/move_midway={move_midway}"),
        &s.world,
    );
    let bytes = tcp_bytes(&s);
    let client = s.world.host_mut(mh).app_as::<HttpLikeClient>(app).unwrap();
    let mut durations = Vec::new();
    let mut failed = 0;
    for o in &client.outcomes {
        match o {
            TransferOutcome::Completed { .. } => {
                durations.push(o.duration().unwrap().as_micros() as f64 / 1000.0)
            }
            TransferOutcome::Failed { .. } => failed += 1,
        }
    }
    WorkloadOutcome {
        completed: durations.len(),
        failed,
        mean_transfer_ms: mean(&durations),
        wire_bytes: bytes,
    }
}

/// Run the experiment at full scale and render the paper-style table.
pub fn run() -> Table {
    let n = 6;
    let dt = browse(PolicyConfig::default(), n, false);
    let ie = browse(
        PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
        n,
        false,
    );
    let dt_move = browse(PolicyConfig::default(), n, true);
    let ie_move = browse(PolicyConfig::fixed(OutMode::IE).without_dt_ports(), n, true);

    let mut t = Table::new(
        "E10 §4/§6.4 — Web workload: port-80 heuristic (Out-DT) vs always-Mobile-IP (Out-IE)",
        &[
            "policy",
            "mid-workload move",
            "completed",
            "failed",
            "mean transfer ms",
            "TCP wire bytes",
        ],
    );
    for (name, moved, o) in [
        ("port heuristic -> Out-DT", "no", &dt),
        ("always Out-IE", "no", &ie),
        ("port heuristic -> Out-DT", "yes", &dt_move),
        ("always Out-IE", "yes", &ie_move),
    ] {
        t.row(&[
            name.to_string(),
            moved.to_string(),
            o.completed.to_string(),
            o.failed.to_string(),
            format!("{:.1}", o.mean_transfer_ms),
            o.wire_bytes.to_string(),
        ]);
    }
    t.note("Out-DT transfers are faster and lighter; a move breaks at most the transfer in flight ('the user has the option of clicking Reload', §4) while Out-IE keeps every transfer but pays triangle + encapsulation on all of them");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dt_is_faster_and_lighter_than_mobile_ip() {
        let dt = browse(PolicyConfig::default(), 4, false);
        let ie = browse(
            PolicyConfig::fixed(OutMode::IE).without_dt_ports(),
            4,
            false,
        );
        assert_eq!(dt.completed, 4);
        assert_eq!(ie.completed, 4);
        assert!(
            dt.mean_transfer_ms < ie.mean_transfer_ms,
            "DT {} ms vs IE {} ms",
            dt.mean_transfer_ms,
            ie.mean_transfer_ms
        );
        assert!(
            dt.wire_bytes < ie.wire_bytes,
            "DT {} B vs IE {} B",
            dt.wire_bytes,
            ie.wire_bytes
        );
    }

    #[test]
    fn moving_breaks_exactly_the_inflight_dt_transfer() {
        let o = browse(PolicyConfig::default(), 6, true);
        assert_eq!(o.failed, 1, "exactly the in-flight transfer breaks");
        assert_eq!(o.completed, 5, "browsing resumes after the move");
    }

    #[test]
    fn mobile_ip_keeps_every_transfer_across_the_move() {
        let o = browse(PolicyConfig::fixed(OutMode::IE).without_dt_ports(), 6, true);
        assert_eq!(o.failed, 0, "location transparency: nothing breaks");
        assert_eq!(o.completed, 6);
    }
}

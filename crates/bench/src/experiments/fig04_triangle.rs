//! E4 / Figure 4 — behaviour when the correspondent is close to the mobile.
//!
//! The correspondent sits on the *visited* segment. Its packets to the
//! mobile's home address still cross the backbone twice (to the home agent
//! and back inside a tunnel), while replies travel one LAN hop. Sweeping
//! the backbone latency reproduces the figure's point: the triangle penalty
//! grows without bound with home-agent distance ("especially if the visited
//! institution is in Japan and the home agent is at MIT", §5).

use mip_core::scenario::{addrs, build, ip, ChKind, ScenarioConfig};
use mip_core::{OutMode, PolicyConfig};
use netsim::{IpProtocol, SimDuration};

use crate::util::{ms, Table};

/// One point of the Figure 4 sweep.
pub struct TrianglePoint {
    /// One-way backbone latency of this run, ms.
    pub backbone_ms: u64,
    /// One-way CH→MH latency via the home agent, µs; `None` when the
    /// request never arrived.
    pub indirect_us: Option<u64>,
    /// One-way MH→CH latency on the shared segment, µs; `None` when the
    /// reply never arrived.
    pub direct_us: Option<u64>,
}

impl TrianglePoint {
    /// Indirect-to-direct latency stretch factor, when both legs arrived.
    pub fn ratio(&self) -> Option<f64> {
        Some(self.indirect_us? as f64 / self.direct_us?.max(1) as f64)
    }
}

/// Measure one backbone-latency point of the Figure 4 sweep.
pub fn measure(backbone_ms: u64) -> TrianglePoint {
    let mut s = build(ScenarioConfig {
        ch_kind: ChKind::Conventional,
        ch_on_visited: true,
        backbone_ms,
        mh_policy: PolicyConfig::fixed(OutMode::DH).without_dt_ports(),
        ..ScenarioConfig::default()
    });
    crate::report::observe_world(&mut s.world);
    s.roam_to_a();
    let mh_home = ip(addrs::MH_HOME);
    let ch_addr = s.ch_addr();
    s.world.trace.clear();
    let ch = s.ch;
    s.world
        .host_do(ch, |h, ctx| h.send_ping(ctx, ch_addr, mh_home, 1));
    s.world.run_for(SimDuration::from_secs(5));

    let mut convs = s.world.trace.conversations();
    let mut latency_us = |key| {
        let c = convs.remove(&key).unwrap_or_default();
        c.first_delivery_latency.map(|d| d.as_micros())
    };
    let indirect_us = latency_us((ch_addr, mh_home, IpProtocol::Icmp));
    let direct_us = latency_us((mh_home, ch_addr, IpProtocol::Icmp));
    crate::report::record_world(&format!("triangle/backbone_ms={backbone_ms}"), &s.world);
    TrianglePoint {
        backbone_ms,
        indirect_us,
        direct_us,
    }
}

/// Run the sweep over the given backbone latencies and render it.
pub fn run(backbone_sweep_ms: &[u64]) -> Table {
    let mut t = Table::new(
        "Figure 4 — triangle-routing penalty vs home-agent distance (CH on the visited segment)",
        &[
            "backbone one-way ms",
            "CH->MH via HA (ms)",
            "MH->CH direct (ms)",
            "stretch factor",
        ],
    );
    for &b in backbone_sweep_ms {
        let p = measure(b);
        t.row(&[
            b.to_string(),
            ms(p.indirect_us),
            ms(p.direct_us),
            p.ratio().map_or("-".to_string(), |r| format!("{r:.0}x")),
        ]);
    }
    t.note("the direct leg never touches the backbone, so the stretch grows linearly with distance to the home agent (§3.2/§5)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_grows_with_home_agent_distance() {
        let near = measure(5);
        let far = measure(100);
        // Direct leg is independent of the backbone.
        assert_eq!(near.direct_us, far.direct_us);
        let (near_in, far_in) = (near.indirect_us.unwrap(), far.indirect_us.unwrap());
        // Indirect leg crosses the backbone twice.
        assert!(far_in >= near_in + 2 * 90_000);
        assert!(far.ratio().unwrap() > 10.0 * near.ratio().unwrap() / 2.0);
        assert!(
            near_in > near.direct_us.unwrap(),
            "even a near HA is a detour"
        );
    }
}

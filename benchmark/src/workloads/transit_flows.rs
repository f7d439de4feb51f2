//! `transit_flows`: steady-state unicast forwarding on a cache-resident
//! world. 256 seeded host→landmark ICMP echo flows, every one crossing the
//! backbone, fire round after round on a 2 048-host hierarchical world with
//! ARP already resolved on every hop. It exercises `event`, `link`,
//! `device.nic`, `device.router`, `route` and `wire` with no first-touch,
//! no broadcast storm, no observers and no shards — the control for
//! metrics and shard changes, and the "same layers, used differently" twin
//! of the churn workloads.

use bench::scale::{build_world, ScaleIndex, ScaleParams};
use netsim::profile::live_bytes;
use netsim::wire::icmp::IcmpMessage;
use netsim::{Ipv4Addr, NodeId, SchedulerStats, World};

use crate::harness::{
    cold_rep, median_measured_s, push_span_s, Config, Metric, Phase, PhaseClock, Rep, Workload,
};
use crate::spans::Tracer;
use crate::stats::{Fnv, SplitMix64};

const FLOWS: usize = 256;
const ROUNDS: u16 = 50;
/// Warm-up echoes go out this many at a time: a NIC queues only a few
/// packets per unresolved neighbour, so a cold burst would shed most.
const WARM_UP_BATCH: usize = 16;
/// Runaway guard for `run_until_idle`; a round is about 13 k events.
const IDLE_LIMIT: usize = 2_000_000;

/// One echo flow, as indices into [`ScaleIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Index of the sending host in `ScaleIndex::hosts` (never a landmark).
    pub src_host: usize,
    /// Index of the stub whose landmark (first host) answers.
    pub dst_stub: usize,
}

/// `FLOWS` flows for `seed`: distinct non-landmark senders, each aimed at
/// the landmark of a stub in another backbone domain.
pub fn pick_flows(seed: u64, params: &ScaleParams) -> Vec<Flow> {
    assert!(
        params.backbones >= 2,
        "cross-backbone flows need two domains"
    );
    let mut rng = SplitMix64(seed);
    let per_stub = params.hosts_per_stub;
    let stubs_per_backbone = params.transits_per_backbone * params.stubs_per_transit;
    let mut senders: Vec<usize> = (0..params.total_hosts())
        .filter(|h| h % per_stub != 0)
        .collect();
    rng.shuffle(&mut senders);
    senders.truncate(FLOWS);
    senders
        .into_iter()
        .map(|src_host| {
            let home = src_host / per_stub / stubs_per_backbone;
            let away = (home + 1 + rng.below(params.backbones - 1)) % params.backbones;
            Flow {
                src_host,
                dst_stub: away * stubs_per_backbone + rng.below(stubs_per_backbone),
            }
        })
        .collect()
}

/// The `transit_flows` workload.
pub struct TransitFlows {
    params: ScaleParams,
    flows: Vec<Flow>,
    cold_rep_s: f64,
    /// Scheduler counts of the latest repetition's measured phase.
    sched: SchedulerStats,
    /// Live heap the latest repetition's freshly built world held.
    built_bytes: i64,
}

impl TransitFlows {
    /// Pick the flows and run the cold first repetition.
    pub fn new(cfg: &Config, tr: &mut Tracer) -> TransitFlows {
        let params = ScaleParams {
            seed: cfg.seed,
            ..ScaleParams::with_hosts(2_000)
        };
        let mut w = TransitFlows {
            flows: pick_flows(cfg.seed, &params),
            params,
            cold_rep_s: 0.0,
            sched: SchedulerStats::default(),
            built_bytes: 0,
        };
        w.cold_rep_s = cold_rep(&mut w, tr);
        w
    }
}

fn addr_of(world: &World, host: NodeId) -> Ipv4Addr {
    world.host(host).iface_addr(0).expect("addressed").addr
}

impl Workload for TransitFlows {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut clock = PhaseClock::start(Phase::Setup);
        let live_before = live_bytes();
        let (mut world, index): (World, ScaleIndex) =
            tr.span("scale.build_world", || build_world(&self.params));
        self.built_bytes = live_bytes() - live_before;
        let flows: Vec<(NodeId, Ipv4Addr, Ipv4Addr)> = self
            .flows
            .iter()
            .map(|f| {
                let src = index.hosts[f.src_host];
                let landmark = index.stubs[f.dst_stub].first_host;
                (src, addr_of(&world, src), addr_of(&world, landmark))
            })
            .collect();
        for batch in flows.chunks(WARM_UP_BATCH) {
            for &(node, src, dst) in batch {
                world.host_do(node, |host, ctx| host.send_ping(ctx, src, dst, 0));
            }
            world.run_until_idle(IDLE_LIMIT);
        }
        let before = world.scheduler_stats();

        clock.enter(Phase::Measured);
        for round in 1..=ROUNDS {
            let open = tr.begin("world.inject");
            for &(node, src, dst) in &flows {
                world.host_do(node, |host, ctx| host.send_ping(ctx, src, dst, round));
            }
            tr.end(open);
            tr.span("world.run", || world.run_until_idle(IDLE_LIMIT));
        }
        clock.enter(Phase::Untimed);

        self.sched = super::sched_delta(before, world.scheduler_stats());
        let sent = FLOWS as u64 * u64::from(ROUNDS);
        let mut answered = 0;
        let mut digest = Fnv::default();
        for &(node, _, dst) in &flows {
            for e in &world.host(node).icmp_log {
                if let IcmpMessage::EchoReply { seq, .. } = e.message {
                    if seq >= 1 && e.from == dst {
                        answered += 1;
                        digest.u64(e.at.0);
                    }
                }
            }
        }
        super::digest_world(&mut digest, &world);
        let live_at_end = live_bytes();
        tr.span("world.drop", || drop(world));

        let mut rep = Rep::from_clock(clock);
        rep.live_bytes = live_at_end;
        rep.ops = answered;
        rep.failed = sent - answered;
        rep.events = self.sched.dispatched;
        rep.digest = digest.0;
        rep
    }

    fn layers(&self, tr: &Tracer, reps: &[Rep], out: &mut Vec<Metric>) {
        push_span_s(tr, "scale.build_world", "scale.build_world_s", out);
        out.push(Metric::new(
            "scale.build_bytes_per_host",
            self.built_bytes as f64 / self.params.total_hosts() as f64,
            "B/host",
        ));
        push_span_s(tr, "world.run", "world.run_s", out);
        push_span_s(tr, "world.inject", "world.inject_s", out);
        let (ops, measured_s) = (reps[0].ops as f64, median_measured_s(reps));
        super::push_event_counts(self.sched, ops, measured_s, out);
        push_span_s(tr, "world.drop", "world.drop_s", out);
    }

    fn cold_rep_s(&self) -> Option<f64> {
        Some(self.cold_rep_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_follow_the_seed_and_cross_the_backbone() {
        let params = ScaleParams::with_hosts(2_000);
        let a = pick_flows(1, &params);
        assert_eq!(a, pick_flows(1, &params), "same seed, same flows");
        assert_ne!(a, pick_flows(2, &params), "another seed, other flows");
        assert_eq!(a.len(), FLOWS);

        let stubs_per_backbone = params.transits_per_backbone * params.stubs_per_transit;
        let mut senders: Vec<usize> = a.iter().map(|f| f.src_host).collect();
        senders.sort_unstable();
        senders.dedup();
        assert_eq!(senders.len(), FLOWS, "senders are distinct");
        for f in &a {
            assert_ne!(
                f.src_host % params.hosts_per_stub,
                0,
                "landmarks only answer"
            );
            let home = f.src_host / params.hosts_per_stub / stubs_per_backbone;
            assert_ne!(home, f.dst_stub / stubs_per_backbone, "{f:?}");
            assert!(f.dst_stub < params.total_stubs());
        }
    }
}

//! `grid_stream`: the paper's own data path. For each of the seven cells
//! of Figure 10 that `mip_core::classify` marks useful, the mobile host
//! roams to visited-a and registers, the correspondent is forced to the
//! row's In-mode and the mobile's policy fixed to the column's Out-mode;
//! then a closed-loop UDP echo (window 1) runs at 4, 512 and 1 400 bytes
//! and one 4 MiB TCP transfer follows. This covers the route-override
//! hook, the policy-cache hit, encapsulation and decapsulation at mobile
//! host, home agent and correspondent, and TCP with fragmentation over
//! tunnels, at the smallest and largest packet sizes. The scale workloads
//! use conventional hosts only and never execute this path.

use std::any::Any;

use bench::forced::ForcedChDelivery;
use mip_core::scenario::{addrs, build, ip, ChKind, Scenario, ScenarioConfig};
use mip_core::{HomeAgent, InMode, OutMode, PolicyConfig};
use netsim::profile::live_bytes;
use netsim::{App, Host, Ipv4Addr, NetCtx, SchedulerStats, SimDuration, SimTime};
use transport::apps::{SinkServer, UdpEchoServer};
use transport::{tcp, udp};

use crate::harness::{
    cold_rep, median_measured_s, push_span_s, Config, Metric, Phase, PhaseClock, Rep, Workload,
};
use crate::spans::Tracer;
use crate::stats::{median, Fnv, SplitMix64};

/// The useful cells: `(incoming, outgoing, span name)`. The span wraps the
/// cell's measured phase and names its `grid.<cell>.ns_per_op` metric.
pub const CELLS: [(InMode, OutMode, &str); 7] = [
    (InMode::IE, OutMode::IE, "grid.In-IE_Out-IE"),
    (InMode::IE, OutMode::DE, "grid.In-IE_Out-DE"),
    (InMode::IE, OutMode::DH, "grid.In-IE_Out-DH"),
    (InMode::DE, OutMode::DE, "grid.In-DE_Out-DE"),
    (InMode::DE, OutMode::DH, "grid.In-DE_Out-DH"),
    (InMode::DH, OutMode::DH, "grid.In-DH_Out-DH"),
    (InMode::DT, OutMode::DT, "grid.In-DT_Out-DT"),
];

/// Echo payload sizes with their sub-phase span names.
const SIZES: [(usize, &str); 3] = [
    (4, "udp.echo.4B"),
    (512, "udp.echo.512B"),
    (1400, "udp.echo.1400B"),
];
const ECHOES: u32 = 1_000;
const BULK_BYTES: usize = 4 << 20;
const ECHO_PORT: u16 = 7;
const SINK_PORT: u16 = 9;
/// The world is advanced this much simulated time per `run_for` call
/// until a sub-phase's application reports done …
const STEP: SimDuration = SimDuration::from_secs(5);
/// … or this many steps have passed, at which point what is missing
/// counts as failed.
const MAX_STEPS: usize = 200;

/// Closed-loop UDP echo client, window 1: the next datagram goes out only
/// once the previous one came back intact. `transport::apps::UdpPinger`
/// sends fixed 4-byte datagrams on a timer, so it cannot play this part.
struct EchoClient {
    server: (Ipv4Addr, u16),
    bind: Option<Ipv4Addr>,
    payload: Vec<u8>,
    sock: Option<udp::UdpHandle>,
    sent: u32,
    answered: u32,
    awaiting: bool,
    finished: Option<SimTime>,
}

impl App for EchoClient {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        let bind = self.bind;
        let sock = *self.sock.get_or_insert_with(|| udp::bind(host, bind, 0));
        while let Some(got) = udp::recv(host, sock) {
            if self.awaiting && got.payload[..] == self.payload[..] {
                self.awaiting = false;
                self.answered += 1;
                if self.answered == ECHOES {
                    self.finished = Some(ctx.now);
                }
            }
        }
        if !self.awaiting && self.sent < ECHOES {
            self.payload[..4].copy_from_slice(&self.sent.to_be_bytes());
            udp::send_to(host, ctx, sock, self.server, self.payload.clone());
            self.sent += 1;
            self.awaiting = true;
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// `transport::apps::BulkSender`'s three socket calls (connect, send
/// everything, close) with the connection handle kept readable:
/// `BulkSender` keeps its own private, and `tcp::stats` needs one.
struct BulkTransfer {
    server: (Ipv4Addr, u16),
    bind: Option<Ipv4Addr>,
    conn: Option<tcp::TcpHandle>,
    sent: bool,
    started: SimTime,
    finished: Option<SimTime>,
    error: Option<tcp::TcpError>,
}

impl App for BulkTransfer {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        if self.finished.is_some() || self.error.is_some() {
            return;
        }
        let conn = match self.conn {
            Some(c) => c,
            None => {
                self.started = ctx.now;
                match tcp::connect(host, ctx, self.server, self.bind) {
                    Ok(c) => *self.conn.insert(c),
                    Err(e) => {
                        self.error = Some(e);
                        return;
                    }
                }
            }
        };
        let _ = tcp::recv(host, conn);
        if let Some(e) = tcp::error(host, conn) {
            self.error = Some(e);
            return;
        }
        let state = tcp::state(host, conn);
        if !self.sent && state.can_send() {
            let data: Vec<u8> = (0..BULK_BYTES).map(|i| (i % 249) as u8).collect();
            tcp::send(host, ctx, conn, &data);
            tcp::close(host, ctx, conn);
            self.sent = true;
        } else if self.sent
            && matches!(
                state,
                tcp::TcpState::Closed | tcp::TcpState::TimeWait | tcp::TcpState::FinWait2
            )
            && tcp::all_acked(host, conn)
        {
            self.finished = Some(ctx.now);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counters read at the span boundaries of the latest repetition, summed
/// over the seven cells.
#[derive(Default)]
struct Counts {
    ops: u64,
    failed: u64,
    cell_ops: [u64; CELLS.len()],
    sched: SchedulerStats,
    tcp_segs: u64,
    tcp_retransmitted: u64,
    tcp_bytes: u64,
    tcp_sim_us: u64,
    policy_hits: u64,
    policy_decisions: u64,
    ha_tunneled: u64,
    sent_forced: u64,
    sent_any: u64,
}

/// The `grid_stream` workload.
pub struct GridStream {
    seed: u64,
    /// Echo payloads in the seeded sub-phase order, with their span names.
    payloads: Vec<(&'static str, Vec<u8>)>,
    cold_rep_s: f64,
    last: Counts,
}

/// The echo sub-phases for `seed`: the three sizes in a seeded order,
/// each with seeded filler bytes.
pub fn echo_payloads(seed: u64) -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = SplitMix64(seed);
    let mut sizes = SIZES;
    rng.shuffle(&mut sizes);
    sizes
        .into_iter()
        .map(|(len, span)| (span, (0..len).map(|_| rng.next_u64() as u8).collect()))
        .collect()
}

impl GridStream {
    /// Generate the payloads and run the cold first repetition.
    pub fn new(cfg: &Config, tr: &mut Tracer) -> GridStream {
        let mut w = GridStream {
            seed: cfg.seed,
            payloads: echo_payloads(cfg.seed),
            cold_rep_s: 0.0,
            last: Counts::default(),
        };
        w.cold_rep_s = cold_rep(&mut w, tr);
        w
    }

    /// Advance `s.world` in [`STEP`]s until `done` says so.
    fn run_until(s: &mut Scenario, tr: &mut Tracer, mut done: impl FnMut(&mut Scenario) -> bool) {
        for _ in 0..MAX_STEPS {
            if done(s) {
                return;
            }
            tr.span("world.run", || s.world.run_for(STEP));
        }
    }

    /// One cell: build, roam, register, force the modes (set-up), then the
    /// echo sub-phases and the bulk transfer (measured). Returns the cell's
    /// world, still alive.
    fn cell(
        &self,
        cell: usize,
        clock: &mut PhaseClock,
        tr: &mut Tracer,
        counts: &mut Counts,
        digest: &mut Fnv,
    ) -> Scenario {
        let (incoming, outgoing, span) = CELLS[cell];
        clock.enter(Phase::Setup);
        let open = tr.begin("scenario.build");
        let mut s = build(ScenarioConfig {
            seed: self.seed,
            // Decap-capable so Out-DE is receivable; the forced hook
            // replaces any awareness logic.
            ch_kind: ChKind::DecapCapable,
            // In-DH needs the correspondent on the mobile's segment.
            ch_on_visited: incoming == InMode::DH,
            mh_policy: PolicyConfig::fixed(outgoing).without_dt_ports(),
            ..ScenarioConfig::default()
        });
        s.roam_to_a();
        let registered = s.mh_registered();
        ForcedChDelivery::install(
            &mut s.world,
            s.ch,
            ip(addrs::MH_HOME),
            ip(addrs::COA_A),
            ip(addrs::HA),
            incoming,
        );
        let (mh, ch, ha) = (s.mh, s.ch, s.ha);
        let echo_server = (s.ch_addr(), ECHO_PORT);
        let sink_server = (s.ch_addr(), SINK_PORT);
        s.world
            .host_mut(ch)
            .add_app(Box::new(UdpEchoServer::new(ECHO_PORT)));
        let sink = s
            .world
            .host_mut(ch)
            .add_app(Box::new(SinkServer::new(SINK_PORT)));
        s.world.poll_soon(ch);
        // Out-DT means the application binds to the care-of address
        // (§7.1.1); the other columns use the home address and the fixed
        // policy decides the delivery method.
        let bind = (outgoing == OutMode::DT).then(|| ip(addrs::COA_A));
        tr.end(open);

        let total_ops = u64::from(ECHOES) * SIZES.len() as u64 + (BULK_BYTES / 1024) as u64;
        if !registered {
            counts.failed += total_ops;
            return s;
        }
        let ha_stats = |s: &mut Scenario| {
            let agent = s.world.host_mut(ha).hook_as::<HomeAgent>();
            agent.expect("home agent installed").stats
        };
        let sched_before = s.world.scheduler_stats();
        let mh_before = s.mh_hook().stats;
        let policy_before = s.mh_hook().policy_cache_stats();
        let tunneled_before = ha_stats(&mut s).packets_tunneled;

        clock.enter(Phase::Measured);
        let open_cell = tr.begin(span);
        let mut ops = 0;
        for (echo_span, payload) in &self.payloads {
            let open = tr.begin(echo_span);
            let client = s.world.host_mut(mh).add_app(Box::new(EchoClient {
                server: echo_server,
                bind,
                payload: payload.clone(),
                sock: None,
                sent: 0,
                answered: 0,
                awaiting: false,
                finished: None,
            }));
            s.world.poll_soon(mh);
            let echo = |s: &mut Scenario| {
                let app = s.world.host_mut(mh).app_as::<EchoClient>(client);
                let app = app.expect("echo client installed");
                (app.answered, app.finished)
            };
            Self::run_until(&mut s, tr, |s| echo(s).1.is_some());
            tr.end(open);
            let (answered, finished) = echo(&mut s);
            ops += u64::from(answered);
            digest.u64(finished.map_or(0, |t| t.0));
        }

        let open = tr.begin("tcp.bulk");
        let bulk = s.world.host_mut(mh).add_app(Box::new(BulkTransfer {
            server: sink_server,
            bind,
            conn: None,
            sent: false,
            started: SimTime::ZERO,
            finished: None,
            error: None,
        }));
        s.world.poll_soon(mh);
        let transfer = |s: &mut Scenario| {
            let app = s.world.host_mut(mh).app_as::<BulkTransfer>(bulk);
            let app = app.expect("bulk transfer installed");
            (app.conn, app.started, app.finished, app.error)
        };
        Self::run_until(&mut s, tr, |s| {
            let (_, _, finished, error) = transfer(s);
            finished.is_some() || error.is_some()
        });
        tr.end(open);
        tr.end(open_cell);
        clock.enter(Phase::Untimed);

        let (conn, started, finished, _) = transfer(&mut s);
        let sink = s.world.host_mut(ch).app_as::<SinkServer>(sink);
        let received = sink
            .expect("sink installed")
            .bytes_received
            .min(BULK_BYTES as u64);
        let tcp_stats = conn.map(|c| tcp::stats(s.world.host_mut(mh), c));
        let tcp_stats = tcp_stats.unwrap_or_default();
        // A transfer that did not complete counts for what arrived.
        ops += if finished.is_some() {
            received / 1024
        } else {
            0
        };
        let mut failed = total_ops - ops;
        failed += u64::from(tcp_stats.segs_retransmitted > 0);

        let sched = s.world.scheduler_stats();
        let mh_stats = s.mh_hook().stats;
        let policy = s.mh_hook().policy_cache_stats();
        let sent = |m| mh_stats.sent_by(m) - mh_before.sent_by(m);
        let sent_any: u64 = OutMode::ALL.into_iter().map(sent).sum();
        // Only the forced Out-mode may have been used.
        failed += u64::from(sent(outgoing) != sent_any);

        counts.ops += ops;
        counts.failed += failed;
        counts.cell_ops[cell] = ops;
        let sched = super::sched_delta(sched_before, sched);
        counts.sched.pushed += sched.pushed;
        counts.sched.dispatched += sched.dispatched;
        counts.sched.cancelled += sched.cancelled;
        counts.tcp_segs += tcp_stats.segs_sent;
        counts.tcp_retransmitted += tcp_stats.segs_retransmitted;
        counts.tcp_bytes += received;
        counts.tcp_sim_us += finished.map_or(0, |t| t.since(started).as_micros());
        counts.policy_hits += policy.hits - policy_before.hits;
        counts.policy_decisions +=
            (policy.hits + policy.misses) - (policy_before.hits + policy_before.misses);
        counts.ha_tunneled += ha_stats(&mut s).packets_tunneled - tunneled_before;
        counts.sent_forced += sent(outgoing);
        counts.sent_any += sent_any;

        digest.u64(finished.map_or(0, |t| t.0));
        digest.bytes(format!("{tcp_stats:?}{mh_stats:?}").as_bytes());
        super::digest_world(digest, &s.world);
        s
    }
}

impl Workload for GridStream {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut clock = PhaseClock::start(Phase::Untimed);
        let mut counts = Counts::default();
        let mut digest = Fnv::default();
        // The seven worlds stay alive until the live-heap reading.
        let scenarios: Vec<Scenario> = (0..CELLS.len())
            .map(|cell| self.cell(cell, &mut clock, tr, &mut counts, &mut digest))
            .collect();
        let live_at_end = live_bytes();
        tr.span("world.drop", || drop(scenarios));

        let mut rep = Rep::from_clock(clock);
        rep.live_bytes = live_at_end;
        rep.ops = counts.ops;
        rep.failed = counts.failed;
        rep.events = counts.sched.dispatched;
        rep.digest = digest.0;
        self.last = counts;
        rep
    }

    fn layers(&self, tr: &Tracer, reps: &[Rep], out: &mut Vec<Metric>) {
        let c = &self.last;
        let ops = c.ops as f64;
        push_span_s(tr, "scenario.build", "scenario.build_s", out);
        for (cell, (_, _, span)) in CELLS.into_iter().enumerate() {
            let s = median(&tr.per_rep_s(span));
            out.push(Metric::new(
                format!("{span}.ns_per_op"),
                s * 1e9 / c.cell_ops[cell] as f64,
                "ns/op",
            ));
        }
        for (len, span) in SIZES {
            let s = median(&tr.per_rep_s(span));
            out.push(Metric::new(
                format!("udp.echo_ns.{len}B"),
                s * 1e9 / (f64::from(ECHOES) * CELLS.len() as f64),
                "ns/op",
            ));
        }
        push_span_s(tr, "tcp.bulk", "tcp.bulk_s", out);
        let kib = c.tcp_bytes as f64 / 1024.0;
        out.push(Metric::new(
            "tcp.segs_per_kib",
            c.tcp_segs as f64 / kib,
            "segs/KiB",
        ));
        out.push(Metric::new(
            "tcp.retransmitted",
            c.tcp_retransmitted as f64,
            "count",
        ));
        out.push(Metric::new(
            "tcp.sim_goodput_mib_s",
            kib / 1024.0 / (c.tcp_sim_us as f64 / 1e6),
            "MiB/s",
        ));
        out.push(Metric::new(
            "policy.decisions_per_op",
            c.policy_decisions as f64 / ops,
            "count",
        ));
        out.push(Metric::new(
            "policy.hit_ratio",
            c.policy_hits as f64 / c.policy_decisions.max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new(
            "home_agent.tunneled_per_op",
            c.ha_tunneled as f64 / ops,
            "count",
        ));
        out.push(Metric::new(
            "mobile_host.mode_purity",
            c.sent_forced as f64 / c.sent_any.max(1) as f64,
            "ratio",
        ));
        push_span_s(tr, "world.run", "world.run_s", out);
        super::push_event_counts(c.sched, ops, median_measured_s(reps), out);
        push_span_s(tr, "world.drop", "world.drop_s", out);
    }

    fn cold_rep_s(&self) -> Option<f64> {
        Some(self.cold_rep_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mip_core::{classify, CellClass, Combination};

    #[test]
    fn cells_are_exactly_the_useful_ones_and_named_after_them() {
        let useful: Vec<Combination> = Combination::all()
            .filter(|c| classify(*c) == CellClass::Useful)
            .collect();
        let ours: Vec<Combination> = CELLS
            .iter()
            .map(|&(i, o, _)| Combination::new(i, o))
            .collect();
        assert_eq!(ours, useful);
        for (i, o, span) in CELLS {
            assert_eq!(span, format!("grid.{i}_{o}"));
        }
    }

    #[test]
    fn payload_order_and_bytes_follow_the_seed() {
        let a = echo_payloads(1);
        assert_eq!(a, echo_payloads(1));
        assert_ne!(a, echo_payloads(2));
        let mut lens: Vec<usize> = a.iter().map(|(_, p)| p.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, [4, 512, 1400]);
        let orders: std::collections::BTreeSet<Vec<usize>> = (0..32)
            .map(|seed| echo_payloads(seed).iter().map(|(_, p)| p.len()).collect())
            .collect();
        assert!(orders.len() > 1, "the seed permutes the sub-phases");
    }
}

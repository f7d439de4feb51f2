//! Layer probes: fixed-input tight loops over one public function each,
//! reported **per operation** with the operations-per-sample stated, so
//! the batch-vs-op ambiguity of the legacy `BENCH_pr*.json` rows cannot
//! recur. A probe's per-op cost times that layer's per-op count in a
//! workload predicts the `ops_per_s` share the layer can move there.
//!
//! Probes take no seed: their inputs are constants. They run in about
//! five seconds and are informational — nothing is gated on them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mip_core::scenario::{addrs, build, ip, ScenarioConfig};
use mip_core::{AuditTrail, Policy, PolicyConfig, RegistrationRequest, Strategy};
use netsim::device::router::{patch_forwarded_frame, RouteEntry};
use netsim::wire::encap::{decapsulate, encapsulate, EncapFormat};
use netsim::wire::ethernet::{EtherType, EthernetFrame, MacAddr};
use netsim::wire::tcpseg::{TcpFlags, TcpSegment};
use netsim::wire::udp::UdpDatagram;
use netsim::{
    Event, EventKind, EventQueue, HostConfig, IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet,
    Lifecycle, LinkConfig, MetricsRegistry, NodeId, PacketTrace, Reservoir, RouteTable,
    RouterConfig, SimDuration, SimTime, SpaceSaving, Timer, TimerToken, TraceEventKind, World,
};

use crate::harness::Metric;
use crate::stats::median;

/// One probe's result.
pub struct ProbeRow {
    /// Name, per-operation value and unit.
    pub metric: Metric,
    /// Operations timed in each sample.
    pub ops_per_sample: u64,
    /// Samples taken; the value is their median.
    pub samples: usize,
}

/// Wall time a probe may spend sampling (after one untimed warm-up).
const BUDGET: Duration = Duration::from_millis(100);
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 25;

/// Collects rows; `sample` returns the time its `ops` operations took,
/// so a probe can keep its own set-up outside the clock.
struct Probes {
    rows: Vec<ProbeRow>,
}

impl Probes {
    /// Sample until [`BUDGET`] is spent; returns every sample's seconds.
    fn samples(mut sample: impl FnMut() -> Duration) -> Vec<f64> {
        sample();
        let started = Instant::now();
        let mut taken = Vec::new();
        while taken.len() < MIN_SAMPLES || (taken.len() < MAX_SAMPLES && started.elapsed() < BUDGET)
        {
            taken.push(sample().as_secs_f64());
        }
        taken
    }

    /// A probe reported as nanoseconds per operation.
    fn ns(&mut self, name: &str, ops: u64, sample: impl FnMut() -> Duration) {
        let taken = Self::samples(sample);
        self.rows.push(ProbeRow {
            metric: Metric::new(name, median(&taken) * 1e9 / ops as f64, "ns"),
            ops_per_sample: ops,
            samples: taken.len(),
        });
    }

    /// [`Probes::ns`] for the common case: `op` called `ops` times.
    fn ns_loop(&mut self, name: &str, ops: u64, mut op: impl FnMut(u64)) {
        self.ns(name, ops, || {
            let t = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t.elapsed()
        });
    }
}

fn addr(s: &str) -> Ipv4Addr {
    s.parse().expect("dotted quad")
}

/// A UDP-in-IPv4 packet whose Ethernet frame is `frame_len` bytes long.
fn packet(frame_len: usize) -> Ipv4Packet {
    let payload = vec![0xAB; frame_len - 14 - 20];
    Ipv4Packet::new(
        addr("10.0.1.10"),
        addr("10.0.2.20"),
        IpProtocol::Udp,
        Bytes::from(payload),
    )
}

fn frame(frame_len: usize) -> Bytes {
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        EtherType::Ipv4,
        packet(frame_len).emit(),
    )
    .emit()
}

fn event(p: &mut Probes) {
    // 128 Ki resident timers; each op pops the earliest and re-arms it a
    // short pseudorandom delay later — mostly sub-millisecond, one in 64
    // far out — the shape of a TCP-timer-heavy simulation.
    const RESIDENT: u64 = 128 * 1024;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        1 + rng
            % if rng.is_multiple_of(64) {
                3_000_000
            } else {
                1_000
            }
    };
    let timer = |i: u64| {
        EventKind::Timer(Timer {
            node: NodeId((i % 16) as usize),
            token: TimerToken(i),
        })
    };
    let mut q = EventQueue::new();
    for i in 0..RESIDENT {
        q.push(SimTime(delay()), timer(i));
    }
    p.ns_loop("event.push_pop_ns", RESIDENT, |_| {
        let Event { at, kind, .. } = q.pop().expect("queue stays full");
        q.push(SimTime(at.0 + delay()), kind);
    });

    const CANCELS: u64 = 16 * 1024;
    p.ns("event.cancel_ns", CANCELS, || {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..CANCELS)
            .map(|i| q.push_cancellable(SimTime(1 + i % 5_000), timer(i)))
            .collect();
        let t = Instant::now();
        for h in handles {
            black_box(q.cancel(h));
        }
        t.elapsed()
    });
}

fn route(p: &mut Probes) {
    let mut table = RouteTable::new();
    for i in 0..100u32 {
        table.add(RouteEntry {
            prefix: Ipv4Cidr::new(Ipv4Addr((10 << 24) | (i << 16)), 16),
            iface: (i % 4) as usize,
            gateway: None,
        });
    }
    // A flow-like mix: sixteen destinations visited over and over.
    p.ns_loop("route.lookup_cached_ns", 64 * 1024, |i| {
        let d = Ipv4Addr((10 << 24) | (((i as u32 % 16) * 6 + 1) << 16) | 0x0505);
        black_box(table.lookup(d));
    });
    // Never the same destination twice: every lookup walks the index and
    // fills (and periodically clears) the memo, as first packets do.
    let mut next = 0u32;
    p.ns_loop("route.lookup_uncached_ns", 64 * 1024, |_| {
        next = next.wrapping_add(1);
        let d = Ipv4Addr((10 << 24) | ((next % 100) << 16) | ((next / 100) & 0xFFFF));
        black_box(table.lookup(d));
    });

    // 24 LANs star-joined by a backbone: 24 routers + 24 hosts.
    let mut w = World::new(7);
    let backbone = w.add_segment(LinkConfig::wan(5));
    for i in 0..24 {
        let lan = w.add_segment(LinkConfig::lan());
        let r = w.add_router(RouterConfig::named(&format!("r{i}")));
        w.attach(r, lan, Some(&format!("10.{i}.0.1/24")));
        w.attach(r, backbone, Some(&format!("192.168.0.{}/24", i + 1)));
        let h = w.add_host(HostConfig::conventional(&format!("h{i}")));
        w.attach(h, lan, Some(&format!("10.{i}.0.10/24")));
    }
    let taken = Probes::samples(|| {
        let t = Instant::now();
        w.compute_routes();
        t.elapsed()
    });
    p.rows.push(ProbeRow {
        metric: Metric::new("route.compute_routes_ms", median(&taken) * 1e3, "ms"),
        ops_per_sample: 1,
        samples: taken.len(),
    });
}

fn wire(p: &mut Probes) {
    for len in [64usize, 1400] {
        let wire = frame(len);
        p.ns_loop(&format!("wire.frame_parse_ns.{len}B"), 16 * 1024, |_| {
            let eth = EthernetFrame::parse(black_box(&wire)).expect("valid frame");
            black_box(Ipv4Packet::parse(&eth.payload).expect("valid packet"));
        });
        let pkt = packet(len);
        let mut out = Vec::with_capacity(len);
        p.ns_loop(&format!("wire.frame_emit_ns.{len}B"), 16 * 1024, |_| {
            out.clear();
            EthernetFrame::emit_header_into(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                EtherType::Ipv4,
                &mut out,
            );
            black_box(&pkt).emit_into(&mut out);
            black_box(&out);
        });
    }

    let inner = packet(512);
    let (coa, ha) = (ip(addrs::COA_A), ip(addrs::HA));
    for (format, name) in [
        (EncapFormat::IpInIp, "wire.encap_ns.ipip"),
        (EncapFormat::Minimal, "wire.encap_ns.minimal"),
        (EncapFormat::Gre, "wire.encap_ns.gre"),
    ] {
        p.ns_loop(name, 16 * 1024, |i| {
            black_box(encapsulate(format, coa, ha, black_box(&inner), i as u16));
        });
    }
    let outer = encapsulate(EncapFormat::IpInIp, coa, ha, &inner, 1).expect("ip-in-ip");
    p.ns_loop("wire.decap_ns.ipip", 16 * 1024, |_| {
        black_box(decapsulate(black_box(&outer)).expect("valid tunnel packet"));
    });

    let (src, dst) = (addr("18.26.0.5"), addr("36.186.0.99"));
    let seg = TcpSegment {
        src_port: 1000,
        dst_port: 9,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ack(),
        window: 65_535,
        mss: None,
        payload: Bytes::from(vec![0x5A; 1400]),
    };
    p.ns_loop("wire.tcpseg_roundtrip_ns.1400B", 8 * 1024, |_| {
        let bytes = black_box(&seg).emit(src, dst);
        black_box(TcpSegment::parse(&bytes, src, dst).expect("own segment"));
    });
    let dgram = UdpDatagram::new(7, 7, Bytes::from(vec![0x5A; 64]));
    p.ns_loop("wire.udp_roundtrip_ns.64B", 16 * 1024, |_| {
        let bytes = black_box(&dgram).emit(src, dst);
        black_box(UdpDatagram::parse(&bytes, src, dst).expect("own datagram"));
    });
}

fn router(p: &mut Probes) {
    // One forwarding hop on the fast path: the shared frame is copied and
    // the copy patched in place (MACs, TTL, incremental checksum).
    for len in [64usize, 1400] {
        let wire = frame(len);
        p.ns_loop(
            &format!("router.patch_forward_ns.{len}B"),
            16 * 1024,
            |_| {
                let mut out = black_box(&wire).as_slice().to_vec();
                patch_forwarded_frame(&mut out, MacAddr::from_index(9), MacAddr::from_index(3));
                black_box(out);
            },
        );
    }
}

fn policy(p: &mut Probes) {
    // The audit trail is for explainability; it is dropped so the rows
    // measure the lookup engine, not ring-buffer bookkeeping.
    let quiet = |cap: usize| {
        let mut policy = Policy::new(PolicyConfig {
            cache_cap: cap,
            ..PolicyConfig::optimistic()
        });
        policy.audit = AuditTrail::with_capacity(0);
        policy
    };

    const RESIDENT: u32 = 1 << 20;
    let mut hits = quiet(RESIDENT as usize);
    for i in 0..RESIDENT {
        hits.mode_for(Ipv4Addr(0x1000_0000 + i));
    }
    // Sixteen correspondents spread over the table, as conversing peers.
    p.ns_loop("policy.hit_ns", 64 * 1024, |i| {
        let d = Ipv4Addr(0x1000_0000 + (i as u32 % 16) * (RESIDENT / 16));
        black_box(hits.mode_for(d));
    });
    drop(hits);

    const CAP: u32 = 64 * 1024;
    let mut misses = quiet(CAP as usize);
    for i in 0..CAP {
        misses.mode_for(Ipv4Addr(0x2000_0000 + i));
    }
    // Every lookup is a never-seen correspondent, so the cache stays at
    // capacity and each op is a miss plus an LRU eviction.
    let mut next = CAP;
    p.ns_loop("policy.miss_evict_ns", 64 * 1024, |_| {
        next = next.wrapping_add(1);
        black_box(misses.mode_for(Ipv4Addr(0x2000_0000u32.wrapping_add(next))));
    });

    const RULES: u32 = 1024;
    let rules = (0..RULES).map(|i| {
        let strategy = if i % 2 == 0 {
            Strategy::Pessimistic
        } else {
            Strategy::Optimistic
        };
        (
            Ipv4Cidr::new(Ipv4Addr((10 << 24) | (i << 12)), 20),
            strategy,
        )
    });
    let matcher = Policy::new(PolicyConfig {
        rules: rules.collect(),
        ..PolicyConfig::optimistic()
    });
    // Half the destinations hit rules spread across the list, half miss.
    p.ns_loop("policy.rule_match_ns.1024", 64 * 1024, |i| {
        let k = i as u32 % 16;
        let d = if k.is_multiple_of(2) {
            Ipv4Addr((10 << 24) | ((k * RULES / 16) << 12) | 7)
        } else {
            Ipv4Addr((11 << 24) | k)
        };
        black_box(matcher.rule_match_compiled(d));
    });
}

fn registration(p: &mut Probes) {
    let mut buf = Vec::with_capacity(mip_core::registration::REQUEST_LEN);
    let (home_address, home_agent, care_of) = (ip(addrs::MH_HOME), ip(addrs::HA), ip(addrs::COA_A));
    p.ns_loop("registration.emit_parse_ns", 64 * 1024, |i| {
        let req = RegistrationRequest {
            lifetime: 300,
            home_address,
            home_agent,
            care_of,
            ident: i,
        };
        buf.clear();
        black_box(&req).emit_into(&mut buf);
        black_box(RegistrationRequest::parse(&buf).expect("own request"));
    });
}

fn metrics(p: &mut Probes) {
    // What `exp_scale`'s default does to a 10⁵-host world: every node's
    // dense record is created on first contact.
    const NODES: u64 = 100_000;
    let pkt = packet(64);
    let mut bytes = 0;
    p.ns("metrics.first_touch_ns", NODES, || {
        let before = netsim::profile::live_bytes();
        let mut registry = MetricsRegistry::new(true);
        let t = Instant::now();
        for i in 0..NODES {
            registry.record_packet(NodeId(i as usize), TraceEventKind::Sent, &pkt);
        }
        let took = t.elapsed();
        bytes = netsim::profile::live_bytes() - before;
        took
    });
    let samples = p.rows.last().expect("just pushed").samples;
    p.rows.push(ProbeRow {
        metric: Metric::new(
            "metrics.first_touch_bytes",
            bytes as f64 / NODES as f64,
            "B",
        ),
        ops_per_sample: NODES,
        samples,
    });

    let mut registry = MetricsRegistry::new(true);
    p.ns_loop("metrics.record_hot_ns", 64 * 1024, |i| {
        registry.record_packet(NodeId((i % 8) as usize), TraceEventKind::Forwarded, &pkt);
    });
}

fn trace_and_lifecycle(p: &mut Probes) {
    const EVENTS: u64 = 64 * 1024;
    let pkts: Vec<Ipv4Packet> = (0..64u16)
        .map(|i| {
            let mut pkt = packet(64);
            pkt.ident = i;
            pkt
        })
        .collect();
    // As a world does by default: enabled and unbounded.
    p.ns("trace.record_ns", EVENTS, || {
        let mut trace = PacketTrace::new(true);
        let t = Instant::now();
        for i in 0..EVENTS {
            let pkt = &pkts[(i % 64) as usize];
            trace.record(
                SimTime(i),
                NodeId((i % 8) as usize),
                TraceEventKind::Forwarded,
                pkt,
            );
        }
        t.elapsed()
    });

    // A real trace to reconstruct: the canonical scenario, the mobile
    // roaming twice and pinging the correspondent from each network.
    let mut s = build(ScenarioConfig::default());
    let (mh, ch_addr) = (s.mh, s.ch_addr());
    for round in 0..2 {
        if round == 0 {
            s.roam_to_a();
        } else {
            s.roam_to_b();
        }
        for seq in 0..200 {
            s.world.host_do(mh, |h, ctx| {
                h.send_ping(ctx, ip(addrs::MH_HOME), ch_addr, seq);
            });
            s.world.run_for(SimDuration::from_millis(200));
        }
    }
    let names = s.world.node_names();
    let events = s.world.trace.events().len() as u64;
    p.ns("lifecycle.reconstruct_ns_per_event", events, || {
        let t = Instant::now();
        black_box(Lifecycle::reconstruct(&s.world.trace, &names));
        t.elapsed()
    });
}

fn telemetry(p: &mut Probes) {
    // Heavy key churn: 512 keys through 64 slots, constant eviction.
    let mut sketch: SpaceSaving<u64> = SpaceSaving::new(64);
    p.ns_loop("telemetry.space_saving_offer_ns", 64 * 1024, |i| {
        sketch.offer(black_box(i % 512), 1);
    });
    // Past capacity from the first sample's 65th offer on.
    let mut reservoir: Reservoir<u64> = Reservoir::new(64, 7);
    p.ns_loop("telemetry.reservoir_offer_ns", 64 * 1024, |i| {
        reservoir.offer(black_box(i));
    });
}

fn profile(p: &mut Probes) {
    // A scope around trivial work: off is the tax every instrumented hot
    // path pays permanently, on is the recorder's own bookkeeping.
    let scope = |_| {
        let _prof = netsim::profile::scope("benchmark/probe");
        black_box(1u64 + black_box(1));
    };
    netsim::profile::set_enabled(false);
    p.ns_loop("profile.scope_off_ns", 256 * 1024, scope);
    netsim::profile::set_enabled(true);
    p.ns_loop("profile.scope_on_ns", 256 * 1024, scope);
    netsim::profile::set_enabled(false);
    netsim::profile::reset();
}

fn arena(p: &mut Probes) {
    let names: Vec<String> = (0..64).map(|i| format!("h{i}-{}", i * 3)).collect();
    for n in &names {
        netsim::arena::intern(n);
    }
    p.ns_loop("arena.intern_hit_ns", 64 * 1024, |i| {
        black_box(netsim::arena::intern(&names[(i % 64) as usize]));
    });
}

fn serde_json_write(p: &mut Probes) {
    // Report-shaped: an array of small objects with strings and numbers.
    let row = |i: u64| {
        serde::Value::Object(vec![
            ("name".into(), serde::Value::Str(format!("h{i}-{}", i % 7))),
            ("packets_sent".into(), serde::Value::U64(i * 31)),
            ("utilization".into(), serde::Value::F64(i as f64 / 7.0)),
            (
                "drops".into(),
                serde::Value::Array(vec![serde::Value::U64(i); 4]),
            ),
        ])
    };
    let doc = serde::Value::Array((0..4096).map(row).collect());
    let bytes = serde_json::to_string(&doc).expect("renders").len();
    let taken = Probes::samples(|| {
        let t = Instant::now();
        black_box(serde_json::to_string(black_box(&doc)).expect("renders"));
        t.elapsed()
    });
    let mib = bytes as f64 / (1024.0 * 1024.0);
    p.rows.push(ProbeRow {
        metric: Metric::new("serde_json.write_mib_s", mib / median(&taken), "MiB/s"),
        ops_per_sample: bytes as u64,
        samples: taken.len(),
    });
}

/// Run every probe.
pub fn run_all() -> Vec<ProbeRow> {
    let mut p = Probes { rows: Vec::new() };
    event(&mut p);
    route(&mut p);
    wire(&mut p);
    router(&mut p);
    policy(&mut p);
    registration(&mut p);
    metrics(&mut p);
    trace_and_lifecycle(&mut p);
    telemetry(&mut p);
    profile(&mut p);
    arena(&mut p);
    serde_json_write(&mut p);
    p.rows
}

#![warn(missing_docs)]
//! # netsim — deterministic discrete-event IPv4 network simulator
//!
//! This crate is the substrate on which the Internet Mobility 4x4 stack
//! (crate `mip-core`) runs. It provides, from scratch:
//!
//! * **Wire formats** ([`wire`]): Ethernet II, ARP (including gratuitous and
//!   proxy ARP), IPv4 with header checksum and fragmentation/reassembly,
//!   ICMP, UDP and TCP segment formats, and the three encapsulation formats
//!   discussed in the paper (IP-in-IP, Minimal Encapsulation, GRE), plus a
//!   pcap trace writer.
//! * **Topology** ([`link`], [`world`]): point-to-point links and shared
//!   Ethernet segments with latency, bandwidth, MTU and fault injection.
//! * **Devices** ([`device`]): IP routers with longest-prefix-match
//!   forwarding and the policy filters the paper names (source-address
//!   ingress filtering, transit-traffic policy, firewalls), and host network
//!   stacks with ARP caches and a pluggable route-lookup override hook — the
//!   paper's key implementation mechanism ("We override the IP route lookup
//!   routine and replace it with a routine that consults a mobility policy
//!   table before the usual route table", §7).
//! * **Observation** ([`trace`], [`profile`]): per-hop packet traces with
//!   drop reasons, hop counts, path latency and byte accounting, so
//!   experiments can measure everything the paper's figures illustrate —
//!   plus a zero-cost-when-disabled flight recorder (hierarchical
//!   wall-clock scopes, allocation telemetry, scheduler gauges) measuring
//!   the simulator itself.
//!
//! The simulator is synchronous and deterministic: a seeded RNG drives fault
//! injection, and event ties are broken by insertion order, so every run with
//! the same seed produces byte-identical traces. This follows the design of
//! event-driven stacks like smoltcp rather than an async runtime, which keeps
//! tests reproducible.

pub mod arena;
pub mod device;
pub mod event;
pub mod hash;
pub mod lifecycle;
pub mod link;
pub mod metrics;
pub mod profile;
pub mod route;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod wire;
pub mod world;

pub use device::host::{
    App, EncapLayer, FeedbackEvent, Host, HostConfig, MobilityHook, ProtocolHandler, RouteDecision,
};
pub use device::nic::IfaceAddr;
pub use device::router::{FilterAction, FilterRule, FilterWhen, Router, RouterConfig};
pub use device::TxMeta;
pub use event::SchedulerTelemetry;
pub use event::{
    Event, EventKind, EventQueue, IfaceNo, NodeId, SchedulerStats, Timer, TimerHandle, TimerToken,
};
pub use lifecycle::{FlowSummary, Lifecycle, PacketLifecycle, PacketOutcome};
pub use link::{FaultInjector, LinkConfig, LinkId, SegmentId};
pub use metrics::{Histogram, MetricsRegistry, NodeMetrics, SegmentMetrics};
pub use route::RouteTable;
pub use telemetry::{InvariantMonitor, InvariantViolation, Reservoir, SketchEntry, SpaceSaving};
pub use time::{SimDuration, SimTime};
pub use trace::{
    DropReason, FlowId, PacketId, PacketTrace, TraceEvent, TraceEventKind, TransformKind,
};
pub use wire::encap::EncapFormat;
pub use wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet};
pub use world::{NetCtx, World};

// Compile-only stubs of the removed sharded engine. `benchmark/` may not
// be edited by the change that removed it, and its `churn_shards2`
// workload names exactly these three items; they do nothing, and go when
// that workload does (ROADMAP, "Benchmark housekeeping").
#[doc(hidden)]
pub fn set_default_shards(_n: usize) {}
#[doc(hidden)]
pub struct ShardStats {
    pub events: u64,
    pub windows: u64,
    pub stalls: u64,
    pub msgs_in: u64,
    pub msgs_out: u64,
}
impl World {
    #[doc(hidden)]
    pub fn shard_stats(&self) -> Option<&[ShardStats]> {
        None
    }
}

#![warn(missing_docs)]
//! # mip-core — Internet Mobility 4x4
//!
//! A reproduction of the system described in *Internet Mobility 4x4*
//! (Stuart Cheshire and Mary Baker, SIGCOMM '96): a Mobile IP stack in
//! which the routing mode for every packet is chosen per conversation —
//! and, when conditions change, per packet — from the paper's 4x4 grid of
//! incoming × outgoing delivery methods.
//!
//! The crate provides:
//!
//! * [`modes`] — the taxonomy itself: [`modes::OutMode`], [`modes::InMode`],
//!   and the Figure 10 classification [`modes::classify`];
//! * [`addr`] — home- vs care-of-address newtypes;
//! * [`registration`] — the MH↔HA registration protocol (UDP 434);
//! * [`home_agent`] — proxy-ARP capture, tunnelling, ICMP Mobile Host
//!   Redirects, reverse-tunnel termination, multicast relay;
//! * [`mobile_host`] — the mobile host's mobility layer: virtual home
//!   interface, the route-override implementing Out-IE/DE/DH/DT, source
//!   selection with §7.1.1 bind semantics and port heuristics, registration
//!   client, and movement: one entry point, [`move_to`] with an
//!   [`Attachment`];
//! * [`policy`] — the per-correspondent method cache with optimistic /
//!   pessimistic / rule-driven probing and §7.1.2 feedback demotion;
//! * [`correspondent`] — mobile-aware correspondent hosts with a binding
//!   cache fed by ICMP redirects, tunnel observation, and DNS;
//! * [`dns`] — a DNS server/resolver with the paper's proposed temporary-
//!   address record extension (§3.2);
//! * [`dhcp`] — minimal automatic address assignment on visited networks;
//! * [`foreign_agent`] — the optional IETF foreign agent (the paper's own
//!   stack avoids it; provided so its restrictions can be measured);
//! * [`multicast`] — §6.4's trade-off: join via home tunnel vs join on the
//!   local interface;
//! * [`scenario`] — canonical topologies used by the examples, integration
//!   tests and experiment drivers.
//!
//! Everything runs on the deterministic `netsim` simulator with real wire
//! formats, so every claim in the paper can be *measured*, not asserted —
//! see the `bench` crate and `EXPERIMENTS.md` at the repository root.

pub mod addr;
pub mod audit;
pub mod correspondent;
pub mod dhcp;
pub mod dns;
pub mod foreign_agent;
pub mod home_agent;
pub mod mobile_host;
pub mod modes;
pub mod multicast;
pub mod policy;
pub mod registration;
pub mod scenario;

pub use addr::{CareOfAddress, HomeAddress};
pub use audit::{AuditEntry, AuditEvent, AuditTrail, DecisionReason};
pub use correspondent::{BindingSource, ChBinding, ChStats, MobileAwareCh};
pub use home_agent::{Binding, HaStats, HomeAgent, HomeAgentConfig};
pub use mobile_host::{
    move_to, Attachment, Location, MhStats, MobileHost, MobileHostConfig, RegState,
};
pub use modes::{best_combination, classify, CellClass, Combination, Environment, InMode, OutMode};
pub use policy::{CacheStats, MethodEntry, Policy, PolicyConfig, Strategy, Transition};
pub use registration::{RegistrationReply, RegistrationRequest, ReplyCode, REGISTRATION_PORT};

//! The mobile host's mobility layer.
//!
//! A [`MobileHost`] hook gives an ordinary `netsim` host the paper's full
//! machinery:
//!
//! * a **virtual home interface** holding the permanent home address, so
//!   transport endpoints keep working wherever the physical interface is
//!   plugged in (§2);
//! * the **route-override** implementing all four outgoing modes of §4 —
//!   Out-IE (reverse tunnel via the home agent), Out-DE (tunnel direct to
//!   the correspondent), Out-DH (plain packets, home source address),
//!   Out-DT (plain packets, care-of source address);
//! * **source-address selection** at connection setup (§7.1.1): explicit
//!   binds are honoured, port heuristics may pick the care-of address, and
//!   everything else uses the home address;
//! * acceptance of all four incoming modes of §5 (tunnelled via the home
//!   agent, tunnelled directly, plain to the home address on the local
//!   segment, plain to the care-of address);
//! * the **registration protocol** with retransmission and lifetime
//!   refresh, and deregistration + gratuitous ARP on returning home;
//! * the §7.1.2 **transmission-feedback** loop driving the per-
//!   correspondent method cache in [`crate::policy`].
//!
//! Movement itself ([`move_to`]/[`return_home`]) is a physical act —
//! re-plugging the interface — orchestrated at the [`World`] level.

use std::any::Any;
use std::collections::HashMap;

use bytes::Bytes;

use netsim::device::host::{EncapLayer, MobilityHook, RouteDecision};
use netsim::device::TxMeta;
use netsim::wire::encap::{encapsulate, EncapFormat};
use netsim::wire::ethernet::MacAddr;
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use netsim::wire::udp::UdpDatagram;
use netsim::{
    FeedbackEvent, Host, IfaceAddr, IfaceNo, NetCtx, NodeId, SegmentId, SimDuration, SimTime,
    TimerHandle, TransformKind, World,
};

use crate::audit::{AuditEvent, AuditTrail};
use crate::modes::{InMode, OutMode};
use crate::policy::{Policy, PolicyConfig, Transition};
use crate::registration::{RegistrationReply, RegistrationRequest, ReplyCode, REGISTRATION_PORT};

/// Where the mobile host currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Attached to the home network; Mobile IP is dormant.
    AtHome,
    /// Attached to a visited network under this care-of address.
    /// Attached to a visited network under this care-of address.
    Away {
        /// The temporary address obtained on the visited network.
        care_of: Ipv4Addr,
    },
}

/// Registration protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegState {
    /// No current registration.
    Unregistered,
    /// Request sent; awaiting the reply matching `ident`.
    /// Request sent; awaiting the reply matching `ident`.
    Pending {
        /// Identification matching the awaited reply.
        ident: u64,
        /// Attempts made so far.
        tries: u32,
    },
    /// The home agent accepted; binding valid until `expires`.
    /// The home agent accepted; binding valid until `expires`.
    Registered {
        /// When the binding lapses unless refreshed.
        expires: SimTime,
    },
    /// Deregistration sent (returning home); awaiting confirmation.
    /// Deregistration sent (returning home); awaiting confirmation.
    Deregistering {
        /// Identification matching the awaited confirmation.
        ident: u64,
    },
}

/// Mobile-host counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MhStats {
    /// Packets sent Out-IE (reverse tunnel via the home agent).
    pub sent_out_ie: u64,
    /// Packets sent Out-DE (tunnelled directly to the correspondent).
    pub sent_out_de: u64,
    /// Packets sent Out-DH (plain, home source address).
    pub sent_out_dh: u64,
    /// Packets sent Out-DT (plain, care-of source address).
    pub sent_out_dt: u64,
    /// Packets received In-IE (via the home-agent tunnel).
    pub recv_in_ie: u64,
    /// Packets received In-DE (tunnelled directly by the sender).
    pub recv_in_de: u64,
    /// Packets received In-DH (plain, to the home address on-link).
    pub recv_in_dh: u64,
    /// Packets received In-DT (plain, to the care-of address).
    pub recv_in_dt: u64,
    /// Registration requests transmitted (including refreshes).
    pub registrations_sent: u64,
    /// Registration retransmissions.
    pub registration_retries: u64,
    /// Registrations abandoned (denied or unanswered).
    pub registration_failures: u64,
    /// Location changes recorded.
    pub handoffs: u64,
    /// Method-cache demotions driven by §7.1.2 feedback.
    pub demotions: u64,
    /// Method-cache upgrade probes that took effect.
    pub promotions: u64,
}

serde::impl_serialize!(MhStats {
    sent_out_ie,
    sent_out_de,
    sent_out_dh,
    sent_out_dt,
    recv_in_ie,
    recv_in_de,
    recv_in_dh,
    recv_in_dt,
    registrations_sent,
    registration_retries,
    registration_failures,
    handoffs,
    demotions,
    promotions
});

impl MhStats {
    /// Packets sent using the given outgoing mode.
    pub fn sent_by(&self, m: OutMode) -> u64 {
        match m {
            OutMode::IE => self.sent_out_ie,
            OutMode::DE => self.sent_out_de,
            OutMode::DH => self.sent_out_dh,
            OutMode::DT => self.sent_out_dt,
        }
    }

    /// Packets received via the given incoming mode.
    pub fn recv_by(&self, m: InMode) -> u64 {
        match m {
            InMode::IE => self.recv_in_ie,
            InMode::DE => self.recv_in_de,
            InMode::DH => self.recv_in_dh,
            InMode::DT => self.recv_in_dt,
        }
    }
}

/// Static mobile-host configuration.
#[derive(Debug, Clone)]
pub struct MobileHostConfig {
    /// Permanent home address and home-network prefix.
    pub home: IfaceAddr,
    /// The home agent's address.
    pub home_agent: Ipv4Addr,
    /// The physical interface that gets re-plugged on movement.
    pub phys_iface: IfaceNo,
    /// Tunnel format for Out-IE/Out-DE.
    pub encap: EncapFormat,
    /// The §7.1 method-selection policy.
    pub policy: PolicyConfig,
    /// Requested binding lifetime, seconds.
    pub reg_lifetime: u16,
    /// Gap between registration retransmissions.
    pub reg_retry: SimDuration,
    /// Registration attempts before giving up.
    pub reg_max_tries: u32,
    /// When set, operate through this foreign agent: register via it, use
    /// its address as the care-of address, and receive the final hop from
    /// it at the link layer. The paper's own stack avoids this mode —
    /// "foreign agents … restrict the freedom of the mobile host to choose
    /// from the full range of possible optimizations" (§2) — and the
    /// restriction is reproduced: only Out-DH is available.
    pub register_via: Option<Ipv4Addr>,
}

impl MobileHostConfig {
    /// Configuration with sane defaults (IP-in-IP, 300 s lifetime, default policy).
    pub fn new(home: &str, home_agent: Ipv4Addr) -> MobileHostConfig {
        MobileHostConfig {
            home: IfaceAddr::parse(home),
            home_agent,
            phys_iface: 0,
            encap: EncapFormat::IpInIp,
            policy: PolicyConfig::default(),
            reg_lifetime: 300,
            reg_retry: SimDuration::from_millis(1_000),
            reg_max_tries: 5,
            register_via: None,
        }
    }

    /// Replace the method-selection policy.
    pub fn with_policy(mut self, p: PolicyConfig) -> Self {
        self.policy = p;
        self
    }

    /// Select the tunnel format.
    pub fn with_encap(mut self, e: EncapFormat) -> Self {
        self.encap = e;
        self
    }
}

// Hook-timer payloads.
pub(crate) const TIMER_KICK: u64 = 0;
const TIMER_REG_RETRY: u64 = 1;
const TIMER_REG_REFRESH: u64 = 2;

/// The mobile host mobility hook.
pub struct MobileHost {
    config: MobileHostConfig,
    location: Location,
    reg: RegState,
    /// The pending registration-lifecycle timer (retry while `Pending`,
    /// refresh while `Registered`) — cancelled in the scheduler whenever
    /// the state that armed it is resolved. The state guards in
    /// [`MobileHost::on_timer`] remain for same-instant races.
    reg_timer: Option<TimerHandle>,
    policy: Policy,
    next_ident: u64,
    /// Last incoming mode seen per correspondent (diagnostics/experiments).
    pub last_in_mode: HashMap<Ipv4Addr, InMode>,
    /// Counters for experiments.
    pub stats: MhStats,
}

impl MobileHost {
    /// A mobility layer starting at home, unregistered.
    pub fn new(config: MobileHostConfig) -> MobileHost {
        let policy = Policy::new(config.policy.clone());
        MobileHost {
            config,
            location: Location::AtHome,
            reg: RegState::Unregistered,
            reg_timer: None,
            policy,
            next_ident: 1,
            last_in_mode: HashMap::new(),
            stats: MhStats::default(),
        }
    }

    /// Install the mobility layer on `node`: adds the virtual home
    /// interface, enables decapsulation, and sets the hook. The physical
    /// interface (index 0) must already exist.
    pub fn install(world: &mut World, node: NodeId, config: MobileHostConfig) {
        let home = config.home;
        let host = world.host_mut(node);
        host.set_decap_capable(true);
        // The virtual home interface: never attached to a segment; exists
        // so the home address is local for transport demultiplexing.
        let vif = host.add_iface(MacAddr::from_index(0x00f0_0000 + node.0 as u32));
        host.set_iface_addr(
            vif,
            Some(IfaceAddr {
                addr: home.addr,
                prefix: netsim::Ipv4Cidr::host(home.addr),
            }),
        );
        host.set_hook(Box::new(MobileHost::new(config)));
    }

    /// Where the mobile currently is.
    pub fn location(&self) -> Location {
        self.location
    }

    /// The static configuration.
    pub fn config(&self) -> &MobileHostConfig {
        &self.config
    }

    /// Current registration-protocol state.
    pub fn registration_state(&self) -> RegState {
        self.reg
    }

    /// Is there a live binding at the home agent?
    pub fn is_registered(&self) -> bool {
        matches!(self.reg, RegState::Registered { .. })
    }

    /// The current care-of address, when away.
    pub fn care_of(&self) -> Option<Ipv4Addr> {
        match self.location {
            Location::Away { care_of } => Some(care_of),
            Location::AtHome => None,
        }
    }

    /// The outgoing mode the policy would use for `correspondent` right now.
    pub fn mode_for(&mut self, correspondent: Ipv4Addr) -> OutMode {
        self.policy.mode_for(correspondent)
    }

    /// Direct access to the policy (experiments tweak rules at runtime).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.policy
    }

    /// Method-cache hit/miss/eviction/expiry counts since construction —
    /// the decision-quality numbers scale experiments report under cache
    /// pressure.
    pub fn policy_cache_stats(&self) -> crate::policy::CacheStats {
        self.policy.cache_stats()
    }

    /// The mode-decision audit trail: why each method was chosen, every
    /// cache transition, registration step and handoff, timestamped.
    pub fn audit(&self) -> &AuditTrail {
        &self.policy.audit
    }

    /// Record a change of location (the physical re-plugging is the
    /// caller's job — see [`move_to`] and [`crate::dhcp`]). Resets
    /// registration state and the per-correspondent method cache, since
    /// "the permissiveness of the networks over which the packets travel"
    /// has just changed.
    pub fn note_moved(&mut self, location: Location) {
        self.location = location;
        self.reg = RegState::Unregistered;
        self.policy.audit.record(AuditEvent::Handoff {
            care_of: match location {
                Location::Away { care_of } => Some(care_of),
                Location::AtHome => None,
            },
        });
        self.policy.clear_cache();
        self.stats.handoffs += 1;
    }

    fn home(&self) -> Ipv4Addr {
        self.config.home.addr
    }

    fn count_out(&mut self, m: OutMode) {
        match m {
            OutMode::IE => self.stats.sent_out_ie += 1,
            OutMode::DE => self.stats.sent_out_de += 1,
            OutMode::DH => self.stats.sent_out_dh += 1,
            OutMode::DT => self.stats.sent_out_dt += 1,
        }
    }

    fn count_in(&mut self, m: InMode, from: Ipv4Addr) {
        match m {
            InMode::IE => self.stats.recv_in_ie += 1,
            InMode::DE => self.stats.recv_in_de += 1,
            InMode::DH => self.stats.recv_in_dh += 1,
            InMode::DT => self.stats.recv_in_dt += 1,
        }
        self.last_in_mode.insert(from, m);
    }

    fn send_registration(&mut self, lifetime: u16, host: &mut Host, ctx: &mut NetCtx) {
        let (src, care_of, dst) = match (self.location, self.config.register_via) {
            // "Our Mobile IP support software itself communicates using the
            // temporary address when registering" (§6.4).
            (Location::Away { care_of }, None) => (care_of, care_of, self.config.home_agent),
            // Foreign-agent mode: the mobile has no address of its own; it
            // registers through the agent, whose address is the care-of
            // address.
            (Location::Away { .. }, Some(fa)) => (self.home(), fa, fa),
            // Deregistration from home uses the home address itself.
            (Location::AtHome, _) => (self.home(), self.home(), self.config.home_agent),
        };
        let ident = self.next_ident;
        self.next_ident += 1;
        let req = RegistrationRequest {
            lifetime,
            home_address: self.home(),
            home_agent: self.config.home_agent,
            care_of,
            ident,
        };
        let dgram = UdpDatagram::new(
            REGISTRATION_PORT,
            REGISTRATION_PORT,
            Bytes::from(req.emit()),
        );
        let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, Bytes::from(dgram.emit(src, dst)));
        pkt.ident = host.alloc_ident();
        self.stats.registrations_sent += 1;
        self.policy.audit.set_now(ctx.now);
        self.policy
            .audit
            .record(AuditEvent::RegistrationSent { care_of, lifetime });
        self.reg = if lifetime == 0 {
            RegState::Deregistering { ident }
        } else {
            match self.reg {
                RegState::Pending { tries, .. } => RegState::Pending {
                    ident,
                    tries: tries + 1,
                },
                _ => RegState::Pending { ident, tries: 0 },
            }
        };
        host.send_ip(
            ctx,
            pkt,
            TxMeta {
                skip_override: true,
                ..TxMeta::default()
            },
        );
        if let Some(h) = self.reg_timer.take() {
            ctx.cancel_timer(h);
        }
        self.reg_timer = Some(host.request_hook_timer(ctx, self.config.reg_retry, TIMER_REG_RETRY));
    }

    fn handle_registration_reply(
        &mut self,
        pkt: &Ipv4Packet,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> bool {
        let from_agent =
            pkt.src == self.config.home_agent || Some(pkt.src) == self.config.register_via;
        if pkt.protocol != IpProtocol::Udp || !from_agent {
            return false;
        }
        let Ok(dgram) = UdpDatagram::parse_bytes(&pkt.payload, pkt.src, pkt.dst) else {
            return false;
        };
        if dgram.src_port != REGISTRATION_PORT || dgram.dst_port != REGISTRATION_PORT {
            return false;
        }
        let Ok(reply) = RegistrationReply::parse(&dgram.payload) else {
            return true;
        };
        self.policy.audit.set_now(ctx.now);
        match self.reg {
            RegState::Pending { ident, .. } if reply.ident == ident => match reply.code {
                ReplyCode::Accepted => {
                    let expires = ctx.now + SimDuration::from_secs(u64::from(reply.lifetime));
                    self.reg = RegState::Registered { expires };
                    self.policy.audit.record(AuditEvent::RegistrationAccepted {
                        lifetime: reply.lifetime,
                    });
                    // The pending retry is obsolete; replace it with a
                    // refresh at 80% of the granted lifetime.
                    if let Some(h) = self.reg_timer.take() {
                        ctx.cancel_timer(h);
                    }
                    let refresh = SimDuration::from_secs(u64::from(reply.lifetime) * 4 / 5);
                    self.reg_timer = Some(host.request_hook_timer(ctx, refresh, TIMER_REG_REFRESH));
                }
                ReplyCode::Denied => {
                    self.reg = RegState::Unregistered;
                    self.stats.registration_failures += 1;
                    self.policy.audit.record(AuditEvent::RegistrationDenied);
                    if let Some(h) = self.reg_timer.take() {
                        ctx.cancel_timer(h);
                    }
                }
            },
            RegState::Deregistering { ident } if reply.ident == ident => {
                self.reg = RegState::Unregistered;
                if let Some(h) = self.reg_timer.take() {
                    ctx.cancel_timer(h);
                }
            }
            _ => {} // stale or unsolicited
        }
        true
    }

    /// Encapsulate with the configured format, falling back to IP-in-IP
    /// for fragments (which Minimal Encapsulation cannot carry, RFC 2004).
    /// The fallback must never be "send unencapsulated": that would leak
    /// the home source address onto a possibly-filtered path.
    fn encap_with_fallback(
        &mut self,
        outer_src: Ipv4Addr,
        outer_dst: Ipv4Addr,
        pkt: Ipv4Packet,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> Ipv4Packet {
        let ident = host.alloc_ident();
        let mut outer = encapsulate(self.config.encap, outer_src, outer_dst, &pkt, ident)
            .unwrap_or_else(|| {
                encapsulate(EncapFormat::IpInIp, outer_src, outer_dst, &pkt, ident)
                    .expect("IP-in-IP carries anything")
            });
        outer.ttl = netsim::wire::ipv4::DEFAULT_TTL;
        let format = EncapFormat::from_protocol(outer.protocol).unwrap_or(self.config.encap);
        ctx.trace_transform(TransformKind::Encapsulated(format), Some(&pkt), &outer);
        outer
    }

    fn record_transition(&mut self, t: Option<Transition>) {
        match t {
            Some(Transition::Demoted { .. }) => self.stats.demotions += 1,
            Some(Transition::Promoted { .. }) => self.stats.promotions += 1,
            None => {}
        }
    }
}

impl MobilityHook for MobileHost {
    fn route_outgoing(
        &mut self,
        pkt: Ipv4Packet,
        _meta: TxMeta,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> RouteDecision {
        self.policy.audit.set_now(ctx.now);
        let Location::Away { care_of } = self.location else {
            // At home the mobile host "functions like a normal non-mobile
            // Internet host" (§2).
            return RouteDecision::Continue(pkt);
        };

        // Packets already using the care-of address (or still unaddressed,
        // e.g. DHCP) are plain Out-DT traffic: honour them untouched.
        if pkt.src == care_of || pkt.src.is_unspecified() {
            self.count_out(OutMode::DT);
            return RouteDecision::Continue(pkt);
        }

        // Foreign-agent mode: no care-of address of our own, so neither
        // Out-IE nor Out-DE (their outer source would be the agent's
        // address, which we may not use) nor Out-DT exists. Only Out-DH —
        // exactly the §2 restriction.
        if self.config.register_via.is_some() {
            self.count_out(OutMode::DH);
            return RouteDecision::Continue(pkt);
        }

        // Home-address traffic: choose among the three home-address methods.
        // On-link destinations take the single-hop path regardless of the
        // policy cache (§6.3: same-segment delivery involves no routers).
        if host
            .nic()
            .addr(self.config.phys_iface)
            .is_some_and(|a| a.prefix.contains(pkt.dst))
        {
            self.count_out(OutMode::DH);
            return RouteDecision::Continue(pkt);
        }

        let mode = self.policy.mode_for(pkt.dst);
        match mode {
            OutMode::DH | OutMode::DT => {
                self.count_out(OutMode::DH);
                RouteDecision::Continue(pkt)
            }
            OutMode::DE => {
                self.count_out(OutMode::DE);
                let dst = pkt.dst;
                let outer = self.encap_with_fallback(care_of, dst, pkt, host, ctx);
                RouteDecision::Continue(outer)
            }
            OutMode::IE => {
                self.count_out(OutMode::IE);
                let ha = self.config.home_agent;
                let outer = self.encap_with_fallback(care_of, ha, pkt, host, ctx);
                RouteDecision::Continue(outer)
            }
        }
    }

    fn select_source(
        &mut self,
        dst: Ipv4Addr,
        dst_port: Option<u16>,
        bound: Option<Ipv4Addr>,
        host: &Host,
    ) -> Option<Ipv4Addr> {
        let Location::Away { care_of } = self.location else {
            return None; // at home: normal behaviour
        };
        // §7.1.1: an explicit bind is the application stating its wishes.
        if let Some(b) = bound {
            return Some(b);
        }
        // Foreign-agent mode: the home address is the only address we have.
        if self.config.register_via.is_some() {
            return Some(self.home());
        }
        // Privacy mode conceals the care-of address entirely.
        if self.policy.config.privacy {
            return Some(self.home());
        }
        // Port heuristics: HTTP/DNS-style conversations forgo Mobile IP.
        if let Some(port) = dst_port {
            if self.policy.use_dt_for_port(port) {
                self.policy.audit.record(AuditEvent::DtPortShortCircuit {
                    correspondent: dst,
                    port,
                });
                return Some(care_of);
            }
        }
        let _ = (dst, host);
        Some(self.home())
    }

    fn incoming(
        &mut self,
        pkt: Ipv4Packet,
        layers: &[EncapLayer],
        _iface: IfaceNo,
        host: &mut Host,
        ctx: &mut NetCtx,
    ) -> Option<Ipv4Packet> {
        if self.handle_registration_reply(&pkt, host, ctx) {
            return None;
        }
        if let Location::Away { care_of } = self.location {
            let mode = if let Some(outermost) = layers.first() {
                if outermost.outer_src == self.config.home_agent {
                    InMode::IE
                } else {
                    InMode::DE
                }
            } else if pkt.dst == self.home() {
                InMode::DH
            } else if pkt.dst == care_of {
                InMode::DT
            } else {
                return Some(pkt); // broadcast/multicast etc.
            };
            self.count_in(mode, pkt.src);
        }
        Some(pkt)
    }

    fn on_timer(&mut self, payload: u64, host: &mut Host, ctx: &mut NetCtx) {
        if matches!(payload, TIMER_REG_RETRY | TIMER_REG_REFRESH) {
            // The stored handle is the timer now firing; drop it so a later
            // cancellation doesn't touch a recycled slot.
            self.reg_timer = None;
        }
        match payload {
            TIMER_KICK => match self.location {
                Location::Away { .. } => {
                    self.reg = RegState::Unregistered;
                    self.send_registration(self.config.reg_lifetime, host, ctx);
                }
                Location::AtHome => {
                    // Reclaim the home address on the wire, then tell the
                    // home agent to stand down.
                    host.send_gratuitous_arp(ctx, self.config.phys_iface, self.home());
                    self.send_registration(0, host, ctx);
                }
            },
            TIMER_REG_RETRY => {
                if let RegState::Pending { tries, .. } = self.reg {
                    if tries + 1 >= self.config.reg_max_tries {
                        self.reg = RegState::Unregistered;
                        self.stats.registration_failures += 1;
                        self.policy.audit.set_now(ctx.now);
                        self.policy.audit.record(AuditEvent::RegistrationTimeout);
                    } else {
                        self.stats.registration_retries += 1;
                        self.send_registration(self.config.reg_lifetime, host, ctx);
                    }
                }
            }
            TIMER_REG_REFRESH
                if matches!(self.reg, RegState::Registered { .. })
                    && matches!(self.location, Location::Away { .. }) =>
            {
                self.send_registration(self.config.reg_lifetime, host, ctx);
            }
            _ => {}
        }
    }

    fn feedback(&mut self, event: FeedbackEvent, now: SimTime) {
        if matches!(self.location, Location::Away { .. }) {
            self.policy.audit.set_now(now);
            let t = self
                .policy
                .record_feedback(event.peer, event.retransmission);
            self.record_transition(t);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

// ---- movement orchestration ---------------------------------------------------

/// Plug the mobile host into `segment` with the given care-of address and
/// default gateway, then register with the home agent. This is the §2
/// "obtains a temporary 'guest' connection … and registers its new location
/// with its home agent" sequence (address pre-assigned; see [`crate::dhcp`]
/// for automatic assignment).
pub fn move_to(
    world: &mut World,
    node: NodeId,
    segment: SegmentId,
    care_of: &str,
    gateway: Ipv4Addr,
) {
    let coa = IfaceAddr::parse(care_of);
    let phys = {
        let host = world.host_mut(node);
        let hook = host.hook_as::<MobileHost>().expect("MobileHost installed");
        // The filtering landscape differs per network; old conclusions are
        // stale (§7.1.2's history is per-correspondent *and* per-location).
        hook.note_moved(Location::Away { care_of: coa.addr });
        hook.config.phys_iface
    };
    world.reattach(node, phys, segment);
    let host = world.host_mut(node);
    host.set_iface_addr(phys, Some(coa));
    host.clear_routes();
    host.add_route(netsim::Ipv4Cidr::default_route(), phys, Some(gateway));
    // Trigger registration from inside the event loop.
    world.host_do(node, |h, ctx| {
        h.request_hook_timer(ctx, SimDuration::ZERO, TIMER_KICK)
    });
}

/// Plug the mobile host into `segment` served by a foreign agent at
/// `fa_addr`: the mobile gets no address of its own, registers through the
/// agent, and receives tunnelled traffic from it over the final link-layer
/// hop. `gateway` is the segment's ordinary router for outgoing (Out-DH)
/// traffic.
pub fn move_via_foreign_agent(
    world: &mut World,
    node: NodeId,
    segment: SegmentId,
    fa_addr: Ipv4Addr,
    gateway: Ipv4Addr,
) {
    let phys = {
        let host = world.host_mut(node);
        let hook = host.hook_as::<MobileHost>().expect("MobileHost installed");
        hook.config.register_via = Some(fa_addr);
        hook.note_moved(Location::Away { care_of: fa_addr });
        hook.config.phys_iface
    };
    world.reattach(node, phys, segment);
    let host = world.host_mut(node);
    host.set_iface_addr(phys, None); // no guest address at all
    host.clear_routes();
    host.add_route(netsim::Ipv4Cidr::default_route(), phys, Some(gateway));
    world.host_do(node, |h, ctx| {
        h.request_hook_timer(ctx, SimDuration::ZERO, TIMER_KICK)
    });
}

/// Plug the mobile host back into its home segment: restore the home
/// address on the physical interface, deregister, and reclaim the address
/// with gratuitous ARP.
pub fn return_home(
    world: &mut World,
    node: NodeId,
    home_segment: SegmentId,
    home_gateway: Option<Ipv4Addr>,
) {
    let (phys, home) = {
        let host = world.host_mut(node);
        let hook = host.hook_as::<MobileHost>().expect("MobileHost installed");
        hook.config.register_via = None;
        hook.note_moved(Location::AtHome);
        (hook.config.phys_iface, hook.config.home)
    };
    world.reattach(node, phys, home_segment);
    let host = world.host_mut(node);
    host.set_iface_addr(phys, Some(home));
    host.clear_routes();
    if let Some(gw) = home_gateway {
        host.add_route(netsim::Ipv4Cidr::default_route(), phys, Some(gw));
    }
    world.host_do(node, |h, ctx| {
        h.request_hook_timer(ctx, SimDuration::ZERO, TIMER_KICK)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home_agent::{HomeAgent, HomeAgentConfig};
    use crate::policy::Strategy;
    use netsim::wire::icmp::IcmpMessage;
    use netsim::{HostConfig, LinkConfig, RouterConfig};
    use transport::apps::{KeystrokeSession, TcpEchoServer};
    use transport::{tcp, udp};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Canonical little internet:
    ///   home 171.64.15.0/24:   ha(.1) server(.7) gw(.254)   [+ mh at .9]
    ///   visited-a 36.186.0.0/24: gw(.254)                    [coa .99]
    ///   visited-b 128.2.0.0/24:  gw(.254)                    [coa .99]
    ///   ch-net 18.26.0.0/24:   ch(.5) gw(.254)
    /// All joined by one backbone segment.
    struct Net {
        w: World,
        home_seg: SegmentId,
        visited_a: SegmentId,
        visited_b: SegmentId,
        mh: NodeId,
        ha: NodeId,
        ch: NodeId,
        server: NodeId,
    }

    fn build(ch_config: HostConfig) -> Net {
        let mut w = World::new(23);
        let home_seg = w.add_segment(LinkConfig::lan());
        let visited_a = w.add_segment(LinkConfig::lan());
        let visited_b = w.add_segment(LinkConfig::lan());
        let ch_seg = w.add_segment(LinkConfig::lan());
        let backbone = w.add_segment(LinkConfig::wan(15));

        let ha = w.add_host(HostConfig::agent("ha"));
        let server = w.add_host(HostConfig::conventional("server"));
        let ch = w.add_host(ch_config);
        let mh = w.add_host(HostConfig::conventional("mh"));

        let rh = w.add_router(RouterConfig::named("home-gw"));
        let ra = w.add_router(RouterConfig::named("visited-a-gw"));
        let rb = w.add_router(RouterConfig::named("visited-b-gw"));
        let rc = w.add_router(RouterConfig::named("ch-gw"));

        let ha_if = w.attach(ha, home_seg, Some("171.64.15.1/24"));
        w.attach(server, home_seg, Some("171.64.15.7/24"));
        w.attach(rh, home_seg, Some("171.64.15.254/24"));
        w.attach(rh, backbone, Some("192.168.0.1/24"));
        w.attach(ra, visited_a, Some("36.186.0.254/24"));
        w.attach(ra, backbone, Some("192.168.0.2/24"));
        w.attach(rb, visited_b, Some("128.2.0.254/24"));
        w.attach(rb, backbone, Some("192.168.0.3/24"));
        w.attach(rc, ch_seg, Some("18.26.0.254/24"));
        w.attach(rc, backbone, Some("192.168.0.4/24"));
        w.attach(ch, ch_seg, Some("18.26.0.5/24"));
        // MH starts at home.
        w.attach(mh, home_seg, Some("171.64.15.9/24"));
        w.compute_routes();

        HomeAgent::install(
            &mut w,
            ha,
            HomeAgentConfig::new(ip("171.64.15.1"), "171.64.15.0/24".parse().unwrap(), ha_if),
        );
        MobileHost::install(
            &mut w,
            mh,
            MobileHostConfig::new("171.64.15.9/24", ip("171.64.15.1"))
                .with_policy(PolicyConfig::fixed(crate::modes::OutMode::IE)),
        );
        for n in [mh, ch, server] {
            udp::install(w.host_mut(n));
            tcp::install(w.host_mut(n));
        }
        Net {
            w,
            home_seg,
            visited_a,
            visited_b,
            mh,
            ha,
            ch,
            server,
        }
    }

    fn registered(net: &mut Net) -> bool {
        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .is_registered()
    }

    #[test]
    fn moving_away_registers_with_home_agent() {
        let mut net = build(HostConfig::conventional("ch"));
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));
        assert!(registered(&mut net));
        let hook = net.w.host_mut(net.ha).hook_as::<HomeAgent>().unwrap();
        assert_eq!(
            hook.binding(ip("171.64.15.9")).unwrap().care_of,
            ip("36.186.0.99")
        );
    }

    #[test]
    fn ping_to_home_address_follows_the_mobile() {
        let mut net = build(HostConfig::conventional("ch"));
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));
        // Conventional CH pings the home address (Figure 1).
        net.w.host_do(net.ch, |h, ctx| {
            h.send_ping(ctx, ip("18.26.0.5"), ip("171.64.15.9"), 1)
        });
        net.w.run_for(SimDuration::from_secs(2));
        assert!(net.w.host(net.ch).icmp_log.iter().any(|e| matches!(
            e.message,
            IcmpMessage::EchoReply { seq: 1, .. }
        ) && e.from == ip("171.64.15.9")));
        // Incoming was In-IE (via home agent tunnel).
        let hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(hook.stats.recv_in_ie >= 1);
        // Outgoing used the configured Out-IE.
        assert!(hook.stats.sent_out_ie >= 1);
    }

    #[test]
    fn tcp_session_survives_movement_between_networks() {
        // The headline claim (§2): connection durability. A telnet-like
        // session keeps running while the mobile host moves from one
        // visited network to another and back home.
        let mut net = build(HostConfig::conventional("ch"));
        net.w
            .host_mut(net.ch)
            .add_app(Box::new(TcpEchoServer::new(23)));
        net.w.poll_soon(net.ch);

        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));
        assert!(registered(&mut net));

        // Start a keystroke session typing every 500 ms.
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(KeystrokeSession::new(
                (ip("18.26.0.5"), 23),
                SimDuration::from_millis(500),
                40,
            )));
        net.w.poll_soon(net.mh);
        net.w.run_for(SimDuration::from_secs(5));

        // Mid-session handoff to visited network B.
        move_to(
            &mut net.w,
            net.mh,
            net.visited_b,
            "128.2.0.99/24",
            ip("128.2.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(8));

        // And back home again, mid-session.
        return_home(&mut net.w, net.mh, net.home_seg, Some(ip("171.64.15.254")));
        net.w.run_for(SimDuration::from_secs(30));

        let sess = net
            .w
            .host_mut(net.mh)
            .app_as::<KeystrokeSession>(app)
            .unwrap();
        assert!(sess.broken.is_none(), "session broke: {:?}", sess.broken);
        assert!(
            sess.all_echoed(),
            "typed {} echoed {}",
            sess.typed(),
            sess.echoed
        );
        let hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert_eq!(hook.stats.handoffs, 3);
        assert_eq!(hook.location(), Location::AtHome);
    }

    #[test]
    fn port_heuristic_uses_care_of_address_for_http() {
        let mut net = build(HostConfig::conventional("ch"));
        // Default policy has the port-80 heuristic; switch from Fixed(IE).
        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .policy = Policy::new(PolicyConfig::default());
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));

        let srv = tcp::listen(net.w.host_mut(net.ch), None, 80);
        let mh = net.mh;
        let conn = net
            .w
            .host_do(mh, |h, ctx| {
                tcp::connect(h, ctx, (ip("18.26.0.5"), 80), None)
            })
            .unwrap();
        net.w.run_for(SimDuration::from_secs(2));
        // The endpoint is the care-of address: plain Out-DT, no Mobile IP.
        assert_eq!(
            tcp::local_endpoint(net.w.host_mut(mh), conn).0,
            ip("36.186.0.99")
        );
        assert_eq!(
            tcp::state(net.w.host_mut(mh), conn),
            tcp::TcpState::Established
        );
        let accepted = tcp::accept(net.w.host_mut(net.ch), srv).unwrap();
        assert_eq!(
            tcp::remote_endpoint(net.w.host_mut(net.ch), accepted).0,
            ip("36.186.0.99")
        );
        // Telnet (23) still gets the home address.
        let conn2 = net
            .w
            .host_do(mh, |h, ctx| {
                tcp::connect(h, ctx, (ip("18.26.0.5"), 23), None)
            })
            .unwrap();
        assert_eq!(
            tcp::local_endpoint(net.w.host_mut(mh), conn2).0,
            ip("171.64.15.9")
        );
        let hook = net.w.host_mut(mh).hook_as::<MobileHost>().unwrap();
        assert!(hook.stats.sent_out_dt >= 1);
    }

    #[test]
    fn explicit_bind_overrides_heuristics() {
        let mut net = build(HostConfig::conventional("ch"));
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));
        let mh = net.mh;
        // Bind explicitly to the home address even for port 80.
        let c = net
            .w
            .host_do(mh, |h, ctx| {
                tcp::connect(h, ctx, (ip("18.26.0.5"), 80), Some(ip("171.64.15.9")))
            })
            .unwrap();
        assert_eq!(
            tcp::local_endpoint(net.w.host_mut(mh), c).0,
            ip("171.64.15.9")
        );
        // And to the care-of address for port 23.
        let c2 = net
            .w
            .host_do(mh, |h, ctx| {
                tcp::connect(h, ctx, (ip("18.26.0.5"), 23), Some(ip("36.186.0.99")))
            })
            .unwrap();
        assert_eq!(
            tcp::local_endpoint(net.w.host_mut(mh), c2).0,
            ip("36.186.0.99")
        );
    }

    #[test]
    fn privacy_mode_tunnels_everything_through_home() {
        let mut net = build(HostConfig::conventional("ch"));
        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .policy = Policy::new(PolicyConfig::default().with_privacy());
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));

        net.w
            .host_mut(net.ch)
            .add_app(Box::new(TcpEchoServer::new(80)));
        net.w.poll_soon(net.ch);
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(KeystrokeSession::new(
                (ip("18.26.0.5"), 80), // even the "safe DT" port
                SimDuration::from_millis(100),
                5,
            )));
        net.w.poll_soon(net.mh);
        net.w.run_for(SimDuration::from_secs(5));
        let sess = net
            .w
            .host_mut(net.mh)
            .app_as::<KeystrokeSession>(app)
            .unwrap();
        assert!(sess.all_echoed());
        // The correspondent never saw the care-of address on any packet it
        // received: every packet it got came from the home address.
        let coa = ip("36.186.0.99");
        let ch_deliveries = net.w.trace.events().iter().filter(|e| {
            e.node == net.ch && matches!(e.kind, netsim::TraceEventKind::DeliveredLocal)
        });
        for e in ch_deliveries {
            assert_ne!(e.packet.src, coa, "care-of address leaked to CH");
        }
        let hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(hook.stats.sent_out_ie > 0);
        assert_eq!(hook.stats.sent_out_dt, 0);
        assert_eq!(hook.stats.sent_out_dh, 0);
    }

    #[test]
    fn same_segment_correspondent_gets_single_hop_replies() {
        // Row C (§6.3): CH sits on the visited segment with the MH.
        let mut net = build(HostConfig::conventional("ch"));
        let local_ch = net.w.add_host(HostConfig::conventional("local-ch"));
        net.w.attach(local_ch, net.visited_a, Some("36.186.0.5/24"));
        net.w.compute_routes();
        udp::install(net.w.host_mut(local_ch));
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));

        // MH pings the local CH from its home address: must go Out-DH
        // directly on the wire, not through the distant home agent.
        net.w.trace.clear();
        let mh = net.mh;
        net.w.host_do(mh, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.9"), ip("36.186.0.5"), 7)
        });
        net.w.run_for(SimDuration::from_secs(1));
        assert!(net
            .w
            .host(mh)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 7, .. })));
        // Outgoing leg took exactly one wire traversal.
        assert_eq!(
            net.w
                .trace
                .hops(|s| s.dst == ip("36.186.0.5") && s.protocol == IpProtocol::Icmp),
            1
        );
        let hook = net.w.host_mut(mh).hook_as::<MobileHost>().unwrap();
        assert!(hook.stats.sent_out_dh >= 1);
        assert!(hook.stats.sent_out_ie == 0);
    }

    #[test]
    fn registration_retries_then_gives_up_without_home_agent() {
        let mut net = build(HostConfig::conventional("ch"));
        // Sabotage: remove the HA hook so registrations go unanswered.
        net.w.host_mut(net.ha).clear_hook();
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(30));
        let hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(!hook.is_registered());
        assert_eq!(hook.registration_state(), RegState::Unregistered);
        assert!(hook.stats.registration_retries >= 1);
        assert_eq!(hook.stats.registration_failures, 1);
        assert_eq!(
            hook.stats.registrations_sent,
            u64::from(hook.config.reg_max_tries)
        );
    }

    #[test]
    fn binding_refresh_keeps_long_sessions_alive() {
        let mut net = build(HostConfig::conventional("ch"));
        // Short lifetime to force refreshes.
        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .config
            .reg_lifetime = 10;
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(35));
        // Still registered after several lifetimes.
        assert!(registered(&mut net));
        let hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(hook.stats.registrations_sent >= 3, "refreshes happened");
        // And the binding still works.
        net.w.host_do(net.server, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.7"), ip("171.64.15.9"), 2)
        });
        net.w.run_for(SimDuration::from_secs(2));
        assert!(net
            .w
            .host(net.server)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 2, .. })));
    }

    #[test]
    fn returning_home_restores_conventional_operation() {
        let mut net = build(HostConfig::conventional("ch"));
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));
        return_home(&mut net.w, net.mh, net.home_seg, Some(ip("171.64.15.254")));
        net.w.run_for(SimDuration::from_secs(2));

        // HA stood down.
        assert!(!net.w.host(net.ha).intercepts(ip("171.64.15.9")));
        // Direct on-segment ping works and takes one hop each way.
        net.w.trace.clear();
        net.w.host_do(net.server, |h, ctx| {
            h.send_ping(ctx, ip("171.64.15.7"), ip("171.64.15.9"), 9)
        });
        net.w.run_for(SimDuration::from_secs(1));
        assert!(net
            .w
            .host(net.server)
            .icmp_log
            .iter()
            .any(|e| matches!(e.message, IcmpMessage::EchoReply { seq: 9, .. })));
        assert_eq!(
            net.w.trace.hops(|s| s.dst == ip("171.64.15.9")),
            1,
            "no tunnel involved once home"
        );
    }

    #[test]
    fn feedback_demotion_recovers_when_filters_eat_out_dh() {
        // Optimistic MH behind an egress source filter: Out-DH silently
        // fails; the §7.1.2 feedback must demote to Out-DE (also filtered
        // here? no — DE uses the care-of source, which passes) and traffic
        // must flow.
        let mut net = build(HostConfig::decap_capable("ch"));
        // Visited-A's gateway egress-filters foreign sources. Node order in
        // build(): hosts ha=0, server=1, ch=2, mh=3; routers rh=4, ra=5,
        // rb=6, rc=7. ra's iface 0 is the visited LAN, iface 1 the backbone.
        let ra = netsim::NodeId(5);
        let inside: netsim::Ipv4Cidr = "36.186.0.0/24".parse().unwrap();
        net.w
            .router_mut(ra)
            .filters
            .push(netsim::FilterRule::egress_source_filter(1, inside));

        net.w
            .host_mut(net.mh)
            .hook_as::<MobileHost>()
            .unwrap()
            .policy = Policy::new(PolicyConfig {
            default_strategy: Strategy::Optimistic,
            dt_ports: vec![],
            ..PolicyConfig::default()
        });
        move_to(
            &mut net.w,
            net.mh,
            net.visited_a,
            "36.186.0.99/24",
            ip("36.186.0.254"),
        );
        net.w.run_for(SimDuration::from_secs(2));

        net.w
            .host_mut(net.ch)
            .add_app(Box::new(TcpEchoServer::new(23)));
        net.w.poll_soon(net.ch);
        let app = net
            .w
            .host_mut(net.mh)
            .add_app(Box::new(KeystrokeSession::new(
                (ip("18.26.0.5"), 23),
                SimDuration::from_millis(200),
                10,
            )));
        net.w.poll_soon(net.mh);
        net.w.run_for(SimDuration::from_secs(60));

        let sess = net
            .w
            .host_mut(net.mh)
            .app_as::<KeystrokeSession>(app)
            .unwrap();
        assert!(sess.broken.is_none(), "{:?}", sess.broken);
        assert!(
            sess.all_echoed(),
            "typed {} echoed {}",
            sess.typed(),
            sess.echoed
        );
        let hook = net.w.host_mut(net.mh).hook_as::<MobileHost>().unwrap();
        assert!(hook.stats.demotions >= 1, "feedback demoted the mode");
        assert_eq!(hook.policy.mode_for(ip("18.26.0.5")), OutMode::DE);
        assert!(hook.stats.sent_out_dh >= 1, "DH was tried first");
        assert!(hook.stats.sent_out_de >= 1, "DE carried the recovery");
    }
}

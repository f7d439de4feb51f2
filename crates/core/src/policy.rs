//! The mobility policy: which outgoing mode to use for each correspondent.
//!
//! Implements the §7.1 machinery:
//!
//! * a **per-correspondent method cache** — "the mobile host keeps a cache
//!   of the currently selected delivery method associated with each target
//!   IP address … and allows it to build up a history, for each
//!   correspondent host, of which communication methods have proven to be
//!   successful and which have not";
//! * **probing strategies** — optimistic (start at Out-DH, fall back) and
//!   pessimistic (start at Out-IE, tentatively upgrade), both of which the
//!   paper describes and finds individually wasteful;
//! * **user rules** — "specify rules stating which addresses Mobile IP
//!   should begin using in an optimistic mode and which … in a pessimistic
//!   mode … specified similarly to the way routing table entries are
//!   currently specified, as an address and a mask value" (§7.1.2);
//! * **port heuristics** — "connections to port 80 are likely to be HTTP
//!   requests and can safely use Out-DT. Similarly, UDP packets addressed
//!   to UDP port 53 are likely to be DNS requests" (§7.1.1);
//! * **privacy mode** — "mobile users may not wish to reveal their current
//!   location to the correspondent host … sending all outgoing packets
//!   indirectly via the home agent may be the method the user wants" (§4);
//! * **failure detection via transmission feedback** — the §7.1.2 proposal
//!   ("we have not yet implemented this"), implemented here: repeated
//!   retransmission signals demote the method one step toward Out-IE.
//!
//! # Production-scale storage
//!
//! A deployed mobile host talks to an open-ended correspondent population,
//! so the method cache is built like the other hot lookup structures in
//! this repository (`netsim::route`, the NIC ARP cache) rather than as a
//! map of boxed entries:
//!
//! * **Dense slab** — one `Vec` of 32-byte slots, each a correspondent's
//!   address, its two recency links and its [`MethodEntry`] (the "history
//!   of which communication methods have proven … not" successful is a
//!   4-bit mask, since there are only four out-modes). Removing an entry
//!   moves the last slot into the hole.
//! * **Single-probe hash index** — an open-addressing table at ≤ 50 % load
//!   maps correspondent → slab slot in one expected probe; deletions use
//!   backward-shift so no tombstones accumulate.
//! * **Real eviction** — at [`PolicyConfig::cache_cap`] the *least
//!   recently used* entry is evicted (intrusive doubly-linked list, exact
//!   recency order, no clock and therefore no ties), so a flash crowd
//!   of new correspondents displaces only the coldest history instead of
//!   resetting the whole cache. Each eviction leaves an
//!   [`crate::audit::AuditEvent::Evicted`] mark in the audit trail and
//!   bumps the `policy_cache_eviction` counter in `netsim::profile`.
//! * **Rule index** — a §7.1.2 rule list longer than eight rules is
//!   compiled, when the config is set, into per-prefix-length buckets (the
//!   `netsim::route` layout) keyed by `(len, network)` holding the
//!   *lowest* matching rule index, so lookup is O(#populated prefix
//!   lengths) while preserving first-match-wins exactly. The config is
//!   private and changes only through [`Policy::set_config`], which
//!   rebuilds the index, so it can never describe a different rule list.

use netsim::hash::FxHashMap;

use netsim::profile::{self, Counter};
use netsim::{Ipv4Addr, Ipv4Cidr};

use crate::audit::{AuditEvent, AuditTrail, DecisionReason};
use crate::modes::OutMode;

/// Failure signals (retransmissions, either direction) before demoting.
const DEMOTE_THRESHOLD: u32 = 2;

/// Success signals before a pessimistic upgrade probe.
const PROMOTE_AFTER: u32 = 8;

/// How to pick the first home-address delivery method for a correspondent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Start with Out-DH; demote on failure signals.
    Optimistic,
    /// Start with Out-IE; tentatively promote after sustained success.
    Pessimistic,
    /// Always use exactly this mode (no probing).
    Fixed(OutMode),
}

impl Strategy {
    fn initial(self) -> OutMode {
        match self {
            Strategy::Optimistic => OutMode::DH,
            Strategy::Pessimistic => OutMode::IE,
            Strategy::Fixed(m) => m,
        }
    }

    fn probes(self) -> bool {
        !matches!(self, Strategy::Fixed(_))
    }
}

/// Static policy configuration.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Strategy for correspondents no rule covers.
    pub default_strategy: Strategy,
    /// Address/mask rules, first match wins (§7.1.2). E.g. "the entire home
    /// network is a region where Out-IE should always be used" (resources
    /// behind the home firewall).
    pub rules: Vec<(Ipv4Cidr, Strategy)>,
    /// Destination ports for which plain Out-DT is safe (§7.1.1).
    pub dt_ports: Vec<u16>,
    /// Force Out-IE for everything, hiding the mobile's location (§4).
    pub privacy: bool,
    /// Act on the §7.1.2 transmission-feedback signal.
    pub feedback_demotion: bool,
    /// Method-cache entries kept before eviction begins. A mobile that
    /// talks to more correspondents than this (a flash crowd) evicts its
    /// *least recently used* history rather than growing without bound —
    /// the paper's framing of the cache as an LRU-ish scarce resource,
    /// taken literally. Eviction order is exact recency, so behaviour is
    /// deterministic at any scale. `0` disables the cap entirely.
    pub cache_cap: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            default_strategy: Strategy::Pessimistic,
            rules: Vec::new(),
            dt_ports: vec![80, 53],
            privacy: false,
            feedback_demotion: true,
            cache_cap: 4096,
        }
    }
}

impl PolicyConfig {
    /// Start every correspondent at Out-DH (aggressive).
    pub fn optimistic() -> Self {
        PolicyConfig {
            default_strategy: Strategy::Optimistic,
            ..PolicyConfig::default()
        }
    }

    /// Start every correspondent at Out-IE (conservative; the default).
    pub fn pessimistic() -> Self {
        PolicyConfig::default()
    }

    /// Pin every correspondent to one mode; no probing, no DT ports.
    pub fn fixed(mode: OutMode) -> Self {
        PolicyConfig {
            default_strategy: Strategy::Fixed(mode),
            feedback_demotion: false,
            dt_ports: Vec::new(),
            ..PolicyConfig::default()
        }
    }

    /// Append a §7.1.2 address/mask rule (first match wins).
    pub fn with_rule(mut self, prefix: Ipv4Cidr, strategy: Strategy) -> Self {
        self.rules.push((prefix, strategy));
        self
    }

    /// Force Out-IE everywhere, concealing the care-of address (§4).
    pub fn with_privacy(mut self) -> Self {
        self.privacy = true;
        self
    }

    /// Disable the §7.1.1 port heuristics.
    pub fn without_dt_ports(mut self) -> Self {
        self.dt_ports.clear();
        self
    }

    /// Cap the method cache at `cap` correspondents (LRU beyond that).
    pub fn with_cache_cap(mut self, cap: usize) -> Self {
        self.cache_cap = cap;
        self
    }
}

/// Reference first-match rule scan: the §7.1.2 semantics the compiled
/// index must reproduce exactly. Exposed (hidden) for the parity property
/// tests and the `policy` bench group.
#[doc(hidden)]
pub fn rule_match_reference(rules: &[(Ipv4Cidr, Strategy)], dst: Ipv4Addr) -> Option<usize> {
    rules.iter().position(|(p, _)| p.contains(dst))
}

// ---------------------------------------------------------------------------
// Rule index: per-prefix-length LPM buckets
// ---------------------------------------------------------------------------

/// Rule lists at or below this stay uncompiled: a linear first-match over
/// a handful of rules beats hashing and costs no auxiliary heap — the same
/// size discipline as `netsim::route::RouteTable`.
const RULES_LINEAR_MAX: usize = 8;

/// The bucketed-LPM index over the rule list: one map over every rule
/// prefix plus the populated-lengths bitmap lookups scan. Buckets hold the
/// *lowest* rule index installed for their exact prefix, so taking the
/// minimum over all matching lengths reproduces first-match-wins.
#[derive(Debug, Default)]
struct RuleIndex {
    /// `(prefix_len << 32 | network)` → lowest rule index with that prefix.
    buckets: FxHashMap<u64, u32>,
    /// Bit `p` set ⇔ some `/p` rule exists.
    populated: u64,
}

impl RuleIndex {
    fn key(len: u8, network: u32) -> u64 {
        (u64::from(len) << 32) | u64::from(network)
    }

    /// The index for `rules`, or `None` while the list is short enough
    /// that the linear reference scan wins.
    fn build(rules: &[(Ipv4Cidr, Strategy)]) -> Option<Box<RuleIndex>> {
        if rules.len() <= RULES_LINEAR_MAX {
            return None;
        }
        let mut ix = RuleIndex::default();
        for (i, (prefix, _)) in rules.iter().enumerate() {
            let p = prefix.prefix_len();
            ix.buckets
                .entry(RuleIndex::key(p, prefix.network().0))
                .or_insert(i as u32);
            ix.populated |= 1u64 << p;
        }
        Some(Box::new(ix))
    }

    /// Index of the first (lowest-numbered) rule containing `dst`.
    fn first_match(&self, dst: Ipv4Addr) -> Option<usize> {
        let mut best = u32::MAX;
        let mut lens = self.populated;
        while lens != 0 {
            let p = 63 - lens.leading_zeros();
            let network = Ipv4Cidr::new(dst, p as u8).network().0;
            if let Some(&r) = self.buckets.get(&RuleIndex::key(p as u8, network)) {
                best = best.min(r);
            }
            lens &= !(1u64 << p);
        }
        (best != u32::MAX).then_some(best as usize)
    }
}

// ---------------------------------------------------------------------------
// The method cache: slab + single-probe index + intrusive LRU
// ---------------------------------------------------------------------------

/// Niche marker for slab and list links.
const NIL: u32 = u32::MAX;

/// One slab slot: a correspondent, its place in the recency list, and
/// what the policy has learned about it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ip: u32,
    /// Previous (more recent) neighbour, or [`NIL`] at the head.
    prev: u32,
    /// Next (less recent) neighbour, or [`NIL`] at the tail.
    next: u32,
    entry: MethodEntry,
}

/// The per-correspondent store. Slots are stable until an entry is
/// removed (the last slot backfills the hole), and an open-addressing
/// index at ≤ 50 % load maps correspondent address → slot in one expected
/// probe. Recency is an intrusive doubly-linked list over `prev`/`next`,
/// giving exact, deterministic LRU order with O(1) touch and evict.
#[derive(Debug)]
struct MethodCache {
    /// Open-addressing slots holding slab indices (or [`NIL`]).
    index: Vec<u32>,
    slots: Vec<Slot>,
    /// Most recently used slot, [`NIL`] when empty.
    head: u32,
    /// Least recently used slot — the eviction victim.
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl MethodCache {
    fn new() -> MethodCache {
        MethodCache {
            index: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The probe start for `ip`: a multiplicative hash with a mixing shift
    /// so sequential addresses (the common storm pattern) spread.
    fn ideal_slot(&self, ip: u32) -> usize {
        let mut h = ip.wrapping_mul(0x9E37_79B9);
        h ^= h >> 16;
        h as usize & (self.index.len() - 1)
    }

    /// The index position holding slab slot `e`, which must be present.
    fn index_pos(&self, e: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut pos = self.ideal_slot(self.slots[e as usize].ip);
        while self.index[pos] != e {
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// Slab slot of `ip`, if cached. One expected probe at ≤ 50 % load.
    fn find(&self, ip: u32) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut pos = self.ideal_slot(ip);
        loop {
            let e = self.index[pos];
            if e == NIL {
                return None;
            }
            if self.slots[e as usize].ip == ip {
                return Some(e as usize);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Put slab slot `e` into the first free index position on its chain.
    fn index_insert(&mut self, e: u32) {
        let mask = self.index.len() - 1;
        let mut pos = self.ideal_slot(self.slots[e as usize].ip);
        while self.index[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = e;
    }

    /// Insert a brand-new entry (caller guarantees `ip` is absent) and
    /// link it most-recent.
    fn insert(&mut self, ip: u32, entry: MethodEntry) {
        let e = self.slots.len() as u32;
        self.slots.push(Slot {
            ip,
            prev: NIL,
            next: NIL,
            entry,
        });
        if self.slots.len() * 2 > self.index.len() {
            // Double (or create) the index and rehash every live entry.
            let new_len = (self.index.len() * 2).max(16);
            self.index.clear();
            self.index.resize(new_len, NIL);
            (0..=e).for_each(|s| self.index_insert(s));
        } else {
            self.index_insert(e);
        }
        self.push_front(e);
    }

    /// Unlink slab slot `e` from the recency list.
    fn unlink(&mut self, e: u32) {
        let Slot { prev, next, .. } = self.slots[e as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Link slab slot `e` at the most-recent end.
    fn push_front(&mut self, e: u32) {
        self.slots[e as usize].prev = NIL;
        self.slots[e as usize].next = self.head;
        match self.head {
            NIL => self.tail = e,
            h => self.slots[h as usize].prev = e,
        }
        self.head = e;
    }

    /// Mark slab slot `e` as just used: move it to the recency head.
    fn touch(&mut self, e: usize) {
        if self.head != e as u32 {
            self.unlink(e as u32);
            self.push_front(e as u32);
        }
    }

    /// Backward-shift deletion of the index position holding `e`: no
    /// tombstones, so probe chains never degrade.
    fn index_delete(&mut self, e: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.index_pos(e);
        self.index[hole] = NIL;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let occupant = self.index[j];
            if occupant == NIL {
                break;
            }
            let ideal = self.ideal_slot(self.slots[occupant as usize].ip);
            // Move the occupant into the hole iff its probe chain passes
            // through the hole (cyclic distance test).
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = occupant;
                self.index[j] = NIL;
                hole = j;
            }
        }
    }

    /// Remove slab slot `e` entirely: unlink, delete from the index, and
    /// backfill the hole with the last slot (fixing its index position and
    /// list links). Returns the removed slot.
    fn remove(&mut self, e: usize) -> Slot {
        self.unlink(e as u32);
        self.index_delete(e as u32);
        let last = self.slots.len() - 1;
        if e != last {
            let pos = self.index_pos(last as u32);
            self.index[pos] = e as u32;
        }
        let removed = self.slots.swap_remove(e);
        if e != last {
            // Repoint the moved slot's list neighbours (and ends).
            let Slot { prev, next, .. } = self.slots[e];
            match prev {
                NIL => self.head = e as u32,
                p => self.slots[p as usize].next = e as u32,
            }
            match next {
                NIL => self.tail = e as u32,
                n => self.slots[n as usize].prev = e as u32,
            }
        }
        removed
    }

    /// Drop every entry, retaining allocations (movement clears the cache
    /// constantly; re-growing the index each time would dominate).
    fn clear(&mut self) {
        self.index.iter_mut().for_each(|s| *s = NIL);
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

// ---------------------------------------------------------------------------
// Public entry view and cache statistics
// ---------------------------------------------------------------------------

/// One correspondent's state in the method cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodEntry {
    /// The method currently selected for this correspondent.
    pub mode: OutMode,
    strategy: Strategy,
    /// Consecutive failure signals since the last transition.
    fail_signals: u32,
    /// Consecutive success signals since the last transition.
    success_signals: u32,
    /// Bitmask over [`OutMode::index`] of modes demoted away from.
    failed_mask: u8,
    /// Times the method was demoted for this correspondent.
    pub demotions: u32,
    /// Times the method was promoted for this correspondent.
    pub promotions: u32,
}

impl MethodEntry {
    fn new(strategy: Strategy) -> MethodEntry {
        MethodEntry {
            mode: strategy.initial(),
            strategy,
            fail_signals: 0,
            success_signals: 0,
            failed_mask: 0,
            demotions: 0,
            promotions: 0,
        }
    }

    /// Has `mode` already failed for this correspondent ("never re-probed")?
    pub fn has_failed(&self, mode: OutMode) -> bool {
        self.failed_mask & mode.bit() != 0
    }
}

/// Aggregate method-cache statistics, for experiments that measure
/// decision quality under cache pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cache entry.
    pub hits: u64,
    /// Lookups that had to decide afresh (first contact or after loss).
    pub misses: u64,
    /// Entries displaced by the LRU discipline at capacity.
    pub evictions: u64,
    /// Correspondents currently cached.
    pub len: u64,
}

serde::impl_serialize!(CacheStats {
    hits,
    misses,
    evictions,
    len,
});

/// A method change, reported for stats/experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Failure signals pushed the method toward the conservative end.
    Demoted {
        /// The method that was failing.
        from: OutMode,
        /// The more conservative replacement.
        to: OutMode,
    },
    /// Sustained success probed a more aggressive method.
    Promoted {
        /// The method that kept succeeding.
        from: OutMode,
        /// The more aggressive probe now in effect.
        to: OutMode,
    },
}

/// The per-correspondent method cache plus the decision logic.
#[derive(Debug)]
pub struct Policy {
    config: PolicyConfig,
    /// Bucketed LPM over `config.rules`; `None` while the rule list is
    /// small enough that the linear reference scan wins.
    rule_index: Option<Box<RuleIndex>>,
    cache: MethodCache,
    /// The why-was-this-mode-chosen event trail.
    pub audit: AuditTrail,
}

impl Policy {
    /// A policy with an empty method cache.
    pub fn new(config: PolicyConfig) -> Policy {
        Policy {
            rule_index: RuleIndex::build(&config.rules),
            config,
            cache: MethodCache::new(),
            audit: AuditTrail::new(),
        }
    }

    /// The static policy configuration (rules, ports, strategy).
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Replace the configuration, recompiling its rules. Cached methods
    /// are kept; call [`Policy::clear_cache`] to decide afresh.
    pub fn set_config(&mut self, config: PolicyConfig) {
        self.rule_index = RuleIndex::build(&config.rules);
        self.config = config;
    }

    /// Should a conversation to this destination port skip Mobile IP
    /// entirely (Out-DT/In-DT)?
    pub fn use_dt_for_port(&self, port: u16) -> bool {
        !self.config.privacy && self.config.dt_ports.contains(&port)
    }

    /// The index of the first rule covering `correspondent`. Exposed
    /// (hidden) for the `policy` bench group and the compiled-vs-linear
    /// parity tests.
    #[doc(hidden)]
    pub fn rule_match_compiled(&self, correspondent: Ipv4Addr) -> Option<usize> {
        match &self.rule_index {
            Some(ix) => ix.first_match(correspondent),
            None => rule_match_reference(&self.config.rules, correspondent),
        }
    }

    /// The strategy the configuration assigns `correspondent`, and why.
    fn strategy_for(&self, correspondent: Ipv4Addr) -> (Strategy, DecisionReason) {
        if self.config.privacy {
            return (Strategy::Fixed(OutMode::IE), DecisionReason::Privacy);
        }
        match self.rule_match_compiled(correspondent) {
            Some(i) => (self.config.rules[i].1, DecisionReason::Rule),
            None => (self.config.default_strategy, DecisionReason::Default),
        }
    }

    /// The mode to use right now for `correspondent`, creating a cache
    /// entry on first contact (evicting the least recently used
    /// correspondent if the cache is at capacity).
    pub fn mode_for(&mut self, correspondent: Ipv4Addr) -> OutMode {
        if let Some(e) = self.cache.find(correspondent.0) {
            self.cache.hits += 1;
            profile::add(Counter::PolicyCacheHit, 1);
            self.cache.touch(e);
            let mode = self.cache.slots[e].entry.mode;
            self.audit.record(AuditEvent::Decision {
                correspondent,
                mode,
                reason: DecisionReason::CacheHit,
            });
            return mode;
        }
        self.cache.misses += 1;
        profile::add(Counter::PolicyCacheMiss, 1);
        let (strategy, reason) = self.strategy_for(correspondent);
        if self.config.cache_cap > 0 && self.cache.len() >= self.config.cache_cap {
            // Capacity: evict the coldest correspondent, not the world.
            let victim = self.cache.remove(self.cache.tail as usize);
            self.cache.evictions += 1;
            profile::add(Counter::PolicyCacheEviction, 1);
            self.audit.record(AuditEvent::Evicted {
                correspondent: Ipv4Addr(victim.ip),
                mode: victim.entry.mode,
            });
        }
        let entry = MethodEntry::new(strategy);
        self.cache.insert(correspondent.0, entry);
        self.audit.record(AuditEvent::Decision {
            correspondent,
            mode: entry.mode,
            reason,
        });
        entry.mode
    }

    /// Peek at a cache entry (by value). Read-only: does not refresh
    /// recency.
    pub fn entry(&self, correspondent: Ipv4Addr) -> Option<MethodEntry> {
        let e = self.cache.find(correspondent.0)?;
        Some(self.cache.slots[e].entry)
    }

    /// Aggregate hit/miss/eviction counts since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.hits,
            misses: self.cache.misses,
            evictions: self.cache.evictions,
            len: self.cache.len() as u64,
        }
    }

    /// Forget everything (e.g. after moving to a different network, where
    /// the filtering situation may be different).
    pub fn clear_cache(&mut self) {
        if self.cache.len() > 0 {
            self.audit.record(AuditEvent::CacheCleared {
                entries: self.cache.len(),
            });
        }
        self.cache.clear();
    }

    /// Feed in one §7.1.2 transmission-feedback event for `correspondent`.
    /// `retransmission` covers both directions: our retransmissions suggest
    /// our packets are lost; the peer's suggest our acknowledgements are.
    ///
    /// Feedback for a correspondent absent from the cache is dropped; when
    /// evictions have occurred the drop is recorded as
    /// [`AuditEvent::FeedbackIgnored`], since the absent entry may be
    /// history the LRU displaced (silently losing the signal would make
    /// eviction-induced quality loss invisible).
    pub fn record_feedback(
        &mut self,
        correspondent: Ipv4Addr,
        retransmission: bool,
    ) -> Option<Transition> {
        if !self.config.feedback_demotion {
            return None;
        }
        let Some(e) = self.cache.find(correspondent.0) else {
            if self.cache.evictions > 0 {
                self.audit
                    .record(AuditEvent::FeedbackIgnored { correspondent });
            }
            return None;
        };
        // Feedback is evidence of an active conversation: refresh recency
        // so a correspondent we are talking to outlives a flash crowd.
        self.cache.touch(e);
        let entry = &mut self.cache.slots[e].entry;
        let from = entry.mode;
        if retransmission {
            entry.fail_signals += 1;
            entry.success_signals = 0;
            if entry.fail_signals < DEMOTE_THRESHOLD || !entry.strategy.probes() {
                return None;
            }
            let to = from.demote();
            if to == from {
                return None;
            }
            entry.mode = to;
            entry.failed_mask |= from.bit();
            entry.fail_signals = 0;
            entry.demotions += 1;
            self.audit.record(AuditEvent::Demoted {
                correspondent,
                from,
                to,
            });
            Some(Transition::Demoted { from, to })
        } else {
            entry.success_signals += 1;
            entry.fail_signals = 0;
            // Pessimistic upgrade probing: after sustained success,
            // tentatively try the next more aggressive mode, unless it
            // already failed for this correspondent. Either way the count
            // starts afresh.
            if entry.strategy != Strategy::Pessimistic || entry.success_signals < PROMOTE_AFTER {
                return None;
            }
            entry.success_signals = 0;
            let to = from.promote();
            if to == from || entry.has_failed(to) {
                return None;
            }
            entry.mode = to;
            entry.promotions += 1;
            self.audit.record(AuditEvent::Promoted {
                correspondent,
                from,
                to,
            });
            Some(Transition::Promoted { from, to })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }
    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn optimistic_starts_aggressive_pessimistic_starts_safe() {
        let mut p = Policy::new(PolicyConfig::optimistic());
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::DH);
        let mut p = Policy::new(PolicyConfig::pessimistic());
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::IE);
        let mut p = Policy::new(PolicyConfig::fixed(OutMode::DE));
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::DE);
    }

    #[test]
    fn rules_override_default_strategy() {
        // §7.1.2's example: the home network region always starts Out-IE
        // (it sits behind the protective gateway).
        let cfg = PolicyConfig::optimistic()
            .with_rule(cidr("171.64.0.0/16"), Strategy::Pessimistic)
            .with_rule(cidr("18.0.0.0/8"), Strategy::Fixed(OutMode::DE));
        let mut p = Policy::new(cfg);
        assert_eq!(p.mode_for(ip("171.64.7.7")), OutMode::IE);
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::DE);
        assert_eq!(p.mode_for(ip("128.2.0.1")), OutMode::DH); // default
    }

    #[test]
    fn compiled_rules_preserve_first_match_wins() {
        // Past RULES_LINEAR_MAX the bucketed index takes over; shadowed
        // and overlapping prefixes must still resolve to the *first*
        // matching rule, not the longest.
        let mut cfg = PolicyConfig::optimistic();
        cfg = cfg.with_rule(cidr("10.0.0.0/8"), Strategy::Fixed(OutMode::IE)); // rule 0
        cfg = cfg.with_rule(cidr("10.1.0.0/16"), Strategy::Fixed(OutMode::DE)); // shadowed by 0
        for i in 0..16u32 {
            cfg = cfg.with_rule(
                cidr(&format!("172.{}.0.0/16", 16 + i)),
                Strategy::Pessimistic,
            );
        }
        cfg = cfg.with_rule(cidr("172.16.0.0/12"), Strategy::Fixed(OutMode::DE)); // shadowed
        let mut p = Policy::new(cfg.clone());
        assert!(p.rule_match_compiled(ip("9.9.9.9")).is_none());
        // Every destination agrees with the linear reference scan.
        for dst in [
            "10.1.2.3",
            "10.200.0.1",
            "172.16.5.5",
            "172.31.0.1",
            "172.15.0.1",
            "8.8.8.8",
        ] {
            assert_eq!(
                p.rule_match_compiled(ip(dst)),
                rule_match_reference(&cfg.rules, ip(dst)),
                "compiled diverged from first-match at {dst}"
            );
        }
        // The shadowed /16 never wins over the /8 that precedes it.
        assert_eq!(p.mode_for(ip("10.1.2.3")), OutMode::IE);
    }

    #[test]
    fn set_config_recompiles_the_rules() {
        let mut p = Policy::new(
            PolicyConfig::optimistic().with_rule(cidr("18.0.0.0/8"), Strategy::Pessimistic),
        );
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::IE);
        p.set_config(PolicyConfig::fixed(OutMode::DE));
        // Cached methods outlive a config change until the cache is cleared.
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::IE);
        p.clear_cache();
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::DE);
        assert!(!p.use_dt_for_port(80));
        // A compiled rule list (past RULES_LINEAR_MAX) is replaced by the
        // new one, and a short list drops back to the linear scan.
        let many = |first: Strategy| {
            (0..12u32).fold(PolicyConfig::optimistic(), |cfg, i| {
                let s = if i == 0 { first } else { Strategy::Optimistic };
                cfg.with_rule(cidr(&format!("10.{i}.0.0/16")), s)
            })
        };
        p.set_config(many(Strategy::Fixed(OutMode::IE)));
        p.clear_cache();
        assert_eq!(p.mode_for(ip("10.0.0.1")), OutMode::IE);
        p.set_config(many(Strategy::Fixed(OutMode::DE)));
        p.clear_cache();
        assert_eq!(p.mode_for(ip("10.0.0.1")), OutMode::DE);
        p.set_config(PolicyConfig::optimistic());
        p.clear_cache();
        assert_eq!(p.rule_match_compiled(ip("10.0.0.1")), None);
        assert_eq!(p.mode_for(ip("10.0.0.1")), OutMode::DH);
        assert_eq!(p.config().rules.len(), 0);
    }

    #[test]
    fn privacy_forces_indirect_everywhere() {
        let mut p = Policy::new(PolicyConfig::optimistic().with_privacy());
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::IE);
        assert!(!p.use_dt_for_port(80), "privacy disables DT heuristics too");
        // And no amount of success promotes away from IE.
        for _ in 0..100 {
            assert!(p.record_feedback(ip("18.26.0.5"), false).is_none());
        }
        assert_eq!(p.mode_for(ip("18.26.0.5")), OutMode::IE);
    }

    #[test]
    fn port_heuristics_default_to_http_and_dns() {
        let p = Policy::new(PolicyConfig::default());
        assert!(p.use_dt_for_port(80));
        assert!(p.use_dt_for_port(53));
        assert!(!p.use_dt_for_port(23));
        assert!(!p.use_dt_for_port(65535));
        let p = Policy::new(PolicyConfig::default().without_dt_ports());
        assert!(!p.use_dt_for_port(80));
    }

    #[test]
    fn repeated_retransmissions_demote_step_by_step() {
        let mut p = Policy::new(PolicyConfig::optimistic());
        let ch = ip("18.26.0.5");
        assert_eq!(p.mode_for(ch), OutMode::DH);
        assert_eq!(p.record_feedback(ch, true), None); // 1 of 2
        assert_eq!(
            p.record_feedback(ch, true),
            Some(Transition::Demoted {
                from: OutMode::DH,
                to: OutMode::DE
            })
        );
        assert_eq!(p.mode_for(ch), OutMode::DE);
        p.record_feedback(ch, true);
        assert_eq!(
            p.record_feedback(ch, true),
            Some(Transition::Demoted {
                from: OutMode::DE,
                to: OutMode::IE
            })
        );
        assert_eq!(p.mode_for(ch), OutMode::IE);
        // IE is the floor.
        p.record_feedback(ch, true);
        assert_eq!(p.record_feedback(ch, true), None);
        assert_eq!(p.mode_for(ch), OutMode::IE);
        assert_eq!(p.entry(ch).unwrap().demotions, 2);
        assert!(p.entry(ch).unwrap().has_failed(OutMode::DH));
        assert!(p.entry(ch).unwrap().has_failed(OutMode::DE));
    }

    #[test]
    fn success_resets_failure_count() {
        let mut p = Policy::new(PolicyConfig::optimistic());
        let ch = ip("18.26.0.5");
        p.mode_for(ch);
        p.record_feedback(ch, true); // 1 failure
        p.record_feedback(ch, false); // success resets
        p.record_feedback(ch, true); // 1 failure again
        assert_eq!(p.mode_for(ch), OutMode::DH, "no demotion below threshold");
    }

    #[test]
    fn pessimistic_promotes_after_sustained_success() {
        let mut p = Policy::new(PolicyConfig::pessimistic());
        let ch = ip("18.26.0.5");
        assert_eq!(p.mode_for(ch), OutMode::IE);
        let mut transitions = Vec::new();
        for _ in 0..16 {
            if let Some(t) = p.record_feedback(ch, false) {
                transitions.push(t);
            }
        }
        assert_eq!(
            transitions,
            vec![
                Transition::Promoted {
                    from: OutMode::IE,
                    to: OutMode::DE
                },
                Transition::Promoted {
                    from: OutMode::DE,
                    to: OutMode::DH
                },
            ]
        );
        assert_eq!(p.mode_for(ch), OutMode::DH);
    }

    #[test]
    fn failed_mode_is_never_reprobed() {
        let mut p = Policy::new(PolicyConfig::pessimistic());
        let ch = ip("18.26.0.5");
        assert_eq!(p.mode_for(ch), OutMode::IE); // create the cache entry
                                                 // Climb to DH, fail there, drop to DE.
        for _ in 0..16 {
            p.record_feedback(ch, false);
        }
        assert_eq!(p.mode_for(ch), OutMode::DH);
        p.record_feedback(ch, true);
        p.record_feedback(ch, true);
        assert_eq!(p.mode_for(ch), OutMode::DE);
        // Sustained success at DE must NOT climb back into DH.
        for _ in 0..100 {
            p.record_feedback(ch, false);
        }
        assert_eq!(p.mode_for(ch), OutMode::DE);
        assert_eq!(p.entry(ch).unwrap().promotions, 2); // only the original climb
    }

    #[test]
    fn fixed_strategy_never_moves() {
        let mut p = Policy::new(PolicyConfig {
            feedback_demotion: true,
            ..PolicyConfig::fixed(OutMode::DH)
        });
        let ch = ip("18.26.0.5");
        p.mode_for(ch);
        for _ in 0..10 {
            assert!(p.record_feedback(ch, true).is_none());
        }
        assert_eq!(p.mode_for(ch), OutMode::DH);
    }

    #[test]
    fn cache_is_per_correspondent() {
        let mut p = Policy::new(PolicyConfig::optimistic());
        let ch1 = ip("18.26.0.5");
        let ch2 = ip("128.2.0.1");
        p.mode_for(ch1);
        p.mode_for(ch2);
        p.record_feedback(ch1, true);
        p.record_feedback(ch1, true);
        assert_eq!(p.mode_for(ch1), OutMode::DE);
        assert_eq!(p.mode_for(ch2), OutMode::DH, "ch2 unaffected");
        p.clear_cache();
        assert_eq!(p.mode_for(ch1), OutMode::DH, "cleared after move");
    }

    #[test]
    fn audit_trail_explains_every_decision_and_transition() {
        let mut p = Policy::new(
            PolicyConfig::optimistic().with_rule(cidr("171.64.0.0/16"), Strategy::Pessimistic),
        );
        let ch = ip("18.26.0.5");
        assert_eq!(p.mode_for(ch), OutMode::DH); // first contact: default strategy
        assert_eq!(p.mode_for(ch), OutMode::DH); // second lookup: cache hit
        p.record_feedback(ch, true);
        p.record_feedback(ch, true); // demotes DH → DE
        assert_eq!(p.mode_for(ch), OutMode::DE);
        assert_eq!(
            p.audit.decisions_for(ch),
            vec![OutMode::DH, OutMode::DH, OutMode::DE]
        );
        assert_eq!(
            p.audit.last_decision(ch),
            Some((OutMode::DE, DecisionReason::CacheHit))
        );
        let reasons: Vec<DecisionReason> = p
            .audit
            .for_correspondent(ch)
            .filter_map(|e| match e.event {
                AuditEvent::Decision { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(
            reasons,
            vec![
                DecisionReason::Default,
                DecisionReason::CacheHit,
                DecisionReason::CacheHit
            ]
        );
        let transitions = p.audit.transitions();
        assert_eq!(transitions.len(), 1);
        assert!(matches!(
            transitions[0].event,
            AuditEvent::Demoted {
                from: OutMode::DH,
                to: OutMode::DE,
                ..
            }
        ));

        // A rule-covered correspondent records its source as Rule.
        p.mode_for(ip("171.64.7.7"));
        assert_eq!(
            p.audit.last_decision(ip("171.64.7.7")),
            Some((OutMode::IE, DecisionReason::Rule))
        );

        // Clearing the cache leaves a visible mark.
        p.clear_cache();
        assert!(p
            .audit
            .entries()
            .any(|e| matches!(e.event, AuditEvent::CacheCleared { entries: 2 })));
    }

    #[test]
    fn cache_evicts_lru_at_cap_instead_of_resetting() {
        let mut p = Policy::new(PolicyConfig {
            cache_cap: 4,
            ..PolicyConfig::optimistic()
        });
        for i in 0..4u32 {
            p.mode_for(Ipv4Addr(0x0A00_0000 | i));
        }
        // Re-touch .0 so .1 becomes the coldest.
        p.mode_for(Ipv4Addr(0x0A00_0000));
        // A fifth distinct correspondent evicts exactly the LRU entry.
        p.mode_for(Ipv4Addr(0x0A00_0004));
        assert!(p.entry(Ipv4Addr(0x0A00_0001)).is_none(), "LRU evicted");
        for keep in [0u32, 2, 3, 4] {
            assert!(
                p.entry(Ipv4Addr(0x0A00_0000 | keep)).is_some(),
                "hot entry .{keep} must survive"
            );
        }
        assert_eq!(p.cache_stats().evictions, 1);
        assert!(p.audit.entries().any(|e| matches!(
            e.event,
            AuditEvent::Evicted {
                correspondent: Ipv4Addr(0x0A00_0001),
                ..
            }
        )));
    }

    #[test]
    fn flash_crowd_preserves_hot_history() {
        // Hot correspondents with learned demotion history keep it through
        // a flash crowd twice the cache capacity, because every storm
        // entry is colder than the continually re-touched hot set.
        let cap = 64usize;
        let mut p = Policy::new(PolicyConfig {
            cache_cap: cap,
            ..PolicyConfig::optimistic()
        });
        let hot: Vec<Ipv4Addr> = (0..8u32).map(|i| Ipv4Addr(0xC000_0200 | i)).collect();
        for &h in &hot {
            p.mode_for(h);
            p.record_feedback(h, true);
            p.record_feedback(h, true); // DH → DE, one demotion of history
        }
        // The storm: 2× cap distinct cold correspondents, with the hot set
        // touched between bursts (it is actively conversing).
        for burst in 0..(2 * cap as u32) {
            p.mode_for(Ipv4Addr(0x0B00_0000 | burst));
            if burst % 16 == 0 {
                for &h in &hot {
                    p.record_feedback(h, false);
                }
            }
        }
        for &h in &hot {
            let e = p.entry(h).expect("hot correspondent survived the storm");
            assert_eq!(e.demotions, 1, "demotion history preserved");
            assert_eq!(e.mode, OutMode::DE);
        }
        let stats = p.cache_stats();
        assert_eq!(stats.len as usize, cap);
        assert!(stats.evictions >= cap as u64, "storm evicted cold entries");
    }

    #[test]
    fn feedback_for_unknown_correspondent_is_ignored() {
        let mut p = Policy::new(PolicyConfig::optimistic());
        assert_eq!(p.record_feedback(ip("9.9.9.9"), true), None);
        assert!(p.entry(ip("9.9.9.9")).is_none());
        // Before any eviction the drop is silent (nothing was lost).
        assert!(!p
            .audit
            .entries()
            .any(|e| matches!(e.event, AuditEvent::FeedbackIgnored { .. })));
    }

    #[test]
    fn feedback_after_eviction_leaves_a_mark() {
        let mut p = Policy::new(PolicyConfig {
            cache_cap: 2,
            ..PolicyConfig::optimistic()
        });
        let evicted = Ipv4Addr(0x0A00_0001);
        for i in 1..=3u32 {
            p.mode_for(Ipv4Addr(0x0A00_0000 | i)); // third insert evicts .1
        }
        assert!(p.entry(evicted).is_none());
        assert_eq!(p.record_feedback(evicted, true), None);
        assert!(
            p.audit.entries().any(|e| matches!(
                e.event,
                AuditEvent::FeedbackIgnored {
                    correspondent: Ipv4Addr(0x0A00_0001)
                }
            )),
            "post-eviction feedback loss must be visible in the trail"
        );
    }

    #[test]
    fn a_slot_is_32_bytes() {
        // The module header and the 64 B/entry budget both count on it.
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    #[test]
    fn slab_backfill_keeps_index_and_lru_coherent() {
        // Exercise remove()'s backfill path hard: interleaved inserts,
        // touches and evictions over a tiny cap, checking every survivor
        // stays findable and the reported LRU victim is always the true
        // least-recently-used.
        let cap = 8usize;
        let mut p = Policy::new(PolicyConfig {
            cache_cap: cap,
            ..PolicyConfig::optimistic()
        });
        let addr = |i: u32| Ipv4Addr(0x0D00_0000 | i);
        let mut model: Vec<u32> = Vec::new(); // most-recent-first
        for step in 0..512u32 {
            let i = (step * 7) % 24;
            p.mode_for(addr(i));
            model.retain(|&m| m != i);
            model.insert(0, i);
            if model.len() > cap {
                model.pop();
            }
            for &m in &model {
                assert!(p.entry(addr(m)).is_some(), "step {step}: {m} lost");
            }
            assert_eq!(p.cache_stats().len as usize, model.len());
        }
    }
}
